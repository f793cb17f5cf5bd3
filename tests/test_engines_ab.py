"""scripts/engines_ab.py times the engines, or the set-up, of two checkouts in one process."""

import importlib.util
import math
from pathlib import Path

import hubpath
from hubpath import engines

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("engines_ab", ROOT / "scripts" / "engines_ab.py")
engines_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(engines_ab)


def test_ab_of_the_checkout_against_itself(capsys, monkeypatch):
    assert engines_ab.main(["--other", str(ROOT), "--seeds", "3", "--pairs", "6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:3] for line in lines] == [
        [name, "seed=3", engine] for name in engines_ab.WORKLOADS for engine in engines_ab.ENGINES]
    for line in lines:
        fields = dict(field.split("=") for field in line.split()[3:])
        assert sorted(fields) == ["mean_ratio", "median_pair_ratio", "other_us", "this_us"]
        assert all(math.isfinite(float(v)) and float(v) > 0 for v in fields.values())
    # a path that differs between the trees fails the run
    stitch = engines._stitch
    monkeypatch.setattr(engines, "_stitch", lambda *args: stitch(*args)[::-1])
    assert engines_ab.main(["--other", str(ROOT), "--seeds", "3", "--pairs", "6"]) == 1
    assert "answers differ" in capsys.readouterr().err


def test_setup_ab_of_the_checkout_against_itself(capsys, monkeypatch):
    argv = ["--other", str(ROOT), "--seeds", "3", "--setup", "--kind", "ba", "--n", "1500"]
    assert engines_ab.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:3] for line in lines] == [
        ["ba-1500", "seed=3", stage] for stage in (*engines_ab.STAGES, "digests")]
    for line in lines[:-1]:
        fields = dict(field.split("=") for field in line.split()[3:])
        assert sorted(fields) == ["other_peak_mb", "other_s", "ratio", "this_peak_mb", "this_s"]
        assert all(math.isfinite(float(v)) and float(v) > 0 for v in fields.values())
    assert lines[-1].split()[3:] == ["index=True", "network=True"]
    # a network that differs between the trees fails the run
    real = hubpath.discover

    def one_more_pair(g, hubs, k):
        net = real(g, hubs, k)
        net.added_per_pair.append(0)
        return net
    monkeypatch.setattr(hubpath, "discover", one_more_pair)
    assert engines_ab.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1].split()[3:] == ["index=True", "network=False"]
    assert "index or network differ" in captured.err
