"""scripts/engines_ab.py times the engines of two checkouts in one process."""

import importlib.util
import math
from pathlib import Path

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
