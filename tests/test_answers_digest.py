"""scripts/answers_digest.py digests every engine's answers on the perfbench inputs."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("answers_digest",
                                               ROOT / "scripts" / "answers_digest.py")
answers_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(answers_digest)


def test_digest_lines_match_the_dump(tmp_path, capsys):
    dump = tmp_path / "answers.json"
    answers_digest.main(["--seeds", "3", "--pairs", "25", "--dump", str(dump)])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 * (1 + len(answers_digest.ENGINES))
    rows = json.loads(dump.read_text())
    assert sorted(rows) == ["ba-directed/3", "ba-social/3", "er-flat/3"]
    for line in lines:
        name, seed, engine, first, second = line.split()
        per_engine = rows[f"{name}/{seed.removeprefix('seed=')}"]
        if engine == "setup":
            assert first == "index=" + per_engine["setup"]["index"]
            assert second == "network=" + answers_digest.sha(per_engine["setup"]["network"])
            continue
        assert first == "answers=" + answers_digest.sha(per_engine[engine]["answers"])
        assert second == "work=" + answers_digest.sha(per_engine[engine]["work"])
    for per_engine in rows.values():
        truth = [d for d, _ in per_engine["bfs"]["answers"]]
        assert len(truth) == 25 and any(d is not None for d in truth)
        for engine in ("bibfs", "hn", "hl"):
            assert [d for d, _ in per_engine[engine]["answers"]] == truth
    # the same seed gives the same lines
    answers_digest.main(["--seeds", "3", "--pairs", "25"])
    assert capsys.readouterr().out.splitlines() == lines
