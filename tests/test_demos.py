"""The quick demos run end to end, so an API or format change cannot break them silently.

Demos 02 and 04 take several seconds each and are left to be run by hand.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name, expected", [
    ("01_graphs_and_search.py", ""),
    ("03_hub_labeling_index.py", "round trip OK: True"),
])
def test_demo_runs(name, expected):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout
