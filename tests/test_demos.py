"""Demos 01-03 run end to end, so an API or format change cannot break them silently.

Demo 02 takes about 4 s on a 2-vCPU VM; demo 04 takes longer and is left to
be run by hand.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name, expected", [
    ("01_graphs_and_search.py", ""),
    ("02_hub_network.py", "0 failures"),
    ("03_hub_labeling_index.py", "round trip OK: True"),
])
def test_demo_runs(name, expected):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout
