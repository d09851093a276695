import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


# lines a demo must print; 04 reads the support from the element's
# nonzero indices, not its values
PINNED = {
    "04_truncation_functor": [
        "e supported on: ['e2'] with e^2 = e",
        "omega_0 = 0 branch: e supported on ['e2.g1'] - still idempotent, corner dim 1",
    ],
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    for line in PINNED.get(demo.stem, []):
        assert line in lines
