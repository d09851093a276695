"""sympy is the tests' oracle only: the package never imports it."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# build -> dump -> load -> radical and Wedderburn over GF(101), the
# multicharge's discrete logs and the classification, and a Q pipeline
# through the simple modules, whose idempotents need the Q factor kernel
PIPELINE = """
import json
import sys
from cycbmw import QQ, ParameterSet, presentation, repn
from cycbmw.acceptance import generic_parameters
from cycbmw.combinatorics import Multicharge, classify_cyclotomic
p = generic_parameters(1)
A = presentation.load_algebra(json.loads(presentation.dumps_algebra(
    presentation.build_algebra(3, p))))
rep = repn.wedderburn(A, repn.radical(A))
assert len(rep.blocks) == len(classify_cyclotomic(p, Multicharge.from_parameters(p), 3))
Q = presentation.build_algebra(3, ParameterSet(QQ, 2, 1, [1], admissible=True))
assert repn.simple_modules(Q, repn.wedderburn(Q, repn.radical(Q)))
assert "sympy" not in sys.modules
"""


def test_the_pipeline_never_imports_sympy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", PIPELINE], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
