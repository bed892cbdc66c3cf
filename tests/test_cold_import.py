"""The rational module is loaded only when a value is not an integer.

``fractions`` (which imports ``decimal``) costs more of a cold start than
anything else the scalar layer needs, and the checks at the sizes run here
never meet a non-integral rational.  A stray ``Fraction(x)`` anywhere on
their path would silently load it, so each case runs in a fresh interpreter
and reads ``sys.modules`` afterwards."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHECKS = """
import sys
from qcontract import quiver, uq
from qcontract._gf import gf
from qcontract.cartan import ContractiblePair, simply_connected_datum, simply_laced_cartan
from qcontract.falg import FAlgebra

FAlgebra(simply_laced_cartan((1, 2, 3), [(1, 2), (2, 3)])).component((2, 3, 2))
a2 = simply_laced_cartan((1, 2), [(1, 2)])
rep = uq.subquotient_phi_probe(uq.UAlgebra(simply_connected_datum(a2), 8),
                               ContractiblePair(1, 2), 1, epsilon=1)
assert rep["holds"] is True, rep
a2q = quiver.make_quiver((1, 2), [(1, 2)])
contr = quiver.contract_quiver(a2q, quiver.AdmissibleAutomorphism.identity(a2q),
                               quiver.OrbitPair((1,), (2,)))
dims = {1: 1, 2: 1}
assert quiver.count_fiber_lemma_checks(contr, dims, dims, gf(2))["p_prime"]["matches"]
loaded = [m for m in ("fractions", "decimal") if m in sys.modules]
assert not loaded, loaded
"""

WEYL = """
import sys
from qcontract.cartan import (ContractiblePair, WeylEmbedding, enumerate_roots,
                              positive_roots, simply_connected_datum,
                              simply_laced_cartan, weyl_group)
a3 = simply_connected_datum(simply_laced_cartan((1, 2, 3), [(1, 2), (2, 3)]))
assert len(weyl_group(a3)) == 24
rep = WeylEmbedding(a3, ContractiblePair(2, 3)).verify()
assert rep["homomorphism"] and rep["injective"], rep
assert len(positive_roots(a3)) == 6
affine_a2 = simply_connected_datum(
    simply_laced_cartan((1, 2, 3), [(1, 2), (2, 3), (1, 3)]))
assert len(enumerate_roots(affine_a2, height_bound=5)) == 24
loaded = [m for m in ("fractions", "decimal") if m in sys.modules]
assert not loaded, loaded
"""

HALF = """
import sys
from qcontract.scalar import qv, render_scalar
assert "fractions" not in sys.modules
half = qv(1) / 2
from fractions import Fraction
c = half.num.coeffs[0]
assert type(c) is Fraction and c == Fraction(1, 2), c
assert render_scalar(half) == "1/2", render_scalar(half)
"""


def _run(code):
    env = {**os.environ, "PYTHONPATH": "src"}
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_checks_on_integral_values_never_load_fractions():
    _run(CHECKS)


def test_weyl_group_paths_never_load_fractions():
    _run(WEYL)


def test_a_non_integral_value_is_a_fraction():
    _run(HALF)
