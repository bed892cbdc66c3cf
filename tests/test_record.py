"""The seven frozen value records (Cartan data, contractible pairs, root data,
Serre components, quiver edges, quivers, orbit pairs): value semantics,
validation on construction, and a cold import that stays free of the
standard library's introspection modules."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qcontract.cartan import (CartanDatum, ContractiblePair, RootDatum,
                              simply_connected_datum)
from qcontract.falg import GradedComponent
from qcontract.quiver import Edge, OrbitPair, Quiver

SRC = Path(__file__).resolve().parent.parent / "src"
A2 = CartanDatum((1, 2), ((2, -1), (-1, 2)))
A2_ROOTS = simply_connected_datum(A2)
EDGE = Edge("a", 1, 2)

# class, its field names in order, values for one instance, hashable or not
RECORDS = [
    (CartanDatum, ("indices", "pairing"), (A2.indices, A2.pairing), True),
    (ContractiblePair, ("plus", "minus"), (1, 2), True),
    (RootDatum, ("cartan", "pairing", "simple_roots_in_X", "simple_coroots_in_Y"),
     (A2, A2_ROOTS.pairing, dict(A2_ROOTS.simple_roots_in_X),
      dict(A2_ROOTS.simple_coroots_in_Y)), False),
    (GradedComponent, ("nu", "words", "basis", "rewrite"),
     ((1, 1), ((1, 2), (2, 1)), ((1, 2), (2, 1)), {}), False),
    (Edge, ("id", "source", "target"), ("a", 1, 2), True),
    (Quiver, ("vertices", "edges"), ((1, 2), (EDGE,)), True),
    (OrbitPair, ("plus", "minus"), ((1,), (2,)), True),
]


@pytest.mark.parametrize("cls, names, values, hashable", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_semantics(cls, names, values, hashable):
    rec, twin = cls(*values), cls(*values)
    body = ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
    assert repr(rec) == f"{cls.__name__}({body})"
    assert tuple(getattr(rec, n) for n in names) == values
    assert rec == twin and not rec != twin
    if hashable:
        assert hash(rec) == hash(twin)
        assert len({rec, twin}) == 1
    else:
        with pytest.raises(TypeError):
            hash(rec)
    assert rec != values
    for other, _, other_values, _ in RECORDS:
        if other is not cls and len(other_values) == len(values):
            try:
                same = other(*values)
            except (ValueError, TypeError, AttributeError, KeyError):
                continue            # the other class rejects these values
            assert rec != same and same != rec
    with pytest.raises(AttributeError):
        setattr(rec, names[0], values[0])
    with pytest.raises(AttributeError):
        delattr(rec, names[-1])
    with pytest.raises(AttributeError):
        rec.unknown = 1
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*values, None)


def test_records_still_validate_on_construction():
    with pytest.raises(ValueError, match="symmetric"):
        CartanDatum((1, 2), ((2, -1), (0, 2)))
    with pytest.raises(ValueError, match="duplicate vertices"):
        Quiver((1, 1), ())
    with pytest.raises(ValueError, match="not perfect"):
        RootDatum(A2, ((1, 0), (0, 2)), A2_ROOTS.simple_roots_in_X,
                  A2_ROOTS.simple_coroots_in_Y)
    with pytest.raises(TypeError):
        hash(A2_ROOTS)


def test_cold_import_loads_neither_dataclasses_nor_inspect():
    # -S: no site, so only what qcontract itself imports can show up
    code = ("import sys, qcontract.uq, qcontract.quiver; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
