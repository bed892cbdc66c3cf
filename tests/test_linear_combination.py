"""The sparse linear-combination arithmetic shared by the element types of f,
its tensor square, U_q, its tensor square and the idempotented form."""
import pytest

from qcontract.cartan import simply_connected_datum, simply_laced_cartan
from qcontract.falg import (
    FAlgebra, FElement, LinearCombination, TensorElement, coproduct_r, one,
    theta,
)
from qcontract.uq import (
    UAlgebra, UdotElement, UElement, UTensor, delta, e_gen, f_gen,
    u_act_udot, udot_idempotent,
)

A2 = simply_laced_cartan((1, 2), [(1, 2)])
FA2 = FAlgebra(A2)
U2 = UAlgebra(simply_connected_datum(A2), 4)

SHARED = {"__init__", "__add__", "__neg__", "__sub__", "scale", "__eq__",
          "__hash__", "__bool__", "is_zero"}
TYPES = (FElement, TensorElement, UElement, UTensor, UdotElement)


def samples():
    """One nonzero element of each type."""
    x = theta(FA2, 1) * theta(FA2, 2)
    u = e_gen(U2, 1) * f_gen(U2, 2)
    return [x, coproduct_r(x), u, delta(u),
            u_act_udot(e_gen(U2, 2), udot_idempotent(U2, (1, 0)))]


def test_every_type_shares_the_base_arithmetic():
    for cls in TYPES:
        assert issubclass(cls, LinearCombination)
        own = SHARED & set(vars(cls))
        # f keeps its degree: __init__ stores nu, __add__ applies the degree rule
        assert own == ({"__init__", "__add__"} if cls is FElement else set())


def test_equal_elements_hash_equally():
    for x in samples():
        y = (x + x).scale(3) - x.scale(5)
        assert y == x and hash(y) == hash(x)
        assert len({x, y}) == 1
        assert x - x == x.scale(0) and hash(x - x) == hash(x.scale(0))
        assert -x == x.scale(-1) and x + (-x) != x


def test_zero_f_elements_of_different_degrees_are_one_element():
    z0, z1 = one(FA2).scale(0), theta(FA2, 1).scale(0)
    assert z0.nu != z1.nu
    assert z0 == z1 and hash(z0) == hash(z1) and len({z0, z1}) == 1


def test_f_degree_rule():
    x, y = theta(FA2, 1), theta(FA2, 2)
    zero = one(FA2).scale(0)
    assert zero + x is x and x + zero is x
    assert x - zero == x and (zero - x) == -x and (zero - x).nu == x.nu
    with pytest.raises(ValueError):
        x + y


def test_zeros_are_falsy_in_every_type():
    for x in samples():
        assert x and not x.is_zero()
        zero = x - x
        assert not zero and zero.is_zero()
    assert not UTensor(U2, {}) and not UdotElement(U2, {})


def test_types_and_algebras_do_not_mix():
    assert UElement(U2, {}) != UTensor(U2, {})
    assert UElement(U2, {}) != UdotElement(U2, {})
    other = FAlgebra(A2)
    x, y = theta(FA2, 1), theta(other, 1)
    assert x != y
    for a, b in ((x, y), (coproduct_r(x), coproduct_r(y))):
        with pytest.raises(ValueError):
            a + b
