import random

import pytest

from qcontract._gf import gf, gl_order


def image_rank(F, A):
    """log_q of the number of distinct products A·x over all column vectors x."""
    ncols = len(A[0])
    images = {F.mat_mul(A, x) for x in F.all_matrices(ncols, 1)}
    k = 0
    while F.q ** k < len(images):
        k += 1
    assert F.q ** k == len(images)
    return k


@pytest.mark.parametrize("q", [2, 3, 4])
def test_mat_rank_matches_image_count(q):
    F = gf(q)
    for A in F.all_matrices(2, 2):
        assert F.mat_rank(A) == image_rank(F, A)
    rng = random.Random(q)
    for shape in ((2, 3), (3, 2), (3, 3), (1, 4)):
        for _ in range(20):
            A = tuple(tuple(rng.randrange(q) for _ in range(shape[1]))
                      for _ in range(shape[0]))
            assert F.mat_rank(A) == image_rank(F, A)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_mat_inv_on_every_2x2(q):
    F = gf(q)
    invertible = 0
    for A in F.all_matrices(2, 2):
        if F.mat_rank(A) < 2:
            with pytest.raises(ZeroDivisionError):
                F.mat_inv(A)
            continue
        invertible += 1
        inv = F.mat_inv(A)
        assert F.mat_mul(A, inv) == F.mat_id(2)
        assert F.mat_mul(inv, A) == F.mat_id(2)
    assert invertible == gl_order(2, q) == len(F.general_linear(2))


@pytest.mark.parametrize("q", [2, 3])
def test_general_linear_is_the_invertible_filter_in_order(q):
    F = gf(q)
    for n in range(4):
        want = [m for m in F.all_matrices(n, n) if F.is_invertible(m)]
        assert F.general_linear(n) == want
        assert len(want) == gl_order(n, q)
