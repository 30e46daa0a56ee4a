import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtorus.lattice import (
    Sublattice,
    annihilator,
    hnf,
    identity,
    is_alternating,
    kernel,
    matmul,
    primitive,
    rank,
    saturate,
    skew_rank,
)


def zeros(r, c):
    return [[0] * c for _ in range(r)]


def is_hermite(H):
    rows, cols = len(H), len(H[0]) if H else 0
    pivots = []
    last = -1
    for i in range(rows):
        nz = [j for j in range(cols) if H[i][j] != 0]
        if not nz:
            # zero rows must stay at the bottom
            assert all(
                all(H[r][j] == 0 for j in range(cols)) for r in range(i, rows)
            )
            break
        p = nz[0]
        assert p > last
        last = p
        assert H[i][p] > 0
        for r in range(i):
            assert 0 <= H[r][p] < H[i][p]
        pivots.append(p)
    return True


def is_unimodular(U):
    """U is invertible over the integers: its rows span all of Z^n."""
    return Sublattice.span(len(U), U) == Sublattice.full(len(U))


def as_rows(M):
    return [list(row) for row in M]


small_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


def test_hnf_identity():
    H, U = hnf(identity(3))
    assert H == identity(3)
    assert U == identity(3)


def test_hnf_dependent_rows():
    M = [[2, 4], [1, 2]]
    H, U = hnf(M)
    assert H == [[1, 2], [0, 0]]
    assert as_rows(matmul(U, M)) == H
    assert is_unimodular(U)


def test_hnf_swap():
    M = [[0, 1], [1, 0]]
    H, U = hnf(M)
    assert H == [[1, 0], [0, 1]]
    assert as_rows(matmul(U, M)) == H
    assert is_unimodular(U)


def test_ragged_rows_rejected():
    with pytest.raises(ValueError):
        hnf([[1, 2], [3]])
    with pytest.raises(ValueError):
        Sublattice.span(2, [[1, 2], [3]])
    with pytest.raises(ValueError):
        kernel([[1, 2], [3]])


@given(small_matrices)
@settings(max_examples=120, deadline=None)
def test_hnf_contract(rows):
    H, U = hnf(rows)
    assert as_rows(matmul(U, rows)) == H
    assert is_unimodular(U)
    assert is_hermite(H)
    # idempotence
    H2, _ = hnf(H)
    assert H2 == H


@given(small_matrices)
@settings(max_examples=80, deadline=None)
def test_rank_transpose(rows):
    assert rank(rows) == rank(list(zip(*rows)))


def test_rank_examples():
    assert rank(zeros(3, 3)) == 0
    assert rank([[2, 4], [1, 2]]) == 1
    assert rank([[0, 1], [-1, 0]]) == 2
    assert rank([]) == 0
    assert rank([[]]) == 0
    assert rank(zeros(0, 3)) == 0
    assert rank(zeros(3, 0)) == 0
    assert rank([[0, 0], [2**70, 0], [0, 0]]) == 1


def fraction_rank(rows):
    """Rank by Gaussian elimination over Fraction, independent of lattice.rank."""
    work = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(r, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(r + 1, len(work)):
            f = work[i][col] / work[r][col]
            work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        r += 1
    return r


# Entries beyond int64 next to small ones and zeros; extra rows are integer
# combinations of the first ones, so rank-deficient inputs are common.
entries = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(2**90), 2**90))
rank_inputs = st.integers(0, 5).flatmap(
    lambda c: st.tuples(
        st.lists(st.lists(entries, min_size=c, max_size=c), max_size=4),
        st.lists(st.lists(st.integers(-2, 2), min_size=4, max_size=4), max_size=3),
    )
)


@given(rank_inputs)
@settings(max_examples=200, deadline=None)
def test_rank_matches_fraction_elimination(args):
    base, combos = args
    rows = [list(row) for row in base]
    if base:
        for coeffs in combos:
            rows.append([sum(c * x for c, x in zip(coeffs, col)) for col in zip(*base)])
    expected = fraction_rank(rows)
    assert rank(rows) == expected
    assert rank(tuple(tuple(row) for row in rows)) == expected


def test_kernel_zero_matrix():
    k = kernel(zeros(2, 2))
    assert k.rank == 2
    assert k == Sublattice.full(2)


def test_kernel_examples():
    k = kernel([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    assert k.rows == ((0, 0, 1),)
    k2 = kernel([[1, 1]])
    assert k2.rows == ((1, -1),)


@given(small_matrices)
@settings(max_examples=80, deadline=None)
def test_kernel_contract(rows):
    K = kernel(rows)
    for row in K.rows:
        assert all(sum(a * b for a, b in zip(r, row)) == 0 for r in rows)
    assert K.rank + rank(rows) == len(rows[0])
    # saturation: the kernel basis extends to a basis of the ambient lattice
    assert saturate(K) == K


def _check_annihilator(M, n):
    ann = annihilator(M, n)
    assert all(sum(a * b for a, b in zip(r, row)) == 0 for r in M for row in ann)
    assert rank(ann) == len(ann) == n - rank(M)
    K = kernel(M)
    assert (saturate(Sublattice.span(n, ann)) if ann else Sublattice(n)) == K
    return ann


@pytest.mark.parametrize("seed", range(24))
def test_annihilator_spans_the_rational_kernel(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    M = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, n))]
    M.insert(rng.randrange(len(M) + 1), [0] * n)
    M.insert(rng.randrange(len(M) + 1), list(M[rng.randrange(len(M))]))
    _check_annihilator(M, n)
    # completed by the unit vectors, the input has full rank and no annihilator
    assert _check_annihilator(M + identity(n), n) == []


def test_annihilator_examples():
    assert annihilator([[0, 0, 0]], 3) == identity(3)
    assert annihilator([[1, 1], [2, 2]], 2) == [[-1, 1]]
    assert annihilator([[2, 1], [1, 1]], 2) == []


def test_saturate_examples():
    assert saturate(Sublattice.span(2, [[2, 0]])).rows == ((1, 0),)
    assert saturate(Sublattice.span(2, [[2, 4]])).rows == ((1, 2),)
    assert saturate(Sublattice.full(3)) == Sublattice.full(3)
    assert saturate(Sublattice.span(3, [])) == Sublattice.span(3, [])


def test_skew_rank_examples():
    assert skew_rank(zeros(3, 3)) == 0
    assert skew_rank([[0, 1], [-1, 0]]) == 1
    block = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    assert skew_rank(block) == 2


def test_skew_rank_rejects_non_alternating():
    with pytest.raises(ValueError):
        skew_rank([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        skew_rank([[0, 1], [1, 0]])


@given(
    st.integers(2, 5).flatmap(
        lambda n: st.lists(
            st.integers(-5, 5), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2
        ).map(lambda vals: (n, vals))
    )
)
@settings(max_examples=80, deadline=None)
def test_alternating_rank_even(args):
    n, vals = args
    M = zeros(n, n)
    pos = 0
    for i in range(n):
        for j in range(i + 1, n):
            M[i][j] = vals[pos]
            M[j][i] = -vals[pos]
            pos += 1
    assert is_alternating(M)
    assert rank(M) == 2 * skew_rank(M)


def test_sublattice_membership():
    B = Sublattice.span(3, [[1, 0, 1], [0, 2, 0]])
    assert B.contains([1, 2, 1])
    assert not B.contains([1, 1, 1])
    assert not B.contains([0, 0, 1])


def test_primitive():
    assert primitive([2, -4, 6]) == (1, -2, 3)
    assert primitive([-1, 2]) == (1, -2)
    assert primitive([0, 0]) == (0, 0)
