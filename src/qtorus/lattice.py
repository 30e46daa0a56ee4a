"""Exact integer matrix algebra: Hermite forms, kernels, saturation, rank.

Two kernel routines serve two needs.  ``kernel_with_complement`` builds a
unimodular Hermite transform, so its kernel is saturated and its
complement completes it to a basis of Z^cols; use it where saturation or
a Z-complement matters.  ``annihilator`` builds no transform: its
fraction-free rows span the kernel over Q only, which is all a rank over Q
needs.

A matrix is a sequence of rows of Python ints, so all arithmetic is
arbitrary precision.  Normal-form intermediates grow quickly even for small
matrices, which rules out fixed-width integer types.  Functions accept any
sequence of integer rows.  ``hnf`` and the kernel split return lists of int
lists; products, and everything stored or hashed (``Sublattice.rows``, the
forms of a pairing), are tuples of int tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from operator import mul


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(A, B) -> tuple[tuple[int, ...], ...]:
    """Exact product A·B; A without rows gives the empty matrix."""
    cols = tuple(zip(*B))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in A)


def congruence(C, M) -> tuple[tuple[int, ...], ...]:
    """C·M·Cᵀ: the form M in the coordinates given by the rows of C.

    M must be alternating, or alternating mod some m.  C·M is computed
    once, and of (C·M)·Cᵀ only the strict upper triangle, mirrored with
    the opposite sign; the diagonal is zero.  Zero columns of M add nothing
    to either product, so both run over the other columns only, and a zero
    row of C·M leaves its row of the result zero.

    For M alternating the result is exactly C·M·Cᵀ.  For T = M alternating
    mod m it has the same residues mod m: the full product's diagonal is
    Σ c_s² T_ss + Σ_{s<t} c_s c_t (T_st + T_ts) ≡ 0, and each off-diagonal
    pair sums to Σ c_is c_jt (T_st + T_ts) ≡ 0, so mirroring and reducing
    mod m gives the full product's residues.
    """
    m = len(C)
    live = [(t, col) for t, col in enumerate(zip(*M)) if any(col)]
    CM = [[sum(map(mul, row, col)) for _, col in live] for row in C]
    Cl = C if len(live) == len(M) else [[row[t] for t, _ in live] for row in C]
    R = [[0] * m for _ in range(m)]
    for i, row in enumerate(CM):
        if any(row):
            for j in range(i + 1, m):
                x = sum(map(mul, row, Cl[j]))
                R[i][j] = x
                R[j][i] = -x
    return tuple(map(tuple, R))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def _mix(A: list[list[int]], i: int, j: int, x: int, y: int, c: int, d: int) -> None:
    """Replace rows i and j of A by x*A[i] + y*A[j] and c*A[i] + d*A[j]."""
    ri, rj = A[i], A[j]
    A[i] = [x * s + y * t for s, t in zip(ri, rj)]
    A[j] = [c * s + d * t for s, t in zip(ri, rj)]


def hnf(M) -> tuple[list[list[int]], list[list[int]]]:
    """Row Hermite normal form with transform.

    Returns (H, U) with U unimodular, U·M == H, pivots positive and every
    entry above a pivot reduced into [0, pivot).  Zero rows sink to the
    bottom.  The algorithm is deterministic, so H and U are reproducible.
    """
    H = [[int(x) for x in row] for row in M]
    nrows = len(H)
    ncols = len(H[0]) if H else 0
    if any(len(row) != ncols for row in H):
        raise ValueError("ragged rows in matrix input")
    U = identity(nrows)
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        # Move a nonzero entry into the pivot position.
        piv = next((i for i in range(row, nrows) if H[i][col]), None)
        if piv is None:
            continue
        if piv != row:
            H[row], H[piv] = H[piv], H[row]
            U[row], U[piv] = U[piv], U[row]
        # Clear below the pivot with 2x2 unimodular transforms.
        for i in range(row + 1, nrows):
            if H[i][col] == 0:
                continue
            a, b = H[row][col], H[i][col]
            g, x, y = _xgcd(a, b)
            _mix(H, row, i, x, y, -b // g, a // g)
            _mix(U, row, i, x, y, -b // g, a // g)
        if H[row][col] < 0:
            H[row] = [-s for s in H[row]]
            U[row] = [-s for s in U[row]]
        # Reduce entries above the pivot into [0, pivot).
        p = H[row][col]
        for i in range(row):
            q = H[i][col] // p
            if q:
                H[i] = [s - q * t for s, t in zip(H[i], H[row])]
                U[i] = [s - q * t for s, t in zip(U[i], U[row])]
        row += 1
    return H, U


def rank(M) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination.

    No transform is built: every entry after a pivot step is a minor of the
    input, so each division by the previous pivot is exact and the rows
    stay Python ints of bounded size.  Each step eliminates the leading
    column and drops it, together with rows that become zero; a matrix with
    more rows than columns is transposed first, so fewer rows are rebuilt.
    """
    rows = [row for row in (list(map(int, row)) for row in M) if any(row)]
    if rows and len(rows) > len(rows[0]):
        rows = [row for row in map(list, zip(*rows)) if any(row)]
    r = 0
    prev = 1
    while rows:
        for top in rows:
            if top[0]:
                break
        else:
            rows = [row[1:] for row in rows]
            continue
        rows.remove(top)
        p, tail = top[0], top[1:]
        reduced = []
        for row in rows:
            a = row[0]
            if a:
                row = [(p * x - a * y) // prev for x, y in zip(row[1:], tail)]
            elif p != prev:
                row = [p * x // prev for x in row[1:]]
            else:
                row = row[1:]
            if any(row):
                reduced.append(row)
        rows = reduced
        prev = p
        r += 1
    return r


def annihilate(ann: list, vec) -> list | None:
    """Annihilator rows of span + ``vec``; None when ``vec`` is in the span.

    ``ann`` is an integer basis of the vectors orthogonal to a span S.  Since
    S = ann(ann(S)) over Q, ``vec`` is dependent exactly when every row·vec
    is 0.  Otherwise, with j the first row of nonzero product p, the rows
    p·row_k - (row_k·vec)·row_j (k != j) are orthogonal to S and to vec, and
    independent because each has the coefficient p on its own row_k: a basis
    of ann(S + vec), one row shorter.  Each is divided by its content.  No
    transform is built, and the rows span ann(S + vec) over Q only: they
    need not be saturated.
    """
    for j, pivot in enumerate(ann):
        p = sum(map(mul, pivot, vec))
        if p:
            break
    else:
        return None
    grown = ann[:j]
    for row in ann[j + 1 :]:
        q = sum(map(mul, row, vec))
        if q:
            row = [p * x - q * y for x, y in zip(row, pivot)]
            g = gcd(*row)
            row = [x // g for x in row]
        grown.append(row)
    return grown


def annihilator(rows, n: int) -> list[list[int]]:
    """Integer rows spanning {a in Q^n : row·a = 0 for every row}, over Q.

    ``annihilate`` folded over ``rows`` from the identity: n - rank(rows)
    independent rows, no transform and no saturation.
    """
    ann = identity(n)
    for row in rows:
        grown = annihilate(ann, row)
        if grown is not None:
            ann = grown
    return ann


def kernel_with_complement(M) -> tuple[list[list[int]], list[list[int]]]:
    """Split Z^cols into (right kernel of M) + (a complementary sublattice).

    Row-reduces M^T with a unimodular transform; transform rows mapped to
    zero span the kernel, the remaining rows complete them to a basis of
    Z^cols.  The kernel basis is therefore saturated by construction.  M
    needs at least one row, which fixes the number of columns.
    """
    if any(len(row) != len(M[0]) for row in M):
        raise ValueError("ragged rows in matrix input")
    H, U = hnf(list(zip(*M)))
    nz = sum(1 for row in H if any(row))
    return U[nz:], U[:nz]


@dataclass(frozen=True)
class Sublattice:
    """A subgroup of Z^n given by generator rows in canonical Hermite form.

    ``rows`` never contains zero rows, so ``rank == len(rows)``.  Two
    Sublattice values are equal iff they describe the same subgroup.
    """

    ambient_rank: int
    rows: tuple[tuple[int, ...], ...] = field(default=())

    @staticmethod
    def span(ambient_rank: int, generators) -> "Sublattice":
        H, _ = hnf(generators)
        if H and len(H[0]) != ambient_rank:
            raise ValueError("generator length does not match ambient rank")
        return Sublattice(ambient_rank, tuple(tuple(row) for row in H if any(row)))

    @staticmethod
    def full(n: int) -> "Sublattice":
        return Sublattice.span(n, identity(n))

    @property
    def rank(self) -> int:
        return len(self.rows)

    def contains(self, vector) -> bool:
        """Exact membership test against the Hermite basis."""
        v = [int(x) for x in vector]
        if len(v) != self.ambient_rank:
            raise ValueError("vector length does not match ambient rank")
        for row in self.rows:
            p = next(j for j, x in enumerate(row) if x != 0)
            if v[p] % row[p] != 0:
                return False
            q = v[p] // row[p]
            if q:
                v = [a - q * b for a, b in zip(v, row)]
        return all(x == 0 for x in v)

    def scaled(self, factor: int) -> "Sublattice":
        return Sublattice.span(self.ambient_rank, [[factor * x for x in r] for r in self.rows])

    def to_json(self) -> list[list[int]]:
        return [list(r) for r in self.rows]


def kernel(M) -> Sublattice:
    """Saturated basis of {a : M·a = 0} inside Z^cols; M needs at least one row."""
    K, _ = kernel_with_complement(M)
    return Sublattice.span(len(M[0]), K)


def saturate(B: Sublattice) -> Sublattice:
    """Smallest sublattice with the same rational span and torsion-free quotient.

    Double orthogonal complement: the saturation is the integer kernel of
    (a basis of) the kernel of the generators.
    """
    if B.rank == 0:
        return B
    K = kernel(B.rows)
    if K.rank == 0:
        return Sublattice.full(B.ambient_rank)
    return kernel(K.rows)


def is_alternating(M) -> bool:
    n = len(M)
    if any(len(row) != n for row in M):
        return False
    for i in range(n):
        if M[i][i] != 0:
            return False
        for j in range(i + 1, n):
            if M[i][j] != -M[j][i]:
                return False
    return True


def skew_rank(M) -> int:
    """Half the matrix rank of an alternating form (the rank is always even)."""
    if not is_alternating(M):
        raise ValueError("matrix is not alternating")
    r = rank(M)
    if r % 2:
        raise AssertionError("alternating form with odd rank")  # unreachable
    return r // 2


def content(vector) -> int:
    g = 0
    for x in vector:
        g = gcd(g, int(x))
    return g


def primitive(vector) -> tuple[int, ...]:
    """Canonical representative of a lattice direction.

    Divides by the content and flips signs so the first nonzero entry is
    positive; the zero vector is returned unchanged.
    """
    v = [int(x) for x in vector]
    g = content(v)
    if g == 0:
        return tuple(v)
    v = [x // g for x in v]
    lead = next(x for x in v if x != 0)
    if lead < 0:
        v = [-x for x in v]
    return tuple(v)
