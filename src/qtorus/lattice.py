"""Exact integer matrix algebra: Hermite forms, kernels, saturation, rank.

Matrices are numpy arrays with ``dtype=object`` holding Python ints, so all
arithmetic is arbitrary precision.  Normal-form intermediates grow quickly
even for small matrices, which rules out fixed-width integer dtypes.
``rank`` needs no transform and also takes plain sequences of int rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

import numpy as np


def intmat(rows) -> np.ndarray:
    """Build a 2-d object array of Python ints from a nested sequence."""
    if isinstance(rows, np.ndarray):
        if rows.ndim != 2:
            raise ValueError("expected a 2-d matrix")
        out = np.empty(rows.shape, dtype=object)
        for i in range(rows.shape[0]):
            for j in range(rows.shape[1]):
                out[i, j] = int(rows[i, j])
        return out
    data = [list(r) for r in rows]
    ncols = len(data[0]) if data else 0
    if any(len(r) != ncols for r in data):
        raise ValueError("ragged rows in matrix input")
    out = np.empty((len(data), ncols), dtype=object)
    for i, row in enumerate(data):
        for j, x in enumerate(row):
            out[i, j] = int(x)
    return out


def zeros(r: int, c: int) -> np.ndarray:
    out = np.empty((r, c), dtype=object)
    out[:] = 0
    return out


def identity(n: int) -> np.ndarray:
    out = zeros(n, n)
    for i in range(n):
        out[i, i] = 1
    return out


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


def hnf(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row Hermite normal form with transform.

    Returns (H, U) with U unimodular, U @ M == H, pivots positive and every
    entry above a pivot reduced into [0, pivot).  Zero rows sink to the
    bottom.  The algorithm is deterministic, so H and U are reproducible.
    """
    H = intmat(M)
    nrows, ncols = H.shape
    U = identity(nrows)
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        # Move a nonzero entry into the pivot position.
        piv = None
        for i in range(row, nrows):
            if H[i, col] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != row:
            H[[row, piv]] = H[[piv, row]]
            U[[row, piv]] = U[[piv, row]]
        # Clear below the pivot with 2x2 unimodular transforms.
        for i in range(row + 1, nrows):
            if H[i, col] == 0:
                continue
            a, b = int(H[row, col]), int(H[i, col])
            g, x, y = _xgcd(a, b)
            r0 = x * H[row] + y * H[i]
            r1 = (-b // g) * H[row] + (a // g) * H[i]
            H[row], H[i] = r0, r1
            u0 = x * U[row] + y * U[i]
            u1 = (-b // g) * U[row] + (a // g) * U[i]
            U[row], U[i] = u0, u1
        if H[row, col] < 0:
            H[row] = -H[row]
            U[row] = -U[row]
        # Reduce entries above the pivot into [0, pivot).
        p = int(H[row, col])
        for i in range(row):
            q = H[i, col] // p
            if q:
                H[i] = H[i] - q * H[row]
                U[i] = U[i] - q * U[row]
        row += 1
    return H, U


def hermite(M: np.ndarray) -> np.ndarray:
    return hnf(M)[0]


def rank(M) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination.

    Accepts a 2-d object array or any sequence of integer rows.  No
    transform is built: every entry after a pivot step is a minor of the
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


def det(M: np.ndarray) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    A = intmat(M)
    n, m = A.shape
    if n != m:
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k, k] == 0:
            for i in range(k + 1, n):
                if A[i, k] != 0:
                    A[[k, i]] = A[[i, k]]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i, j] = (A[i, j] * A[k, k] - A[i, k] * A[k, j]) // prev
            A[i, k] = 0
        prev = A[k, k]
    return sign * int(A[n - 1, n - 1])


def kernel_with_complement(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split Z^cols into (right kernel of M) + (a complementary sublattice).

    Row-reduces M^T with a unimodular transform; transform rows mapped to
    zero span the kernel, the remaining rows complete them to a basis of
    Z^cols.  The kernel basis is therefore saturated by construction.
    """
    H, U = hnf(np.ascontiguousarray(intmat(M).T))
    nz = 0
    for i in range(H.shape[0]):
        if any(x != 0 for x in H[i]):
            nz += 1
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
        G = intmat(generators)
        if G.shape[0] and G.shape[1] != ambient_rank:
            raise ValueError("generator length does not match ambient rank")
        if G.shape[0] == 0:
            return Sublattice(ambient_rank, ())
        H, _ = hnf(G)
        rows = tuple(
            tuple(int(x) for x in H[i])
            for i in range(H.shape[0])
            if any(x != 0 for x in H[i])
        )
        return Sublattice(ambient_rank, rows)

    @staticmethod
    def full(n: int) -> "Sublattice":
        return Sublattice.span(n, identity(n))

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def matrix(self) -> np.ndarray:
        if not self.rows:
            return zeros(0, self.ambient_rank)
        return intmat(self.rows)

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


def kernel(M: np.ndarray) -> Sublattice:
    """Saturated basis of {a : M @ a = 0} inside Z^cols."""
    K, _ = kernel_with_complement(M)
    return Sublattice.span(intmat(M).shape[1], K)


def saturate(B: Sublattice) -> Sublattice:
    """Smallest sublattice with the same rational span and torsion-free quotient.

    Double orthogonal complement: the saturation is the integer kernel of
    (a basis of) the kernel of the generators.
    """
    K = kernel(B.matrix)
    if K.rank == 0:
        return Sublattice.full(B.ambient_rank)
    return kernel(K.matrix)


def is_alternating(M: np.ndarray) -> bool:
    A = intmat(M)
    n, m = A.shape
    if n != m:
        return False
    for i in range(n):
        if A[i, i] != 0:
            return False
        for j in range(i + 1, n):
            if A[i, j] != -A[j, i]:
                return False
    return True


def skew_rank(M: np.ndarray) -> int:
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
