"""Multiparameter matrices and the commutator pairing they induce on Z^n.

A multiparameter matrix stores the pairwise commutation scalars of n
invertible generators in exponent notation.  Because the commutator of two
monomials is biadditive in the exponents, it is entirely described by one
integer alternating form per free scalar generator plus one alternating
form modulo the torsion order.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from operator import add, mul

from .lattice import Sublattice, congruence, is_alternating, kernel
from .valuegroup import GroupElement, ValueGroup, ValueGroupError, embed, merge


class PairingError(ValueError):
    pass


# Elements are immutable, so equal ones can be one object.  Matrices built
# by ``MultiparameterMatrix.from_upper`` and ``tensor`` draw their entries
# from this pool; an element leaves it once no matrix refers to it.
_POOL: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _shared(e: GroupElement) -> GroupElement:
    """The pooled element equal to ``e``; ``e`` itself joins the pool if new."""
    return _POOL.setdefault((e.group, e.free, e.torsion), e)


@dataclass(frozen=True)
class MultiparameterMatrix:
    """n x n multiplicatively antisymmetric matrix over a value group."""

    rank: int
    value_group: ValueGroup
    entries: tuple[tuple[GroupElement, ...], ...]

    def __post_init__(self):
        n = self.rank
        if n < 1:
            raise PairingError("rank must be >= 1")
        if len(self.entries) != n or any(len(r) != n for r in self.entries):
            raise PairingError("entry grid must be rank x rank")
        for i in range(n):
            for j in range(n):
                e = self.entries[i][j]
                if e.group != self.value_group:
                    raise PairingError("entry belongs to a different value group")
        # The loop above put every entry in this group: one free length, residues mod m.
        m = self.value_group.torsion_order
        for i in range(n):
            if not self.entries[i][i].is_identity():
                raise PairingError(f"diagonal entry ({i + 1},{i + 1}) must be the identity")
            for j in range(i + 1, n):
                a, b = self.entries[i][j], self.entries[j][i]
                if (a.torsion + b.torsion) % m or any(map(add, a.free, b.free)):
                    raise PairingError(
                        f"entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) are not inverse"
                    )

    @staticmethod
    def from_upper(
        rank: int, value_group: ValueGroup, upper: dict[tuple[int, int], GroupElement]
    ) -> "MultiparameterMatrix":
        """Build from entries given only for i < j (1-based); the rest follows."""
        ident = _shared(value_group.identity())
        grid = [[ident for _ in range(rank)] for _ in range(rank)]
        for (i, j), e in upper.items():
            if not (1 <= i < j <= rank):
                raise PairingError(f"upper entry index ({i},{j}) out of range")
            grid[i - 1][j - 1] = _shared(e)
            grid[j - 1][i - 1] = _shared(-e)
        return MultiparameterMatrix(rank, value_group, tuple(tuple(r) for r in grid))

    def entry(self, i: int, j: int) -> GroupElement:
        """1-based access to the commutation scalar of generators i and j."""
        return self.entries[i - 1][j - 1]

    def is_commutative_matrix(self) -> bool:
        return all(e.is_identity() for row in self.entries for e in row)


def transpose(mat: MultiparameterMatrix) -> MultiparameterMatrix:
    flipped = tuple(
        tuple(mat.entries[j][i] for j in range(mat.rank)) for i in range(mat.rank)
    )
    return MultiparameterMatrix(mat.rank, mat.value_group, flipped)


def tensor(
    m1: MultiparameterMatrix, m2: MultiparameterMatrix, mode: str = "shared"
) -> MultiparameterMatrix:
    """Multiparameter matrix of the tensor product algebra.

    The result has block structure: each factor keeps its own commutation
    scalars (pushed through the merged value group) and generators from
    different blocks commute.
    """
    try:
        group, emb1, emb2 = merge(m1.value_group, m2.value_group, mode)
    except ValueGroupError as exc:
        raise PairingError(str(exc)) from exc
    n1, n2 = m1.rank, m2.rank
    ident = _shared(group.identity())
    grid = [[ident] * (n1 + n2) for _ in range(n1 + n2)]
    for i, row in enumerate(_placed(m1, group, emb1)):
        grid[i][:n1] = row
    for i, row in enumerate(_placed(m2, group, emb2)):
        grid[n1 + i][n1:] = row
    return MultiparameterMatrix(n1 + n2, group, tuple(tuple(r) for r in grid))


def _placed(mat: MultiparameterMatrix, group: ValueGroup, emb: tuple[int, ...]):
    """The entry rows of a tensor factor, as elements of the merged group.

    When the factor's group already is the merged group and its embedding
    is the identity (shared mode over the same scalars), the entries are
    taken as they are; otherwise each is embedded and pooled.
    """
    if mat.value_group == group and emb == tuple(range(group.free_rank)):
        return mat.entries
    return [[_shared(embed(e, group, emb)) for e in row] for row in mat.entries]


@dataclass(frozen=True)
class Pairing:
    """The commutator pairing Z^n x Z^n -> value group, in matrix form.

    ``free_forms[l][i][j]`` is the exponent of the l-th free generator in
    the commutation scalar of generators i+1 and j+1; ``torsion_form`` holds
    the torsion residues.  Every form is a tuple of int tuples, and all
    forms are alternating.
    """

    rank: int
    value_group: ValueGroup
    free_forms: tuple[tuple[tuple[int, ...], ...], ...]
    torsion_form: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for M in self.free_forms:
            if len(M) != self.rank or not is_alternating(M):
                raise PairingError("free form is not alternating of the right size")
        T = self.torsion_form
        m = self.value_group.torsion_order
        if len(T) != self.rank or any(len(row) != self.rank for row in T):
            raise PairingError("torsion form has the wrong size")
        for i in range(self.rank):
            if T[i][i] % m != 0:
                raise PairingError("torsion form has nonzero diagonal")
            for j in range(self.rank):
                if (T[i][j] + T[j][i]) % m != 0:
                    raise PairingError("torsion form is not alternating mod m")

    def commutator(self, a, b) -> GroupElement:
        """Value of the pairing on two exponent vectors."""
        a = [int(x) for x in a]
        b = [int(x) for x in b]
        if len(a) != self.rank or len(b) != self.rank:
            raise PairingError("vector length does not match the pairing rank")
        free = tuple(_evaluate(a, M, b) for M in self.free_forms)
        return GroupElement(self.value_group, free, _evaluate(a, self.torsion_form, b))


def _evaluate(a: list[int], M, b: list[int]) -> int:
    """The bilinear form M on the vectors a and b."""
    return sum(x * sum(map(mul, row, b)) for x, row in zip(a, M))


def pairing_of(mat: MultiparameterMatrix) -> Pairing:
    rows = mat.entries
    forms = tuple(
        tuple(tuple(e.free[l] for e in row) for row in rows)
        for l in range(mat.value_group.free_rank)
    )
    torsion = tuple(tuple(e.torsion for e in row) for row in rows)
    return Pairing(mat.rank, mat.value_group, forms, torsion)


def is_commutative(pairing: Pairing, B: Sublattice) -> bool:
    """Whether the pairing vanishes on the sublattice: the restriction is zero.

    Torsion residues included; a sublattice of rank below 2 always commutes.
    Each form is restricted (``congruence``) and checked on its own, the
    torsion form by its residues mod m, and the first nonzero one decides,
    so no ``Pairing`` of the restricted forms is built or validated.
    """
    if B.ambient_rank != pairing.rank:
        raise PairingError("sublattice ambient rank does not match the pairing rank")
    if B.rank < 2:
        return True
    for M in pairing.free_forms:
        if any(map(any, congruence(B.rows, M))):
            return False
    m = pairing.value_group.torsion_order
    return not any(x % m for row in congruence(B.rows, pairing.torsion_form) for x in row)


def radical(pairing: Pairing) -> Sublattice:
    """Saturated sublattice of vectors pairing trivially with everything.

    Computed from the free forms only: a torsion obstruction on a vector a
    disappears for m*a, and passing to a finite-index subgroup changes
    neither the center test nor the dimension, so the radical is the common
    rational kernel of the free forms intersected with Z^n.
    """
    if not pairing.free_forms:
        return Sublattice.full(pairing.rank)
    return kernel([row for M in pairing.free_forms for row in M])


def center_is_trivial(pairing: Pairing) -> bool:
    """True iff the algebra's center is just the scalars (radical rank 0)."""
    return radical(pairing).rank == 0


def restrict(pairing: Pairing, B: Sublattice) -> Pairing:
    """Pairing induced on a sublattice, in the coordinates of its generators.

    B is used exactly as given; callers restricting to finite-index
    sublattices do so deliberately and no saturation is applied.
    """
    if B.ambient_rank != pairing.rank:
        raise PairingError("sublattice ambient rank does not match the pairing rank")
    if B.rank < 1:
        raise PairingError("cannot restrict to a rank-0 sublattice")
    m = pairing.value_group.torsion_order
    forms = tuple(congruence(B.rows, M) for M in pairing.free_forms)
    T = congruence(B.rows, pairing.torsion_form)
    T = tuple(tuple(x % m for x in row) for row in T)
    return Pairing(B.rank, pairing.value_group, forms, T)


def restrict_matrix(mat: MultiparameterMatrix, B: Sublattice) -> MultiparameterMatrix:
    """Multiparameter matrix of the subalgebra generated by a sublattice's rows."""
    r = restrict(pairing_of(mat), B)
    upper = {}
    for s in range(B.rank):
        for t in range(s + 1, B.rank):
            free = tuple(M[s][t] for M in r.free_forms)
            upper[(s + 1, t + 1)] = GroupElement(mat.value_group, free, r.torsion_form[s][t])
    return MultiparameterMatrix.from_upper(B.rank, mat.value_group, upper)


@dataclass(frozen=True)
class DimensionResult:
    """Certified dimension interval with a commutative witness sublattice."""

    lower: int
    upper: int
    exact: bool
    witness: Sublattice

    def __post_init__(self):
        if not (1 <= self.lower <= self.upper):
            raise PairingError("dimension interval must satisfy 1 <= lower <= upper")
        if self.exact != (self.lower == self.upper):
            raise PairingError("exact flag inconsistent with interval")
        if self.witness.rank != self.lower:
            raise PairingError("witness rank must equal the certified lower bound")

    def to_json(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "exact": self.exact,
            "witness": self.witness.to_json(),
        }
