"""Finitely generated abelian value groups in additive exponent notation.

The scalars generated by the commutation parameters form a subgroup of the
multiplicative group of the base field; we model it as Z^k x Z/m with named
free generators and a single cyclic torsion component (any finite subgroup
of a field's unit group is cyclic).  Elements are written additively.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import lcm


class ValueGroupError(ValueError):
    pass


def as_integer(x, what: str, error: type[ValueError] = ValueGroupError) -> int:
    """``x`` as an int; a non-integer raises ``error`` naming it, never truncates."""
    try:
        return operator.index(x)
    except TypeError:
        raise error(f"{what} must be an integer, got {x!r}") from None


@dataclass(frozen=True)
class ValueGroup:
    free_names: tuple[str, ...] = ()
    torsion_order: int = 1

    def __post_init__(self):
        names = self.free_names
        if not isinstance(names, tuple):
            object.__setattr__(self, "free_names", tuple(names))
            names = self.free_names
        if any(not n for n in names):
            raise ValueGroupError("generator names must be nonempty")
        if len(set(names)) != len(names):
            raise ValueGroupError("generator names must be distinct")
        if self.torsion_order < 1:
            raise ValueGroupError("torsion order must be >= 1")

    @property
    def free_rank(self) -> int:
        return len(self.free_names)

    def identity(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.free_rank, 0)

    def element(self, free=None, torsion: int = 0) -> "GroupElement":
        free = tuple(free or ())
        if len(free) < self.free_rank:
            free = free + (0,) * (self.free_rank - len(free))
        return GroupElement(self, free, torsion)

    def generator(self, name: str) -> "GroupElement":
        idx = self.free_names.index(name)
        free = [0] * self.free_rank
        free[idx] = 1
        return GroupElement(self, tuple(free), 0)


@dataclass(frozen=True)
class GroupElement:
    group: ValueGroup
    free: tuple[int, ...]
    torsion: int = 0

    def __post_init__(self):
        if len(self.free) != self.group.free_rank:
            raise ValueGroupError("free part has wrong length for the value group")
        object.__setattr__(self, "free", tuple(as_integer(x, "exponent") for x in self.free))
        torsion = as_integer(self.torsion, "torsion")
        object.__setattr__(self, "torsion", torsion % self.group.torsion_order)

    def _check(self, other: "GroupElement"):
        if self.group != other.group:
            raise ValueGroupError("elements belong to different value groups")

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        return GroupElement(
            self.group,
            tuple(a + b for a, b in zip(self.free, other.free)),
            self.torsion + other.torsion,
        )

    def __neg__(self) -> "GroupElement":
        return GroupElement(self.group, tuple(-a for a in self.free), -self.torsion)

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def __rmul__(self, k: int) -> "GroupElement":
        k = as_integer(k, "multiplier")
        return GroupElement(self.group, tuple(k * a for a in self.free), k * self.torsion)

    def is_identity(self) -> bool:
        return self.torsion == 0 and all(a == 0 for a in self.free)


def _renamed_apart(name: str, taken: set[str]) -> str:
    candidate = name
    while candidate in taken:
        candidate += "'"
    return candidate


def merge(
    g1: ValueGroup, g2: ValueGroup, mode: str = "shared"
) -> tuple[ValueGroup, tuple[int, ...], tuple[int, ...]]:
    """Combine two value groups into one containing both.

    ``shared`` unifies generators by name (same base field, same scalar
    symbols); it requires the torsion orders to agree or one of them to be
    trivial.  ``disjoint`` renames the second group's generators apart so
    the two scalar families are independent.  Returns the merged group and,
    for each input, the map from old generator indices to new ones.
    """
    if mode not in ("shared", "disjoint"):
        raise ValueGroupError(f"unknown merge mode: {mode!r}")
    m1, m2 = g1.torsion_order, g2.torsion_order
    if mode == "shared":
        if m1 > 1 and m2 > 1 and m1 != m2:
            raise ValueGroupError(
                f"incompatible torsion orders {m1} and {m2} in shared merge"
            )
        torsion = max(m1, m2)
        names = list(g1.free_names)
        emb1 = tuple(range(len(names)))
        emb2 = []
        for name in g2.free_names:
            if name in names:
                emb2.append(names.index(name))
            else:
                emb2.append(len(names))
                names.append(name)
        return ValueGroup(tuple(names), torsion), emb1, tuple(emb2)
    # disjoint: keep both scalar families independent
    torsion = lcm(m1, m2)
    names = list(g1.free_names)
    emb1 = tuple(range(len(names)))
    taken = set(names)
    emb2 = []
    for name in g2.free_names:
        fresh = _renamed_apart(name, taken)
        taken.add(fresh)
        emb2.append(len(names))
        names.append(fresh)
    return ValueGroup(tuple(names), torsion), emb1, tuple(emb2)


def embed(e: GroupElement, target: ValueGroup, index_map: tuple[int, ...]) -> GroupElement:
    """Image of an element under a merge embedding."""
    free = [0] * target.free_rank
    for old, new in enumerate(index_map):
        free[new] = e.free[old]
    scale = target.torsion_order // e.group.torsion_order
    if scale * e.group.torsion_order != target.torsion_order:
        raise ValueGroupError("torsion order does not divide the target's")
    return GroupElement(target, tuple(free), e.torsion * scale)
