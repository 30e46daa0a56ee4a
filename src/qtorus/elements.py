"""Formal elements of the twisted group algebra, used as an independent oracle.

Elements are finite sums of terms c * q^v * X^a where c is a rational
number, q^v a value-group monomial and a a lattice exponent.  Products are
twisted by the normalized reordering cocycle, so commutators of monomials
can be computed symbolically and compared against the matrix pairing.

Coefficients with equal lattice exponent and equal q-part merge by adding
rationals; different q-parts stay as separate stored terms keyed by (a, v),
which represents sums of distinct scalar monomials without deciding any
relations between them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .pairing import MultiparameterMatrix, PairingError
from .valuegroup import GroupElement, as_integer


def _integers(xs, what: str) -> tuple[int, ...]:
    return tuple(as_integer(x, what, PairingError) for x in xs)


def cocycle(mat: MultiparameterMatrix, a, b) -> GroupElement:
    """Reordering cost tau(a, b) of X^a * X^b into the canonical monomial.

    With descending reordering (canonical monomials X_1^- ... X_n^-),
    tau(a, b) = sum over i > j of a_i * b_j * lambda_ij in exponents.  This
    choice satisfies the standard two-cocycle identity and leaves
    commutators independent of the normalization.
    """
    n = mat.rank
    a = [int(x) for x in a]
    b = [int(x) for x in b]
    if len(a) != n or len(b) != n:
        raise PairingError("exponent vector length does not match the rank")
    total = mat.value_group.identity()
    for i in range(n):
        if a[i] == 0:
            continue
        for j in range(i):
            if b[j] == 0:
                continue
            total = total + (a[i] * b[j]) * mat.entries[i][j]
    return total


_Key = tuple[tuple[int, ...], tuple[int, ...], int]


@dataclass(frozen=True)
class TwistedElement:
    """Finite formal sum over (lattice exponent, q-monomial) keys."""

    context: MultiparameterMatrix
    terms: dict[_Key, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for (a, v, t), c in self.terms.items():
            c = Fraction(c)
            if c == 0:
                continue
            key = (
                _integers(a, "exponent"),
                _integers(v, "scalar exponent"),
                as_integer(t, "torsion", PairingError),
            )
            clean[key] = clean.get(key, Fraction(0)) + c
        object.__setattr__(self, "terms", {k: c for k, c in clean.items() if c != 0})

    @staticmethod
    def monomial(
        context: MultiparameterMatrix,
        exponent,
        coefficient=1,
        scalar: GroupElement | None = None,
    ) -> "TwistedElement":
        scalar = scalar if scalar is not None else context.value_group.identity()
        key = (_integers(exponent, "exponent"), scalar.free, scalar.torsion)
        return TwistedElement(context, {key: Fraction(coefficient)})

    @staticmethod
    def one(context: MultiparameterMatrix) -> "TwistedElement":
        return TwistedElement.monomial(context, (0,) * context.rank)

    @staticmethod
    def zero(context: MultiparameterMatrix) -> "TwistedElement":
        return TwistedElement(context, {})

    def _check(self, other: "TwistedElement"):
        if self.context != other.context:
            raise PairingError("elements live over different multiparameter matrices")

    def __add__(self, other: "TwistedElement") -> "TwistedElement":
        self._check(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, Fraction(0)) + c
        return TwistedElement(self.context, terms)

    def __neg__(self) -> "TwistedElement":
        return TwistedElement(self.context, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "TwistedElement") -> "TwistedElement":
        return self + (-other)

    def __mul__(self, other: "TwistedElement") -> "TwistedElement":
        self._check(other)
        ctx = self.context
        group = ctx.value_group
        out: dict[_Key, Fraction] = {}
        for (a1, v1, t1), c1 in self.terms.items():
            for (a2, v2, t2), c2 in other.terms.items():
                tw = cocycle(ctx, a1, a2)
                q = GroupElement(group, v1, t1) + GroupElement(group, v2, t2) + tw
                a = tuple(x + y for x, y in zip(a1, a2))
                key = (a, q.free, q.torsion)
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return TwistedElement(ctx, out)

    def is_zero(self) -> bool:
        return not self.terms

    def monomial_parts(self) -> tuple[tuple[int, ...], Fraction, GroupElement]:
        """Decompose a single-term element; raises for sums."""
        if len(self.terms) != 1:
            raise PairingError("element is not a monomial")
        (a, v, t), c = next(iter(self.terms.items()))
        return a, c, GroupElement(self.context.value_group, v, t)

    def inverse_monomial(self) -> "TwistedElement":
        """Inverse of c * q^v * X^a, namely (c q^v tau(a, -a))^-1 * X^-a."""
        a, c, q = self.monomial_parts()
        tw = cocycle(self.context, a, tuple(-x for x in a))
        scalar = -(q + tw)
        return TwistedElement.monomial(self.context, tuple(-x for x in a), 1 / c, scalar)

    def render(self) -> str:
        """Debug text form, terms sorted by graded-lex lattice exponent."""
        if not self.terms:
            return "0"
        names = self.context.value_group.free_names
        m = self.context.value_group.torsion_order
        parts = []
        for (a, v, t) in sorted(
            self.terms, key=lambda k: (sum(abs(x) for x in k[0]), k[0], k[1], k[2])
        ):
            c = self.terms[(a, v, t)]
            factors = []
            if c != 1 or (all(x == 0 for x in v) and t == 0 and all(x == 0 for x in a)):
                factors.append(str(c))
            factors.extend(f"{nm}^{e}" for nm, e in zip(names, v) if e)
            if t:
                factors.append(f"z{m}^{t}")
            factors.extend(f"X{i + 1}^{e}" for i, e in enumerate(a) if e)
            parts.append(" * ".join(factors) if factors else "1")
        return " + ".join(parts)


def support(alpha: TwistedElement) -> set[tuple[int, ...]]:
    """Lattice exponents carrying at least one stored term."""
    return {a for (a, _, _) in alpha.terms}


def commutator_units(mat: MultiparameterMatrix, a, b) -> GroupElement:
    """Group commutator of the unit monomials X^a and X^b, via actual products.

    Computes X^a X^b (X^a)^-1 (X^b)^-1 with twisted multiplication; the
    result is always a scalar, returned as a value-group element.  Must
    agree with the matrix pairing on every input, which the test suite
    enforces as a cross-module oracle.
    """
    xa = TwistedElement.monomial(mat, a)
    xb = TwistedElement.monomial(mat, b)
    prod = xa * xb * xa.inverse_monomial() * xb.inverse_monomial()
    exps, c, q = prod.monomial_parts()
    if any(exps) or c != 1:
        raise AssertionError("monomial commutator did not reduce to a scalar")
    return q
