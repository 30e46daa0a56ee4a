"""First steps: the single-parameter plane and its dimension.

The smallest interesting quantum torus has two invertible generators X, Y
with X*Y = q*Y*X.  We build it, look at its commutator pairing, and compute
its (Krull = global) dimension: the largest rank of a sublattice of Z^2 on
which the pairing vanishes.
"""

from qtorus import MultiparameterMatrix, ValueGroup, dimension, pairing_of

# One free scalar generator q, no roots of unity.
group = ValueGroup(("q",), torsion_order=1)

# Only the entry above the diagonal is given; lambda_21 = q^-1 follows.
bq = MultiparameterMatrix.from_upper(2, group, {(1, 2): group.generator("q")})

pairing = pairing_of(bq)
print("pairing matrix for q: ", [list(row) for row in pairing.free_forms[0]])
print("[X, Y] exponent:      ", pairing.commutator([1, 0], [0, 1]).free)
print("[X^2, Y] exponent:    ", pairing.commutator([2, 0], [0, 1]).free)

# q is not a root of unity here, so no monomials commute beyond powers of a
# single one: the dimension is 1, certified by an explicit witness.
result = dimension(bq)
print("dimension result:     ", result.to_json())

# A commutative presentation of the same rank has dimension 2.
flat = MultiparameterMatrix.from_upper(2, ValueGroup((), 1), {})
print("commutative variant:  ", dimension(flat).to_json())
