"""Dimension of a quantum torus as a certified interval.

The dimension equals the largest rank of a sublattice of Z^n on which the
commutator pairing vanishes.  For at most one independent alternating form
this has a closed form (n minus half the form's matrix rank) and the solver
is always exact.  For two or more independent forms no simple closed form
is known, so the solver reports a certified interval:

* the lower bound is the rank of an explicit commutative sublattice found
  by a deterministic search, and
* the upper bound is the minimum of several independently sound
  certificates (pencil ranks, an exterior-square dimension count, and a
  tensor-splitting bound), each documented at its implementation, and
  taken cheapest first, each only while it can still lower the bound: the
  wedge count, then the fold of the tensor blocks and the pencil, the fold
  first when its table is small or not needed.  The tensor-splitting bound
  adds the blocks' upper bounds wherever the free forms split by block
  (the scalar-split rule), so products of factors with independent
  scalars, such as disjoint lambda (x) lambda^T and the iterated products
  B_q1 (x) ... (x) B_qk, close with no search and no pencil sample; when
  the spans of all blocks add it is that sum outright, with no table.  The
  generators that no free form touches (a Laurent-polynomial factor) make
  one block, which the fold adds at its rank.  On shared lambda (x)
  lambda^T of rank 2n the fold runs first and certifies n, which no pencil
  sample can go below, so the pencil takes no sample.

The ``exact`` flag is set only when the two meet.  Exhausting the search
budget can therefore cost exactness but never correctness.

The solver reads only the integer forms of the commutator pairing:
``dimension`` is the one place that sees the ``Pairing``, and the core,
``_interval``, takes a tuple of forms.  Each ``dimension`` call builds one
search object (``_Search``), the one reader of ``SolverOptions``: it holds
the node budget and the search memo, and every block of the call shares
it.  A level's independent forms come from one fraction-free elimination
over their upper-triangle coordinates (``_span_basis``).  The top level
and every search level then take one step (``_level``): split off the
common kernel of the forms, restrict them to a complement (``congruence``;
restriction to a complement of the common kernel is injective on their
span, so they stay independent), and close the level when a count settles
it: at most one form left (closed form), or forms spanning every
alternating form on Q^m with m >= 3 (the wedge count leaves room for one
vector above the radical).  Only the other levels are scanned, and each
node of the budget is one candidate tried.  The tensor-splitting
certificate solves each block by ``_interval`` on the forms sliced to its
generators, and folds the block intervals, in one table over block
bitmasks, only while the interval is still open; the two-factor bound is
evaluated only where the spans of the forms do not add, and the table is
built only where they do not add across all blocks.

The search works over Q.  The dimension is a rank over Q, isotropy is
Q-linear and every count in ``_level`` is a Q-dimension, so a search node
needs only a rational basis of a candidate's orthogonal complement:
``lattice.annihilator`` gives one by fraction-free elimination, with no
unimodular transform.  The Hermite transform (``kernel_with_complement``)
serves only where a Z-complement matters, in ``_level`` and
``max_isotropic_single``.  ``_interval`` saturates a search witness once,
where it adopts it, so its integer rows depend only on the rational plane
found (see ``_Search``).

Torsion scalars never change the answer: if a sublattice B is isotropic for
the free forms, then m*B (same rank) is isotropic for the full pairing
because every torsion residue is multiplied by m^2.  The supremum of
isotropic ranks is therefore computed from the free forms alone
(``Pairing.free_forms``), and ``dimension`` rescales the witness by m once,
at the end, when needed.

Matrices are rows of Python ints (see ``lattice``), and the package has no
runtime dependency.  The brute-force oracle caps its candidate count, then
builds each row of its commutation table as a Python-int bitset from
byte-packed big-int products (``_commutation_table``); its search pools are
int masks, and its independence test keeps integer annihilator rows of the
chosen span, exact over Q, by the search's own step ``lattice.annihilate``.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from dataclasses import dataclass
from math import gcd
from operator import mul

from .lattice import (
    Sublattice,
    annihilate,
    annihilator,
    congruence,
    identity,
    kernel_with_complement,
    matmul,
    primitive,
    rank,
    saturate,
    skew_rank,
)
from .pairing import (
    DimensionResult,
    MultiparameterMatrix,
    Pairing,
    is_commutative,
    pairing_of,
)


class InexactDimensionError(RuntimeError):
    """Raised when an operation demands an exact dimension and only an interval exists."""


class ResourceLimitError(RuntimeError):
    """Raised when brute-force enumeration is asked for more than it safely supports."""


@dataclass(frozen=True)
class SolverOptions:
    """Search limits.

    A negative ``search_bound``, ``combo_samples`` or ``node_budget`` is a
    ``ValueError``, as it is at the command line.
    """

    search_bound: int = 2
    combo_samples: int = 64
    time_budget: float = 10.0
    node_budget: int = 20_000

    def __post_init__(self):
        for name in ("search_bound", "combo_samples", "node_budget"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")


def _form_coords(M, n: int) -> list[int]:
    return [M[i][j] for i in range(n) for j in range(i + 1, n)]


def _combination(coeffs, forms) -> list[list[int]]:
    """The integer combination sum_l coeffs[l] * forms[l]."""
    return [
        [sum(map(mul, coeffs, entries)) for entries in zip(*rows)] for rows in zip(*forms)
    ]


def _span_basis(forms, n: int) -> list:
    """Drop forms that are rational combinations of earlier ones.

    One fraction-free elimination over the forms' upper-triangle
    coordinates (``_form_coords``).  Each kept coordinate row has a pivot
    column, and vanishes at the pivots of the rows kept before it.  A new
    row is reduced against the kept rows in that order, by integer
    cross-multiplication and division by its content; each step clears one
    pivot and leaves the earlier ones clear.  So a reduced row that is
    zero lies in the rational span of the kept rows, and a nonzero one does
    not (the kept rows are triangular at their pivots).  The forms kept,
    and their order, are those a rank test against the earlier kept forms
    would keep; zero forms are dropped.  A level runs this once: ``_level``
    restricts the kept forms to a complement of their common kernel, which
    is injective on their span, so the restrictions stay independent.
    """
    kept = []
    echelon: list[tuple[int, list[int]]] = []
    for M in forms:
        c = _form_coords(M, n)
        for j, row in echelon:
            a = c[j]
            if a:
                p = row[j]
                c = [p * x - a * y for x, y in zip(c, row)]
                g = gcd(*c)
                if g > 1:
                    c = [x // g for x in c]
        lead = next((j for j, x in enumerate(c) if x), None)
        if lead is not None:
            kept.append(M)
            echelon.append((lead, c))
    return kept


# ---------------------------------------------------------------------------
# exact closed form for a single alternating form


def max_isotropic_single(M, n: int) -> list:
    """Rows of a maximal isotropic sublattice for one alternating form.

    Splits off a hyperbolic pair (e_i, e_j) with M[i][j] != 0, recurses on
    the saturated symplectic complement, and rejoins e_i, which pairs
    trivially with the whole complement.  Yields rank n - skew_rank(M).
    """
    pivot = next(((i, j) for i in range(n) for j in range(i + 1, n) if M[i][j]), None)
    if pivot is None:
        return identity(n)
    i, j = pivot
    C, _ = kernel_with_complement([M[i], M[j]])
    W = max_isotropic_single(congruence(C, M), len(C))
    e_i = [0] * n
    e_i[i] = 1
    return [e_i, *matmul(W, C)]


# ---------------------------------------------------------------------------
# sound upper bounds


def _combo_vectors(k: int, combo_samples: int):
    """Deterministic stream of integer combination vectors for pencil bounds."""
    seen = set()

    def emit(c):
        c = tuple(c)
        if any(c) and c not in seen:
            seen.add(c)
            return c
        return None

    count = 0
    for l in range(k):
        c = emit([1 if i == l else 0 for i in range(k)])
        if c:
            count += 1
            yield c
    for signs in itertools.product((1, -1), repeat=k - 1):
        if count >= combo_samples:
            return
        c = emit((1,) + signs)
        if c:
            count += 1
            yield c
    rng = random.Random(0)
    attempts = 0
    while count < combo_samples and attempts < 20 * combo_samples:
        attempts += 1
        c = emit([rng.randint(-3, 3) for _ in range(k)])
        if c:
            count += 1
            yield c


def _pencil_upper(forms: list, n: int, combo_samples: int, best: int, lower: int) -> int:
    """Lower the upper bound ``best`` by single-form ranks of sampled integer combinations.

    A common isotropic sublattice is isotropic for every integer
    combination of the forms, hence its rank is at most n minus half the
    combination's matrix rank.  No combination bounds below n - n // 2 (half
    a matrix rank is at most n // 2), nor below ``lower``, the rank of a
    certified witness.  So a sample is taken only while ``best`` is above
    both, and the result is the minimum of ``best`` and of every sample, as
    though all were taken; after a fold that reached either, none is.
    """
    floor = max(lower, n - n // 2)
    for c in _combo_vectors(len(forms), combo_samples):
        if best <= floor:
            break
        F = _combination(c, forms)
        if any(map(any, F)):
            best = min(best, n - skew_rank(F))
    return best


def _wedge_upper(count: int, n: int) -> int:
    """Upper bound by dimension count in the exterior square.

    The products v /\\ w of vectors from a rank-g isotropic sublattice span
    a g(g-1)/2-dimensional subspace annihilated by every form, viewed as a
    linear functional on the exterior square; that space has dimension
    C(n,2) minus ``count``, the number of linearly independent forms (as
    ``_span_basis`` returns them).  The bound is 1 exactly when the forms
    span every alternating form on Q^n.
    """
    free_dim = n * (n - 1) // 2 - count
    g = n
    while g > 1 and g * (g - 1) // 2 > free_dim:
        g -= 1
    return g


# ---------------------------------------------------------------------------
# lower-bound search


def _structured_candidates(forms: list, n: int) -> list[tuple[int, ...]]:
    """Kernel vectors of individual forms and of simple sums: cheap isotropic seeds."""
    out: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()

    def add_rows(rows):
        for row in rows:
            p = primitive(row)
            if any(p) and p not in seen:
                seen.add(p)
                out.append(p)

    for M in forms:
        add_rows(annihilator(M, n))
    if len(forms) > 1:
        add_rows(annihilator(_combination([1] * len(forms), forms), n))
        add_rows(annihilator(_combination([(-1) ** idx for idx in range(len(forms))], forms), n))
    return out


def _box_vectors(n: int, bound: int):
    """Canonical primitive vectors in [-bound, bound]^n, graded by |entries| sum.

    Within a degree, positions are filled left to right with values ordered
    0, 1, -1, 2, -2, ...; only representatives with positive leading entry
    and content one are produced.  The order is part of the determinism
    contract for witnesses.
    """
    values = [0]
    for a in range(1, bound + 1):
        values.extend((a, -a))

    def rec(pos: int, remaining: int, prefix: tuple[int, ...]):
        if pos == n:
            if remaining == 0:
                yield prefix
            return
        slots = n - pos - 1
        for val in values:
            a = abs(val)
            if a > remaining:
                break
            if remaining - a > slots * bound:
                continue
            yield from rec(pos + 1, remaining - a, prefix + (val,))

    for degree in range(1, n * bound + 1):
        for v in rec(0, degree, ()):
            lead = next((x for x in v if x != 0), 0)
            if lead < 0:
                continue
            if gcd(*v) != 1:
                continue
            yield v


_CHUNK = 128


def _candidate_stream(forms: list, n: int, search_bound: int):
    """Structured seeds first, then boxed enumeration, in dimension-sorted chunks.

    Yields ``(v, rows, dim)``: ``rows`` are v M_1, ..., v M_k as lists of
    ints, and ``dim = n - rank(rows)`` is the rank of v's orthogonal
    complement, the vectors pairing trivially with v under every form.
    Candidates with the larger complement come first; ties keep the
    enumeration order.  Only the dimension is computed here: the caller
    builds the complement from the same rows, and only for a branch it
    takes.  Sorting happens per chunk so the stream stays lazy and
    deterministic.
    """
    seen: set[tuple[int, ...]] = set()
    k = len(forms)
    # Row i of every form, concatenated: v M_1, ..., v M_k is then one
    # combination of the rows of ``stacked`` over the nonzero entries of v.
    stacked = [[x for M in forms for x in M[i]] for i in range(n)]

    def pairing_rows(v) -> list[list[int]]:
        acc = [0] * (k * n)
        for i, c in enumerate(v):
            if c:
                acc = [a + c * x for a, x in zip(acc, stacked[i])]
        return [acc[l * n : (l + 1) * n] for l in range(k)]

    def ranked(vs):
        scored = []
        for v in vs:
            if v in seen:
                continue
            seen.add(v)
            rows = pairing_rows(v)
            scored.append((v, rows, n - rank(rows)))
        scored.sort(key=lambda t: -t[2])
        return scored

    yield from ranked(_structured_candidates(forms, n))
    chunk: list[tuple[int, ...]] = []
    for v in _box_vectors(n, search_bound):
        chunk.append(v)
        if len(chunk) >= _CHUNK:
            yield from ranked(chunk)
            chunk = []
    if chunk:
        yield from ranked(chunk)


def _level(forms: list, n: int):
    """One level's step: split off the radical, restrict, close what a count settles.

    ``forms`` are independent (``_span_basis``).  Returns ``(K, C, qforms,
    closed)``: K spans the common kernel of the forms, C completes it to a
    basis of Z^n, and ``qforms`` are the restrictions of the forms to C
    (``congruence``).  They are independent with no second elimination:
    restriction to C is injective on the span of the forms, because a
    combination that vanishes on C x C also vanishes on K x Q^n and
    Q^n x K (every form kills K), hence on all of Q^n x Q^n = (K + C) x
    (K + C), and the forms are independent.  Every maximal isotropic
    sublattice contains K, so the level is exact in two cases, and
    ``closed`` holds the rows of a maximal isotropic sublattice:

    * at most one form left: K and a maximal isotropic sublattice of that
      form, of rank len(C) - skew_rank;
    * forms spanning every alternating form on Q^len(C) (len(C) >= 3): K
      and C[0], of rank len(K) + 1.  The wedge count caps the level at that
      rank, and a single vector pairs trivially with itself under every
      form.

    Otherwise ``closed`` is None and the level is searched.
    """
    if forms:
        K, C = kernel_with_complement([row for M in forms for row in M])
    else:
        K, C = identity(n), []
    mq = len(C)
    qforms = [congruence(C, M) for M in forms]
    if len(qforms) > 1:
        if _wedge_upper(len(qforms), mq) == 1:
            return K, C, qforms, [*K, C[0]]
        return K, C, qforms, None
    W = max_isotropic_single(qforms[0], mq) if qforms else identity(mq)
    if len(W) != mq - (skew_rank(qforms[0]) if qforms else 0):
        raise AssertionError("isotropic construction missed the closed-form rank")
    return K, C, qforms, [*K, *matmul(W, C)]


class _Search:
    """One ``dimension`` call's search: its options, node budget and memo.

    ``dimension`` builds one per call, and every ``_interval`` of that call,
    its blocks' included, takes it; it is the one reader of
    ``SolverOptions``.  ``solve`` is a depth-first search for a
    maximum-rank common isotropic sublattice.  Every maximal isotropic
    sublattice contains the common kernel of the forms, so each level
    strips that kernel, restricts to a complement (``_level``), and
    branches on the first vector of the remaining witness; the chosen
    vector's orthogonal complement becomes the next level's lattice.
    Levels that ``_level`` closes are not scanned, so a node of the budget
    is one candidate tried.  Candidates arrive ranked by complement
    dimension alone, and a complement basis is built only for a branch that
    can still beat the best rank found.  All coordinates are exact, so
    witnesses survive unbounded entry growth even though each level only
    enumerates small coordinate vectors.

    A branch's complement is a Q-basis of v^perp (``annihilator`` of the
    rows v M_l), not a Z-basis: it spans a sublattice of finite index in
    the integer vectors orthogonal to v.  That is sound because:

    * isotropy is Q-linear, so a sublattice is isotropic exactly when its
      rational span is;
    * every count in ``_level`` (skew rank, wedge count, radical rank) is a
      Q-dimension, so a level's closed value and its bounds do not depend
      on the lattice chosen inside its rational space;
    * ``_interval`` replaces the search's rows by their saturation, which
      has the same rational span, so it stays isotropic under the free
      forms and keeps its rank;
    * ``len(comp) == dim`` is asserted against the candidate stream's
      Bareiss rank, so every branch has the dimension it was ranked by;
    * ``dimension`` still checks the joined witness once, and rescales it by
      the torsion order when torsion residues keep it from commuting.

    The memo is keyed by ``(n, forms)``, which fixes the subproblem, so the
    blocks of one call share it: where identical open blocks repeat, the
    later ones reuse the first one's search.  The node budget is the
    primary limit so that identical inputs explore identical search trees;
    the time budget only guards against pathological instances.
    """

    def __init__(self, opts: SolverOptions):
        self.search_bound = opts.search_bound
        self.combo_samples = opts.combo_samples
        self.nodes_left = opts.node_budget
        self.deadline = time.monotonic() + opts.time_budget
        self.exhausted = False
        self.memo: dict = {}

    def spend(self) -> bool:
        """Charge one node; True while the budget is not exhausted.

        The node that brings ``nodes_left`` to 0 or below exhausts the
        budget, as does a node charged past the deadline; nodes charged
        after that change nothing.
        """
        if self.exhausted:
            return False
        self.nodes_left -= 1
        if self.nodes_left <= 0 or time.monotonic() > self.deadline:
            self.exhausted = True
            return False
        return True

    def solve(self, forms, n, target):
        forms = _span_basis(forms, n)
        key = (n, tuple(forms))
        cached = self.memo.get(key)
        if cached is not None:
            c_rank, c_rows, c_complete = cached
            if c_complete or c_rank >= target:
                return cached
        K, C, qforms, closed = _level(forms, n)
        if closed is not None:
            result = (len(closed), closed, True)
            self.memo[key] = result
            return result
        r0, mq = len(K), len(C)
        best_rank, best_rows = r0, K
        complete = True
        for _, vrows, dim in _candidate_stream(qforms, mq, self.search_bound):
            if best_rank >= target:
                complete = False
                break
            if not self.spend():
                complete = False
                break
            if r0 + dim <= best_rank:
                continue
            comp = annihilator(vrows, mq)
            if len(comp) != dim:
                raise AssertionError("complement rank differs from its ranked dimension")
            sforms = [congruence(comp, M) for M in qforms]
            sub_rank, sub_rows, sub_complete = self.solve(sforms, dim, target - r0)
            complete = complete and sub_complete
            if r0 + sub_rank > best_rank:
                best_rank = r0 + sub_rank
                best_rows = [*K, *matmul(matmul(sub_rows, comp), C)]
        if self.exhausted:
            complete = False
        result = (best_rank, best_rows, complete)
        prev = self.memo.get(key)
        if prev is None or best_rank > prev[0] or (complete and not prev[2]):
            self.memo[key] = result
        return result


# ---------------------------------------------------------------------------
# tensor-splitting certificate


def _components(forms, n: int) -> list[tuple[int, ...]]:
    """Blocks of generators: connected components under 'some form pairs them'.

    Every form is block-diagonal across the blocks, so the algebra of the
    forms is the tensor product of the algebras of its blocks.  The
    generators that no form touches share one block, after the others: it
    is the Laurent-polynomial factor F[X^+-1] of the central generators.
    The fold's value does not depend on how they are grouped.  Such a block
    has no forms, so its interval is [r, r] at its rank r, its span is 0 and
    its center is not trivial; under every bipartition of the blocks the
    spans then add across its side (``_fold``), so it adds exactly its rank,
    whether its generators form one block or one block each.
    """
    seen = [not any(any(F[i]) for F in forms) for i in range(n)]
    idle = tuple(i for i in range(n) if seen[i])
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(n):
                if not seen[j] and any(F[i][j] for F in forms):
                    seen[j] = True
                    stack.append(j)
        comps.append(tuple(sorted(comp)))
    return comps + [idle] if idle else comps


def _sliced(F, idxs: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The form F on the generators ``idxs`` alone."""
    return tuple(tuple(F[i][j] for j in idxs) for i in idxs)


def _pair_bound(lo1, hi1, r1, cf1, lo2, hi2, r2, cf2) -> int:
    """Upper bound for the dimension of a two-factor tensor product.

    Uses the interval endpoints so that every comparison is sound even when
    a factor's dimension is only known as an interval: the bound is
    monotone in the factor dimensions, strict hypotheses are checked
    against the conservative endpoint, and 'center is trivial' is computed
    exactly.
    """
    b = min(hi1 + r2, hi2 + r1)
    if hi1 < r1 and hi2 < r2:
        b -= 1
        if lo1 >= 2 and lo2 >= 2 and r1 - hi1 >= 2 and r2 - hi2 >= 2 and cf1 and cf2:
            b -= 1
    return min(b, r1 + r2)


def _block_spans(blocks: list):
    """``(coords, dims, adds)`` of blocks ``(forms, lo, hi)``.

    ``coords`` holds each block's forms as upper-triangle coordinates,
    ``dims`` the dimension of each block's span, and ``adds`` whether the
    spans of all blocks add: the rank of their stacked coordinates is the
    sum of ``dims``.  That takes b + 1 rank computations for b blocks.
    """
    coords = [[_form_coords(F, len(F)) for F in forms] for forms, _, _ in blocks]
    dims = [rank(x) for x in coords]
    return coords, dims, rank([sum(rows, []) for rows in zip(*coords)]) == sum(dims)


def _fold(blocks: list) -> int:
    """Upper bound for the tensor product of blocks ``(forms, lo, hi)``.

    One table keyed by block bitmask holds, for each subset s of blocks,
    ``(lo, hi, r, cf, d, coords)``: the sum of the blocks' lower bounds, an
    upper bound, the rank, whether the center is trivial, the dimension d of
    the span of the forms restricted to s, and those restrictions'
    upper-triangle coordinates.  A subset's lo, r, cf and coords come from
    its lowest block plus the rest.  A block's center is trivial exactly
    when its stacked forms have full rank.  The bipartitions s1 | s2 of a
    subset are the proper submasks s1 that contain its lowest block, and
    each is bounded by one rule: h1 + h2 where the spans add (d1 + d2 = d,
    the scalar-split rule), and the two-factor bound ``_pair_bound``
    elsewhere.

    Where the spans add this is the minimum of both bounds, as every side
    has h <= r: ``_pair_bound`` starts at min(h1 + r2, h2 + r1) >= h1 + h2,
    takes 1 off only when h < r on both sides, and 2 only when r - h >= 2
    on both sides, so it never falls below h1 + h2.

    The scalar-split rule is sound: every form is block-diagonal across
    blocks, so its restriction F|s to a subset s is its blocks on s.  d(s1
    u s2) is at most d(s1) + d(s2), with equality exactly when the span of
    the forms on s1 u s2 is the direct sum of the spans of their
    restrictions; then each F|s1 (+) 0 lies in the rational span of the
    forms.  An isotropic B is isotropic for every rational combination of
    the forms, so its projections pi1(B) and pi2(B) are isotropic for the
    forms on s1 and on s2, and rank B <= rank pi1(B) + rank pi2(B) <= h1 +
    h2.  Independent scalars on each factor, as in the iterated products
    B_q1 (x) ... (x) B_qk, make the spans add up, and so does a block that
    no form touches (``_components``).

    Where the spans of all blocks add (``_block_spans``: the rank of their
    stacked coordinates is the sum of the blocks' d), the fold is the sum
    of the blocks' upper bounds, from b + 1 ranks and no table, and
    ``_interval`` runs it before the pencil whatever b is.  The spans then
    add on every bipartition of every subset, since d(s1 u s2) <= d(s1) +
    d(s2) and each d(s) is at most the sum of its blocks' d; so every
    bipartition takes h1 + h2, and by induction on the subset's size each
    subset's bound is the sum of its blocks' h (each h <= r).

    The sum of the blocks' lower bounds is certified by their joined
    witnesses, so a subset whose bound falls below it is a fault.
    """
    coords, dims, spans_add = _block_spans(blocks)
    if spans_add:
        lo, hi = sum(b[1] for b in blocks), sum(b[2] for b in blocks)
        if hi < lo:
            raise AssertionError("split upper bound fell below the blocks' lower bounds")
        return hi
    table = {}
    for i, (forms, lo, hi) in enumerate(blocks):
        r = len(forms[0])
        table[1 << i] = (lo, hi, r, rank([row for M in forms for row in M]) == r, dims[i], coords[i])
    for mask in range(1, 1 << len(blocks)):
        low = mask & -mask
        rest = mask ^ low
        if not rest:
            continue
        l1, _, r1, c1, _, x1 = table[low]
        l2, _, r2, c2, _, x2 = table[rest]
        coords = [a + b for a, b in zip(x1, x2)]
        lo, hi, d = l1 + l2, r1 + r2, rank(coords)
        s = rest
        while s:
            s = (s - 1) & rest
            e1, e2 = table[low | s], table[rest ^ s]
            hi = min(hi, e1[1] + e2[1] if e1[4] + e2[4] == d else _pair_bound(*e1[:4], *e2[:4]))
        if hi < lo:
            raise AssertionError("split upper bound fell below the blocks' lower bounds")
        table[mask] = (lo, hi, r1 + r2, c1 and c2, d, coords)
    return table[mask][1]


# ---------------------------------------------------------------------------
# the solver proper


def _interval(forms, n: int, search: _Search):
    """Certified ``(lower, upper, rows)`` for the integer alternating ``forms`` on Z^n.

    ``rows`` span a sublattice of rank at least ``lower`` on which every
    form vanishes.  A level that ``_level`` closes is exact.  Otherwise,
    where the forms split into blocks (``_components``), each block is
    solved on its sliced forms and the joined block witnesses give a lower
    bound.  The upper bound is the minimum of three sound bounds above the
    radical, taken cheapest first and each only while it can still lower
    it:

    * the wedge count, which is free;
    * the fold (``_fold``) of the b block intervals, about 2^b rank
      computations (one per subset of the blocks), run only while lower <
      upper, since the fold is sound and so never below a certified lower
      bound;
    * the pencil (``_pencil_upper``), one skew rank per sample, which
      samples only while the bound is above every value a combination can
      give.

    The fold runs before the pencil when 2^b <= ``combo_samples`` or when
    the spans of all blocks add (``_block_spans``, b + 1 ranks), where it
    is the sum of the block bounds with no table; otherwise it runs after
    the pencil.  A bound is skipped only where it cannot go lower, so the
    upper bound, and the search target upper - r0, are the minimum of all
    three in either order.  The search runs last, and only while the
    interval is open.  Every call on the blocks, and the search, takes the
    call's one ``search``: they spend one node budget and share one memo.
    The search's rows span their plane over Q only, so they are saturated
    once, here, where they are adopted.  The upper bound needs no cap at n:
    the wedge count is at most mq, so the first bound is at most r0 + mq =
    n, and each later step takes a minimum.
    """
    rad_rows, comp_rows, qforms, closed = _level(_span_basis(forms, n), n)
    if closed is not None:
        return len(closed), len(closed), closed
    r0, mq = len(rad_rows), len(comp_rows)
    upper = r0 + _wedge_upper(len(qforms), mq)
    lower, rows = r0, rad_rows
    comps = _components(forms, n)
    blocks = []
    if len(comps) >= 2:
        joined = []
        for comp in comps:
            sliced = tuple(_sliced(F, comp) for F in forms)
            lo, hi, block_rows = _interval(sliced, len(comp), search)
            blocks.append((sliced, lo, hi))
            joined += matmul(block_rows, [[int(j == i) for j in range(n)] for i in comp])
        split_lower = sum(lo for _, lo, _ in blocks)
        if split_lower > lower:
            lower, rows = split_lower, joined
    fold_first = bool(blocks) and lower < upper and (
        1 << len(blocks) <= search.combo_samples or _block_spans(blocks)[2]
    )
    if fold_first:
        upper = min(upper, _fold(blocks))
    upper = r0 + _pencil_upper(qforms, mq, search.combo_samples, upper - r0, lower - r0)
    if blocks and not fold_first and lower < upper:
        upper = min(upper, _fold(blocks))
    if lower < upper:
        found, rows_q, _ = search.solve(qforms, mq, upper - r0)
        if r0 + found > lower:
            lower = r0 + found
            rows = saturate(Sublattice.span(n, [*rad_rows, *matmul(rows_q, comp_rows)])).rows
    if lower == 0:
        # Any single vector spans a commutative sublattice.
        lower, rows = 1, identity(n)[:1]
    if lower > upper:
        raise AssertionError("certified lower bound exceeded the upper bound")
    return lower, upper, rows


def dimension(mat: MultiparameterMatrix, opts: SolverOptions | None = None) -> DimensionResult:
    """Certified dimension interval of the quantum torus presented by ``mat``.

    The interval is that of the free forms alone (see the module docstring);
    the witness is rescaled by the torsion order once, here, if torsion
    residues keep it from commuting.
    """
    p = pairing_of(mat)
    n = p.rank
    lower, upper, rows = _interval(p.free_forms, n, _Search(opts or SolverOptions()))
    witness = Sublattice.span(n, rows)
    if witness.rank < lower:
        raise AssertionError("witness rank fell short of the certified lower bound")
    m = p.value_group.torsion_order
    if m > 1 and not is_commutative(p, witness):
        witness = witness.scaled(m)
    if not is_commutative(p, witness):
        raise AssertionError("witness is not commutative for the pairing")
    return DimensionResult(lower, upper, lower == upper, witness)


def codimension(mat: MultiparameterMatrix, opts: SolverOptions | None = None) -> int:
    """rank minus dimension; refuses to answer from an inexact interval."""
    res = dimension(mat, opts)
    if not res.exact:
        raise InexactDimensionError(
            f"dimension only certified in [{res.lower}, {res.upper}]; codimension inconclusive"
        )
    return mat.rank - res.lower


# ---------------------------------------------------------------------------
# independent brute-force oracle

_BRUTE_MAX_RANK = 6
_BRUTE_MAX_BOUND = 3
# Largest candidate count whose N x N table is built: rank 6 at bound 1
# gives 364 and rank 4 at bound 2 gives 272, while rank 6 at bound 3 (58,096
# candidates) would need 420 MB even as bits.
_BRUTE_MAX_CANDIDATES = 1_500
# The packed table holds 128 + a.F.b in one byte, exact while |a.F.b| <= 127;
# bound^2 * sum |F[s][t]| <= _BYTE_SAFE guarantees that for every candidate pair.
_BYTE_SAFE = 127


@functools.cache
def _brute_candidates(n: int, bound: int) -> list[tuple[int, ...]]:
    """Canonical primitive vectors of the box; refuses more than the cap."""
    cands = list(itertools.islice(_box_vectors(n, bound), _BRUTE_MAX_CANDIDATES + 1))
    if len(cands) > _BRUTE_MAX_CANDIDATES:
        raise ResourceLimitError(
            f"brute force refused: rank {n} at bound {bound} has more than"
            f" {_BRUTE_MAX_CANDIDATES} candidates"
        )
    return cands


@functools.cache
def _packed_columns(n: int, bound: int) -> tuple[int, ...]:
    """``col[t] = sum_j c_j[t] * 256^j`` over the candidates c_j, one per coordinate.

    Each is read from bytes c_j[t] + bound, which lie in [0, 2 * bound], less
    bound in every byte.
    """
    cands = _brute_candidates(n, bound)
    ones = int.from_bytes(b"\x01" * len(cands), "little")
    return tuple(
        int.from_bytes(bytes(c[t] + bound for c in cands), "little") - bound * ones
        for t in range(n)
    )


@functools.cache
def _translate_table(mod: int) -> bytes:
    """Byte b to ``1`` when b - 128 is 0 (``mod`` 0) or 0 mod ``mod``, else ``0``."""
    return bytes(
        ord("1") if ((b - 128) % mod == 0 if mod else b == 128) else ord("0") for b in range(256)
    )


def _commutation_table(p: Pairing, bound: int) -> list[int]:
    """Bitset rows of the commutation table over ``_brute_candidates(p.rank, bound)``.

    Bit j of row i is set when candidates i and j commute under the full
    pairing: every free form vanishes on them and, when the torsion order m
    exceeds 1, the torsion form is 0 mod m.  Each row has its own bit set.
    The torsion form is checked with centred residues, t - m for t > m/2:
    they are congruent mod m to the stored residues in [0, m), so every
    answer is the same, and their load under the guard is never larger: a
    pair of stored residues t, m - t loads m, its centred pair 2 min(t, m - t).

    Packed path: for a checked form F, ``G[s] = sum_t F[s][t] * col[t]``
    (``_packed_columns``) holds (F c_j)[s] in digit j of base 256, so
    ``D_i = 128 * sum_j 256^j + sum_s c_i[s] * G[s]`` equals
    ``sum_j (128 + c_i F c_j) * 256^j`` as an integer.  When every digit
    128 + c_i F c_j lies in [0, 255] this is the base-256 expansion of D_i,
    which is unique, so byte j of ``D_i.to_bytes(N, "little")`` is exactly
    128 + c_i F c_j.  The digits lie there because
    |c_i F c_j| <= sum_{s,t} |c_i[s]| |F[s][t]| |c_j[t]| <= bound^2 * sum |F|,
    which the guard keeps at most ``_BYTE_SAFE`` = 127 for every checked
    form.  ``translate`` then sends byte 128 to ``1`` for a free form, and a
    byte b to ``1`` when (b - 128) % m == 0 for the torsion form; reversed,
    the bytes read as a base-2 int whose bit j is candidate j's answer.  The
    translate tables are built once per modulus (``_translate_table``).
    Inputs past the guard are compared pair by pair with
    ``Pairing.commutator``.
    """
    n = p.rank
    cands = _brute_candidates(n, bound)
    N = len(cands)
    m = p.value_group.torsion_order
    checked = [(M, 0) for M in p.free_forms]
    if m > 1:
        residues = [[t % m for t in row] for row in p.torsion_form]
        checked.append(([[t - m if 2 * t > m else t for t in row] for row in residues], m))
    if any(bound * bound * sum(abs(x) for row in M for x in row) > _BYTE_SAFE for M, _ in checked):
        # text rows read in base 2, as on the packed path: character N - 1 - j is bit j
        rows = [bytearray(b"1" * N) for _ in range(N)]
        for a in range(N):
            for b in range(a + 1, N):
                if not p.commutator(cands[a], cands[b]).is_identity():
                    rows[a][N - 1 - b] = rows[b][N - 1 - a] = ord("0")
        return [int(row, 2) for row in rows]
    cols = _packed_columns(n, bound)
    base = int.from_bytes(b"\x80" * N, "little")
    compat = [(1 << N) - 1] * N
    for M, mod in checked:
        table = _translate_table(mod)
        G = [sum(f * col for f, col in zip(row, cols) if f) for row in M]
        for i, c in enumerate(cands):
            D = base + sum(x * g for x, g in zip(c, G) if x)
            compat[i] &= int(D.to_bytes(N, "little").translate(table)[::-1], 2)
    return compat


def _bits(mask: int):
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def brute_force_dimension(
    mat: MultiparameterMatrix, entry_bound: int = 2, node_limit: int | None = None
) -> int:
    """Exhaustive oracle: largest independent pairwise-commuting vector set.

    Enumerates canonical primitive vectors with entries in
    [-entry_bound, entry_bound] and maximizes the cardinality of linearly
    independent sets on which the full pairing (torsion included) vanishes.
    It shares three things with the interval solver: the pairing
    definition, the candidate vectors, which ``_box_vectors`` enumerates for
    both, and the annihilator step ``annihilate``; no radical, complement,
    ranking or certificate of the solver is used.

    Bitset layout: ``_commutation_table`` builds the N x N commutation table
    as one Python-int bitset per candidate, so bit j of ``compat[i]`` is set
    when candidates i and j commute.  A search pool is an int mask over the
    candidates: a child taking i gets ``mask & compat[i]`` with bits 0..i
    cleared, and i is compatible with the whole pool when
    ``compat[i] & mask == mask``.  Linear independence over Q is decided
    exactly, with no modular step, against integer annihilator rows of the
    chosen span (``annihilate``), which start as the identity.

    Refuses oversized inputs (rank, entry bound, or more than
    ``_BRUTE_MAX_CANDIDATES`` candidates), and with ``node_limit`` set also
    refuses (deterministically) instances whose search tree outgrows the
    limit, so callers never receive an under-explored maximum.  Each search
    node costs one unit of ``node_limit``.  A negative ``entry_bound`` or
    ``node_limit`` is a ``ValueError``.
    """
    if entry_bound < 0:
        raise ValueError(f"entry_bound must be >= 0, got {entry_bound}")
    if node_limit is not None and node_limit < 0:
        raise ValueError(f"node_limit must be >= 0, got {node_limit}")
    n = mat.rank
    if n > _BRUTE_MAX_RANK or entry_bound > _BRUTE_MAX_BOUND:
        raise ResourceLimitError(
            f"brute force refused: rank {n} > {_BRUTE_MAX_RANK} or bound"
            f" {entry_bound} > {_BRUTE_MAX_BOUND}"
        )
    p = pairing_of(mat)
    cands = _brute_candidates(n, entry_bound)
    N = len(cands)
    if N == 0:
        return 1
    compat = _commutation_table(p, entry_bound)
    best = 1
    nodes = node_limit

    def extend(depth: int, ann: list, mask: int):
        nonlocal best, nodes
        if nodes is not None:
            if nodes == 0:
                raise ResourceLimitError(
                    f"brute force refused: node limit {node_limit} exhausted"
                )
            nodes -= 1
        if depth > best:
            best = depth
        if best == n or depth + mask.bit_count() <= best:
            return
        pool = list(_bits(mask))
        # Vectors compatible with the whole pool can be taken greedily: by
        # matroid exchange some maximum solution contains any maximal
        # independent subset of them, so they never need to be branched on.
        universal = [i for i in pool if compat[i] & mask == mask]
        if universal:
            for i in universal:
                grown = annihilate(ann, cands[i])
                if grown is not None:
                    ann = grown
                    depth += 1
                    if depth == n:
                        best = n
                        return
                mask ^= 1 << i
            pool = [i for i in pool if mask >> i & 1]
            if depth > best:
                best = depth
            if best == n:
                return
            if depth + len(pool) <= best:
                return
        # No superset of the chosen vectors inside the compatible pool can
        # exceed the pool's joint rank; skip the subtree when that rank
        # cannot beat the current best.
        reach, rows = depth, ann
        for i in pool:
            if reach > best:
                break
            grown = annihilate(rows, cands[i])
            if grown is not None:
                rows = grown
                reach += 1
        if reach <= best:
            return
        for pos, i in enumerate(pool):
            if depth + len(pool) - pos <= best:
                break
            grown = annihilate(ann, cands[i])
            if grown is not None:
                extend(depth + 1, grown, (mask & compat[i]) >> (i + 1) << (i + 1))

    extend(0, identity(n), (1 << N) - 1)
    return best
