import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtorus.valuegroup import (
    ValueGroup,
    ValueGroupError,
    embed,
    merge,
)


def test_validation():
    with pytest.raises(ValueGroupError):
        ValueGroup(("q", "q"), 1)
    with pytest.raises(ValueGroupError):
        ValueGroup(("",), 1)
    with pytest.raises(ValueGroupError):
        ValueGroup((), 0)


def test_combine_examples():
    g = ValueGroup(("a", "b"), 1)
    e = g.element((1, 0))
    assert e + g.identity() == e
    assert g.element((1, 0)) + g.element((0, 2)) == g.element((1, 2))
    g5 = ValueGroup((), 5)
    assert g5.element((), 3) + g5.element((), 4) == g5.element((), 2)


def test_is_identity():
    g = ValueGroup(("a",), 7)
    assert g.identity().is_identity()
    assert not g.element((1,)).is_identity()
    assert not g.element((0,), 3).is_identity()
    assert ValueGroup((), 7).element((), 0).is_identity()


def test_mismatched_groups_rejected():
    g1, g2 = ValueGroup(("a",), 1), ValueGroup(("b",), 1)
    with pytest.raises(ValueGroupError):
        g1.element((1,)) + g2.element((1,))


elements = st.tuples(
    st.lists(st.integers(-8, 8), min_size=2, max_size=2), st.integers(0, 5)
)


@given(elements, elements, elements)
@settings(max_examples=100, deadline=None)
def test_group_laws(a, b, c):
    g = ValueGroup(("x", "y"), 6)
    ea, eb, ec = (g.element(tuple(v), t) for v, t in (a, b, c))
    assert ea + eb == eb + ea
    assert (ea + eb) + ec == ea + (eb + ec)
    assert ea + g.identity() == ea
    assert (ea + (-ea)).is_identity()
    assert 3 * ea == ea + ea + ea


def test_merge_shared_same_group():
    g = ValueGroup(("q",), 1)
    merged, emb1, emb2 = merge(g, g, "shared")
    assert merged == g and emb1 == (0,) and emb2 == (0,)


def test_merge_disjoint_renames():
    g = ValueGroup(("q",), 1)
    merged, _, emb2 = merge(g, g, "disjoint")
    assert merged.free_names == ("q", "q'")
    assert emb2 == (1,)


def test_merge_shared_union():
    merged, _, emb2 = merge(ValueGroup(("q1",), 1), ValueGroup(("q2",), 1), "shared")
    assert merged.free_names == ("q1", "q2")
    assert emb2 == (1,)


def test_merge_torsion_rules():
    g2, g3 = ValueGroup((), 2), ValueGroup((), 3)
    with pytest.raises(ValueGroupError):
        merge(g2, g3, "shared")
    merged, _, _ = merge(g2, ValueGroup((), 1), "shared")
    assert merged.torsion_order == 2
    merged, _, _ = merge(g2, g3, "disjoint")
    assert merged.torsion_order == 6


@given(elements, elements)
@settings(max_examples=60, deadline=None)
def test_merge_embeddings_are_homomorphisms(a, b):
    g1 = ValueGroup(("x", "y"), 6)
    g2 = ValueGroup(("y", "z"), 6)
    merged, emb1, emb2 = merge(g1, g2, "shared")
    for g, emb in ((g1, emb1), (g2, emb2)):
        ea = g.element(tuple(a[0]), a[1])
        eb = g.element(tuple(b[0]), b[1])
        assert embed(ea + eb, merged, emb) == embed(ea, merged, emb) + embed(eb, merged, emb)
        assert embed(ea, merged, emb).is_identity() == ea.is_identity()


@pytest.mark.parametrize(
    "free, torsion, value",
    [([2.7], 1, "2.7"), ([2], 1.9, "1.9"), (["1"], 0, "'1'")],
)
def test_non_integer_parts_are_refused(free, torsion, value):
    # never truncated to an integer
    with pytest.raises(ValueGroupError, match=f"got {value}$"):
        ValueGroup(("q",), 3).element(free, torsion)
    with pytest.raises(ValueGroupError, match="got 0.5$"):
        0.5 * ValueGroup(("q",), 3).generator("q")
