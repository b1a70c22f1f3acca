import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arquiver import ar_quiver, orders
from arquiver import root_system as rs
from arquiver.quiver import (
    DynkinQuiver,
    QuiverError,
    VertexClass,
    all_orientations,
    check_height_function,
    classify_vertex,
    coxeter_word,
    is_adapted,
    make_height_function,
    parse_arrow_spec,
)
from arquiver.root_system import CartanDatum

from conftest import arrow_ends, eta_zeta


def _classify(quiver, i):
    return classify_vertex(quiver.datum, make_height_function(quiver, 1, 0), i)


def test_classify_example1(example1_quiver):
    assert _classify(example1_quiver, 3) is VertexClass.SOURCE
    assert _classify(example1_quiver, 1) is VertexClass.SINK
    assert _classify(example1_quiver, 4) is VertexClass.SINK
    # branch vertex with mixed spin arrows
    assert _classify(example1_quiver, 2) is VertexClass.OTHER
    xi = make_height_function(example1_quiver, 3, 0)
    for i in (0, 5, -1):
        with pytest.raises(QuiverError, match="no vertex"):
            classify_vertex(example1_quiver.datum, xi, i)


def test_classify_intermediates():
    d5 = CartanDatum("D", 5)
    quiver = parse_arrow_spec(d5, "3>2,2>1,4>3,3>5")
    # arrows 3>2 and 2>1: vertex 2 receives from the right, emits left
    assert _classify(quiver, 2) is VertexClass.RIGHT_INTERMEDIATE
    quiver = parse_arrow_spec(d5, "1>2,2>3,3>4,3>5")
    assert _classify(quiver, 2) is VertexClass.LEFT_INTERMEDIATE
    # branch vertex tridents
    assert _classify(quiver, 3) is VertexClass.LEFT_INTERMEDIATE
    quiver = parse_arrow_spec(d5, "1>2,3>2,4>3,5>3")
    assert _classify(quiver, 3) is VertexClass.RIGHT_INTERMEDIATE


def test_valence_one_always_source_or_sink():
    for datum in (CartanDatum("D", 4), CartanDatum("A", 3)):
        leaves = [i for i in datum.vertices if len(datum.neighbor_table[i]) == 1]
        for quiver in all_orientations(datum):
            for i in leaves:
                assert _classify(quiver, i) in (
                    VertexClass.SOURCE,
                    VertexClass.SINK,
                )


def test_is_adapted(example1_quiver, d4):
    assert is_adapted((), example1_quiver)
    assert is_adapted((3, 2), example1_quiver)
    assert not is_adapted((2,), example1_quiver)
    word = (1, 2, 3, 1, 2, 4, 1, 2, 3, 1, 2, 4)
    for quiver in all_orientations(d4):
        assert not is_adapted(word, quiver)
    # (2, 9): 2 is no source, but the stray 9 is reported all the same
    for word in ((5,), (0,), (1, 5, 5, -3), (2, 9)):
        with pytest.raises(QuiverError):
            is_adapted(word, DynkinQuiver.from_bitmask(d4, 0))


def test_coxeter_word(example1_quiver):
    assert coxeter_word(example1_quiver) == (3, 2, 1, 4)
    a4 = CartanDatum("A", 4)
    linear = DynkinQuiver.from_arrows(a4, [(1, 2), (2, 3), (3, 4)])
    assert coxeter_word(linear) == (1, 2, 3, 4)


def test_coxeter_word_adapted_everywhere():
    for n in (4, 5, 6):
        datum = CartanDatum("D", n)
        for quiver in all_orientations(datum):
            word = coxeter_word(quiver)
            assert sorted(word) == list(datum.vertices)
            assert is_adapted(word, quiver)


def test_eta_zeta_examples(example1_quiver):
    eta1, _ = eta_zeta(example1_quiver, 1)
    assert eta1 == (1, 1, 1, 0)
    eta3, zeta3 = eta_zeta(example1_quiver, 3)
    assert eta3 == (0, 0, 1, 0)
    assert zeta3 == (1, 1, 1, 1)  # 3 reaches every vertex
    eta4, _ = eta_zeta(example1_quiver, 4)
    assert eta4 == (0, 1, 1, 1)


def test_eta_zeta_multiplicity_free():
    for n in (4, 5, 6, 7):
        datum = CartanDatum("D", n)
        roots = rs.enumerate_positive_roots(datum)
        for quiver in all_orientations(datum):
            for i in datum.vertices:
                eta, zeta = eta_zeta(quiver, i)
                assert eta in roots and rs.mul(eta) == 1
                assert zeta in roots and rs.mul(zeta) == 1


def test_make_height_function(example1_quiver):
    assert make_height_function(example1_quiver, 3, 0) == (-2, -1, 0, -2)
    shifted = make_height_function(example1_quiver, 3, 10)
    assert shifted == (8, 9, 10, 8)
    with pytest.raises(QuiverError, match=r"^no vertex 9$"):
        make_height_function(example1_quiver, 9, 0)


def test_check_height_function_rejects_a_wrong_xi(example1_quiver):
    check_height_function(example1_quiver, (-2, -1, 0, -2))
    with pytest.raises(QuiverError, match=r"^height function has wrong length$"):
        check_height_function(example1_quiver, (-2, -1, 0))
    violated = r"^height function violates arrow 2>4: xi_4=0 != xi_2-1$"
    with pytest.raises(QuiverError, match=violated):
        check_height_function(example1_quiver, (-2, -1, 0, 0))


def test_height_spin_gap_and_parity():
    for n in (4, 5):
        datum = CartanDatum("D", n)
        for quiver in all_orientations(datum):
            xi = make_height_function(quiver, n, 0)
            assert abs(xi[n - 2] - xi[n - 1]) in (0, 2)
            # anchoring the last vertex at 0 makes both spin heights even
            assert xi[n - 2] % 2 == 0 and xi[n - 1] % 2 == 0


def test_bitmask_roundtrip():
    datum = CartanDatum("D", 5)
    quivers = list(all_orientations(datum))
    assert len(quivers) == 16
    for mask, quiver in enumerate(quivers):
        assert DynkinQuiver.from_bitmask(datum, mask) == quiver


def test_parse_arrow_spec_errors(d4):
    with pytest.raises(QuiverError):
        parse_arrow_spec(d4, "1>3,2>3,2>4")  # 1-3 is not an edge
    with pytest.raises(QuiverError):
        parse_arrow_spec(d4, "1>2,2>1,3>2,2>4")  # duplicate edge
    with pytest.raises(QuiverError):
        parse_arrow_spec(d4, "1>2,2>3")  # missing edge
    with pytest.raises(QuiverError, match="not oriented"):
        parse_arrow_spec(d4, " ")  # a blank spec orients no edge
    with pytest.raises(QuiverError, match="cannot parse arrow"):
        parse_arrow_spec(d4, "1>2,,3>2,2>4")  # an empty chunk in a spec is still bad


def test_blank_arrow_spec_is_the_edgeless_a1():
    a1 = CartanDatum("A", 1)
    assert parse_arrow_spec(a1, "") == parse_arrow_spec(a1, "  ") == DynkinQuiver(a1, ())


# --- the former arrow-walking bodies, kept to pin the height-function ones ------


def _reference_reflect_quiver(quiver, i):
    """Reverse every arrow incident to vertex i."""
    flipped = tuple(
        (dst, src) if i in (src, dst) else (src, dst) for src, dst in quiver.arrows
    )
    return DynkinQuiver.from_arrows(quiver.datum, flipped)


def _reference_is_adapted(word, quiver):
    """Each letter must be a source of the quiver reflected at all earlier letters."""
    current = quiver
    for i in word:
        if arrow_ends(current, i)[0]:
            return False
        current = _reference_reflect_quiver(current, i)
    return True


def _reference_coxeter_word(quiver):
    """The source-peeling word: repeatedly remove the smallest current source."""
    current = quiver
    remaining = set(quiver.datum.vertices)
    word = []
    while remaining:
        source = min(i for i in remaining if not arrow_ends(current, i)[0])
        word.append(source)
        remaining.discard(source)
        current = _reference_reflect_quiver(current, source)
    return tuple(word)


def _reference_eta_zeta(quiver, i):
    """eta_i sums alpha_j over j with a path j ~> i, zeta_i over i ~> j."""
    datum = quiver.datum
    eta = [0] * datum.rank
    for j in _reference_reachable(quiver, i, backwards=True):
        eta[j - 1] = 1
    zeta = [0] * datum.rank
    for j in _reference_reachable(quiver, i, backwards=False):
        zeta[j - 1] = 1
    return tuple(eta), tuple(zeta)


def _reference_reachable(quiver, start, backwards):
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for v in arrow_ends(quiver, u)[0 if backwards else 1]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return seen


def _reference_make_height_function(quiver, anchor_vertex, anchor_value):
    """The unique xi with xi_j = xi_i - 1 along arrows and the given anchor."""
    datum = quiver.datum
    if anchor_vertex not in datum.vertices:
        raise QuiverError(f"no vertex {anchor_vertex}")
    xi: dict[int, int] = {anchor_vertex: anchor_value}
    frontier = [anchor_vertex]
    while frontier:
        nxt = []
        for u in frontier:
            into, out_of = arrow_ends(quiver, u)
            for v in out_of:
                if v not in xi:
                    xi[v] = xi[u] - 1
                    nxt.append(v)
            for v in into:
                if v not in xi:
                    xi[v] = xi[u] + 1
                    nxt.append(v)
        frontier = nxt
    return tuple(xi[i] for i in datum.vertices)


def _reference_classify_vertex(quiver, i):
    """The former classify_vertex, scanning the arrows at i."""
    datum = quiver.datum
    if i not in datum.vertices:
        raise QuiverError(f"no vertex {i}")
    incoming = {src for src, dst in quiver.arrows if dst == i}
    outgoing = {dst for src, dst in quiver.arrows if src == i}
    if not incoming:
        return VertexClass.SOURCE
    if not outgoing:
        return VertexClass.SINK
    n = datum.rank
    if datum.diagram_type == "D" and i == n - 2:
        spin = {n - 1, n}
        if incoming == spin and outgoing == {n - 3}:
            return VertexClass.RIGHT_INTERMEDIATE
        if incoming == {n - 3} and outgoing == spin:
            return VertexClass.LEFT_INTERMEDIATE
        return VertexClass.OTHER
    if incoming == {i + 1} and outgoing == {i - 1}:
        return VertexClass.RIGHT_INTERMEDIATE
    if incoming == {i - 1} and outgoing == {i + 1}:
        return VertexClass.LEFT_INTERMEDIATE
    return VertexClass.OTHER


PINNED_TYPES = [("A", n) for n in range(1, 8)] + [("D", n) for n in range(4, 10)]


@pytest.mark.parametrize("diagram, rank", PINNED_TYPES)
def test_height_function_bodies_equal_the_arrow_walks(diagram, rank):
    for quiver in all_orientations(CartanDatum(diagram, rank)):
        word = coxeter_word(quiver)
        assert word == _reference_coxeter_word(quiver)
        assert is_adapted(word, quiver) and _reference_is_adapted(word, quiver)
        for i in quiver.datum.vertices:
            assert eta_zeta(quiver, i) == _reference_eta_zeta(quiver, i)
            for value in (0, -3):
                expected = _reference_make_height_function(quiver, i, value)
                assert make_height_function(quiver, i, value) == expected


@pytest.mark.parametrize("diagram, rank", [("A", n) for n in range(1, 10)]
                         + [("D", n) for n in range(4, 11)])
def test_coxeter_word_equals_its_reference(diagram, rank):
    for quiver in all_orientations(CartanDatum(diagram, rank)):
        assert coxeter_word(quiver) == _reference_coxeter_word(quiver)


@pytest.mark.parametrize("diagram, rank", [("A", n) for n in range(1, 10)]
                         + [("D", n) for n in range(4, 11)])
def test_classify_vertex_equals_the_arrow_scan(diagram, rank):
    datum = CartanDatum(diagram, rank)
    seen = set()
    for quiver in all_orientations(datum):
        for anchor in (0, -3):
            xi = make_height_function(quiver, 1, anchor)
            for i in datum.vertices:
                expected = _reference_classify_vertex(quiver, i)
                assert classify_vertex(datum, xi, i) is expected, (quiver.arrows, i)
                seen.add(expected)
    # A1 is one source and A2 has only leaves; a mixed fork needs type D
    assert len(seen) == {1: 1, 2: 2}.get(rank, 4 if diagram == "A" else 5)


@pytest.mark.parametrize("diagram, rank", PINNED_TYPES)
def test_is_adapted_equals_the_arrow_walk_on_canonical_words(diagram, rank):
    for quiver in all_orientations(CartanDatum(diagram, rank)):
        ar = ar_quiver.build(quiver, make_height_function(quiver, rank, 0), validate=False)
        for tag in orders.STRATEGIES:
            word = orders.canonical_reading(ar, tag).word
            assert is_adapted(word, quiver) == _reference_is_adapted(word, quiver)


@st.composite
def oriented_words(draw):
    diagram, rank = draw(st.sampled_from(PINNED_TYPES))
    datum = CartanDatum(diagram, rank)
    quiver = DynkinQuiver.from_bitmask(datum, draw(st.integers(0, (1 << (rank - 1)) - 1)))
    # an adapted head (powers of the Coxeter word) lets the verdict fall late
    head = (coxeter_word(quiver) * 40)[: draw(st.integers(0, 40))]
    tail = draw(st.lists(st.integers(1, rank), max_size=40 - len(head)))
    return quiver, head + tuple(tail)


@settings(max_examples=300, deadline=None, database=None)
@given(oriented_words())
def test_is_adapted_equals_the_arrow_walk_on_random_words(case):
    quiver, word = case
    assert is_adapted(word, quiver) == _reference_is_adapted(word, quiver)
