import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arquiver import root_system as rs
from arquiver.orders import order_from_word
from arquiver.quiver import all_orientations, coxeter_word
from arquiver.root_system import CartanDatum, EpsilonForm, RootSystemError


def test_positive_root_counts():
    assert len(rs.enumerate_positive_roots(CartanDatum("D", 4))) == 12
    assert len(rs.enumerate_positive_roots(CartanDatum("D", 5))) == 20
    assert len(rs.enumerate_positive_roots(CartanDatum("A", 2))) == 3


def test_a2_roots_explicitly():
    roots = rs.enumerate_positive_roots(CartanDatum("A", 2))
    assert roots == {(1, 0), (0, 1), (1, 1)}


def test_d5_contains_e1_plus_e2():
    roots = rs.enumerate_positive_roots(CartanDatum("D", 5))
    assert (1, 2, 2, 1, 1) in roots


def test_rank_minimums():
    with pytest.raises(RootSystemError):
        CartanDatum("D", 3)
    with pytest.raises(RootSystemError):
        CartanDatum("A", 0)
    with pytest.raises(RootSystemError):
        CartanDatum("E", 6)


def test_diagram_shape_d():
    datum = CartanDatum("D", 5)
    assert datum.edges == ((1, 2), (2, 3), (3, 4), (3, 5))
    assert datum.distance(1, 5) == 3
    assert datum.distance(4, 5) == 2
    assert datum.coxeter_number == 8
    assert datum.cartan(3, 5) == -1
    assert datum.cartan(4, 5) == 0


def test_epsilon_form_examples(d4):
    assert rs.epsilon_form(d4, (1, 2, 1, 1)) == EpsilonForm(1, 2)
    assert rs.epsilon_form(d4, d4.simple_root(4)) == EpsilonForm(3, 4)
    for k in (1, 2):
        assert rs.epsilon_form(d4, d4.simple_root(k)) == EpsilonForm(k, -(k + 1))
    d5 = CartanDatum("D", 5)
    for k in (1, 2, 3):
        assert rs.epsilon_form(d5, d5.simple_root(k)) == EpsilonForm(k, -(k + 1))


def test_epsilon_form_bijection():
    for n in (4, 5, 6):
        datum = CartanDatum("D", n)
        seen = set()
        for root in rs.enumerate_positive_roots(datum):
            eps = rs.epsilon_form(datum, root)
            assert 1 <= eps.a < abs(eps.b_signed) <= n
            assert rs.root_from_epsilon(datum, eps) == root
            seen.add(eps)
        assert len(seen) == n * (n - 1)


def test_epsilon_form_rejects_type_a():
    a3 = CartanDatum("A", 3)
    with pytest.raises(RootSystemError):
        rs.epsilon_form(a3, a3.simple_root(1))


def test_reflect_examples(d4):
    # s_4(e1 - e4) = e1 + e3
    assert rs.reflect(d4, 4, (1, 1, 1, 0)) == (1, (1, 1, 1, 1))
    # s_i(alpha_i) = -alpha_i
    for i in d4.vertices:
        assert rs.reflect(d4, i, d4.simple_root(i)) == (-1, d4.simple_root(i))
    # s_2 fixes e2 + e3 (orthogonal)
    e2e3 = rs.root_from_epsilon(d4, EpsilonForm(2, 3))
    assert rs.reflect(d4, 2, e2e3) == (1, e2e3)


def test_reflect_is_involution_permuting_roots():
    for n in (4, 5):
        datum = CartanDatum("D", n)
        roots = rs.enumerate_positive_roots(datum)
        for i in datum.vertices:
            images = set()
            for root in roots:
                once = rs.reflect(datum, i, root)
                assert rs.reflect(datum, i, once) == (1, root)
                if root != datum.simple_root(i):
                    sign, image = once
                    assert sign == 1
                    images.add(image)
            assert images == roots - {datum.simple_root(i)}


def test_apply_word_examples(d4):
    assert rs.apply_word(d4, (3, 2, 1, 4), (1, 1, 1, 0)) == (1, (0, 1, 0, 1))
    root = (1, 2, 1, 1)
    assert rs.apply_word(d4, (), root) == (1, root)


def _reference_apply_word(datum, word, root):
    """The former body of ``rs.apply_word``: one ``reflect`` per letter."""
    current = rs._as_signed(datum, root)
    for i in reversed(word):
        current = rs.reflect(datum, i, current)
    return current


@pytest.mark.parametrize(
    "diagram, rank", [("A", n) for n in range(1, 7)] + [("D", n) for n in range(4, 9)]
)
def test_apply_word_equals_one_reflect_per_letter(diagram, rank):
    datum = CartanDatum(diagram, rank)
    roots = sorted(rs.enumerate_positive_roots(datum))
    for quiver in all_orientations(datum):
        word = coxeter_word(quiver)
        for root in roots:
            for given_as in (root, (1, root), (-1, root)):
                expected = _reference_apply_word(datum, word, given_as)
                assert rs.apply_word(datum, word, given_as) == expected


D4 = CartanDatum("D", 4)
E1_MINUS_E2 = (1, 0, 0, 0)
W0_D4 = (1, 2, 3, 1, 2, 4, 1, 2, 3, 1, 2, 4)  # a reduced word of the longest element


_BAD_CALLS = {
    "apply_word-letter-0": (
        lambda: rs.apply_word(D4, (0,), E1_MINUS_E2), "letter 0 is not a vertex in 1..4"
    ),
    # letter 0 must not wrap round to coordinate 4 and act as s_4
    "apply_word-letter-0-on-alpha4": (
        lambda: rs.apply_word(D4, (0,), D4.simple_root(4)), "letter 0 is not"
    ),
    "apply_word-letter-minus-1": (
        lambda: rs.apply_word(D4, (2, -1), E1_MINUS_E2), "letter -1 is not"
    ),
    "apply_word-letter-5": (lambda: rs.apply_word(D4, (5, 1), E1_MINUS_E2), "letter 5 is not"),
    "is_reduced-letter-9": (lambda: rs.is_reduced(D4, (1, 9)), "letter 9 is not"),
    "reflect-letter-5": (lambda: rs.reflect(D4, 5, E1_MINUS_E2), "letter 5 is not"),
    "reflect-letter-0": (lambda: rs.reflect(D4, 0, E1_MINUS_E2), "letter 0 is not"),
    "reflect-letter-minus-1": (lambda: rs.reflect(D4, -1, (-1, E1_MINUS_E2)), "letter -1 is not"),
    "apply_word-short-root": (
        lambda: rs.apply_word(D4, (1,), (1, 0, 0)), "has 3 coefficients, rank is 4"
    ),
    "apply_word-long-signed-root": (
        lambda: rs.apply_word(D4, (), (-1, (1, 0, 0, 0, 0))), "has 5 coefficients"
    ),
    "reflect-short-root": (lambda: rs.reflect(D4, 1, (1, 0, 0)), "has 3 coefficients"),
    "pairing-short-right": (lambda: D4.pairing(E1_MINUS_E2, (1, 0, 0)), "cannot pair"),
    "pairing-both-short": (lambda: D4.pairing((1, 0, 0), (1, 0, 0)), "cannot pair"),
    "pairing-long-left": (lambda: D4.pairing((1, 0, 0, 0, 0), E1_MINUS_E2), "cannot pair"),
    "order_from_word-letter-9": (lambda: order_from_word(D4, W0_D4[:11] + (9,)), "no vertex 9"),
}


@pytest.mark.parametrize("call, message", _BAD_CALLS.values(), ids=_BAD_CALLS.keys())
def test_root_arithmetic_rejects_a_bad_letter_or_length(call, message):
    with pytest.raises(RootSystemError, match=re.escape(message)):
        call()


def _reference_reflect(datum, i, root):
    """The former body of ``rs.reflect``, on 1-based neighbours."""
    sign, coeffs = rs._as_signed(datum, root)
    # <alpha_i^vee, beta> = 2 c_i - sum of c_j over the neighbours j of i
    pair = 2 * coeffs[i - 1] - sum(coeffs[j - 1] for j in datum.neighbor_table[i])
    out = list(coeffs)
    out[i - 1] -= pair
    # only coordinate i moved off a non-negative vector, and a root is never
    # mixed-sign: the image is negative exactly when that coordinate is
    if out[i - 1] < 0:
        return (-sign, tuple(-c for c in out))
    return (sign, tuple(out))


@pytest.mark.parametrize(
    "diagram, rank", [("A", n) for n in range(1, 8)] + [("D", n) for n in range(4, 10)]
)
def test_reflect_equals_its_reference(diagram, rank):
    datum = CartanDatum(diagram, rank)
    for root in sorted(rs.enumerate_positive_roots(datum)):
        for i in datum.vertices:
            for given_as in (root, (1, root), (-1, root)):
                assert rs.reflect(datum, i, given_as) == _reference_reflect(datum, i, given_as)


def test_longest_element_negates_with_star(d4):
    word = (1, 2, 3, 1, 2, 4, 1, 2, 3, 1, 2, 4)
    assert rs.is_reduced(d4, word)
    star = rs.longest_element_star(d4)
    for i in d4.vertices:
        sign, image = rs.apply_word(d4, word, d4.simple_root(i))
        assert sign == -1 and image == d4.simple_root(star[i])
    a2 = CartanDatum("A", 2)
    star_a = rs.longest_element_star(a2)
    for i in a2.vertices:
        sign, image = rs.apply_word(a2, (1, 2, 1), a2.simple_root(i))
        assert sign == -1 and image == a2.simple_root(star_a[i])


def test_star_involution_values():
    assert rs.longest_element_star(CartanDatum("D", 4)) == {1: 1, 2: 2, 3: 3, 4: 4}
    d5_star = rs.longest_element_star(CartanDatum("D", 5))
    assert d5_star[4] == 5 and d5_star[5] == 4 and d5_star[1] == 1


def test_root_stats(d4):
    gamma = (1, 2, 1, 1)  # e1 + e2
    assert rs.ht(gamma) == 5
    assert rs.supp_ge(gamma, 1) == {1, 2, 3, 4}
    assert rs.supp_ge(gamma, 2) == {2}
    assert rs.mul(gamma) == 2
    for i in d4.vertices:
        assert rs.ht(d4.simple_root(i)) == 1
        assert rs.mul(d4.simple_root(i)) == 1
    d5 = CartanDatum("D", 5)
    root = rs.root_from_epsilon(d5, EpsilonForm(1, 3))
    assert root == (1, 1, 2, 1, 1)
    assert rs.mul(root) == 2 and rs.supp_ge(root, 2) == {3}


def test_multiplicity_nonfree_census():
    for n in (4, 5, 6, 7):
        datum = CartanDatum("D", n)
        tall = {
            root
            for root in rs.enumerate_positive_roots(datum)
            if rs.mul(root) >= 2
        }
        assert len(tall) == (n - 3) * (n - 2) // 2
        for root in tall:
            eps = rs.epsilon_form(datum, root)
            assert 0 < eps.b_signed <= n - 2


def test_is_reduced(d4):
    assert rs.is_reduced(d4, ())
    assert rs.is_reduced(d4, (1, 2))
    assert not rs.is_reduced(d4, (1, 1))
    assert rs.is_reduced(CartanDatum("A", 2), (1, 2, 1))


def test_parse_and_format(d4):
    assert rs.parse_root(d4, "[1,2,1,1]") == (1, 2, 1, 1)
    assert rs.parse_root(d4, "e1+e2") == (1, 2, 1, 1)
    assert rs.parse_root(d4, "<1,-4>") == (1, 1, 1, 0)
    assert rs.parse_root(d4, "e1-e3") == (1, 1, 0, 0)
    assert rs.format_root(d4, (1, 2, 1, 1)) == "<1,2>"
    assert rs.format_root(CartanDatum("A", 2), (1, 1)) == "[1,1]"
    with pytest.raises(RootSystemError):
        rs.parse_root(d4, "[1,1]")
    with pytest.raises(RootSystemError):
        rs.parse_root(d4, "[2,0,0,0]")
    with pytest.raises(RootSystemError):
        rs.parse_root(d4, "e1*e2")
    assert rs.parse_root(d4, "[ 1 , 2,1, 1 ]") == (1, 2, 1, 1)
    # each comma-separated slot holds exactly one integer
    for bad in ("[1 2 1 1]", "[1,,2,1,1]", "[,1,2,1,1,]", "[1,2,1,1,]", "[]"):
        with pytest.raises(RootSystemError, match="cannot parse root"):
            rs.parse_root(d4, bad)


def _reference_root_from_epsilon(datum, eps):
    # the three-case body root_from_epsilon had before it took partial sums, verbatim
    if datum.diagram_type != "D":
        raise RootSystemError("epsilon forms are defined for type D only")
    n = datum.rank
    a, b = eps.a, abs(eps.b_signed)
    if not (1 <= a < b <= n):
        raise RootSystemError(f"bad epsilon form {eps}")
    coeffs = [0] * n
    if eps.b_signed < 0:  # e_a - e_b = alpha_a + ... + alpha_{b-1}
        for k in range(a, b):
            coeffs[k - 1] += 1
    elif b == n:  # e_a + e_n
        for k in range(a, n - 1):
            coeffs[k - 1] += 1
        coeffs[n - 1] += 1
    else:  # e_a + e_b with b < n
        for k in range(a, b):
            coeffs[k - 1] += 1
        for k in range(b, n - 1):
            coeffs[k - 1] += 2
        coeffs[n - 2] += 1
        coeffs[n - 1] += 1
    root = tuple(coeffs)
    if root not in rs.enumerate_positive_roots(datum):
        raise RootSystemError(f"bad epsilon form {eps}")
    return root


def _root_or_message(fn, datum, eps):
    try:
        return fn(datum, eps)
    except RootSystemError as exc:
        return str(exc)


@pytest.mark.parametrize("rank", range(4, 11))
def test_root_from_epsilon_equals_the_reference(rank):
    datum = CartanDatum("D", rank)
    for a in range(rank + 2):
        for b in range(-rank - 1, rank + 2):
            eps = EpsilonForm(a, b)
            assert _root_or_message(rs.root_from_epsilon, datum, eps) == (
                _root_or_message(_reference_root_from_epsilon, datum, eps)
            ), eps
    a3, eps = CartanDatum("A", 3), EpsilonForm(1, 2)
    assert _root_or_message(rs.root_from_epsilon, a3, eps) == (
        _root_or_message(_reference_root_from_epsilon, a3, eps)
    )


def _bfs_distances(datum):
    """Diagram distances by breadth-first search over `edges` alone."""
    links = {i: set() for i in datum.vertices}
    for i, j in datum.edges:
        links[i].add(j)
        links[j].add(i)
    table = {}
    for source in datum.vertices:
        dist, frontier = {source: 0}, [source]
        while frontier:
            nxt = []
            for u in frontier:
                for v in links[u] - dist.keys():
                    dist[v] = dist[u] + 1
                    nxt.append(v)
            frontier = nxt
        table[source] = dist
    return links, table


@pytest.mark.parametrize(
    "diagram, rank", [("D", n) for n in (4, 5, 6)] + [("A", n) for n in (1, 2, 3, 4)]
)
def test_pairing_matches_the_cartan_matrix(diagram, rank):
    datum = CartanDatum(diagram, rank)
    links, dist = _bfs_distances(datum)
    for i in datum.vertices:
        assert datum.neighbors(i) == tuple(sorted(links[i]))
        for j in datum.vertices:
            assert datum.adjacent(i, j) == (j in links[i])
            assert datum.distance(i, j) == dist[i][j]
    matrix = {
        (i, j): 2 if i == j else (-1 if j in links[i] else 0)
        for i in datum.vertices
        for j in datum.vertices
    }
    assert all(datum.cartan(i, j) == a for (i, j), a in matrix.items())
    roots = sorted(rs.enumerate_positive_roots(datum))
    for a in roots:
        for b in roots:
            reference = sum(
                a[i - 1] * b[j - 1] * matrix[i, j]
                for i in datum.vertices
                for j in datum.vertices
            )
            assert datum.pairing(a, b) == reference
        for i in datum.vertices:
            # s_i(c) = c - (sum_j a_ij c_j) e_i
            image = list(a)
            image[i - 1] -= sum(matrix[i, j] * a[j - 1] for j in datum.vertices)
            sign = -1 if min(image) < 0 else 1
            assert rs.reflect(datum, i, a) == (sign, tuple(sign * c for c in image))


@pytest.mark.parametrize("rank", range(4, 9))
def test_summand_class_holds_every_carrier(rank):
    datum = CartanDatum("D", rank)
    roots = rs.enumerate_positive_roots(datum)
    for s in [*range(1, rank + 1), *range(-rank, 0)]:
        carriers = {r for r in roots if s in rs.epsilon_form(datum, r)}
        assert rs.summand_class(datum, s) == carriers


@pytest.mark.parametrize(
    "diagram, rank", [("A", n) for n in range(1, 9)] + [("D", n) for n in range(4, 11)]
)
def test_root_sums_holds_every_pair_of_summands(diagram, rank):
    datum = CartanDatum(diagram, rank)
    roots = rs.enumerate_positive_roots(datum)
    expected = {gamma: set() for gamma in roots}
    for alpha in roots:
        for beta in roots:
            total = tuple(a + b for a, b in zip(alpha, beta))
            if total in roots:
                expected[total].add(frozenset((alpha, beta)))
    table = rs.root_sums(datum)
    assert table.keys() == roots
    for gamma, pairs in table.items():
        assert len(set(map(frozenset, pairs))) == len(pairs)
        assert set(map(frozenset, pairs)) == expected[gamma]


@st.composite
def signed_roots(draw):
    diagram = draw(st.sampled_from("AD"))
    rank = draw(st.integers(1 if diagram == "A" else 4, 9))
    datum = CartanDatum(diagram, rank)
    root = draw(st.sampled_from(sorted(rs.enumerate_positive_roots(datum))))
    return datum, (draw(st.sampled_from((1, -1))), root), draw(st.integers(1, rank))


@settings(max_examples=150, deadline=None, database=None)
@given(signed_roots())
def test_reflect_is_an_involution_of_the_signed_roots(case):
    datum, root, i = case
    image = rs.reflect(datum, i, root)
    assert image[0] in (1, -1)
    assert image[1] in rs.enumerate_positive_roots(datum)
    assert rs.reflect(datum, i, image) == root


@st.composite
def typed_roots(draw):
    diagram = draw(st.sampled_from("AD"))
    rank = draw(st.integers(1, 9) if diagram == "A" else st.integers(4, 12))
    datum = CartanDatum(diagram, rank)
    return datum, draw(st.sampled_from(sorted(rs.enumerate_positive_roots(datum))))


@settings(max_examples=150, deadline=None, database=None)
@given(typed_roots())
def test_parse_root_reads_back_format_root(case):
    datum, root = case
    assert rs.parse_root(datum, rs.format_root(datum, root)) == root


@settings(max_examples=150, deadline=None, database=None)
@given(signed_roots(), st.data())
def test_apply_word_equals_one_reflect_per_letter_on_random_words(case, data):
    datum, root, _ = case
    word = tuple(data.draw(st.lists(st.integers(1, datum.rank), max_size=40)))
    assert rs.apply_word(datum, word, root) == _reference_apply_word(datum, word, root)
