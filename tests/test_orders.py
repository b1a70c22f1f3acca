import functools
import itertools
import random
import re

import pytest

from arquiver import ar_quiver, orders, verify
from arquiver import root_system as rs
from arquiver.ar_quiver import ARQuiver
from arquiver.orders import OrderError, Verdict
from arquiver.quiver import (
    DynkinQuiver,
    all_orientations,
    is_adapted,
    make_height_function,
    parse_arrow_spec,
)
from arquiver.root_system import CartanDatum

from conftest import (
    EXAMPLE1_ORDERS,
    _every_orientation,
    _reference_classify_pair,
    _reference_minimal_wrt,
    _reference_pairs_of,
)
from test_qaffine import _raised


def angle(datum, root):
    eps = rs.epsilon_form(datum, root)
    return (eps.a, eps.b_signed)


def test_order_from_word_d4(d4):
    word = (1, 2, 3, 1, 2, 4, 1, 2, 3, 1, 2, 4)
    order = orders.order_from_word(d4, word)
    assert len(order.roots) == 12
    assert set(order.roots) == rs.enumerate_positive_roots(d4)


def test_order_from_word_a2():
    a2 = CartanDatum("A", 2)
    order = orders.order_from_word(a2, (1, 2, 1))
    assert order.roots == ((1, 0), (1, 1), (0, 1))


def test_order_from_word_rejects_bad_input(d4):
    with pytest.raises(OrderError):
        orders.order_from_word(d4, (1, 2, 3))
    with pytest.raises(OrderError):
        orders.order_from_word(d4, (1,) * 12)


def test_canonical_readings_match_published_lists(example1_ar, d4):
    for tag, expected in EXAMPLE1_ORDERS.items():
        order = orders.canonical_reading(example1_ar, tag)
        assert [angle(d4, r) for r in order.roots] == expected
    firsts = {
        orders.canonical_reading(example1_ar, tag).roots[0]
        for tag in ("U1", "U2", "L1", "L2")
    }
    assert firsts == {example1_ar.root_at[(3, 0)]}


def test_canonical_reading_unknown_strategy(example1_ar):
    with pytest.raises(OrderError):
        orders.canonical_reading(example1_ar, "X9")


def test_all_readings_are_adapted_linear_extensions(example1_ar):
    count = 0
    for order in orders.all_readings(example1_ar):
        count += 1
        assert is_adapted(order.word, example1_ar.quiver)
        for coord in example1_ar.root_at:
            below = example1_ar.descendants(coord)
            for other in below:
                alpha = example1_ar.root_at[other]
                beta = example1_ar.root_at[coord]
                assert order.position[alpha] < order.position[beta]
        if count > 5:
            break


def test_readings_equal_commutation_class(example1_ar):
    words = {order.word for order in orders.all_readings(example1_ar)}
    seed = orders.canonical_reading(example1_ar, "U1").word
    assert words == orders.commutation_class(example1_ar.datum, seed)


def test_commutation_class_basics(d4):
    assert orders.commutation_class(d4, (1, 3)) == {(1, 3), (3, 1)}
    assert orders.commutation_class(d4, (2, 3)) == {(2, 3)}


@pytest.mark.parametrize("word, letter", [((1, 9), 9), ((0, 1), 0), ((2, 5, 3), 5)])
def test_commutation_class_rejects_letters_off_the_diagram(d4, word, letter):
    message = f"letter {letter} is not a vertex in 1..4"
    for words_of in (orders.commutation_class, rs.is_reduced):
        with pytest.raises(rs.RootSystemError, match=f"^{re.escape(message)}$"):
            words_of(d4, word)


def _reference_commutation_class(datum, word):
    """The former commutation_class, which asked the datum about each swap."""
    word = tuple(word)
    seen = {word}
    frontier = [word]
    while frontier:
        nxt = []
        for w in frontier:
            for k in range(len(w) - 1):
                a, b = w[k], w[k + 1]
                if a != b and b not in datum.neighbor_table.get(a, ()):
                    swapped = w[:k] + (b, a) + w[k + 2:]
                    if swapped not in seen:
                        seen.add(swapped)
                        nxt.append(swapped)
        frontier = nxt
    return frozenset(seen)


@pytest.mark.parametrize("diagram, rank", [("A", 1), ("A", 4), ("D", 4), ("D", 5)])
def test_commutation_class_equals_its_former_body(diagram, rank):
    datum = CartanDatum(diagram, rank)
    rng = random.Random(rank)
    for _ in range(20):
        word = tuple(rng.choice(datum.vertices) for _ in range(rng.randrange(9)))
        assert orders.commutation_class(datum, word) == _reference_commutation_class(datum, word)


def test_reading_words_are_the_words_of_every_reading(example1_ar):
    words = orders.reading_words(example1_ar)
    assert words == {order.word for order in orders.all_readings(example1_ar)}
    assert len(words) == 72
    assert orders.reading_words(example1_ar) is words


def test_one_walk_serves_the_readings_and_the_oracle(monkeypatch):
    # each rank-4 quiver's readings are enumerated once, by the oracle table's
    # walk, which check_readings_equal_class reads as well
    calls = []
    real = orders.all_readings

    def counted(ar):
        calls.append(ar)
        return real(ar)

    monkeypatch.setattr(orders, "all_readings", counted)
    report = verify.run_suite(4, {"orders"})
    assert report.ok
    assert len(calls) == 8 and len(set(map(id, calls))) == 8


def test_a_quiver_walks_its_readings_once(monkeypatch, example1_quiver):
    ar = ar_quiver.build(example1_quiver, make_height_function(example1_quiver, 3, 0))
    calls = []
    real = orders.all_readings

    def counted(ar):
        calls.append(ar)
        return real(ar)

    monkeypatch.setattr(orders, "all_readings", counted)
    assert ar.oracle is None
    for _ in range(3):
        for gamma, pair in orders.all_pairs(ar):
            orders.oracle_classify(ar, gamma, pair)
            orders.oracle_classify(ar, gamma, pair[::-1])
        words = orders.reading_words(ar)
    assert calls == [ar]
    assert ar.oracle[0] is words and len(words) == 72


def _reference_oracle_table(ar):
    """The former ``orders._oracle_table``: (gamma, alpha, beta) -> whether at
    least one reading makes the pair minimal, filled by a walk of every reading."""
    keys = [(gamma, *pair) for gamma, pair in orders.all_pairs(ar)]
    pending = keys
    for order in orders.all_readings(ar):
        if pending:
            pending = [(g, a, b) for g, a, b in pending if not orders.minimal_wrt(order, (a, b), g)]
    unwitnessed = set(pending)
    return {key: key not in unwitnessed for key in keys}


@pytest.mark.parametrize("diagram, ranks", [("D", (4,)), ("A", (2, 3, 4, 5))])
def test_oracle_classify_equals_the_former_table(diagram, ranks):
    for rank in ranks:
        for ar in _every_orientation(diagram, rank):
            table = _reference_oracle_table(ar)
            for gamma, pair in orders.all_pairs(ar):
                expected = Verdict.MINIMAL if table.get((gamma, *pair), False) else Verdict.NON_MINIMAL
                for either in (pair, pair[::-1]):
                    assert orders.oracle_classify(ar, gamma, either).verdict is expected


def test_pairs_of_longest_root(example1_ar, d4):
    gamma = rs.parse_root(d4, "e1+e2")
    pairs = orders.pairs_of(example1_ar, gamma)
    as_angles = {
        frozenset((angle(d4, a), angle(d4, b))) for a, b in pairs
    }
    assert as_angles == {
        frozenset({(1, -4), (2, 4)}),
        frozenset({(1, 3), (2, -3)}),
        frozenset({(1, -3), (2, 3)}),
        frozenset({(1, 4), (2, -4)}),
    }
    assert len(pairs) == rs.ht(gamma) - 1


def test_pairs_of_small_root(example1_ar, d4):
    gamma = (1, 1, 0, 0)  # alpha_1 + alpha_2
    pairs = orders.pairs_of(example1_ar, gamma)
    assert len(pairs) == 1
    assert set(pairs[0]) == {d4.simple_root(1), d4.simple_root(2)}
    with pytest.raises(OrderError):
        orders.pairs_of(example1_ar, d4.simple_root(1))


def test_pair_count_formula_holds(example1_ar):
    for gamma in example1_ar.phi:
        if rs.ht(gamma) < 2:
            continue
        assert len(orders.pairs_of(example1_ar, gamma)) == rs.ht(gamma) - 1


def test_classify_longest_root_pairs(example1_ar, d4):
    gamma = rs.parse_root(d4, "e1+e2")
    verdicts = {}
    for pair in orders.pairs_of(example1_ar, gamma):
        pv = orders.classify_pair(example1_ar, gamma, pair)
        verdicts[frozenset((angle(d4, pv.alpha), angle(d4, pv.beta)))] = pv
    nonmin = verdicts[frozenset({(1, 4), (2, -4)})]
    assert nonmin.verdict is Verdict.NON_MINIMAL
    wa, wb = nonmin.witness
    assert example1_ar.prec(nonmin.alpha, wa) and example1_ar.prec(wb, nonmin.beta)
    assert verdicts[frozenset({(1, 3), (2, -3)})].verdict is Verdict.MINIMAL
    minimal_count = sum(
        pv.verdict is Verdict.MINIMAL for pv in verdicts.values()
    )
    assert minimal_count == 3


def test_multiplicity_free_roots_have_only_minimal_pairs(example1_ar):
    for gamma in example1_ar.phi:
        if rs.ht(gamma) < 2 or rs.mul(gamma) >= 2:
            continue
        for pair in orders.pairs_of(example1_ar, gamma):
            pv = orders.classify_pair(example1_ar, gamma, pair)
            assert pv.verdict is Verdict.MINIMAL
            assert pv.order_tag in ("U1", "U2", "L1", "L2")


def test_minimal_wrt_positions(example1_ar, d4):
    gamma = rs.parse_root(d4, "e1+e2")
    u1 = orders.canonical_reading(example1_ar, "U1")
    pair = (rs.parse_root(d4, "<1,-4>"), rs.parse_root(d4, "<2,4>"))
    assert orders.minimal_wrt(u1, pair, gamma)
    bad = (rs.parse_root(d4, "<1,4>"), rs.parse_root(d4, "<2,-4>"))
    assert not orders.minimal_wrt(u1, bad, gamma)


def test_classify_rejects_non_pair(example1_ar, d4):
    gamma = rs.parse_root(d4, "e1+e2")
    with pytest.raises(OrderError):
        orders.classify_pair(example1_ar, gamma, (d4.simple_root(1), d4.simple_root(2)))


def test_oracle_agrees_on_example1(example1_ar):
    for gamma in sorted(example1_ar.phi):
        if rs.ht(gamma) < 2:
            continue
        for pair in orders.pairs_of(example1_ar, gamma):
            fast = orders.classify_pair(example1_ar, gamma, pair).verdict
            slow = orders.oracle_classify(example1_ar, gamma, pair).verdict
            assert fast == slow


def test_non_adapted_word_pair_never_minimal(d4):
    word = (1, 2, 3, 1, 2, 4, 1, 2, 3, 1, 2, 4)
    alpha = (0, 1, 1, 0)
    beta = d4.simple_root(4)
    gamma = (0, 1, 1, 1)
    for other in orders.commutation_class(d4, word):
        order = orders.order_from_word(d4, other)
        assert not orders.minimal_wrt(order, (alpha, beta), gamma)


def test_w0_word_from_reading_negates_simples(example1_ar, d4):
    word = orders.canonical_reading(example1_ar, "U1").word
    star = rs.longest_element_star(d4)
    for i in d4.vertices:
        sign, image = rs.apply_word(d4, word, d4.simple_root(i))
        assert sign == -1 and image == d4.simple_root(star[i])


def test_type_a_classifier_flags_unvalidated():
    # type-A verdicts carry no unvalidated flag any more: the verdict itself
    # must agree with the oracle
    a3 = CartanDatum("A", 3)
    quiver = parse_arrow_spec(a3, "1>2,2>3")
    ar = ar_quiver.build(quiver, make_height_function(quiver, 3, 0))
    gamma = (1, 1, 0)
    (pair,) = orders.pairs_of(ar, gamma)
    pv = orders.classify_pair(ar, gamma, pair)
    assert not hasattr(pv, "validated")
    assert orders.oracle_classify(ar, gamma, pair).verdict == pv.verdict


def test_type_d_classifier_is_validated(example1_ar, d4):
    gamma = rs.parse_root(d4, "e1+e2")
    pairs = orders.pairs_of(example1_ar, gamma)
    assert pairs
    for pair in pairs:
        pv = orders.classify_pair(example1_ar, gamma, pair)
        assert not hasattr(pv, "validated")
        assert orders.oracle_classify(example1_ar, gamma, pair).verdict == pv.verdict


def test_type_a_classifier_equals_the_oracle():
    # the dominance test is exact in type A as well as in type D
    pairs = 0
    for rank in (2, 3, 4, 5):
        for ar in _every_orientation("A", rank):
            for gamma, pair in orders.all_pairs(ar):
                expected = orders.oracle_classify(ar, gamma, pair).verdict
                assert orders.classify_pair(ar, gamma, pair).verdict == expected
                pairs += 1
    assert pairs == 418


def test_orient_pair_rejects_incomparable_roots(example1_ar):
    # the two spin-level vertices of one column share no path
    upper, lower = example1_ar.root_at[(3, -2)], example1_ar.root_at[(4, -2)]
    with pytest.raises(OrderError, match="incomparable"):
        orders.orient_pair(example1_ar, upper, lower)


def test_caches_are_declared_fields(example1_ar):
    ar = example1_ar
    for coord in ar.root_at:
        ar.descendants(coord)
    ar.sectional_paths()
    ar.swings()
    for tag in orders.STRATEGIES:
        orders.canonical_reading(ar, tag)
    for gamma, pair in orders.all_pairs(ar):
        orders.classify_pair(ar, gamma, pair)
        orders.oracle_classify(ar, gamma, pair)
    fresh = ARQuiver(ar.quiver, ar.xi, dict(ar.root_at), ar.arrows, ar.m)
    cached = {
        name
        for name, value in vars(ARQuiver).items()
        if isinstance(value, functools.cached_property)
    }
    assert set(vars(ar)) <= set(vars(fresh)) | cached


def test_all_pairs_walks_each_root_of_height_two_or_more(example1_ar):
    ar = example1_ar
    expected = [
        (gamma, pair)
        for gamma in sorted(ar.phi)
        if rs.ht(gamma) >= 2
        for pair in orders.pairs_of(ar, gamma)
    ]
    assert list(orders.all_pairs(ar)) == expected
    assert len(expected) == sum(rs.ht(gamma) - 1 for gamma in ar.phi)


def test_canonical_readings_are_built_and_checked_once_per_quiver(monkeypatch):
    d5 = CartanDatum("D", 5)
    quiver = parse_arrow_spec(d5, "1>2,3>2,3>4,5>3")
    ar = ar_quiver.build(quiver, make_height_function(quiver, 5, 0))
    checked = []
    check = orders.ConvexOrder.check_convexity

    def counted(order):
        checked.append(order)
        check(order)

    monkeypatch.setattr(orders.ConvexOrder, "check_convexity", counted)
    first = {tag: orders.canonical_reading(ar, tag) for tag in orders.STRATEGIES}
    for gamma, pair in orders.all_pairs(ar):
        orders.classify_pair(ar, gamma, pair)
    assert len(checked) == 4
    for tag, order in first.items():
        assert orders.canonical_reading(ar, tag) is order


def test_a_reading_that_fails_its_check_is_not_cached(monkeypatch, example1_quiver):
    ar = ar_quiver.build(example1_quiver, make_height_function(example1_quiver, 3, 0))

    def broken(order):
        raise OrderError("injected fault")

    with monkeypatch.context() as patch:
        patch.setattr(orders.ConvexOrder, "check_convexity", broken)
        for _ in range(2):
            assert verify.check_canonical_orders(ar) == "U1: injected fault"
    assert ar.readings_cache == {}
    assert verify.check_canonical_orders(ar) is None
    assert set(ar.readings_cache) == set(orders.STRATEGIES)


# --- the root-sum table against the literal scans of Phi+ ---------------------------

def _scanned_pairs(ar, gamma):
    """Every gamma - alpha that is a root, oriented and sorted as pairs_of does."""
    roots = rs.enumerate_positive_roots(ar.datum)
    pairs, seen = [], set()
    for alpha in roots:
        beta = tuple(g - a for g, a in zip(gamma, alpha))
        if beta in roots and frozenset((alpha, beta)) not in seen:
            seen.add(frozenset((alpha, beta)))
            pairs.append(orders.orient_pair(ar, alpha, beta))
    pairs.sort(key=lambda ab: ar.coord_of(ab[0]))
    return pairs


def _scanned_minimal(order, pair, gamma):
    """No root between the pair's first part and gamma has its partner between
    gamma and the second part."""
    lo, hi = sorted(map(order.position.__getitem__, pair))
    mid = order.position[gamma]
    for other in order.roots[lo + 1: mid]:
        partner = tuple(g - c for g, c in zip(gamma, other))
        z = order.position.get(partner)
        if z is not None and mid < z < hi:
            return False
    return True


ORIENTED_TYPES = [("D", n) for n in (4, 5, 6)] + [("A", n) for n in (2, 3, 4, 5)]


@pytest.mark.parametrize("diagram, rank", ORIENTED_TYPES)
def test_pairs_of_equals_the_scan_of_phi(diagram, rank):
    for ar in _every_orientation(diagram, rank):
        for gamma in sorted(ar.phi):
            if rs.ht(gamma) >= 2:
                assert orders.pairs_of(ar, gamma) == _scanned_pairs(ar, gamma)


@pytest.mark.parametrize("diagram, rank", ORIENTED_TYPES)
def test_minimal_wrt_equals_the_scan_of_positions(diagram, rank):
    verdicts = set()
    for ar in _every_orientation(diagram, rank):
        readings = [orders.canonical_reading(ar, tag) for tag in orders.STRATEGIES]
        for gamma, pair in orders.all_pairs(ar):
            for order in readings:
                expected = _scanned_minimal(order, pair, gamma)
                assert _reference_minimal_wrt(order, pair, gamma) == expected
                assert orders.minimal_wrt(order, pair, gamma) == expected
                assert orders.minimal_wrt(order, pair[::-1], gamma) == expected
                verdicts.add(expected)
    assert verdicts == {True, False} or rank < 4  # both verdicts occur from rank 4


# --- the classifier against its former bodies ----------------------------------------

@pytest.mark.parametrize("diagram, rank", ORIENTED_TYPES + [("D", 7)])
def test_classify_pair_equals_its_former_body(diagram, rank):
    for ar in _every_orientation(diagram, rank):
        # root_sums order, unoriented: the first pair of each gamma builds its table
        for gamma, sums in rs.root_sums(ar.datum).items():
            for pair in sums:
                expected = _reference_classify_pair(ar, gamma, pair)
                assert orders.classify_pair(ar, gamma, pair) == expected
                assert orders.classify_pair(ar, gamma, pair[::-1]) == expected


def test_minimal_wrt_equals_its_former_body_in_every_reading(example1_ar):
    pairs = list(orders.all_pairs(example1_ar))
    readings = 0
    for order in orders.all_readings(example1_ar):
        readings += 1
        for gamma, pair in pairs:
            expected = _reference_minimal_wrt(order, pair, gamma)
            assert orders.minimal_wrt(order, pair, gamma) == expected
            assert orders.minimal_wrt(order, pair[::-1], gamma) == expected
    assert readings == 72


# --- the readings against their former blocker-count body ---------------------------

def _reference_all_readings(ar):
    """The former ``all_readings``: each vertex counts its unread out-arrows on
    the grid, and is read when the count reaches zero."""
    neighbors = ar.datum.neighbor_table
    coords = sorted(ar.root_at, key=lambda c: (-c[1], c[0]))

    def grid_arrows(coord, step):
        i, p = coord
        return [(j, p + step) for j in neighbors[i] if (j, p + step) in ar.root_at]

    blockers = {c: len(grid_arrows(c, 1)) for c in coords}
    sequence = []

    def emit():
        if len(sequence) == len(coords):
            yield orders.ConvexOrder(
                ar.datum, tuple(c[0] for c in sequence), tuple(ar.root_at[c] for c in sequence)
            )
            return
        for c in coords:
            if blockers[c] == 0:
                blockers[c] = -1
                sequence.append(c)
                for b in grid_arrows(c, -1):
                    blockers[b] -= 1
                yield from emit()
                for b in grid_arrows(c, -1):
                    blockers[b] += 1
                sequence.pop()
                blockers[c] = 0

    return emit()


def _reading_cases():
    """Each quiver named by its type, rank and mask: all_orientations runs in mask order."""
    for datum in (*(CartanDatum("A", rank) for rank in range(1, 6)), CartanDatum("D", 4)):
        for mask, quiver in enumerate(all_orientations(datum)):
            yield pytest.param(quiver, id=f"{datum.diagram_type}{datum.rank}-mask{mask}")
    yield pytest.param(DynkinQuiver.from_bitmask(CartanDatum("D", 5), 0), id="D5-mask0")


@pytest.mark.parametrize("quiver", list(_reading_cases()))
def test_all_readings_equal_their_former_body_in_order(quiver):
    ar = ar_quiver.build(quiver, make_height_function(quiver, quiver.datum.rank, 0))
    pairs = itertools.zip_longest(orders.all_readings(ar), _reference_all_readings(ar))
    count = 0
    for order, expected in pairs:
        count += 1
        assert order is not None and expected is not None, count
        assert (order.word, order.roots) == (expected.word, expected.roots), count
    assert count > 0


def test_check_convexity_rejects_a_sum_outside_its_parts(example1_ar, d4):
    u1 = orders.canonical_reading(example1_ar, "U1")
    theta = rs.parse_root(d4, "e1+e2")  # the highest root is a part of no sum
    moved = orders.ConvexOrder(
        d4, u1.word, (theta, *(r for r in u1.roots if r != theta))
    )
    messages = {
        "sum {} not between its parts {}, {}".format(
            theta, *sorted(pair, key=moved.position.__getitem__)
        )
        for pair in orders.pairs_of(example1_ar, theta)
    }
    with pytest.raises(OrderError) as excinfo:
        moved.check_convexity()
    assert str(excinfo.value) in messages


@pytest.mark.parametrize("flaw", ["missing", "repeated"])
def test_check_convexity_rejects_an_order_that_is_not_of_phi(example1_ar, flaw):
    u1 = orders.canonical_reading(example1_ar, "U1")
    roots = u1.roots[:-1] + ((u1.roots[0],) if flaw == "repeated" else ())
    order = orders.ConvexOrder(u1.datum, u1.word[: len(roots)], roots)
    with pytest.raises(OrderError, match="not an ordering of the positive roots"):
        order.check_convexity()


@pytest.mark.parametrize("gamma", [(1, 0, 1, 0), (2, 0, 0, 0), (1, 2, 1, 2)])
def test_pairs_of_rejects_a_non_root(example1_ar, gamma):
    with pytest.raises(OrderError, match="is not a positive root"):
        orders.pairs_of(example1_ar, gamma)


# --- the nest tables, the dominance loop and the convexity test against their former bodies

def _shuffled_orders(rank, count):
    """Seeded shuffles of Phi+ of D_rank: orders of the roots, almost never convex."""
    datum = CartanDatum("D", rank)
    roots = sorted(rs.enumerate_positive_roots(datum))
    rng = random.Random(rank)
    for _ in range(count):
        rng.shuffle(roots)
        yield orders.ConvexOrder(datum, (), tuple(roots))


@pytest.mark.parametrize("rank", [4, 5])
def test_minimal_wrt_equals_its_former_body_on_shuffled_orders(rank):
    verdicts = set()
    for order in _shuffled_orders(rank, 4):
        roots = order.roots
        # pairs outermost, so each gamma's nest table is read long after it was built
        for alpha in roots:
            for beta in roots:
                for gamma in roots:
                    expected = _reference_minimal_wrt(order, (alpha, beta), gamma)
                    assert orders.minimal_wrt(order, (alpha, beta), gamma) == expected
                    verdicts.add(expected)
        assert set(order.nests) == set(roots)
    assert verdicts == {True, False}


@pytest.mark.parametrize("rank", [4, 5])
def test_minimal_wrt_raises_as_its_former_body_on_unknown_roots(rank):
    (order,) = _shuffled_orders(rank, 1)
    a, b, gamma = order.roots[:3]
    stranger = (2,) + (0,) * (rank - 1)
    cases = [
        ((stranger, b), gamma), ((a, stranger), gamma), ((a, b), stranger),
        ((stranger, b), stranger), ((a, b), list(gamma)), ((list(a), b), gamma),
    ]
    for filled in (False, True):
        if filled:  # the nest tables of every root are built
            for root in order.roots:
                orders.minimal_wrt(order, (a, b), root)
        for pair, g in cases:
            expected = _raised(_reference_minimal_wrt, order, pair, g)
            assert expected is not None, (pair, g)
            assert _raised(orders.minimal_wrt, order, pair, g) == expected, (pair, g, filled)


def _reference_pair_table(ar, gamma):
    """The former dominance scan: a generator over gamma's oriented pairs per pair."""
    pairs = [orders.orient_pair(ar, alpha, beta) for alpha, beta in rs.root_sums(ar.datum)[gamma]]
    pairs.sort(key=lambda ab: ar.coord_of(ab[0]))
    _, bit, below = ar._path_order
    return {
        (a, b): next(((c, d) for c, d in pairs if bit[a] & below[c] and bit[d] & below[b]), None)
        for a, b in pairs
    }


@pytest.mark.parametrize("rank", [4, 5, 6, 7, 8])
def test_pair_table_witnesses_equal_the_former_scan(rank):
    witnessed = 0
    for ar in _every_orientation("D", rank):
        for gamma in sorted(ar.phi):
            if rs.ht(gamma) < 2:
                continue
            expected = _reference_pair_table(ar, gamma)
            assert list(orders._pair_table(ar, gamma).items()) == list(expected.items())
            witnessed += sum(w is not None for w in expected.values())
    assert witnessed > 0


# --- the pair table's own orientation and the walk of all_pairs against their former bodies

def _without_arrow(ar, arrow):
    return ARQuiver(ar.quiver, ar.xi, dict(ar.root_at), ar.arrows - {arrow}, ar.m)


def _without_vertex(ar, coord):
    root_at = {c: root for c, root in ar.root_at.items() if c != coord}
    arrows = frozenset(arrow for arrow in ar.arrows if coord not in arrow)
    return ARQuiver(ar.quiver, ar.xi, root_at, arrows, ar.m)


def _drained(items):
    """Everything an iterable yields, then the exception it ends with (or None)."""
    out = []
    try:
        for item in items:
            out.append(item)
    except Exception as exc:  # the exception itself is what is compared
        return out, (type(exc), str(exc))
    return out, None


@pytest.mark.parametrize("flaw", ["arrow", "root"])
def test_pair_table_raises_as_the_former_pairs_of_on_a_broken_quiver(example1_ar, flaw):
    if flaw == "arrow":  # a dropped arrow leaves some sum pair incomparable
        broken = [_without_arrow(example1_ar, arrow) for arrow in sorted(example1_ar.arrows)]
    else:  # a root missing from root_at fails prec's lookup
        broken = [_without_vertex(example1_ar, coord) for coord in sorted(example1_ar.root_at)]
    raised = set()
    for ar in broken:
        for gamma, sums in rs.root_sums(ar.datum).items():
            if not sums:
                continue
            expected = _raised(_reference_pairs_of, ar, gamma)
            assert _raised(orders._pair_table, ar, gamma) == expected, gamma
            if expected is None:
                assert list(orders._pair_table(ar, gamma)) == _reference_pairs_of(ar, gamma)
            else:
                raised.add(expected[0])
    # a missing root also cuts paths, so that flaw raises both
    assert (OrderError if flaw == "arrow" else ar_quiver.ARQuiverError) in raised


def _reference_all_pairs(ar):
    """The former all_pairs: gamma over sorted(ar.phi), kept from height 2."""
    for gamma in sorted(ar.phi):
        if rs.ht(gamma) >= 2:
            for pair in orders._pair_table(ar, gamma):
                yield gamma, pair


@pytest.mark.parametrize("diagram, rank", [("A", n) for n in range(1, 6)] + [("D", n) for n in (4, 5, 6)])
def test_all_pairs_equals_its_former_body(diagram, rank):
    for ar in _every_orientation(diagram, rank):
        expected = _drained(_reference_all_pairs(ar))
        assert _drained(orders.all_pairs(ar)) == expected
        assert expected[1] is None


def test_all_pairs_skips_a_missing_root_and_raises_where_its_former_body_did(example1_ar):
    raised = 0
    for coord, root in sorted(example1_ar.root_at.items()):
        if rs.ht(root) < 2:
            continue
        expected = _drained(_reference_all_pairs(_without_vertex(example1_ar, coord)))
        got = _drained(orders.all_pairs(_without_vertex(example1_ar, coord)))
        assert got == expected, coord
        assert root not in {gamma for gamma, _ in got[0]}
        raised += got[1] is not None
    assert raised > 0  # every root but the highest is a summand of another


def _reference_check_convexity(order):
    """The former check_convexity: it sorts every pair by position before comparing."""
    pos, sums = order.position, rs.root_sums(order.datum)
    if len(order.roots) != len(pos) or pos.keys() != sums.keys():
        raise OrderError("order is not an ordering of the positive roots")
    for total, pairs in sums.items():
        for pair in pairs:
            a, b = sorted(pair, key=pos.__getitem__)
            if not pos[a] < pos[total] < pos[b]:
                raise OrderError(f"sum {total} not between its parts {a}, {b}")


def test_check_convexity_gives_its_former_messages(example1_ar, d4):
    u1 = orders.canonical_reading(example1_ar, "U1")
    theta = rs.parse_root(d4, "e1+e2")
    faulted = [
        orders.ConvexOrder(d4, u1.word, (theta, *(r for r in u1.roots if r != theta))),
        orders.ConvexOrder(d4, u1.word[:-1], u1.roots[:-1]),
        orders.ConvexOrder(d4, u1.word, u1.roots[:-1] + u1.roots[:1]),
        *_shuffled_orders(4, 8),
        *_shuffled_orders(5, 8),
    ]
    for order in faulted:
        expected = _raised(_reference_check_convexity, order)
        assert expected is not None and expected[0] is OrderError
        assert _raised(order.check_convexity) == expected
    for tag in orders.STRATEGIES:
        order = orders.canonical_reading(example1_ar, tag)
        assert _raised(_reference_check_convexity, order) is None
        assert _raised(order.check_convexity) is None


@pytest.mark.parametrize("strategy, error", [
    ("X9", OrderError), (None, OrderError), (["U1"], OrderError), ("", OrderError),
    ("u1", OrderError), (1, OrderError),
])
def test_canonical_reading_rejects_what_it_rejected_before_and_after_the_cache(
    example1_ar, strategy, error
):
    for filled in (False, True):
        if filled:
            for tag in orders.STRATEGIES:
                orders.canonical_reading(example1_ar, tag)
        with pytest.raises(error):
            orders.canonical_reading(example1_ar, strategy)
