import re
from fractions import Fraction
from itertools import product

import pytest

from arquiver import ar_quiver, orders, qaffine, verify
from arquiver import root_system as rs
from arquiver.ar_quiver import ARQuiver, ARQuiverError
from arquiver.orders import OrderError
from arquiver.qaffine import (
    SQRT_MINUS_ONE,
    DenominatorPoly,
    DoreyVerdict,
    HomTriple,
    QAffineError,
    SpectralParam,
    denom_D1,
    denom_D2,
    dorey_D1,
    dorey_D2,
    double_zero_set_D1,
    mq,
    mq2,
    pair_to_triple,
    parse_param,
    star_image,
    star_map,
    _UNITS,
    _ZETA_RE,
    _is_mq_power,
)
from arquiver.quiver import DynkinQuiver, make_height_function, parse_arrow_spec
from arquiver.root_system import CartanDatum

from conftest import _every_orientation, _reference_classify_pair


def exps(poly):
    return sorted(Fraction(r.p, 2) for r in poly.roots)


def test_spectral_group_laws():
    for m in range(-10, 11):
        for mm in range(-10, 11):
            assert mq(m) * mq(mm) == mq(m + mm)
            assert mq2(m) * mq2(mm) == mq2(m + mm)
        assert mq(-m) * mq(m) == qaffine.ONE
        # (-q^2)^m = (-1)^m (-q)^(2m)
        assert mq2(m) == SpectralParam(4 * m, 0) * mq(2 * m)
    assert SQRT_MINUS_ONE * SQRT_MINUS_ONE == SpectralParam(4, 0)
    assert mq(Fraction(1, 2)) == SpectralParam(2, 1)
    for off_lattice in (Fraction(1, 3), Fraction(1, 4)):
        with pytest.raises(QAffineError):
            mq(off_lattice)


@pytest.mark.parametrize("fn, exponent", [(mq, 0.5), (mq, 1.0), (mq2, 0.25)])
def test_float_exponents_raise_qaffine_error(fn, exponent):
    # the group arithmetic is exact: a float is refused even when it is integral
    with pytest.raises(QAffineError, match="must be an int or a Fraction"):
        fn(exponent)


def test_spectral_arithmetic_builds_no_fractions(monkeypatch):
    d5 = CartanDatum("D", 5)
    quiver = DynkinQuiver.from_bitmask(d5, 5)
    ar = ar_quiver.build(quiver, make_height_function(quiver, 5, 0))
    built = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    assert mq(Fraction(1, 2)) == SpectralParam(2, 1) and built  # the wrapper counts
    built.clear()
    for check in (
        verify.check_dorey_d1_coverage,
        verify.check_star_transport,
        verify.check_surj_free_multiplicity,
        verify.check_sectional_commuting,
    ):
        assert check(ar) is None
    assert len(built) == 0


def _exponent(x: Fraction) -> str:
    """Braced when fractional, so (-q)^{1/2} cannot read as ((-q)^1)/2."""
    return str(x) if x.denominator == 1 else f"{{{x}}}"


def _reference_format_param(param: qaffine.SpectralParam) -> str:
    # the printer the command line used before SpectralParam.__str__, verbatim
    half, quarter = Fraction(param.p, 2), Fraction(param.p, 4)
    if qaffine.mq(half) == param:
        return f"(-q)^{_exponent(half)}"
    base = qaffine.mq2(quarter)
    turned = qaffine.SQRT_MINUS_ONE * base
    signed = (("", base), ("-", base.negate()), ("i*", turned), ("-i*", turned.negate()))
    for sign, value in signed:
        if value == param:
            return f"{sign}(-q^2)^{_exponent(quarter)}"
    return f"zeta8^{param.u} q^({param.p}/2)"


GROUP_SAMPLE = [SpectralParam(u, p) for u in range(8) for p in range(-64, 65)]


def test_str_equals_the_reference_printer():
    for x in GROUP_SAMPLE:
        assert str(x) == _reference_format_param(x)
    assert str(SQRT_MINUS_ONE * mq2(Fraction(5, 2)).negate()) == "-i*(-q^2)^{5/2}"
    assert str(mq2(4).negate()) == "-(-q^2)^4"
    assert str(SpectralParam(0, 1)) == "zeta8^0 q^(1/2)"


def test_parse_param_reads_every_printed_form():
    for x in GROUP_SAMPLE:
        assert parse_param(str(x)) == x
    # unbraced fractions, spaces and (-q2) still read
    assert parse_param(" (-q)^1/2 ") == mq(Fraction(1, 2))
    assert parse_param("(-q2)^{3/4}") == mq2(Fraction(3, 4))
    assert parse_param("i * (-q^2)^-1") == SQRT_MINUS_ONE * mq2(-1)


def test_parse_param_reads_every_denominator_zero():
    zeros = [
        root
        for fn, low in ((denom_D1, 4), (denom_D2, 3))
        for n in range(low, 9)
        for k, l in product(range(1, n + 1), repeat=2)
        for root in fn(n, k, l).roots
    ]
    assert len(zeros) == 2365
    for root in zeros:
        assert parse_param(str(root)) == root


@pytest.mark.parametrize(
    "text",
    ["", "bogus", "(-q)^", "(-q)^{1/0}", "(-q)^1/00", "+(-q)^1", "i(-q^2)^1",
     "(-q)^{1/2", "(-q)^1/2}", "(-q^2)^{3/4", "-(-q^2)^3}", "(-q)^{{1}}"],
)
def test_parse_param_rejects(text):
    with pytest.raises(QAffineError, match="cannot parse spectral parameter"):
        parse_param(text)


def test_denominator_d1_examples():
    assert exps(denom_D1(4, 1, 1)) == [2, 6]
    assert exps(denom_D1(4, 2, 2)) == [2, 4, 4, 6]
    assert exps(denom_D1(4, 3, 3)) == [2, 6]
    assert exps(denom_D1(4, 1, 2)) == [3, 5]
    assert exps(denom_D1(4, 3, 4)) == [4]
    assert denom_D1(4, 1, 3) == denom_D1(4, 3, 1)
    with pytest.raises(QAffineError):
        denom_D1(3, 1, 1)
    with pytest.raises(QAffineError):
        denom_D1(4, 0, 1)


def test_zero_multiplicity():
    assert denom_D1(4, 2, 2).zero_multiplicity(mq(4)) == 2
    assert denom_D1(4, 2, 2).zero_multiplicity(mq(8)) == 0
    assert denom_D1(4, 1, 2).zero_multiplicity(mq(3)) == 1


def test_denominator_d2_examples():
    poly = denom_D2(3, 3, 3)
    assert sorted(poly.roots) == sorted(mq2(s).negate() for s in (1, 2, 3))
    # double zero from the overlapping quadratic factors
    poly = denom_D2(3, 2, 2)
    assert poly.zero_multiplicity(mq2(2)) == 2
    assert poly.zero_multiplicity(mq2(2).negate()) == 2
    # quadratic factors come in +- phase pairs
    mixed = denom_D2(3, 1, 3)
    for root in mixed.roots:
        assert mixed.zero_multiplicity(root.negate()) == mixed.zero_multiplicity(root)
    with pytest.raises(QAffineError, match=r"^twisted type D needs n >= 3$"):
        denom_D2(2, 1, 1)
    with pytest.raises(QAffineError, match=r"^levels \(1,4\) out of range 1..3$"):
        denom_D2(3, 1, 4)


def test_double_zero_sets():
    assert double_zero_set_D1(4) == {(2, 2, 4)}
    assert not any(k == 1 or l == 1 for (k, l, _) in double_zero_set_D1(6))


def _inverse_quantum_cartan(n):
    """u -> c~(u) of D_n for 1 <= u < h = 2n - 2, as n x n lists indexed from 0.

    c~(1) = I, c~(2) = A and c~(u) = A c~(u-1) - c~(u-2), A the adjacency
    matrix of the diagram 1 - 2 - ... - (n-2) < {n-1, n}: the coefficients of
    C(z)^{-1} for the quantum Cartan matrix C(z) = (z + 1/z) I - A.
    """
    edges = {(i, i + 1) for i in range(n - 2)} | {(n - 3, n - 1)}
    A = [[int((i, j) in edges or (j, i) in edges) for j in range(n)] for i in range(n)]
    c = {1: [[int(i == j) for j in range(n)] for i in range(n)], 2: A}
    for u in range(3, 2 * n - 2):
        c[u] = [[sum(A[i][m] * c[u - 1][m][j] for m in range(n)) - c[u - 2][i][j]
                 for j in range(n)] for i in range(n)]
    return c


@pytest.mark.parametrize("n", range(4, 16))
def test_denom_d1_zero_orders_are_the_inverse_quantum_cartan_matrix(n):
    """The zero of d_{k,l} at (-q)^u has order c~_{k,l}(u-1) for 2 <= u <= h, and
    d_{k,l} has no other zero; the double zeros are the entries c~ = 2."""
    c = _inverse_quantum_cartan(n)
    h = 2 * n - 2
    zero_orders = verify._zero_orders(denom_D1, n)
    for k, l in product(range(1, n + 1), repeat=2):
        expected = {mq(u): c[u - 1][k - 1][l - 1] for u in range(2, h + 1)}
        assert zero_orders[k, l] == {zero: m for zero, m in expected.items() if m}, (k, l)
    assert double_zero_set_D1(n) == {
        (k, l, s) for s in range(2, h + 1) for k in range(1, n + 1) for l in range(1, n + 1)
        if c[s - 1][k - 1][l - 1] == 2
    }


def test_dorey_d1_examples():
    yes = dorey_D1(4, HomTriple(3, mq(-4), 3, mq(-2), 2, mq(-3)))
    assert yes.admissible and yes.case == "iii"
    yes = dorey_D1(4, HomTriple(1, mq(-1), 1, mq(1), 2, mq(0)))
    assert yes.admissible and yes.case == "i"
    no = dorey_D1(4, HomTriple(1, mq(-1), 1, mq(3), 2, mq(0)))
    assert not no.admissible
    with pytest.raises(QAffineError):
        dorey_D1(4, HomTriple(2, mq(-2), 2, mq(2), 0, mq(0)))
    with pytest.raises(QAffineError):
        dorey_D1(4, HomTriple(1, SQRT_MINUS_ONE, 1, mq(0), 2, mq(0)))


def test_dorey_d2_sign_freedom():
    # folded image of the spin-pair example, worked through the star map
    triple = HomTriple(
        3, SpectralParam(4, -8), 3, SpectralParam(4, -4), 2, SpectralParam(0, -6)
    )
    verdict = dorey_D2(3, triple)
    assert verdict.admissible and verdict.case == "iii'"
    assert not verdict.exhaustive
    # flipping the sign of x alone keeps it admissible
    flipped = HomTriple(3, triple.x.negate(), 3, triple.y, 2, triple.z)
    assert dorey_D2(3, flipped).admissible


def test_star_map_values():
    # spin levels fold to n and pick up (-1)^level
    assert star_map(3, 3, mq(2)) == (3, mq(2).negate())
    assert star_map(3, 4, mq(2)) == (3, mq(2))
    # low levels pick up sqrt(-1) or -1 by the parity of n+1-i
    level, param = star_map(3, 1, mq(0))
    assert level == 1 and param == SQRT_MINUS_ONE
    level, param = star_map(3, 2, mq(0))
    assert level == 2 and param == SpectralParam(4, 0)
    with pytest.raises(QAffineError):
        star_map(3, 5, mq(0))


def test_star_map_injective_on_grid_data():
    n = 4
    images = set()
    for level in range(1, n + 2):
        for p in range(-6, 7):
            images.add(star_map(n, level, mq(p)))
    assert len(images) == (n + 1) * 13


def test_pair_to_triple_example(example1_ar, d4):
    gamma = rs.parse_root(d4, "e1+e2")
    pair = (rs.parse_root(d4, "<2,-3>"), rs.parse_root(d4, "<1,3>"))
    triple = pair_to_triple(example1_ar, gamma, pair)
    assert (triple.i, triple.x) == (3, mq(-4))
    assert (triple.j, triple.y) == (3, mq(-2))
    assert (triple.k, triple.z) == (2, mq(-3))
    assert dorey_D1(4, triple).admissible
    nonmin = (rs.parse_root(d4, "<1,4>"), rs.parse_root(d4, "<2,-4>"))
    verdict = dorey_D1(4, pair_to_triple(example1_ar, gamma, nonmin))
    assert verdict.case == "ii"
    with pytest.raises(OrderError, match=r"\+ .* != "):
        pair_to_triple(example1_ar, gamma, (d4.simple_root(1), d4.simple_root(2)))


def _reference_pair_to_triple(ar, gamma, pair):
    """The former pair_to_triple: it checks the sum and orients through prec."""
    alpha, beta = pair
    if tuple(a + b for a, b in zip(alpha, beta)) != tuple(gamma):
        raise QAffineError(f"{alpha} + {beta} != {gamma}")
    alpha, beta = orders.orient_pair(ar, alpha, beta)
    bi, bp = ar.coord_of(beta)
    ai, ap = ar.coord_of(alpha)
    gi, gp = ar.coord_of(gamma)
    return HomTriple(bi, mq(bp), ai, mq(ap), gi, mq(gp))


@pytest.mark.parametrize("rank", [4, 5, 6, 7])
def test_pair_to_triple_equals_its_former_body(rank):
    for ar in _every_orientation("D", rank):
        sums = [(gamma, pair) for gamma, pairs in rs.root_sums(ar.datum).items() for pair in pairs]
        # before any pair table is filled, then after all_pairs has filled them all
        for gamma, pair in sums + list(orders.all_pairs(ar)):
            for either in (pair, pair[::-1]):
                expected = _reference_pair_to_triple(ar, gamma, either)
                assert pair_to_triple(ar, gamma, either) == expected


def test_pair_to_triple_of_a_table_pair_raises_for_a_gamma_outside_the_quiver():
    d5 = CartanDatum("D", 5)
    quiver = DynkinQuiver.from_bitmask(d5, 5)
    ar = ar_quiver.build(quiver, make_height_function(quiver, 5, 0))
    gamma = max(ar.phi, key=rs.ht)
    # gamma's vertex carries a label that is no root, so root_at lacks gamma; the
    # path order is untouched, so gamma's pair table still fills
    relabelled = {**ar.root_at, ar.coord_of(gamma): tuple(-x for x in gamma)}
    hand = ARQuiver(ar.quiver, ar.xi, relabelled, ar.arrows, ar.m)
    pairs = orders.pairs_of(hand, gamma)
    assert len(pairs) == rs.ht(gamma) - 1 and gamma in hand.pairs_cache
    expected = (ARQuiverError, f"{gamma} is not a positive root here")
    for pair in pairs:
        assert _raised(pair_to_triple, hand, gamma, pair) == expected
        assert _raised(_reference_pair_to_triple, hand, gamma, pair) == expected


def _reference_star_image(n, t):
    """The fold as check_star_transport made it, one star_map call per part."""
    si, sx = qaffine.star_map(n, t.i, t.x)
    sj, sy = qaffine.star_map(n, t.j, t.y)
    sk, sz = qaffine.star_map(n, t.k, t.z)
    return qaffine.HomTriple(si, sx, sj, sy, sk, sz)


def _raised(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # the exception itself is what is compared
        return type(exc), str(exc)
    return None


def _bad_pairs(ar):
    """(what, gamma, pair) inputs that classify_pair and pair_to_triple reject."""
    d4 = ar.datum
    a1, a2 = d4.simple_root(1), d4.simple_root(2)
    theta = rs.parse_root(d4, "e1+e2")
    # two comparable roots whose sum is no root
    low, high = next(
        (a, b) for a in sorted(ar.phi) for b in sorted(ar.phi)
        if ar.prec(a, b) and tuple(map(sum, zip(a, b))) not in ar.phi
    )
    return [
        ("wrong sum", theta, (a1, a2)),
        ("wrong sum of list roots", theta, (list(a1), list(a2))),
        ("wrong sum to a list gamma", list(theta), (a1, a2)),
        ("root outside the quiver", (1, 1, 0, 0), ((2, 0, 0, 0), (-1, 1, 0, 0))),
        ("simple gamma", a1, ((1, 1, 0, 0), (0, -1, 0, 0))),
        ("gamma not a root", tuple(map(sum, zip(low, high))), (high, low)),
    ]


def test_bad_pairs_raise_as_the_former_bodies_do(example1_quiver):
    # pair_to_triple rejects exactly what classify_pair rejects, with the same error
    ar = ar_quiver.build(example1_quiver, make_height_function(example1_quiver, 3, 0))
    for filled in (False, True):
        if filled:
            list(orders.all_pairs(ar))
        for what, gamma, pair in _bad_pairs(ar):
            expected = _raised(_reference_classify_pair, ar, gamma, pair)
            assert expected is not None, what
            for fn in (orders.classify_pair, pair_to_triple):
                assert _raised(fn, ar, gamma, pair) == expected, (what, filled, fn.__name__)


def test_bad_pairs_raise_without_the_table_lookup_as_context(example1_quiver):
    ar = ar_quiver.build(example1_quiver, make_height_function(example1_quiver, 3, 0))

    def context(fn, gamma, pair):
        with pytest.raises(Exception) as excinfo:
            fn(ar, gamma, pair)
        return repr(excinfo.value.__context__)

    for filled in (False, True):
        if filled:
            list(orders.all_pairs(ar))
        for what, gamma, pair in _bad_pairs(ar):
            expected = context(_reference_classify_pair, gamma, pair)
            for fn in (orders.classify_pair, pair_to_triple):
                assert context(fn, gamma, pair) == expected, (what, filled, fn.__name__)


def test_a_filled_pair_table_orients_its_own_pairs_without_prec(monkeypatch, example1_quiver):
    ar = ar_quiver.build(example1_quiver, make_height_function(example1_quiver, 3, 0))
    pairs = list(orders.all_pairs(ar))
    for tag in orders.STRATEGIES:
        orders.canonical_reading(ar, tag)
    calls = []
    prec = ar_quiver.ARQuiver.prec
    monkeypatch.setattr(
        ar_quiver.ARQuiver, "prec", lambda self, a, b: calls.append((a, b)) or prec(self, a, b)
    )
    for gamma, pair in pairs:
        # a reversed pair is checked as before: orient_pair, once in each function
        for either, most in ((pair, 0), (pair[::-1], 4)):
            calls.clear()
            assert orders.classify_pair(ar, gamma, either).alpha == pair[0]
            assert pair_to_triple(ar, gamma, either).j == ar.coord_of(pair[0])[0]
            assert len(calls) <= most, (gamma, either)


def _with_zero(monkeypatch, levels, zero):
    """Make denom_D1 of any rank list one more zero for the given (sorted) levels."""
    real = qaffine.denom_D1

    def faulty(n, k, l):
        poly = real(n, k, l)
        if (min(k, l), max(k, l)) == levels:
            return DenominatorPoly(tuple(sorted((*poly.roots, zero))))
        return poly

    monkeypatch.setattr(qaffine, "denom_D1", faulty)


def _without_one(monkeypatch, family, rank, k, l, zero):
    """Make one denominator list a double zero only once."""
    real = getattr(qaffine, family)

    def faulty(n, kk, ll):
        poly = real(n, kk, ll)
        if (n, kk, ll) == (rank, k, l):
            roots = list(poly.roots)
            roots.remove(zero)
            return DenominatorPoly(tuple(roots))
        return poly

    monkeypatch.setattr(qaffine, family, faulty)


def test_multiplicity_theorem_examples(example1_ar, d4, monkeypatch):
    gamma = rs.parse_root(d4, "e1+e2")
    cases = [
        (("<1,-4>", "<2,4>"), orders.Verdict.MINIMAL, 1),
        (("<1,4>", "<2,-4>"), orders.Verdict.NON_MINIMAL, 2),
        (("<1,3>", "<2,-3>"), orders.Verdict.MINIMAL, 1),
    ]
    for (a, b), verdict, multiplicity in cases:
        alpha, beta = rs.parse_root(d4, a), rs.parse_root(d4, b)
        assert orders.classify_pair(example1_ar, gamma, (alpha, beta)).verdict == verdict
        (k, p), (l, r) = example1_ar.coord_of(alpha), example1_ar.coord_of(beta)
        assert denom_D1(4, k, l).zero_multiplicity(mq(abs(p - r))) == multiplicity
    assert verify.check_surj_free_multiplicity(example1_ar) is None
    # a classifier that calls the first minimal pair non-minimal is caught
    real = orders.classify_pair
    flipped = (rs.parse_root(d4, "<1,-4>"), rs.parse_root(d4, "<2,4>"))

    def faulty(ar, gamma, pair):
        verdict = real(ar, gamma, pair)
        if tuple(pair) == flipped:
            return verdict._replace(verdict=orders.Verdict.NON_MINIMAL)
        return verdict

    monkeypatch.setattr(orders, "classify_pair", faulty)
    message = verify.check_surj_free_multiplicity(example1_ar)
    assert message == f"zero multiplicity 1 for pair {flipped} of {gamma}"


def test_same_path_commuting(example1_ar, d4, monkeypatch):
    # <1,3> at (3,-4) and <1,-4> at (1,-2) share an N-broom; the roots sharing
    # -e4 lie on one S-broom
    on_paths = [
        {(3, -4), (1, -2)},
        {example1_ar.coord_of(rs.parse_root(d4, f"<{a},-4>")) for a in (1, 2, 3)},
    ]
    for coords in on_paths:
        assert any(coords <= set(path.coords) for path in example1_ar.sectional_paths())
    assert verify.check_sectional_commuting(example1_ar) is None
    # a zero at the gap (-q)^2 of levels 1 and 3 is caught on a path
    _with_zero(monkeypatch, (1, 3), mq(2))
    message = verify.check_sectional_commuting(example1_ar)
    assert message is not None and message.endswith("-path has a zero")


def test_fork_tips_count_as_same_path(monkeypatch):
    d4 = CartanDatum("D", 4)
    quiver = parse_arrow_spec(d4, "1>2,2>3,2>4")
    ar = ar_quiver.build(quiver, make_height_function(quiver, 4, 0))
    # same-column spin vertices sit at the tips of one S-broom
    tips = [
        ((3, p), (4, p))
        for path in ar.sectional_paths()
        for (i, p) in path.coords
        if i == 3 and (4, p) in path.coords
    ]
    assert tips
    assert verify.check_sectional_commuting(ar) is None
    # so a zero at their gap (-q)^0 is caught
    _with_zero(monkeypatch, (3, 4), mq(0))
    message = verify.check_sectional_commuting(ar)
    assert message is not None and any(f"{a}, {b}" in message for a, b in tips)


@pytest.mark.parametrize(
    "family, rank, k, l, zero, message",
    [
        ("denom_D1", 4, 2, 2, mq(4), "untwisted double zeros disagree with the table at n = 3"),
        ("denom_D2", 3, 2, 2, mq2(2), "twisted double zeros disagree with the table at n = 3"),
    ],
    ids=["untwisted", "twisted"],
)
def test_double_zero_correspondence_catches_a_lost_double_zero(
    monkeypatch, family, rank, k, l, zero, message
):
    assert verify.check_double_zero_correspondence() is None
    _without_one(monkeypatch, family, rank, k, l, zero)
    assert verify.check_double_zero_correspondence() == message


def _reference_check_double_zero_correspondence():
    """The former check_double_zero_correspondence, which counted each zero with
    zero_multiplicity and rebuilt its parameter to test its form."""
    for n in range(3, 9):
        for family, denom, rank, at in (
            ("untwisted", qaffine.denom_D1, n + 1, qaffine.mq),
            ("twisted", qaffine.denom_D2, n, lambda s: qaffine.SpectralParam(2 * s, 2 * s)),
        ):  # a double zero at (-q)^s, or at (-q^2)^(s/2), is listed as s
            found = set()
            for k in range(1, rank + 1):
                for l in range(1, rank + 1):
                    poly = denom(rank, k, l)
                    found |= {(k, l, root.p // 2) for root in poly.roots
                              if poly.zero_multiplicity(root) == 2 and at(root.p // 2) == root}
            if found != qaffine.double_zero_set_D1(n + 1):
                return f"{family} double zeros disagree with the table at n = {n}"
    return None


def _double_zeros(family):
    """(rank, k, l, zero) for every double zero of the family's ranks in the check."""
    denom = getattr(qaffine, family)
    ranks = range(4, 10) if family == "denom_D1" else range(3, 9)
    for rank in ranks:
        for k in range(1, rank + 1):
            for l in range(1, rank + 1):
                roots = denom(rank, k, l).roots
                for zero in sorted(set(roots)):
                    if roots.count(zero) == 2:
                        yield rank, k, l, zero


@pytest.fixture
def clear_zero_orders():
    """Empty verify's zero-order tables after a test that rebinds the denominators
    many times: the cache keeps a table for every function it has seen."""
    yield
    verify._zero_orders.cache_clear()


@pytest.mark.usefixtures("clear_zero_orders")
@pytest.mark.parametrize("family", ["denom_D1", "denom_D2"])
def test_double_zero_correspondence_equals_its_former_body_on_lost_double_zeros(
    monkeypatch, family
):
    assert verify.check_double_zero_correspondence() is None
    assert _reference_check_double_zero_correspondence() is None
    flagged = 0
    for rank, k, l, zero in _double_zeros(family):
        with monkeypatch.context() as patched:
            _without_one(patched, family, rank, k, l, zero)
            message = verify.check_double_zero_correspondence()
            assert message == _reference_check_double_zero_correspondence(), (rank, k, l, zero)
            flagged += message is not None
    assert flagged > 20


@pytest.mark.usefixtures("clear_zero_orders")
@pytest.mark.parametrize("zeros", [
    (mq(3),), (mq(3) * SQRT_MINUS_ONE,), (mq(3).negate(),), (mq2(Fraction(3, 2)),),
    (mq(Fraction(3, 2)),), (SpectralParam(1, 6),), (mq(Fraction(7, 2)),) * 2,
])
def test_double_zero_correspondence_equals_its_former_body_on_added_zeros(monkeypatch, zeros):
    # (1, 2) at rank 4 has one zero at (-q)^3: a copy of it makes a double zero
    # the table lacks; a zero of any other form makes none, nor does a double
    # zero at a half-integer power of (-q)
    for zero in zeros:
        _with_zero(monkeypatch, (1, 2), zero)
    message = verify.check_double_zero_correspondence()
    assert message == _reference_check_double_zero_correspondence()
    assert (message is None) == (zeros != (mq(3),))


def _assert_zero_orders_read_as_multiplicities(zeros, poly, h):
    for p in range(-2 * h, 2 * h + 1):  # each zero's p is at most 2h; every phase
        for u in range(8):
            zero = SpectralParam(u, p)
            assert zeros[zero] == poly.zero_multiplicity(zero), zero
    assert sum(zeros.values()) == len(poly.roots)  # and no zero is dropped


def test_zero_orders_equal_the_multiplicities_at_every_gap():
    for denom, ranks in ((denom_D1, range(4, 16)), (denom_D2, range(3, 15))):
        for n in ranks:
            for (k, l), zeros in verify._zero_orders(denom, n).items():
                _assert_zero_orders_read_as_multiplicities(zeros, denom(n, k, l), 2 * n)


@pytest.mark.usefixtures("clear_zero_orders")
def test_the_multiplicity_checks_read_only_zeros_at_integer_powers_of_minus_q(monkeypatch):
    quiver = DynkinQuiver.from_bitmask(CartanDatum("D", 5), 5)
    ar = ar_quiver.build(quiver, make_height_function(quiver, 5, 0))
    checks = (verify.check_surj_free_multiplicity, verify.check_sectional_commuting)
    # levels 1 and 3 hold a minimal pair at column gap 6 and a path pair at gap 2;
    # a zero of another form sits at no column gap, one at (-q)^s changes a verdict
    for zero, messages in [
        (mq(Fraction(1, 2)), [None, None]),
        (SQRT_MINUS_ONE * mq(6), [None, None]),
        (SQRT_MINUS_ONE * mq(2), [None, None]),
        (mq(6), [
            "zero multiplicity 2 for pair ((1, 1, 0, 0, 0), (0, 0, 1, 0, 1)) of (1, 1, 1, 0, 1)",
            None,
        ]),
        (mq(2), [None, "pair (1, -5), (3, -3) on S-path has a zero"]),
    ]:
        with monkeypatch.context() as patched:
            _with_zero(patched, (1, 3), zero)
            assert [check(ar) for check in checks] == messages, zero


def test_zero_orders_read_a_sqrt_minus_one_phased_twisted_zero():
    zero = parse_param("-i*(-q^2)^{5/2}")
    assert verify._zero_orders(qaffine.denom_D2, 4)[1, 4][zero] == 1
    assert denom_D2(4, 1, 4).zero_multiplicity(zero) == 1


# --- the Dorey row tables against a branch-ladder reference ------------------------
# Reference predicates that find each row through a position string, a max/min
# test and an if/elif ladder for case (iii'); the row tables must agree with them.

def _quotient(x: SpectralParam, z: SpectralParam) -> SpectralParam:
    """x / z in the parameter group, as the reference rules below divide."""
    return SpectralParam(x.u - z.u, x.p - z.p)


def _same_up_to_sign(x: SpectralParam, y: SpectralParam) -> bool:
    """x = +-y in the parameter group, as the reference rules below compare."""
    return x.p == y.p and (x.u - y.u) % 4 == 0


def _ladder_dorey_D1(n: int, triple: HomTriple) -> DoreyVerdict:
    """Untwisted Dorey rule (an iff) for rank n >= 4."""
    i, j, k = triple.i, triple.j, triple.k
    if not all(1 <= lvl <= n for lvl in (i, j, k)):
        raise QAffineError(f"levels {(i, j, k)} out of range 1..{n}")
    for param in (triple.x, triple.y, triple.z):
        if not _is_mq_power(param):
            raise QAffineError(f"{param} is not a (-q)-power")
    xz = _quotient(triple.x, triple.z)
    yz = _quotient(triple.y, triple.z)

    # (i): all levels small, one is the sum of the other two
    levels = (i, j, k)
    top = max(levels)
    if top <= n - 2:
        for pos, ratios in (
            ("k", (mq(-j), mq(i))),
            ("i", (mq(-j), mq(-i + 2 * n - 2))),
            ("j", (mq(j - 2 * n + 2), mq(i))),
        ):
            lvl = {"i": i, "j": j, "k": k}[pos]
            if lvl != top:
                continue
            rest = list(levels)
            rest.remove(lvl)
            if sum(rest) != top:
                continue
            if (xz, yz) == ratios:
                return DoreyVerdict(True, "i")
        if i + j >= n and k == 2 * n - 2 - i - j and (xz, yz) == (mq(-j), mq(i)):
            return DoreyVerdict(True, "ii")

    # (iii): the two large levels are spin, the small one pairs them up
    low = min(levels)
    if low <= n - 2:
        star = rs.longest_element_star(CartanDatum("D", n))
        for pos, rest, ratios in (
            ("k", (i, j), (mq(-n + k + 1), mq(n - k - 1))),
            ("i", (j, k), (mq(-n + i + 1), mq(2 * i))),
            ("j", (i, k), (mq(-2 * j), mq(n - j - 1))),
        ):
            lvl = {"i": i, "j": j, "k": k}[pos]
            if lvl != low or not set(rest) <= {n - 1, n}:
                continue
            ell, m = max(rest), min(rest)
            gap = ell - m if pos == "k" else ell - star[m]
            if (n - low - gap) % 2 == 0 and (xz, yz) == ratios:
                return DoreyVerdict(True, "iii")
    return DoreyVerdict(False)


def _ladder_dorey_D2(n: int, triple: HomTriple) -> DoreyVerdict:
    """Twisted Dorey rule over the rank-(n+1) diagram; an "if" only.

    Ratio comparisons quotient the phase by {0, 4}, absorbing the
    "up to sign" in case (i') and the +- sqrt(-1) choices in (iii').
    """
    i, j, k = triple.i, triple.j, triple.k
    if not all(1 <= lvl <= n for lvl in (i, j, k)):
        raise QAffineError(f"levels {(i, j, k)} out of range 1..{n}")
    xz = _quotient(triple.x, triple.z)
    yz = _quotient(triple.y, triple.z)
    half = Fraction(1, 2)

    levels = (i, j, k)
    top = max(levels)
    if top <= n - 1:
        for pos, ratios in (
            ("k", (mq2(-j * half), mq2(i * half))),
            ("i", (mq2(-j * half), mq2(n - i * half))),
            ("j", (mq2(j * half - n), mq2(i * half))),
        ):
            lvl = {"i": i, "j": j, "k": k}[pos]
            if lvl != top:
                continue
            rest = list(levels)
            rest.remove(lvl)
            if sum(rest) != top:
                continue
            if _same_up_to_sign(xz, ratios[0]) and _same_up_to_sign(yz, ratios[1]):
                return DoreyVerdict(True, "i'", exhaustive=False)

    low = min(levels)
    if low <= n - 1:
        rest = list(levels)
        rest.remove(low)
        if set(rest) <= {n}:
            root_i = SQRT_MINUS_ONE
            if low == k:
                ratios = (root_i * mq2((k - n) * half), root_i * mq2((n - k) * half))
            elif low == i:
                ratios = (root_i * mq2((i - n) * half), mq2(i))
            else:
                ratios = (mq2(-j), root_i * mq2((n - j) * half))
            if _same_up_to_sign(xz, ratios[0]) and _same_up_to_sign(yz, ratios[1]):
                return DoreyVerdict(True, "iii'", exhaustive=False)
    return DoreyVerdict(False, exhaustive=False)


def _verdict(verdict):
    return verdict.admissible, verdict.case, verdict.exhaustive


def test_dorey_d1_rows_equal_the_ladder():
    n = 4
    powers = [mq(e) for e in range(-7, 8)]
    inputs = admissible = 0
    for i, j, k in product(range(1, n + 1), repeat=3):
        for x, y in product(powers, repeat=2):
            triple = HomTriple(i, x, j, y, k, mq(0))
            verdict = dorey_D1(n, triple)
            assert _verdict(verdict) == _verdict(_ladder_dorey_D1(n, triple)), triple
            inputs += 1
            admissible += verdict.admissible
    assert (inputs, admissible) == (14_400, 16)


def test_dorey_d2_rows_equal_the_ladder():
    # every expected ratio has phase 0 or 2 mod 4 and an even exponent p, and
    # same_up_to_sign reads the phase mod 4, so this grid meets every row
    n = 3
    ratios = [SpectralParam(u, p) for u in (0, 2) for p in range(-14, 15, 2)]
    inputs = admissible = 0
    for i, j, k in product(range(1, n + 1), repeat=3):
        for x, y in product(ratios, repeat=2):
            triple = HomTriple(i, x, j, y, k, mq(0))
            verdict = dorey_D2(n, triple)
            assert _verdict(verdict) == _verdict(_ladder_dorey_D2(n, triple)), triple
            inputs += 1
            admissible += verdict.admissible
    assert (inputs, admissible) == (24_300, 9)


# --- the integer-unit bodies against their former Fraction-based bodies -------------
# Each _reference_* below is the body that computed on Fraction exponents,
# verbatim; the module constants it reads are copied or imported beside it.

_PARAM_RE = re.compile(r"(-?(?:i\*)?)\(-q(\^?2)?\)\^\{?(-?\d+(?:/0*[1-9]\d*)?)\}?")


def _reference_str(self) -> str:
    """(-q)^x if it is one, else [-][i*](-q^2)^x, else zeta8^u q^(p/2)."""
    if (self.u - 2 * self.p) % 8 == 0:
        return f"(-q)^{_exponent(Fraction(self.p, 2))}"
    if (self.u - self.p) % 2 == 0:
        unit = _UNITS[(self.u - self.p) % 8 // 2]
        return f"{unit}(-q^2)^{_exponent(Fraction(self.p, 4))}"
    return f"zeta8^{self.u} q^({self.p}/2)"


def _reference_parse_param(text: str) -> SpectralParam:
    """Read back every form str(SpectralParam) prints; braces are optional."""
    text = text.strip().replace(" ", "")
    m = _ZETA_RE.fullmatch(text)
    if m:
        return SpectralParam(int(m[1]), int(m[2]))
    m = _PARAM_RE.fullmatch(text)
    if not m:
        raise QAffineError(f"cannot parse spectral parameter {text!r}")
    unit, squared, exponent = m.groups()
    power = (mq2 if squared else mq)(Fraction(exponent))
    return SpectralParam(2 * _UNITS.index(unit), 0) * power


def _reference_denom_D2(n: int, k: int, l: int) -> DenominatorPoly:
    """Zeros of d_{k,l}(z) for the twisted algebra over the rank-(n+1) diagram."""
    if n < 3:
        raise QAffineError("twisted type D needs n >= 3")
    if not (1 <= k <= n and 1 <= l <= n):
        raise QAffineError(f"levels ({k},{l}) out of range 1..{n}")
    k, l = min(k, l), max(k, l)
    zeros: list[SpectralParam] = []
    if l <= n - 1:
        for s in range(1, k + 1):
            for m in (abs(k - l) + 2 * s, 2 * n - k - l + 2 * s):
                root = mq2(Fraction(m, 2))
                zeros.append(root)
                zeros.append(root.negate())
    elif k <= n - 1:  # l = n
        for s in range(1, k + 1):
            root = SQRT_MINUS_ONE * mq2(Fraction(n - k + 2 * s, 2))
            zeros.append(root)
            zeros.append(root.negate())
    else:  # k = l = n
        for s in range(1, n + 1):
            zeros.append(mq2(s).negate())
    return DenominatorPoly(tuple(sorted(zeros)))


def _reference_dorey_D1(n: int, triple: HomTriple) -> DoreyVerdict:
    """Untwisted Dorey rule (an iff) for rank n >= 4."""
    if n < 4:
        raise QAffineError("untwisted type D needs n >= 4")
    i, j, k = triple.i, triple.j, triple.k
    if not all(1 <= lvl <= n for lvl in (i, j, k)):
        raise QAffineError(f"levels {(i, j, k)} out of range 1..{n}")
    for param in (triple.x, triple.y, triple.z):
        if not _is_mq_power(param):
            raise QAffineError(f"{param} is not a (-q)-power")
    ratios = (_quotient(triple.x, triple.z), _quotient(triple.y, triple.z))

    # (i): all levels small, one is the sum (so the largest) of the other two
    if max(i, j, k) <= n - 2:
        for top, a, b, expected in (
            (k, i, j, (mq(-j), mq(i))),
            (i, j, k, (mq(-j), mq(2 * n - 2 - i))),
            (j, i, k, (mq(j - 2 * n + 2), mq(i))),
        ):
            if top == a + b and ratios == expected:
                return DoreyVerdict(True, "i")
        if i + j >= n and k == 2 * n - 2 - i - j and ratios == (mq(-j), mq(i)):
            return DoreyVerdict(True, "ii")

    # (iii): the two large levels are spin; beside i and j, k is read through *
    if min(i, j, k) <= n - 2:
        star = rs.longest_element_star(CartanDatum("D", n))
        for low, a, b, expected in (
            (k, i, j, (mq(k + 1 - n), mq(n - k - 1))),
            (i, j, star[k], (mq(i + 1 - n), mq(2 * i))),
            (j, i, star[k], (mq(-2 * j), mq(n - j - 1))),
        ):
            if {a, b} <= {n - 1, n} and (n - low - a + b) % 2 == 0 and ratios == expected:
                return DoreyVerdict(True, "iii")
    return DoreyVerdict(False)


def _reference_dorey_D2(n: int, triple: HomTriple) -> DoreyVerdict:
    """Twisted Dorey rule over the rank-(n+1) diagram; an "if" only.

    Ratio comparisons quotient the phase by {0, 4}, absorbing the
    "up to sign" in case (i') and the +- sqrt(-1) choices in (iii').
    """
    if n < 3:
        raise QAffineError("twisted type D needs n >= 3")
    i, j, k = triple.i, triple.j, triple.k
    if not all(1 <= lvl <= n for lvl in (i, j, k)):
        raise QAffineError(f"levels {(i, j, k)} out of range 1..{n}")
    ratios = (_quotient(triple.x, triple.z), _quotient(triple.y, triple.z))
    half = Fraction(1, 2)

    if max(i, j, k) <= n - 1:
        for top, a, b, expected in (
            (k, i, j, (mq2(-j * half), mq2(i * half))),
            (i, j, k, (mq2(-j * half), mq2(n - i * half))),
            (j, i, k, (mq2(j * half - n), mq2(i * half))),
        ):
            if top == a + b and all(map(_same_up_to_sign, ratios, expected)):
                return DoreyVerdict(True, "i'", exhaustive=False)

    # one level below n, two at n; only the matching row builds its ratios
    root_i = SQRT_MINUS_ONE
    for low, a, b, expected in (
        (k, i, j, lambda: (root_i * mq2((k - n) * half), root_i * mq2((n - k) * half))),
        (i, j, k, lambda: (root_i * mq2((i - n) * half), mq2(i))),
        (j, i, k, lambda: (mq2(-j), root_i * mq2((n - j) * half))),
    ):
        if a == b == n > low and all(map(_same_up_to_sign, ratios, expected())):
            return DoreyVerdict(True, "iii'", exhaustive=False)
    return DoreyVerdict(False, exhaustive=False)


def test_str_and_parse_param_equal_their_references():
    for x in GROUP_SAMPLE:
        text = str(x)
        assert text == _reference_str(x)
        assert parse_param(text) == _reference_parse_param(text) == x
    unreduced = ["(-q^2)^{2/4}", "(-q)^{-0/3}", "(-q)^{6/4}", "-i*(-q^2)^{-10/8}",
                 "(-q2)^{012/016}", "(-q)^2/4", "i*(-q^2)^{-0}", "(-q)^{7/1}"]
    for text in unreduced:
        assert parse_param(text) == _reference_parse_param(text), text
    for text in ("(-q)^{1/3}", "(-q^2)^{1/8}", "(-q)^{2/6}", "(-q^2)^{-3/24}"):
        with pytest.raises(QAffineError, match="does not live in the parameter group"):
            parse_param(text)
        with pytest.raises(QAffineError, match="does not live in the parameter group"):
            _reference_parse_param(text)


def test_denom_d2_equals_its_reference():
    for n in range(3, 11):
        for k, l in product(range(1, n + 1), repeat=2):
            assert denom_D2(n, k, l) == _reference_denom_D2(n, k, l), (n, k, l)


# Both Dorey bodies are point rules: a row fires only when (x/z, y/z) equals its
# expected pair.  So the probes at a triple pair every x/z value of a row with every
# y/z value of a row; they hold every admissible ratio of either body, and a
# mistyped row value shows as a miss at the true one.  The full exponent windows
# at n = 4 and n = 3 are the ladder tests above.

def _d1_probes(n, i, j, k):
    rows = [(-j, i), (-j, 2 * n - 2 - i), (j - 2 * n + 2, i),
            (k + 1 - n, n - k - 1), (i + 1 - n, 2 * i), (-2 * j, n - j - 1)]
    return product({a for a, _ in rows}, {b for _, b in rows})


def _d2_probes(n, i, j, k):
    # each ratio as (quarter-unit exponent, phase); a row also meets each of its
    # ratios with the other phase, so a phase read wrong on one side shows
    rows = [((-2 * j, 0), (2 * i, 0)), ((-2 * j, 0), (4 * n - 2 * i, 0)),
            ((2 * j - 4 * n, 0), (2 * i, 0)), ((2 * (k - n), 2), (2 * (n - k), 2)),
            ((2 * (i - n), 2), (4 * i, 0)), ((-4 * j, 0), (2 * (n - j), 2))]
    probes = set(product({x for x, _ in rows}, {y for _, y in rows}))
    for (a, phase), y in rows:
        probes.add(((a, phase ^ 2), y))
    for x, (b, phase) in rows:
        probes.add((x, (b, phase ^ 2)))
    # the sign (zeta8^4) is free in both bodies; vary it with the exponent
    param = lambda e, phase: SpectralParam(e + phase + 4 * (e // 2 % 2), e)
    return [(param(*x), param(*y)) for x, y in probes]


@pytest.fixture
def clear_dorey_caches():
    """Empty the unbounded Dorey caches after a test that floods them with probes."""
    yield
    dorey_D1.cache_clear()
    dorey_D2.cache_clear()


@pytest.mark.usefixtures("clear_dorey_caches")
def test_dorey_d1_equals_its_reference():
    admissible = 0
    for n in range(4, 10):
        for i, j, k in product(range(1, n + 1), repeat=3):
            z = mq(i - 2 * k)
            for a, b in _d1_probes(n, i, j, k):
                triple = HomTriple(i, mq(a) * z, j, mq(b) * z, k, z)
                verdict = dorey_D1(n, triple)
                assert _verdict(verdict) == _verdict(_reference_dorey_D1(n, triple)), triple
                admissible += verdict.admissible
    assert admissible == 386


@pytest.mark.usefixtures("clear_dorey_caches")
def test_dorey_d2_equals_its_reference():
    admissible = 0
    for n in range(3, 9):
        for i, j, k in product(range(1, n + 1), repeat=3):
            z = SpectralParam(i + 3 * j, k - 2 * i)
            for x, y in _d2_probes(n, i, j, k):
                triple = HomTriple(i, x * z, j, y * z, k, z)
                verdict = dorey_D2(n, triple)
                assert _verdict(verdict) == _verdict(_reference_dorey_D2(n, triple)), triple
                admissible += verdict.admissible
    assert admissible == 249


QAFFINE_CHECKS = (
    verify.check_dorey_d1_coverage,
    verify.check_star_transport,
    verify.check_surj_free_multiplicity,
    verify.check_sectional_commuting,
)


def test_cached_answers_equal_the_bodies(monkeypatch):
    caches = {"mq": mq, "star_image": star_image, "dorey_D1": dorey_D1, "dorey_D2": dorey_D2}
    fed = {name: [] for name in caches}
    for cache in caches.values():
        cache.cache_clear()
    for name, inputs in fed.items():
        original = getattr(qaffine, name)

        def recorder(*args, original=original, inputs=inputs):
            inputs.append(args)
            return original(*args)

        monkeypatch.setattr(qaffine, name, recorder)
    for rank in range(4, 8):
        for ar in _every_orientation("D", rank):
            for check in QAFFINE_CHECKS:
                assert check(ar) is None, (check.__name__, ar.quiver.spec_string())
    monkeypatch.undo()

    # each distinct input was computed once, and the walk repeats them
    for name, cache in caches.items():
        info = cache.cache_info()
        assert info.misses == info.currsize == len(set(fed[name])), name
        assert info.hits > info.misses, name
    assert all(type(e) is int for (e,) in fed["mq"])
    for (e,) in set(fed["mq"]):
        assert mq(e) == mq.__wrapped__(e) == mq(Fraction(e)), e
    for args in set(fed["star_image"]):
        assert star_image(*args) == star_image.__wrapped__(*args) == _reference_star_image(*args)
    for args in set(fed["dorey_D1"]):
        assert dorey_D1(*args) == dorey_D1.__wrapped__(*args) == _reference_dorey_D1(*args)
    for args in set(fed["dorey_D2"]):
        assert dorey_D2(*args) == dorey_D2.__wrapped__(*args) == _reference_dorey_D2(*args)


def test_errors_are_never_cached_or_conflated():
    assert mq(1) == SpectralParam(4, 2)
    for exponent in (1.0, 0.5):
        with pytest.raises(QAffineError, match="must be an int or a Fraction"):
            mq(exponent)
    assert mq(True) == mq(1) and mq(Fraction(2)) == mq(2)
    with pytest.raises(TypeError):  # a cache key must be hashable
        mq([1])

    triple = HomTriple(1, mq(-1), 1, mq(1), 2, mq(0))
    assert dorey_D1(4, triple).admissible
    with pytest.raises(AttributeError):  # an equal plain tuple is no HomTriple
        dorey_D1(4, tuple(triple))
    assert star_map(3, 1, mq(0)) == (1, SQRT_MINUS_ONE)
    assert type(star_map(3, 1.0, mq(0))[0]) is float  # the body's answer, not the int's
    assert star_image(4, triple) == _reference_star_image(4, triple)
    with pytest.raises(AttributeError):  # so is the fold's
        star_image(4, tuple(triple))

    refused = [
        (dorey_D1, (4, HomTriple(2, mq(-2), 2, mq(2), 0, mq(0))),
         r"levels \(2, 2, 0\) out of range 1..4"),
        (dorey_D1, (4, HomTriple(1, SQRT_MINUS_ONE, 1, mq(0), 2, mq(0))),
         "is not an integer power of"),
        (dorey_D1, (3, triple), "untwisted type D needs n >= 4"),
        (dorey_D2, (3, HomTriple(4, mq(0), 1, mq(0), 1, mq(0))),
         r"levels \(4, 1, 1\) out of range 1..3"),
        (dorey_D2, (2, triple), "twisted type D needs n >= 3"),
        (star_map, (3, 5, mq(0)), "level 5 out of range 1..4"),
        (star_map, (3, 0, SQRT_MINUS_ONE), "level 0 out of range 1..4"),
    ]
    for fn, args, message in refused:
        raised = [_raised(fn, *args) for _ in range(2)]
        assert raised[0] == raised[1], (fn.__name__, args)
        assert raised[0][0] is QAffineError and re.search(message, raised[0][1]), raised[0]
