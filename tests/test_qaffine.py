from fractions import Fraction

import pytest

from arquiver import ar_quiver, orders, qaffine, verify
from arquiver import root_system as rs
from arquiver.qaffine import (
    SQRT_MINUS_ONE,
    HomTriple,
    QAffineError,
    SpectralParam,
    denom_D1,
    denom_D2,
    dorey_D1,
    dorey_D2,
    double_zero_set_D1,
    double_zero_set_D2,
    mq,
    mq2,
    p_star_D1,
    p_star_D2,
    pair_to_triple,
    star_map,
)
from arquiver.quiver import DynkinQuiver, make_height_function, parse_arrow_spec
from arquiver.root_system import CartanDatum


def exps(poly):
    return sorted(Fraction(r.p, 2) for r in poly.roots)


def test_spectral_group_laws():
    for m in range(-10, 11):
        for mm in range(-10, 11):
            assert mq(m) * mq(mm) == mq(m + mm)
            assert mq2(m) * mq2(mm) == mq2(m + mm)
        assert mq(m).inverse() * mq(m) == qaffine.ONE
        # (-q^2)^m = (-1)^m (-q)^(2m)
        assert mq2(m) == SpectralParam(4 * m, 0) * mq(2 * m)
    assert SQRT_MINUS_ONE * SQRT_MINUS_ONE == SpectralParam(4, 0)
    assert mq(Fraction(1, 2)) == SpectralParam(2, 1)
    for off_lattice in (Fraction(1, 3), Fraction(1, 4)):
        with pytest.raises(QAffineError):
            mq(off_lattice)


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
        verify.check_surj_free_multiplicity,
        verify.check_sectional_commuting,
    ):
        assert check(ar) is None
    assert len(built) == 0


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
    counts = mixed.counter()
    for root in counts:
        assert counts[root.negate()] == counts[root]


def test_double_zero_sets():
    assert double_zero_set_D1(4) == {(2, 2, 4)}
    assert double_zero_set_D2(3) == {(2, 2, 4)}
    assert not any(k == 1 or l == 1 for (k, l, _) in double_zero_set_D1(6))
    for n in range(3, 9):
        assert double_zero_set_D1(n + 1) == double_zero_set_D2(n)


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


def test_p_star_constants():
    assert p_star_D1(5) == mq(8)  # rank n+1 = 5: (-q)^(2n) with n = 4
    assert p_star_D2(5) == mq2(4).negate()


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
    with pytest.raises(QAffineError):
        pair_to_triple(example1_ar, gamma, (d4.simple_root(1), d4.simple_root(2)))


def test_multiplicity_theorem_examples(example1_ar, d4):
    gamma = rs.parse_root(d4, "e1+e2")
    cases = [
        (("<1,-4>", "<2,4>"), orders.Verdict.MINIMAL),
        (("<1,4>", "<2,-4>"), orders.Verdict.NON_MINIMAL),
        (("<1,3>", "<2,-3>"), orders.Verdict.MINIMAL),
    ]
    for (a, b), verdict in cases:
        pair = (rs.parse_root(d4, a), rs.parse_root(d4, b))
        assert qaffine.multiplicity_theorem_check(example1_ar, gamma, pair, verdict)
    # and the converse orientation of the theorem fails by construction
    pair = (rs.parse_root(d4, "<1,-4>"), rs.parse_root(d4, "<2,4>"))
    assert not qaffine.multiplicity_theorem_check(
        example1_ar, gamma, pair, orders.Verdict.NON_MINIMAL
    )


def test_same_path_commuting(example1_ar, d4):
    alpha = rs.parse_root(d4, "<1,3>")  # (3,-4)
    beta = rs.parse_root(d4, "<1,-4>")  # (1,-2): same N-broom
    assert qaffine.same_path_commuting_check(example1_ar, alpha, beta)
    # all roots sharing -e4 lie on one S-path and pairwise commute
    class_roots = [
        rs.parse_root(d4, "<1,-4>"),
        rs.parse_root(d4, "<2,-4>"),
        rs.parse_root(d4, "<3,-4>"),
    ]
    for x in range(len(class_roots)):
        for y in range(x + 1, len(class_roots)):
            assert qaffine.same_path_commuting_check(
                example1_ar, class_roots[x], class_roots[y]
            )
    with pytest.raises(QAffineError):
        qaffine.same_path_commuting_check(example1_ar, alpha, alpha)
    with pytest.raises(QAffineError):
        qaffine.same_path_commuting_check(
            example1_ar, rs.parse_root(d4, "<1,-2>"), rs.parse_root(d4, "<2,-4>")
        )


def test_fork_tips_count_as_same_path():
    d4 = CartanDatum("D", 4)
    quiver = parse_arrow_spec(d4, "1>2,2>3,2>4")
    ar = ar_quiver.build(quiver, make_height_function(quiver, 4, 0))
    # same-column spin vertices sit at the tips of one S-broom
    columns = sorted(
        p for (i, p) in ar.root_at if i == 3 and (4, p) in ar.root_at
    )
    tips_checked = 0
    for p in columns:
        upper, lower = ar.root_at[(3, p)], ar.root_at[(4, p)]
        on_common = any(
            (3, p) in path.coords and (4, p) in path.coords
            for path in ar.sectional_paths()
        )
        if on_common:
            assert qaffine.same_path_commuting_check(ar, upper, lower)
            tips_checked += 1
    assert tips_checked > 0
