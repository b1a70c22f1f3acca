"""Acceptance gate: every criterion runs at its stated time budget and
prints one pass/fail line (run with -s or -rA to see them)."""

import time
import timeit

from arquiver import ar_quiver, orders, verify
from arquiver import root_system as rs
from arquiver.quiver import all_orientations, make_height_function, parse_arrow_spec
from arquiver.root_system import CartanDatum

from conftest import EXAMPLE1_GRID, EXAMPLE1_ORDERS


def _report(name, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"{status} {name}: {elapsed:.3f}s (budget {budget}s)")
    assert ok, name
    assert elapsed < budget, f"{name} took {elapsed:.3f}s, budget {budget}s"


def _orientations(ranks):
    for n in ranks:
        datum = CartanDatum("D", n)
        for quiver in all_orientations(datum):
            yield ar_quiver.build(quiver, make_height_function(quiver, n, 0))


def test_criterion_1_example_grid():
    d4 = CartanDatum("D", 4)
    quiver = parse_arrow_spec(d4, "2>1,3>2,2>4")
    xi = make_height_function(quiver, 3, 0)
    ar_quiver.build(quiver, xi)  # warm module caches
    elapsed = min(timeit.repeat(lambda: ar_quiver.build(quiver, xi), number=5, repeat=5)) / 5
    ar = ar_quiver.build(quiver, xi)
    got = {}
    for coord, root in ar.root_at.items():
        eps = rs.epsilon_form(d4, root)
        got[coord] = (eps.a, eps.b_signed)
    _report("criterion-1 example grid", got == EXAMPLE1_GRID, elapsed, 0.001)


def test_criterion_2_canonical_orders(example1_ar, d4):
    ar = example1_ar

    def run_all():
        # a fresh quiver per call times building the readings, not reading its cache
        fresh = ar_quiver.ARQuiver(ar.quiver, ar.xi, dict(ar.root_at), ar.arrows, ar.m)
        return {tag: orders.canonical_reading(fresh, tag) for tag in orders.STRATEGIES}

    run_all()
    elapsed = min(timeit.repeat(run_all, number=5, repeat=5)) / 5
    got = {
        tag: [
            (rs.epsilon_form(d4, r).a, rs.epsilon_form(d4, r).b_signed)
            for r in order.roots
        ]
        for tag, order in run_all().items()
    }
    _report("criterion-2 canonical orders", got == EXAMPLE1_ORDERS, elapsed, 0.001)


def test_criterion_3_structure_suite():
    start = time.perf_counter()
    report = verify.run_suite(7, suites={"structure"})
    elapsed = time.perf_counter() - start
    builds = {r.orientation for r in report.records if r.orientation}
    ok = report.ok and len(builds) == 8 + 16 + 32 + 64
    _report("criterion-3 structure suite n<=7", ok, elapsed, 10.0)


def test_criterion_4_pair_count_theorem():
    start = time.perf_counter()
    ok = True
    for ar in _orientations((4, 5, 6)):
        if verify.check_pair_counts(ar) or verify.check_nonfree_counts(ar):
            ok = False
            break
    elapsed = time.perf_counter() - start
    _report("criterion-4 pair counts n<=6", ok, elapsed, 30.0)


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    ok = all(
        verify.check_oracle_agreement(ar) is None for ar in _orientations((4,))
    )
    elapsed = time.perf_counter() - start
    _report("criterion-5 oracle agreement D4", ok, elapsed, 60.0)


def test_criterion_6_denominator_multiplicity():
    start = time.perf_counter()
    ok = all(
        verify.check_surj_free_multiplicity(ar) is None
        for ar in _orientations((4, 5, 6))
    )
    elapsed = time.perf_counter() - start
    _report("criterion-6 zero multiplicities n<=6", ok, elapsed, 10.0)


def test_criterion_7_dorey_coverage():
    start = time.perf_counter()
    ok = all(
        verify.check_dorey_d1_coverage(ar) is None
        and verify.check_star_transport(ar) is None
        for ar in _orientations((4, 5, 6))
    )
    elapsed = time.perf_counter() - start
    _report("criterion-7 Dorey coverage n<=6", ok, elapsed, 30.0)


def test_criterion_8_twisted_untwisted_correspondence():
    start = time.perf_counter()
    ok = (
        verify.check_double_zero_correspondence() is None
        and verify.check_dorey_ii_in_double_zero() is None
    )
    elapsed = time.perf_counter() - start
    _report("criterion-8 double-zero correspondence", ok, elapsed, 5.0)


def test_criterion_9_non_adapted_word():
    start = time.perf_counter()
    ok = verify.check_non_adapted_word() is None
    elapsed = time.perf_counter() - start
    _report("criterion-9 non-adapted word", ok, elapsed, 10.0)


def test_criterion_10_sectional_commutation():
    start = time.perf_counter()
    ok = all(
        verify.check_sectional_commuting(ar) is None
        for ar in _orientations((4, 5, 6))
    )
    elapsed = time.perf_counter() - start
    _report("criterion-10 sectional commutation n<=6", ok, elapsed, 10.0)
