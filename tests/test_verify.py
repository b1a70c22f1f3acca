import concurrent.futures
import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

from arquiver import ar_quiver, orders, verify
from arquiver import root_system as rs
from arquiver.ar_quiver import ARQuiver
from arquiver.quiver import DynkinQuiver, all_orientations, make_height_function
from arquiver.root_system import CartanDatum
from arquiver.verify import run_suite


def test_catalog_contents():
    checks = verify.ORIENTATION_CHECKS + verify.GLOBAL_CHECKS
    ids = [check.id for check in checks]
    assert "mesh_additivity" in ids
    assert "surj_free_multiplicity" in ids
    assert "non_adapted_word" in ids
    assert len(set(ids)) == len(ids)
    for check in checks:
        assert check.suite in verify.SUITES
        assert check.fn.__doc__
    declared = sorted(check.fn.__name__ for check in checks)
    defined = sorted(name for name in vars(verify) if name.startswith("check_"))
    assert declared == defined


def test_run_suite_rank4_all_pass():
    report = run_suite(4)
    assert report.ok
    ranks = {r.rank for r in report.records if r.rank is not None}
    assert ranks == {4}
    orientations = {
        r.orientation for r in report.records if r.orientation is not None
    }
    assert len(orientations) == 8
    limited = {"readings_equal_class", "oracle_agreement"}
    for rank, recorded in ((4, limited), (5, set())):
        records = verify._run_orientation_task((rank, 0, ("orders",)))
        assert {r.check_id for r in records} & limited == recorded


def test_run_suite_is_deterministic_and_parallel_safe():
    first = run_suite(4, suites={"structure"})
    second = run_suite(4, suites={"structure"})
    strip = lambda rep: [
        (r.check_id, r.rank, r.orientation, r.status) for r in rep.records
    ]
    assert strip(first) == strip(second)
    parallel = run_suite(4, suites={"structure"}, parallelism=2)
    assert strip(parallel) == strip(first)


def test_pool_is_capped_at_the_orientations(monkeypatch):
    started = []

    class SerialPool:  # records the worker count and forks nothing
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    report = run_suite(4, suites={"structure"}, parallelism=10_000)
    assert started == [8]
    assert report.ok and len(report.records) == 120


def test_serial_sweep_loads_no_process_pool():
    code = (
        "import sys, arquiver.cli\n"
        "from arquiver import verify\n"
        "assert verify.run_suite(4, {'structure'}).ok\n"
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing',"
        " 'dataclasses', 'inspect', 'json', 'fractions') if m in sys.modules))\n"
    )
    src = Path(verify.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_run_suite_validates_arguments():
    with pytest.raises(ValueError):
        run_suite(3)
    with pytest.raises(ValueError):
        run_suite(4, suites={"nonsense"})
    with pytest.raises(ValueError):
        run_suite(4, parallelism=0)


def test_report_json_schema():
    report = run_suite(4, suites={"orders"})
    payload = json.loads(report.to_json())
    layout = ["check_id", "suite", "rank", "orientation", "status", "counterexample", "elapsed"]
    assert payload and all(list(rec) == layout for rec in payload)


def _flipped_arrow_quiver(ar):
    """ar with one arrow reversed: the mesh at its former target loses a summand."""
    target_arrow = ((1, -2), (2, -1))
    assert target_arrow in ar.arrows
    tampered_arrows = (set(ar.arrows) - {target_arrow}) | {((2, -1), (1, -2))}
    return ARQuiver(
        ar.quiver,
        ar.xi,
        dict(ar.root_at),
        frozenset(tampered_arrows),
        ar.m,
    )


def test_injected_fault_is_caught(example1_ar):
    broken = _flipped_arrow_quiver(example1_ar)
    message = verify.check_mesh_additivity(broken)
    assert message is not None and "(2,-1)" in message.replace(" ", "")
    assert verify.check_arrow_rule(broken) is not None
    # the pristine quiver passes both
    assert verify.check_mesh_additivity(example1_ar) is None
    assert verify.check_arrow_rule(example1_ar) is None


def test_build_validation_and_structure_suite_share_the_checks(example1_ar):
    assert verify.check_vertex_range is ar_quiver.check_vertex_range
    assert verify.check_nakayama is ar_quiver.check_nakayama
    assert verify.check_mesh_additivity is ar_quiver.check_mesh_additivity
    assert verify.check_arrow_rule is ar_quiver.check_arrow_rule
    broken = _flipped_arrow_quiver(example1_ar)
    assert ar_quiver.validate_build(broken) == verify.check_mesh_additivity(broken)


def test_broken_build_stops_its_orientation(example1_ar, monkeypatch):
    broken = _flipped_arrow_quiver(example1_ar)
    monkeypatch.setattr(
        ar_quiver, "build", lambda quiver, xi, validate=True: broken
    )
    report = run_suite(4, suites={"structure"})
    assert not report.ok
    by_orientation = {}
    for record in report.records:
        by_orientation.setdefault(record.orientation, []).append(record)
    assert len(by_orientation) == 8
    for records in by_orientation.values():
        status = {r.check_id: r.status for r in records}
        assert status == {
            "vertex_range": "pass",
            "nakayama": "pass",
            "mesh_additivity": "fail",
        }


def test_raising_build_is_recorded_as_an_error(monkeypatch):
    def raising_build(quiver, xi, validate=True):
        raise KeyError("boom")

    monkeypatch.setattr(ar_quiver, "build", raising_build)
    report = run_suite(4, suites={"structure"})
    assert not report.ok
    assert [(r.check_id, r.status, r.counterexample) for r in report.records] == [
        ("build", "error", "KeyError: 'boom'")
    ] * 8


@pytest.mark.parametrize("check_id, kept", [("triangle", 15), ("nakayama", 2)])
def test_raising_check_is_recorded_as_an_error(monkeypatch, check_id, kept):
    # a raising build check stops its orientation, as a failing one does
    target = DynkinQuiver.from_bitmask(CartanDatum("D", 4), 3).spec_string()
    (check,) = (c.fn for c in verify.ORIENTATION_CHECKS if c.id == check_id)

    @functools.wraps(check)
    def flaky(ar):
        if ar.quiver.spec_string() == target:
            raise KeyError("boom")
        return check(ar)

    table = tuple(
        c._replace(fn=flaky) if c.fn is check else c for c in verify.ORIENTATION_CHECKS
    )
    monkeypatch.setattr(verify, "ORIENTATION_CHECKS", table)
    report = run_suite(4, suites={"structure"})
    assert not report.ok
    errors = [r for r in report.records if r.status == "error"]
    assert [(r.check_id, r.orientation, r.counterexample) for r in errors] == [
        (check_id, target, "KeyError: 'boom'")
    ]
    assert report.failures() == errors
    assert len({r.orientation for r in report.records}) == 8
    assert sum(r.orientation == target for r in report.records) == kept


def test_every_structure_check_passes_examplewise(example1_ar):
    for check in verify.ORIENTATION_CHECKS:
        if check.suite != "structure":
            continue
        assert check.fn(example1_ar) is None, check.id


# --- checks against their former bodies ------------------------------------------------

def _every_d_orientation(rank):
    for quiver in all_orientations(CartanDatum("D", rank)):
        yield ar_quiver.build(quiver, make_height_function(quiver, rank, 0))


def _copy(ar, root_at):
    return ARQuiver(ar.quiver, ar.xi, root_at, ar.arrows, ar.m)


def _reference_check_compatibility(ar):
    """The former check_compatibility, over every (alpha, descendant) pair."""
    readings = {tag: orders.canonical_reading(ar, tag) for tag in orders.STRATEGIES}
    roots = sorted(ar.phi)
    for alpha in roots:
        below = ar.descendants(ar.coord_of(alpha))
        for coord in below:
            beta = ar.root_at[coord]
            for tag, order in readings.items():
                if not order.index(beta) < order.index(alpha):
                    return f"{tag}: {beta} should precede {alpha}"
    return None


@pytest.mark.parametrize("rank", [4, 5, 6])
def test_check_compatibility_equals_its_former_body(rank):
    for ar in _every_d_orientation(rank):
        assert verify.check_compatibility(ar) is None
        assert _reference_check_compatibility(ar) is None
        # one fault per arrow: a reading in which its two endpoints trade places
        for k, (src, dst) in enumerate(sorted(ar.arrows)):
            tag = orders.STRATEGIES[k % len(orders.STRATEGIES)]
            order = ar.readings_cache[tag]
            x, y = order.index(ar.root_at[src]), order.index(ar.root_at[dst])
            roots, word = list(order.roots), list(order.word)
            roots[x], roots[y] = roots[y], roots[x]
            word[x], word[y] = word[y], word[x]
            faulted = _copy(ar, ar.root_at)
            faulted.readings_cache.update(ar.readings_cache)
            faulted.readings_cache[tag] = orders.ConvexOrder(ar.datum, tuple(word), tuple(roots))
            for check in (verify.check_compatibility, _reference_check_compatibility):
                message = check(faulted)
                assert message is not None and "should precede" in message


def _reference_check_nfree_region(ar):
    """The former check_nfree_region, taking rs.mul at every coordinate it reads."""
    datum = ar.datum
    n = ar.rank
    hi, lo, inside = ar.nfree_region()
    if hi - lo != 2 * (n - 3):
        return f"window extremes ({hi},{lo}) differ by {hi - lo} != {2 * (n - 3)}"
    for root, coord in ar.phi.items():
        if rs.mul(root) >= 2 and not inside(coord):
            return f"tall root {root} at {coord} escapes the window"
    for path in ar.sectional_paths():
        tall = [c for c in path.coords if rs.mul(ar.root_at[c]) >= 2]
        flat = [
            c
            for c in path.coords
            if rs.mul(ar.root_at[c]) == 1 and c[0] < n - 1
        ]
        for cf in flat:
            for ct in tall:
                if cf[0] >= ct[0]:
                    return (
                        f"multiplicity-free {cf} not below non-free {ct} "
                        f"on one sectional path"
                    )
    return None


@pytest.mark.parametrize("rank", [4, 5, 6])
def test_check_nfree_region_equals_its_former_body(rank):
    messages = set()
    for ar in _every_d_orientation(rank):
        assert verify.check_nfree_region(ar) is None
        assert _reference_check_nfree_region(ar) is None
        # faults: a tall root trades places with each other root
        tall = [c for c, root in ar.root_at.items() if rs.mul(root) >= 2]
        for ct in tall:
            for other in ar.root_at:
                root_at = dict(ar.root_at)
                root_at[ct], root_at[other] = root_at[other], root_at[ct]
                faulted = _copy(ar, root_at)
                message = verify.check_nfree_region(faulted)
                assert message == _reference_check_nfree_region(faulted)
                messages.add(message.split(" ")[0] if message else None)
    # at D4 no swap gets past the window to the sectional-path clause
    expected = {None, "window", "tall"} | ({"multiplicity-free"} if rank > 4 else set())
    assert messages == expected
