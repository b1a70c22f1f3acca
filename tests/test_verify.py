import concurrent.futures
import functools
import json
import random
import subprocess
import sys
import time
import weakref
from itertools import chain
from pathlib import Path

import pytest

from arquiver import ar_quiver, orders, qaffine, verify
from arquiver import root_system as rs
from arquiver.ar_quiver import ARQuiver, ARQuiverError, Swing
from arquiver.cli import build_parser
from arquiver.quiver import (
    DynkinQuiver,
    VertexClass,
    all_orientations,
    classify_vertex,
    make_height_function,
)
from arquiver.root_system import CartanDatum
from arquiver.verify import run_suite

from conftest import arrow_ends
from test_ar_quiver import _reference_check_mesh_additivity
from test_qaffine import _with_zero, _without_one
from test_quiver import _reference_classify_vertex


def test_catalog_contents():
    checks = verify.ORIENTATION_CHECKS + verify.GLOBAL_CHECKS
    ids = [check.id for check in checks]
    assert "mesh_additivity" in ids
    assert "surj_free_multiplicity" in ids
    assert "non_adapted_word" in ids
    assert len(set(ids)) == len(ids)
    assert verify.SUITES == ("structure", "orders", "qaffine")
    for check in checks:
        assert check.suite in verify.SUITES
        assert check.fn.__doc__
    declared = sorted(check.fn.__name__ for check in checks)
    defined = sorted(name for name in vars(verify) if name.startswith("check_"))
    assert declared == defined
    parser = build_parser()
    for suite in (*verify.SUITES, "all"):
        assert parser.parse_args(["verify", "--suite", suite]).suite == suite
    with pytest.raises(SystemExit):
        parser.parse_args(["verify", "--suite", "global"])


def test_check_ids_are_computed_once_and_shared_by_the_records():
    for check in verify.ORIENTATION_CHECKS + verify.GLOBAL_CHECKS:
        assert check.id == check.fn.__name__.removeprefix("check_")
        assert check.id is sys.intern(check.fn.__name__.removeprefix("check_"))
    ids = {check.id: check.id for check in verify.ORIENTATION_CHECKS + verify.GLOBAL_CHECKS}
    for record in run_suite(4, {"structure", "orders"}).records:
        assert record.check_id is ids[record.check_id]


def test_seeded_high_rank_orientations_pass_every_suite():
    # three seeded orientations per rank, drawn as the roadmap's baseline draws them
    suites = ("orders", "qaffine", "structure")
    start = time.perf_counter()
    for rank in (20, 30):
        rng = random.Random(rank)
        masks = [rng.randrange(2 ** (rank - 1)) for _ in range(3)]
        records = [
            record
            for mask in masks
            for record in verify._run_orientation_task(
                (DynkinQuiver.from_bitmask(CartanDatum("D", rank), mask), suites)
            )
        ]
        assert [r for r in records if r.status != "pass"] == []
        assert {r.suite for r in records} == set(suites)
        assert len({r.orientation for r in records}) == 3
        assert {r.rank for r in records} == {rank}
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"D20 and D30: {elapsed:.2f}s for six orientations, budget 5s"


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
        quiver = DynkinQuiver.from_bitmask(CartanDatum("D", rank), 0)
        records = verify._run_orientation_task((quiver, ("orders",)))
        assert {r.check_id for r in records} & limited == recorded


@pytest.mark.parametrize("mask", [0, 15])
def test_all_readings_checks_pass_on_d5(mask):
    # above the sweep's rank_max of 4: the checks are called directly
    quiver = DynkinQuiver.from_bitmask(CartanDatum("D", 5), mask)
    ar = ar_quiver.build(quiver, make_height_function(quiver, 5, 0))
    assert verify.check_readings_equal_class(ar) is None
    assert verify.check_oracle_agreement(ar) is None
    assert len(orders.reading_words(ar)) == 18720  # the size of the commutation class


def _supp_ge(root, k):
    """The former root_system.supp_ge: vertices whose coefficient is at least k."""
    return frozenset(i for i, c in enumerate(root, 1) if c >= k)


@pytest.mark.parametrize("rank", [4, 5, 6])
def test_pair_counts_want_the_former_support_sizes(monkeypatch, rank):
    # the verdicts are faked to the counts the former supp_ge gave, moved by
    # shift: the check passes on every root exactly when its own support
    # arithmetic gives the same counts, and fails at the first root otherwise
    quiver = DynkinQuiver.from_bitmask(CartanDatum("D", rank), 0)
    ar = ar_quiver.build(quiver, make_height_function(quiver, rank, 0))

    def faked(shift):
        def classify_pair(ar, gamma, pair):
            minimal = len(_supp_ge(gamma, 1)) - 1 + shift
            first = list(orders._pair_table(ar, gamma))[:minimal]
            return orders.PairVerdict(gamma, *pair, orders.MINIMAL if pair in first else orders.NON_MINIMAL,
                                      None, None)
        return classify_pair

    monkeypatch.setattr(orders, "classify_pair", faked(0))
    assert verify.check_pair_counts(ar) is None
    monkeypatch.setattr(orders, "classify_pair", faked(-1))
    gamma = min(root for root in ar.phi if rs.ht(root) >= 2)
    want = (len(_supp_ge(gamma, 1)) - 1, len(_supp_ge(gamma, 2)))
    assert verify.check_pair_counts(ar) == (
        f"{gamma}: ({want[0] - 1} minimal, {want[1] + 1} non-minimal), expected ({want[0]},{want[1]})"
    )


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


def test_orientations_of_a_rank_share_one_datum(monkeypatch):
    # the datum's cached diagram tables are built once per rank, not per orientation
    seen = []
    from_bitmask = DynkinQuiver.from_bitmask

    def recording(datum, mask):
        seen.append(datum)
        return from_bitmask(datum, mask)

    monkeypatch.setattr(DynkinQuiver, "from_bitmask", recording)
    assert run_suite(5, suites={"structure"}).ok
    assert sorted(datum.rank for datum in seen) == [4] * 8 + [5] * 16
    for rank in (4, 5):
        assert len({id(datum) for datum in seen if datum.rank == rank}) == 1


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
    # a float is no int, and is refused before any task is built
    for bad in ({"rank_max": 5.0}, {"rank_max": 5, "parallelism": 2.0}):
        with pytest.raises(verify.VerifyError, match="must be an int"):
            run_suite(**bad)
    # only None selects every suite; an empty selection is no sweep at all
    for empty in (set(), frozenset(), ()):
        with pytest.raises(verify.VerifyError, match="no suite selected"):
            run_suite(4, suites=empty)


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


def _reference_check_arrow_pairing(ar):
    """The former body of ``verify.check_arrow_pairing``, through ``datum.pairing``."""
    for src, dst in ar.arrows:
        value = ar.datum.pairing(ar.root_at[dst], ar.root_at[src])
        if value != 1:
            return f"arrow {src}->{dst} has pairing {value}"
    return None


@pytest.mark.parametrize("diagram, rank", [("A", n) for n in range(1, 5)] + [("D", 4), ("D", 5)])
def test_cached_pairing_equals_the_form(diagram, rank):
    datum = CartanDatum(diagram, rank)
    roots = sorted(rs.enumerate_positive_roots(datum))
    for a in roots:
        for b in roots:
            assert verify._pairing(datum, a, b) == datum.pairing(a, b)
    for short in ((1,) * (rank - 1), (1,) * (rank + 1)):
        with pytest.raises(rs.RootSystemError, match="cannot pair"):
            verify._pairing(datum, short, roots[0])
        with pytest.raises(rs.RootSystemError, match="cannot pair"):
            verify._pairing(datum, roots[0], short)


def test_arrow_pairing_equals_its_reference(example1_ar):
    coords = sorted(example1_ar.root_at)
    tangled = ARQuiver(example1_ar.quiver, example1_ar.xi, example1_ar.root_at,
                       frozenset((a, b) for a in coords for b in coords), example1_ar.m)
    message = verify.check_arrow_pairing(tangled)
    assert message is not None and message == _reference_check_arrow_pairing(tangled)
    assert verify.check_arrow_pairing(example1_ar) is _reference_check_arrow_pairing(example1_ar)
    for quiver in all_orientations(CartanDatum("D", 5)):
        ar = ar_quiver.build(quiver, make_height_function(quiver, 5, 0))
        assert verify.check_arrow_pairing(ar) is _reference_check_arrow_pairing(ar) is None


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
                if not order.position[beta] < order.position[alpha]:
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
            x, y = order.position[ar.root_at[src]], order.position[ar.root_at[dst]]
            roots, word = list(order.roots), list(order.word)
            roots[x], roots[y] = roots[y], roots[x]
            word[x], word[y] = word[y], word[x]
            faulted = _copy(ar, ar.root_at)
            faulted.readings_cache.update(ar.readings_cache)
            faulted.readings_cache[tag] = orders.ConvexOrder(ar.datum, tuple(word), tuple(roots))
            for check in (verify.check_compatibility, _reference_check_compatibility):
                message = check(faulted)
                assert message is not None and "should precede" in message


# the ARQuiver methods that the structure checks once called, verbatim

def _reference_column_of(self, root):
    return self.coord_of(root)[1]


def _reference_level_pair_sum(self, column):
    """For a column holding both spin levels: the index a with root sum 2*e_a."""
    n = self.rank
    upper = self.root_at.get((n - 1, column))
    lower = self.root_at.get((n, column))
    if upper is None or lower is None:
        return None
    total = tuple(x + y for x, y in zip(upper, lower))
    e = rs.epsilon_coords(self.datum, total)
    support = [(i + 1, c) for i, c in enumerate(e) if c]
    if len(support) != 1 or support[0][1] != 2:
        raise ARQuiverError(f"column {column}: spin pair sums to {total}, not 2*e_a")
    return support[0][0], (upper, lower)


def _reference_triangle_apex(self, coord_a, coord_b):
    """Where the sum of two spin-level roots sits: (n-1-k, (s+l)/2)."""
    n = self.rank
    (na, s), (nb, l) = coord_a, coord_b
    if na not in (n - 1, n) or nb not in (n - 1, n):
        raise ARQuiverError("both coordinates must be at the spin levels")
    if abs(s - l) == 0 or abs(s - l) % 2:
        raise ARQuiverError("columns must differ by a positive even number")
    k = abs(s - l) // 2
    if (na - nb) % 2 != (k - 1) % 2:
        raise ARQuiverError(f"parity mismatch: levels ({na},{nb}) with k={k}")
    apex = (n - 1 - k, (s + l) // 2)
    total = tuple(
        x + y for x, y in zip(self.root_at[coord_a], self.root_at[coord_b])
    )
    if self.root_at.get(apex) != total:
        raise ARQuiverError(f"apex {apex} does not hold the sum of the pair")
    return apex


def _reference_longest_root_coord(self):
    if self.datum.diagram_type != "D":
        raise ARQuiverError("the longest-root formula is for type D")
    n = self.rank
    if not arrow_ends(self.quiver, 1)[0]:
        return (n - 2, self.xi[0] - n + 1)
    return (n - 2, self.xi[0] - n + 3)


def _reference_sigma(self):
    """Level-(n-1) roots minus simples, columns descending, with swing indices."""
    if self.datum.diagram_type != "D":
        raise ARQuiverError("the sigma sequence exists only in type D")
    n = self.rank
    simples = {self.datum.simple_root(n - 1), self.datum.simple_root(n)}
    members = [
        (p, root)
        for (i, p), root in self.root_at.items()
        if i == n - 1 and root not in simples
    ]
    members.sort(key=lambda pr: -pr[0])
    roots = [root for _, root in members]
    indices = [rs.epsilon_form(self.datum, root).a for root in roots]
    return roots, indices


def _reference_kappa(self):
    """Level-1 roots (columns descending), summand indices, and the fold."""
    if self.datum.diagram_type != "D":
        raise ARQuiverError("the kappa sequence exists only in type D")
    members = [(p, root) for (i, p), root in self.root_at.items() if i == 1]
    members.sort(key=lambda pr: -pr[0])
    roots = [root for _, root in members]
    indices = [rs.epsilon_form(self.datum, root).b_signed for root in roots]
    tp = self.t_prime_index
    fold = None
    for pos in range(1, len(indices)):
        if abs(indices[pos - 1]) == tp and abs(indices[pos]) == tp:
            fold = pos + 1  # 1-based position l with |j_l| = |j_{l-1}| = t'
            break
    if fold is None:
        raise ARQuiverError("kappa sequence has no adjacent +-t' pair")
    return roots, indices, fold


def _reference_nfree_region(self):
    """(i, j, predicate): column extremes of tall spin-level roots and the
    coordinate window that contains every multiplicity-non-free root."""
    if self.datum.diagram_type != "D":
        raise ARQuiverError("the non-free region exists only in type D")
    n = self.rank
    spin_tall = [
        p
        for (lvl, p), root in self.root_at.items()
        if lvl in (n - 1, n) and rs.ht(root) >= 2
    ]
    if not spin_tall:
        raise ARQuiverError("no spin-level roots of height >= 2")
    hi, lo = max(spin_tall), min(spin_tall)

    def inside(coord):
        level, p = coord
        if not 1 < level < n - 1:
            return False
        return lo - (n - 1 - level) <= p <= hi - (n - 1 - level)

    return hi, lo, inside


# the former bodies of the checks that called them, verbatim but for the calls

def _reference_check_level_pair_sums(ar):
    """Same-column spin roots are <a,t>, <a,-t> summing to 2e_a."""
    datum = ar.datum
    n = ar.rank
    t = ar.t_index
    for p in sorted({q for (lvl, q) in ar.root_at if lvl == n - 1}):
        result = _reference_level_pair_sum(ar, p)
        if result is None:
            continue
        a, (upper, lower) = result
        eps = {rs.epsilon_form(datum, upper), rs.epsilon_form(datum, lower)}
        expected = {rs.EpsilonForm(a, t), rs.EpsilonForm(a, -t)}
        if a > n - 1 or eps != expected:
            return f"column {p}: pair {sorted(map(str, eps))} != <{a},+-{t}>"
    return None


def _reference_check_triangle(ar):
    """Spin pairs with matching parity meet at (n-1-k, (s+l)/2)."""
    n = ar.rank
    spin = [c for c in ar.root_at if c[0] in (n - 1, n)]
    for ca in spin:
        for cb in spin:
            gap = cb[1] - ca[1]
            if gap <= 0 or gap % 2:
                continue
            k = gap // 2
            if (ca[0] - cb[0]) % 2 != (k - 1) % 2:
                continue
            try:
                _reference_triangle_apex(ar, ca, cb)
            except ar_quiver.ARQuiverError as exc:
                return f"triangle at {ca},{cb}: {exc}"
    return None


def _reference_check_sigma_kappa(ar):
    """sigma swing indices are reverse-unimodal; kappa tents at t'."""
    datum = ar.datum
    n = ar.rank
    sigma_roots, sigma_idx = _reference_sigma(ar)
    if len(sigma_roots) != n - 2:
        return f"|sigma| = {len(sigma_roots)} != {n - 2}"
    cols = [_reference_column_of(ar, r) for r in sigma_roots]
    if any(cols[k] - cols[k + 1] != 2 for k in range(len(cols) - 1)):
        return f"sigma columns {cols} do not descend by 2"
    if sorted(sigma_idx) != list(range(1, n - 1)):
        return f"sigma swing indices {sigma_idx} are not 1..{n - 2}"
    valley = sigma_idx.index(1)
    down, up = sigma_idx[: valley + 1], sigma_idx[valley:]
    if down != sorted(down, reverse=True) or up != sorted(up):
        return f"sigma indices {sigma_idx} are not reverse-unimodal"
    swings = {s.shared_index: s for s in ar.swings()}
    for pos, (root, idx) in enumerate(zip(sigma_roots, sigma_idx)):
        if ar.coord_of(root) not in swings[idx].coords:
            return f"sigma_{pos + 1} not in its {idx}-swing"
        s_len, n_len = len(swings[idx].s_part), len(swings[idx].n_part)
        if pos < valley and not n_len < s_len:
            return f"{idx}-swing left of the valley has N-part not shorter"
        if pos > valley and not s_len < n_len:
            return f"{idx}-swing right of the valley has S-part not shorter"

    kappa_roots, kappa_idx, fold = _reference_kappa(ar)
    if len(kappa_roots) != n - 1:
        return f"|kappa| = {len(kappa_roots)} != {n - 1}"
    cols = [_reference_column_of(ar, r) for r in kappa_roots]
    if any(cols[k] - cols[k + 1] != 2 for k in range(len(cols) - 1)):
        return f"kappa columns {cols} do not descend by 2"
    tp = ar.t_prime_index
    expected_idx = set(range(-2, -(n - 2) - 1, -1)) | {tp, -tp}
    if set(kappa_idx) != expected_idx or len(kappa_idx) != len(expected_idx):
        return f"kappa summand indices {kappa_idx} != {sorted(expected_idx)}"
    mags = [abs(j) for j in kappa_idx]
    if not (mags[fold - 1] == mags[fold - 2] == tp):
        return f"kappa fold {fold} does not sit on the +-{tp} pair"
    left, right = mags[: fold - 1], mags[fold - 1:]
    if left != sorted(left) or right != sorted(right, reverse=True):
        return f"kappa magnitudes {mags} are not a tent around position {fold}"

    def eps_sum(roots):
        return rs.epsilon_coords(datum, tuple(map(sum, zip(*roots))))

    e = eps_sum(kappa_roots)
    if [c for c in e if c] != [2] or e[0] != 2:
        return f"sum of kappa is not 2*e_1 (epsilon coords {e})"
    head = eps_sum(kappa_roots[: fold - 1])
    tail = tuple(a - b for a, b in zip(e, head))
    want = {
        tuple(1 if i in (0, tp - 1) else 0 for i in range(n)),
        tuple(1 if i == 0 else (-1 if i == tp - 1 else 0) for i in range(n)),
    }
    if {head, tail} != want:
        return f"kappa partial sums {head}, {tail} are not e_1 +- e_{tp}"
    if not arrow_ends(ar.quiver, 1)[1]:
        segment = kappa_roots[: n - 2]
    else:
        segment = kappa_roots[1:]
    seg = eps_sum(segment)
    if seg != tuple(1 if i in (0, 1) else 0 for i in range(n)):
        return f"kappa segment sum {seg} is not e_1 + e_2"
    for pos, (root, j) in enumerate(zip(kappa_roots, kappa_idx), start=1):
        path = _reference_rescanning_summand_class_path(ar, j)
        if len(rs.summand_class(datum, j)) <= 1:
            continue
        if path is None:
            return f"kappa_{pos} class {j} lies on no single broom"
        want_kind = "S" if pos <= fold - 1 else "N"
        if path.kind != want_kind:
            return f"kappa_{pos} class {j} is {path.kind}-sectional, wanted {want_kind}"
    return None


def _reference_check_longest_root(ar):
    """e_1+e_2 at (n-2, xi_1-n+1 or +3); 1- and 2-swings adjacent."""
    datum = ar.datum
    n = ar.rank
    longest = rs.root_from_epsilon(datum, rs.EpsilonForm(1, 2))
    coord = ar.coord_of(longest)
    if coord != _reference_longest_root_coord(ar):
        return f"e_1+e_2 at {coord}, formula gives {_reference_longest_root_coord(ar)}"
    swings = {s.shared_index: s for s in ar.swings()}
    gap = abs(swings[1].fork[0][1] - swings[2].fork[0][1])
    if gap != 2:
        return f"1-swing and 2-swing forks are {gap} columns apart"
    return None


def _reference_check_nfree_region(ar):
    """The former check_nfree_region, taking rs.mul at every coordinate it reads."""
    datum = ar.datum
    n = ar.rank
    hi, lo, inside = _reference_nfree_region(ar)
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


# the former labels of swings and shallow brooms: the summands their roots share

def _reference_summands(ar, coords):
    """The former ARQuiver.common_summands: signed summands every root at coords has."""
    return set.intersection(*(set(rs.epsilon_form(ar.datum, ar.root_at[c])) for c in coords))


def _reference_swings(ar):
    """The former ARQuiver._swings: each labelled by its one shared +e_a, else 0."""
    n = ar.rank
    stems = {}
    for path in ar.sectional_paths():
        fork = tuple(c for c in path.coords if c[0] >= n - 1)
        if len(fork) == 2:
            stems[path.kind, fork] = tuple(c for c in path.coords if c[0] <= n - 2)
    swings = []
    for (kind, fork), s_part in stems.items():
        n_part = stems.get(("N", fork))
        if kind == "S" and n_part is not None:
            shared = {s for s in _reference_summands(ar, s_part + fork + n_part) if s > 0}
            label = shared.pop() if len(shared) == 1 else 0
            swings.append(Swing(label, s_part, fork, n_part))
    return sorted(swings, key=lambda s: s.shared_index)


def _reference_check_swing_shapes(ar):
    """n-2 maximal swings, each sharing one +e_a; the a-swing holds all e_a carriers."""
    datum = ar.datum
    n = ar.rank
    swings = _reference_swings(ar)
    unlabelled = [s.fork for s in swings if not s.shared_index]
    if unlabelled:
        return f"swing at fork {unlabelled[0]} shares no single +e_a summand"
    if [s.shared_index for s in swings] != list(range(1, n - 1)):
        return f"swing indices {[s.shared_index for s in swings]} != 1..{n - 2}"
    for swing in swings:
        a = swing.shared_index
        carriers = set(rs.summand_class(datum, a))
        members = {ar.root_at[c] for c in swing.coords}
        if members != carriers:
            return f"{a}-swing misses carriers {carriers - members} or adds extras"
        if len(members) != 2 * n - a - 1:
            return f"{a}-swing has {len(members)} roots, expected {2 * n - a - 1}"
        if datum.simple_root(a) not in members:
            return f"{a}-swing does not contain alpha_{a}"
        s_start = swing.s_part[0][0]
        n_end = swing.n_part[-1][0]
        if not ((s_start == a and n_end == 1) or (s_start == 1 and n_end == a)):
            return f"{a}-swing shape ({s_start}..fork..{n_end}) is not one of the two"
    return None


def _reference_check_shallow_paths(ar):
    """Shallow maximal paths reach level 1 and share one -e_k."""
    datum = ar.datum
    n = ar.rank
    spin_ends = [arrow_ends(ar.quiver, i) for i in (n - 1, n)]
    spin_sinks = not any(out_of for _, out_of in spin_ends)
    spin_sources = not any(into for into, _ in spin_ends)
    delta = 1 if (spin_sinks or spin_sources) else 0
    seen_classes = set()
    for path in ar.sectional_paths():
        if not path.shallow:
            continue
        levels = [c[0] for c in path.coords]
        if min(levels) != 1:
            return f"shallow {path.kind}-path {path.coords} misses level 1"
        shared = {s for s in _reference_summands(ar, path.coords) if s < 0}
        if len(shared) != 1:
            return f"shallow path {path.coords} shares no single -e_k summand"
        k = -shared.pop()
        if k > n - 2 + delta:
            return f"shallow path shares -e_{k}, beyond n-2+{delta}"
        if k in seen_classes:
            return f"two shallow paths share -e_{k}"
        seen_classes.add(k)
        members = {ar.root_at[c] for c in path.coords}
        if members != rs.summand_class(datum, -k):
            return f"shallow -e_{k} path does not hold the whole class"
    return None


@pytest.mark.parametrize("rank", range(4, 10))
def test_sizes_label_swings_and_shallow_brooms_as_their_shared_summands_do(rank):
    for ar in _every_d_orientation(rank):
        swings = ar.swings()
        assert swings == _reference_swings(ar)
        assert all(s.shared_index == 2 * rank - 1 - len(s.coords) for s in swings)
        for path in ar.sectional_paths():
            if path.shallow:
                shared = {s for s in _reference_summands(ar, path.coords) if s < 0}
                assert shared == {-(len(path.coords) + 1)}


def _reference_check_simple_root_coords(ar):
    """The former check_simple_root_coords, reading vertex classes off the arrows."""
    datum = ar.datum
    n = ar.rank
    star = rs.longest_element_star(datum)
    for k in datum.vertices:
        actual = ar.coord_of(datum.simple_root(k))
        cls = _reference_classify_vertex(ar.quiver, k)
        if cls is VertexClass.SOURCE:
            expected = (k, ar.xi[k - 1])
        elif cls is VertexClass.SINK:
            ks = star[k]
            expected = (ks, ar.xi[ks - 1] - 2 * ar.m[ks - 1])
        elif cls is VertexClass.LEFT_INTERMEDIATE:
            expected = (1, ar.xi[k - 1] - k + 1)
        elif cls is VertexClass.RIGHT_INTERMEDIATE:
            expected = (1, ar.xi[k - 1] - 2 * n + k + 3)
        else:
            if k != n - 2:
                return f"vertex {k} classified OTHER away from the branch vertex"
            into, out_of = arrow_ends(ar.quiver, k)
            incoming, outgoing = set(into), set(out_of)
            spin = {n - 1, n}
            if n - 3 in incoming:
                (a,) = outgoing
                expected = (star[a], ar.xi[k - 1] - 2 * n + 5)
            else:
                (a,) = incoming & spin
                expected = (a, ar.xi[k - 1] - 1)
        if actual != expected:
            return f"alpha_{k} at {actual}, expected {expected} ({cls.value})"
    return None


# the orders and qaffine checks before one walk per quiver and exponent-keyed
# zero orders: each walks the readings itself, or asks mq for every gap; the
# oracle reads a table built as the former _oracle_table built it, early stop and all

def _reference_check_surj_free_multiplicity(ar):
    """Zero multiplicity at (-q)^|column gap| is 1 for minimal pairs, 2 otherwise."""
    for gamma, pair in orders.all_pairs(ar):
        minimal = orders.classify_pair(ar, gamma, pair).verdict == orders.Verdict.MINIMAL
        (k, p), (l, r) = ar.coord_of(pair[0]), ar.coord_of(pair[1])
        found = qaffine.denom_D1(ar.rank, k, l).zero_multiplicity(qaffine.mq(abs(p - r)))
        if found != (1 if minimal else 2):
            return f"zero multiplicity {found} for pair {pair} of {gamma}"
    return None


def _reference_check_sectional_commuting(ar):
    """No denominator zero in either direction along a path."""
    for path in ar.sectional_paths():
        for x, (k, p) in enumerate(path.coords):
            for l, r in path.coords[x + 1:]:
                poly = qaffine.denom_D1(ar.rank, k, l)
                if any(poly.zero_multiplicity(qaffine.mq(gap)) for gap in (p - r, r - p)):
                    return f"pair {(k, p)}, {(l, r)} on {path.kind}-path has a zero"
    return None


def _reference_check_readings_equal_class(ar):
    """Readings of Gamma_Q = commutation class of one word."""
    reading_words = {order.word for order in orders.all_readings(ar)}
    seed = orders.canonical_reading(ar, "U1").word
    cls = orders.commutation_class(ar.datum, seed)
    if reading_words != cls:
        return (
            f"{len(reading_words)} readings vs {len(cls)} words in the class"
        )
    return None


def _reference_oracle_table(ar):
    """The former ``orders._oracle_table``, which stopped once every pair was witnessed."""
    keys = [(gamma, *pair) for gamma, pair in orders.all_pairs(ar)]
    pending = keys
    for order in orders.all_readings(ar):
        pending = [(g, a, b) for g, a, b in pending
                   if not orders.minimal_wrt(order, (a, b), g)]
        if not pending:
            break
    unwitnessed = set(pending)
    return {key: key not in unwitnessed for key in keys}


_REFERENCE_ORACLE_TABLES = weakref.WeakKeyDictionary()


def _reference_oracle_classify(ar, gamma, pair):
    """The former ``orders.oracle_classify``, on the former table, built once per quiver."""
    alpha, beta = orders._check_pair(ar, gamma, pair)
    table = _REFERENCE_ORACLE_TABLES.get(ar)
    if table is None:
        table = _REFERENCE_ORACLE_TABLES[ar] = _reference_oracle_table(ar)
    if table.get((gamma, alpha, beta), False):
        return orders.PairVerdict(gamma, alpha, beta, orders.Verdict.MINIMAL)
    return orders.PairVerdict(gamma, alpha, beta, orders.Verdict.NON_MINIMAL)


def _reference_check_oracle_agreement(ar):
    """Dominance classifier matches the all-readings oracle."""
    for gamma, pair in orders.all_pairs(ar):
        fast = orders.classify_pair(ar, gamma, pair).verdict
        slow = _reference_oracle_classify(ar, gamma, pair).verdict
        if fast != slow:
            return f"{gamma} pair {pair}: classifier {fast.value}, oracle {slow.value}"
    return None


REWRITTEN = {
    "simple_root_coords": _reference_check_simple_root_coords,
    "level_pair_sums": _reference_check_level_pair_sums,
    "triangle": _reference_check_triangle,
    "sigma_kappa": _reference_check_sigma_kappa,
    "longest_root": _reference_check_longest_root,
    "nfree_region": _reference_check_nfree_region,
    "swing_shapes": _reference_check_swing_shapes,
    "shallow_paths": _reference_check_shallow_paths,
    "surj_free_multiplicity": _reference_check_surj_free_multiplicity,
    "sectional_commuting": _reference_check_sectional_commuting,
    "readings_equal_class": _reference_check_readings_equal_class,
    "oracle_agreement": _reference_check_oracle_agreement,
}


def _rewritten_at(rank):
    """REWRITTEN's entries whose checks the sweep runs at this rank."""
    limits = {check.id: check.rank_max for check in verify.ORIENTATION_CHECKS}
    return [(check_id, reference) for check_id, reference in REWRITTEN.items()
            if rank <= (limits[check_id] or rank)]


# zeros added to denom_D1 at one pair of levels: (-q)-powers at column gaps
# of paths and pairs, and values of other forms that no gap lookup may read
DENOMINATOR_FAULTS = [
    ((1, 3), qaffine.mq(2)),
    ((3, 4), qaffine.mq(0)),
    ((1, 2), qaffine.mq(1)),
    ((2, 2), qaffine.mq(2)),
    ((1, 2), qaffine.mq2(1)),
    ((1, 1), qaffine.mq(2) * qaffine.SQRT_MINUS_ONE),
    ((2, 3), qaffine.mq(3).negate()),
    ((2, 3), qaffine.SpectralParam(1, 2)),
]


def _two_root_swaps(ar):
    """Copies of ar in which each pair of roots has traded places."""
    coords = sorted(ar.root_at)
    for x, cx in enumerate(coords):
        for cy in coords[x + 1:]:
            root_at = dict(ar.root_at)
            root_at[cx], root_at[cy] = root_at[cy], root_at[cx]
            yield _copy(ar, root_at)


@pytest.mark.parametrize("rank", [4, 5, 6, 7])
def test_rewritten_checks_pass_where_their_former_bodies_pass(rank):
    for ar in _every_d_orientation(rank):
        for check_id, reference in _rewritten_at(rank):
            assert reference(ar) is None, check_id
            assert getattr(verify, f"check_{check_id}")(ar) is None, check_id


# the orders and qaffine checks keep their former messages and the errors they raise
SAME_OUTCOMES = {
    "surj_free_multiplicity", "sectional_commuting", "readings_equal_class", "oracle_agreement",
}


@pytest.mark.parametrize("rank", [4, 5])
def test_rewritten_checks_flag_what_their_former_bodies_flag(monkeypatch, rank):
    # a former body that raised or returned a message is a fault the new check
    # must report; where the former body returned None, so must the new one.
    # Root swaps reach every check but sectional_commuting, which reads only
    # coordinates; a zero added to a denominator reaches the two that read them.
    # The structure checks never raise on a swap (the test below); an orders or
    # qaffine check may, as its former body does.
    rewritten = _rewritten_at(rank)
    flagged = {check_id: 0 for check_id, _ in rewritten}

    def compare(faulted):
        for check_id, reference in rewritten:
            message = _outcome_of(getattr(verify, f"check_{check_id}"), faulted)
            former = _outcome_of(reference, faulted)
            if check_id in SAME_OUTCOMES:
                assert message == former, check_id
            assert (message is None) == (former is None), (check_id, former)
            flagged[check_id] += message is not None

    for ar in _every_d_orientation(rank):
        for faulted in _two_root_swaps(ar):
            compare(faulted)
    for levels, zero in DENOMINATOR_FAULTS:
        with monkeypatch.context() as patched:
            _with_zero(patched, levels, zero)
            for ar in _every_d_orientation(rank):
                compare(ar)
    assert all(flagged.values()), flagged


@pytest.mark.parametrize("rank", [4, 5])
def test_structure_checks_never_raise_on_swapped_roots(rank):
    structure = [c.fn for c in verify.ORIENTATION_CHECKS if c.suite == "structure"]
    for ar in _every_d_orientation(rank):
        for faulted in _two_root_swaps(ar):
            for check in structure:
                message = check(faulted)
                assert message is None or isinstance(message, str), check.__name__


# the bodies before packed codes and one-pass tables, verbatim: each rescans
# root_at or the sectional paths, or adds roots as tuples

def _reference_rescanning_check_vertex_range(ar):
    """Vertex set is Phi+ spread over columns xi_i - 2m_i .. xi_i."""
    datum = ar.datum
    roots = rs.enumerate_positive_roots(datum)
    if set(ar.phi) != set(roots) or len(ar.root_at) != len(roots):
        return "vertex labels are not a bijection with the positive roots"
    for i in datum.vertices:
        expected = {
            p for p in range(ar.xi[i - 1] - 2 * ar.m[i - 1], ar.xi[i - 1] + 1, 2)
        }
        actual = {p for (lvl, p) in ar.root_at if lvl == i}
        if expected != actual:
            return f"level {i} columns {sorted(actual)} != {sorted(expected)}"
    return None


def _reference_rescanning_check_range_lemma(ar):
    """(i, xi_j - d(i,j)) and (i, xi_j - 2m_j + d(i,j)) are vertices."""
    datum = ar.datum
    for i in datum.vertices:
        for j in datum.vertices:
            d = datum.distance_table[i][j]
            for p in (ar.xi[j - 1] - d, ar.xi[j - 1] - 2 * ar.m[j - 1] + d):
                if (i, p) not in ar.root_at:
                    return f"({i},{p}) missing for (i,j)=({i},{j})"
    return None


def _reference_rescanning_check_triangle(ar):
    """Spin pairs with matching parity meet at (n-1-k, (s+l)/2)."""
    n = ar.rank
    spin = [c for c in ar.root_at if c[0] in (n - 1, n)]
    for ca in spin:
        for cb in spin:
            gap = cb[1] - ca[1]
            if gap <= 0 or gap % 2:
                continue
            k = gap // 2
            if (ca[0] - cb[0]) % 2 != (k - 1) % 2:
                continue
            apex = (n - 1 - k, ca[1] + k)
            if ar.root_at.get(apex) != tuple(map(sum, zip(ar.root_at[ca], ar.root_at[cb]))):
                return f"triangle at {ca},{cb}: apex {apex} does not hold the sum of the pair"
    return None


def _reference_rescanning_summand_class_path(ar, signed):
    """The maximal broom holding every root with the given signed summand."""
    carriers = {ar.coord_of(root) for root in rs.summand_class(ar.datum, signed)}
    for path in ar.sectional_paths():
        if carriers <= set(path.coords):
            return path
    return None


def _reference_rescanning_check_sigma_kappa(ar):
    """sigma swing indices are reverse-unimodal; kappa tents at t'."""
    datum = ar.datum
    n = ar.rank
    # sigma: the level-(n-1) roots other than the simples, columns descending
    simples = {datum.simple_root(n - 1), datum.simple_root(n)}
    sigma = sorted(((p, root) for (i, p), root in ar.root_at.items()
                    if i == n - 1 and root not in simples), reverse=True)
    if len(sigma) != n - 2:
        return f"|sigma| = {len(sigma)} != {n - 2}"
    cols, sigma_roots = map(list, zip(*sigma))
    if any(cols[k] - cols[k + 1] != 2 for k in range(len(cols) - 1)):
        return f"sigma columns {cols} do not descend by 2"
    sigma_idx = [rs.epsilon_form(datum, root).a for root in sigma_roots]
    if sorted(sigma_idx) != list(range(1, n - 1)):
        return f"sigma swing indices {sigma_idx} are not 1..{n - 2}"
    valley = sigma_idx.index(1)
    down, up = sigma_idx[: valley + 1], sigma_idx[valley:]
    if down != sorted(down, reverse=True) or up != sorted(up):
        return f"sigma indices {sigma_idx} are not reverse-unimodal"
    swings = {s.shared_index: s for s in ar.swings()}
    for pos, (p, idx) in enumerate(zip(cols, sigma_idx)):
        if idx not in swings or (n - 1, p) not in swings[idx].coords:
            return f"sigma_{pos + 1} not in its {idx}-swing"
        s_len, n_len = len(swings[idx].s_part), len(swings[idx].n_part)
        if pos < valley and not n_len < s_len:
            return f"{idx}-swing left of the valley has N-part not shorter"
        if pos > valley and not s_len < n_len:
            return f"{idx}-swing right of the valley has S-part not shorter"

    # kappa: the level-1 roots, columns descending
    kappa = sorted(((p, root) for (i, p), root in ar.root_at.items() if i == 1), reverse=True)
    if len(kappa) != n - 1:
        return f"|kappa| = {len(kappa)} != {n - 1}"
    cols, kappa_roots = map(list, zip(*kappa))
    if any(cols[k] - cols[k + 1] != 2 for k in range(len(cols) - 1)):
        return f"kappa columns {cols} do not descend by 2"
    kappa_idx = [rs.epsilon_form(datum, root).b_signed for root in kappa_roots]
    tp = ar.t_prime_index
    expected_idx = set(range(-2, -(n - 2) - 1, -1)) | {tp, -tp}
    if set(kappa_idx) != expected_idx or len(kappa_idx) != len(expected_idx):
        return f"kappa summand indices {kappa_idx} != {sorted(expected_idx)}"
    mags = [abs(j) for j in kappa_idx]
    # the fold: the 1-based position l with |j_(l-1)| = |j_l| = t'
    fold = next((l for l in range(2, len(mags) + 1) if mags[l - 2] == mags[l - 1] == tp), None)
    if fold is None:
        return f"kappa sequence has no adjacent +-{tp} pair"
    left, right = mags[: fold - 1], mags[fold - 1:]
    if left != sorted(left) or right != sorted(right, reverse=True):
        return f"kappa magnitudes {mags} are not a tent around position {fold}"

    def eps_sum(roots):
        return rs.epsilon_coords(datum, tuple(map(sum, zip(*roots))))

    e = eps_sum(kappa_roots)
    if [c for c in e if c] != [2] or e[0] != 2:
        return f"sum of kappa is not 2*e_1 (epsilon coords {e})"
    head = eps_sum(kappa_roots[: fold - 1])
    tail = tuple(a - b for a, b in zip(e, head))
    want = {
        tuple(1 if i in (0, tp - 1) else 0 for i in range(n)),
        tuple(1 if i == 0 else (-1 if i == tp - 1 else 0) for i in range(n)),
    }
    if {head, tail} != want:
        return f"kappa partial sums {head}, {tail} are not e_1 +- e_{tp}"
    if classify_vertex(datum, ar.xi, 1) is VertexClass.SINK:
        segment = kappa_roots[: n - 2]
    else:
        segment = kappa_roots[1:]
    seg = eps_sum(segment)
    if seg != tuple(1 if i in (0, 1) else 0 for i in range(n)):
        return f"kappa segment sum {seg} is not e_1 + e_2"
    for pos, (root, j) in enumerate(zip(kappa_roots, kappa_idx), start=1):
        path = _reference_rescanning_summand_class_path(ar, j)
        if len(rs.summand_class(datum, j)) <= 1:
            continue
        if path is None:
            return f"kappa_{pos} class {j} lies on no single broom"
        want_kind = "S" if pos <= fold - 1 else "N"
        if path.kind != want_kind:
            return f"kappa_{pos} class {j} is {path.kind}-sectional, wanted {want_kind}"
    return None


def _reference_rescanning_check_nfree_region(ar):
    """Tall roots stay in the diagonal window below tall spin roots."""
    n = ar.rank
    # the window's extremes: the columns of the spin-level roots of height >= 2
    spin_tall = [p for (i, p), root in ar.root_at.items() if i in (n - 1, n) and rs.ht(root) >= 2]
    if not spin_tall:
        return "no spin-level roots of height >= 2"
    hi, lo = max(spin_tall), min(spin_tall)
    if hi - lo != 2 * (n - 3):
        return f"window extremes ({hi},{lo}) differ by {hi - lo} != {2 * (n - 3)}"
    mul = {coord: rs.mul(root) for root, coord in ar.phi.items()}
    for root, (level, p) in ar.phi.items():
        # level l of the window spans columns lo - d .. hi - d, d = n-1-l
        inside = 1 < level < n - 1 and lo - (n - 1 - level) <= p <= hi - (n - 1 - level)
        if mul[level, p] >= 2 and not inside:
            return f"tall root {root} at {(level, p)} escapes the window"
    for path in ar.sectional_paths():
        tall = [c for c in path.coords if mul[c] >= 2]
        flat = [c for c in path.coords if mul[c] == 1 and c[0] < n - 1]
        for cf in flat:
            for ct in tall:
                if cf[0] >= ct[0]:
                    return (
                        f"multiplicity-free {cf} not below non-free {ct} "
                        f"on one sectional path"
                    )
    return None


RESCANNING = {
    "vertex_range": _reference_rescanning_check_vertex_range,
    "mesh_additivity": _reference_check_mesh_additivity,
    "range_lemma": _reference_rescanning_check_range_lemma,
    "triangle": _reference_rescanning_check_triangle,
    "sigma_kappa": _reference_rescanning_check_sigma_kappa,
    "nfree_region": _reference_rescanning_check_nfree_region,
}


def _coord_faults(ar):
    """Copies of ar with one vertex dropped, or moved two columns right."""
    for (i, p), root in sorted(ar.root_at.items()):
        root_at = dict(ar.root_at)
        del root_at[i, p]
        yield _copy(ar, root_at)
        if (i, p + 2) not in root_at:
            yield _copy(ar, {**root_at, (i, p + 2): root})


@pytest.mark.parametrize("rank", [4, 5, 6, 7])
def test_one_pass_checks_pass_where_their_former_bodies_pass(rank):
    for ar in _every_d_orientation(rank):
        for check_id, reference in RESCANNING.items():
            assert getattr(verify, f"check_{check_id}")(ar) is reference(ar) is None, check_id


def _outcome_of(check, ar):
    """A check's message, or the type and text of what it raised."""
    try:
        return check(ar)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("rank", [4, 5])
def test_one_pass_checks_give_their_former_messages(rank):
    flagged = dict.fromkeys(RESCANNING, 0)
    for ar in _every_d_orientation(rank):
        for faulted in chain(_two_root_swaps(ar), _coord_faults(ar)):
            for check_id, reference in RESCANNING.items():
                outcome = _outcome_of(getattr(verify, f"check_{check_id}"), faulted)
                assert outcome == _outcome_of(reference, faulted), check_id
                flagged[check_id] += outcome is not None
    assert all(flagged.values()), flagged


def _reference_check_m_values(ar):
    """The former check_m_values, which tested the sum law m_(n-1) + m_n = 2n-4 on its own."""
    n = ar.rank
    for i in range(1, n - 1):
        if ar.m[i - 1] != n - 2:
            return f"m_{i} = {ar.m[i - 1]} != {n - 2}"
    mn1, mn = ar.m[n - 2], ar.m[n - 1]
    if mn1 + mn != 2 * n - 4 or min(mn1, mn) < n - 3:
        return f"spin depths ({mn1},{mn}) break m_(n-1)+m_n = 2n-4"
    xi_n1, xi_n = ar.xi[n - 2], ar.xi[n - 1]
    if n % 2 and xi_n == xi_n1 + 2:
        expected = (n - 3, n - 1)
    elif n % 2 and xi_n1 == xi_n + 2:
        expected = (n - 1, n - 3)
    else:
        expected = (n - 2, n - 2)
    if (mn1, mn) != expected:
        return f"spin depths ({mn1},{mn}) != {expected} for xi=({xi_n1},{xi_n})"
    return None


def _with_m(ar, level, shift):
    """ar with m at one level moved by shift; root_at and xi stay as they are."""
    m = list(ar.m)
    m[level - 1] += shift
    return ARQuiver(ar.quiver, ar.xi, ar.root_at, ar.arrows, tuple(m))


@pytest.mark.parametrize("rank", [4, 5, 6, 7])
def test_m_values_flags_what_its_former_body_flags(rank):
    # two-root swaps never change m, so the faults move one depth at a time
    former_sum_messages = 0
    for ar in _every_d_orientation(rank):
        assert verify.check_m_values(ar) is _reference_check_m_values(ar) is None
        for level in ar.datum.vertices:
            for shift in (-2, -1, 1, 2):
                faulted = _with_m(ar, level, shift)
                message, former = verify.check_m_values(faulted), _reference_check_m_values(faulted)
                assert message is not None and former is not None, (level, shift)
                if former.endswith("break m_(n-1)+m_n = 2n-4"):
                    former_sum_messages += 1
                else:
                    assert message == former, (level, shift)
    assert former_sum_messages  # the deleted branch's inputs are among the faults


# --- faults that make the checks return their messages ----------------------------------

def _moved_deepest_root(ar):
    """ar with level 1's deepest root moved below level 2's: m_1 falls and m_2 rises
    by one, and the vertex set still spans the columns that xi and m give."""
    root_at = dict(ar.root_at)
    root_at[2, ar.xi[1] - 2 * ar.m[1] - 2] = root_at.pop((1, ar.xi[0] - 2 * ar.m[0]))
    return ARQuiver(ar.quiver, ar.xi, root_at, ar.arrows, (ar.m[0] - 1, ar.m[1] + 1, *ar.m[2:]))


def _all_minimal(monkeypatch):
    """Make classify_pair call every pair minimal."""
    real = orders.classify_pair

    def all_minimal(ar, gamma, pair):
        return real(ar, gamma, pair)._replace(verdict=orders.Verdict.MINIMAL, witness=None)

    monkeypatch.setattr(orders, "classify_pair", all_minimal)


def _one_word_short(monkeypatch):
    """Make commutation_class leave out the word it starts from."""
    real = orders.commutation_class
    monkeypatch.setattr(orders, "commutation_class", lambda datum, word: real(datum, word) - {word})


FAULTS = {
    "nakayama": (
        lambda mp, ar: _with_m(ar, 1, -1),
        "level 1: xi_(i*) - 2m_(i*) = -4 != xi_i - h + 2 = -6",
    ),
    "m_values": (lambda mp, ar: _with_m(ar, 1, -1), "m_1 = 1 != 2"),
    "m_values-spin": (
        lambda mp, ar: _with_m(ar, 4, 1), "spin depths (2,3) != (2, 2) for xi=(0,-2)",
    ),
    "pair_counts": (
        lambda mp, ar: _all_minimal(mp),
        "(1, 2, 1, 1): (4 minimal, 0 non-minimal), expected (3,1)",
    ),
    "nonfree_counts": (
        lambda mp, ar: _all_minimal(mp), "(1, 2, 1, 1) = <1,2>: 0 non-minimal != 1",
    ),
    "readings_equal_class": (
        lambda mp, ar: _one_word_short(mp), "72 readings vs 71 words in the class",
    ),
    "oracle_agreement": (
        lambda mp, ar: _all_minimal(mp),
        "(1, 2, 1, 1) pair ((0, 1, 1, 0), (1, 1, 0, 1)): classifier minimal, oracle non-minimal",
    ),
    "non_adapted_word": (
        lambda mp, ar: mp.setattr(verify, "NON_ADAPTED_WORD", (3, 2, 1, 4) * 3),
        "word is adapted to 2>1,3>2,2>4",
    ),
    "non_adapted_word-unreduced": (
        lambda mp, ar: mp.setattr(verify, "NON_ADAPTED_WORD", (1,) * 12),
        "the 12-letter word is not reduced",
    ),
    "dorey_d1_coverage": (
        lambda mp, ar: mp.setattr(qaffine, "dorey_D1", lambda n, t: qaffine.DoreyVerdict(False)),
        "(0, 1, 0, 1) pair ((0, 1, 0, 0), (0, 0, 0, 1)) is not Dorey-admissible",
    ),
    "star_transport": (
        lambda mp, ar: mp.setattr(
            qaffine, "dorey_D2", lambda n, t: qaffine.DoreyVerdict(False, exhaustive=False)
        ),
        "star image of minimal pair ((0, 1, 0, 0), (0, 0, 0, 1)) of (0, 1, 0, 1) rejected",
    ),
    "dorey_ii_in_double_zero": (
        lambda mp, ar: mp.setattr(qaffine, "double_zero_set_D1", lambda n: frozenset()),
        "rank 4: admissible (2,2,2) misses (2,2,4)",
    ),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_each_check_returns_its_message_on_a_fault(monkeypatch, example1_ar, fault):
    check_id = fault.partition("-")[0]
    (check,) = (c for c in verify.ORIENTATION_CHECKS + verify.GLOBAL_CHECKS if c.id == check_id)
    install, message = FAULTS[fault]
    args = () if check in verify.GLOBAL_CHECKS else (example1_ar,)
    assert check.fn(*args) is None
    faulted = install(monkeypatch, example1_ar)  # a faulted copy, or None for a patched dependency
    if faulted is not None:
        args = (faulted,)
    assert check.fn(*args) == message


def _one_zero_moved(monkeypatch, rank, levels, source, target):
    """Make denom_D1 at one rank list its zero at source for the given (sorted) levels at target."""
    real = qaffine.denom_D1

    def faulty(n, k, l):
        poly = real(n, k, l)
        if n == rank and (min(k, l), max(k, l)) == levels:
            roots = list(poly.roots)
            roots.remove(source)
            return qaffine.DenominatorPoly(tuple(sorted((*roots, target))))
        return poly

    monkeypatch.setattr(qaffine, "denom_D1", faulty)


def test_the_shared_zero_orders_follow_a_rebound_denom_D1(monkeypatch):
    quiver = DynkinQuiver.from_bitmask(CartanDatum("D", 5), 5)
    ar = ar_quiver.build(quiver, make_height_function(quiver, 5, 0))
    checks = (verify.check_surj_free_multiplicity, verify.check_sectional_commuting)
    references = (_reference_check_surj_free_multiplicity, _reference_check_sectional_commuting)
    assert [check(ar) for check in checks] == [None, None]
    # levels 1 and 3 hold a minimal pair at column gap 6 and a path pair at gap 2
    _one_zero_moved(monkeypatch, 5, (1, 3), qaffine.mq(6), qaffine.mq(2))
    messages = [check(ar) for check in checks]
    assert messages == [reference(ar) for reference in references]
    assert messages == [
        "zero multiplicity 0 for pair ((1, 1, 0, 0, 0), (0, 0, 1, 0, 1)) of (1, 1, 1, 0, 1)",
        "pair (1, -5), (3, -3) on S-path has a zero",
    ]
    monkeypatch.undo()
    assert [check(ar) for check in checks] == [None, None]


def test_double_zero_correspondence_follows_a_rebound_denom_D2(monkeypatch):
    assert verify.check_double_zero_correspondence() is None
    table = verify._zero_orders(qaffine.denom_D2, 3)
    assert table[2, 2][qaffine.mq2(2)] == 2  # the double zero of d_{2,2} at (-q^2)^2
    _without_one(monkeypatch, "denom_D2", 3, 2, 2, qaffine.mq2(2))
    message = verify.check_double_zero_correspondence()
    assert message == "twisted double zeros disagree with the table at n = 3"
    assert verify._zero_orders(qaffine.denom_D2, 3)[2, 2][qaffine.mq2(2)] == 1
    monkeypatch.undo()
    assert verify.check_double_zero_correspondence() is None
    assert verify._zero_orders(qaffine.denom_D2, 3) is table


def test_a_sweep_builds_one_zero_order_table_per_denominator_and_rank():
    verify._zero_orders.cache_clear()
    run_suite(6, {"orders", "qaffine"})
    # denom_D1 at ranks 4-9 (4-6 shared by the orientation checks), denom_D2 at 3-8
    assert verify._zero_orders.cache_info().misses == 12
    run_suite(6, {"orders", "qaffine"})
    assert verify._zero_orders.cache_info().misses == 12


def test_a_failing_build_check_is_a_fail_in_the_structure_suite(monkeypatch, example1_ar):
    moved = _moved_deepest_root(example1_ar)
    assert ar_quiver.check_vertex_range(moved) is None
    monkeypatch.setattr(ar_quiver, "build", lambda quiver, xi, validate=True: moved)
    report = run_suite(4, suites={"structure"})
    assert [(r.check_id, r.status, r.counterexample) for r in report.records] == [
        ("nakayama", "fail", FAULTS["nakayama"][1]),
        ("vertex_range", "pass", None),
    ] * 8


@pytest.mark.parametrize("suite, fault, failing", [
    ("orders", "pair_counts", {"pair_counts", "nonfree_counts", "oracle_agreement"}),
    ("qaffine", "dorey_d1_coverage", {"dorey_d1_coverage"}),
])
def test_a_faulted_check_is_a_fail_in_its_suite(monkeypatch, example1_ar, suite, fault, failing):
    FAULTS[fault][0](monkeypatch, example1_ar)
    report = run_suite(4, suites={suite})
    assert {r.check_id for r in report.records if r.status == "fail"} == failing
    assert {r.status for r in report.records} == {"pass", "fail"}
    message = {r.counterexample for r in report.records
               if r.orientation == "2>1,3>2,2>4" and r.check_id == fault}
    assert message == {FAULTS[fault][1]}


def test_a_failing_build_check_raises_in_build_and_fails_the_sweep(monkeypatch, example1_quiver):
    message = "the build is wrong"
    monkeypatch.setattr(ar_quiver, "BUILD_CHECKS", (lambda ar: message,))
    with pytest.raises(ARQuiverError) as excinfo:
        ar_quiver.build(example1_quiver, make_height_function(example1_quiver, 3, 0))
    assert str(excinfo.value) == message
    report = run_suite(4, suites={"orders"})
    builds, (global_record,) = report.records[1:], report.records[:1]
    assert [(r.check_id, r.status, r.counterexample) for r in builds] == [
        ("build", "fail", message)
    ] * 8
    orientations = [q.spec_string() for q in all_orientations(CartanDatum("D", 4))]
    assert sorted(r.orientation for r in builds) == sorted(orientations)
    assert (global_record.check_id, global_record.status) == ("non_adapted_word", "pass")
