import concurrent.futures
import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

from arquiver import ar_quiver, orders, verify
from arquiver import root_system as rs
from arquiver.ar_quiver import ARQuiver, ARQuiverError
from arquiver.cli import build_parser
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
    if self.quiver.is_source(1):
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
    if ar.quiver.is_sink(1):
        segment = kappa_roots[: n - 2]
    else:
        segment = kappa_roots[1:]
    seg = eps_sum(segment)
    if seg != tuple(1 if i in (0, 1) else 0 for i in range(n)):
        return f"kappa segment sum {seg} is not e_1 + e_2"
    for pos, (root, j) in enumerate(zip(kappa_roots, kappa_idx), start=1):
        path = verify._summand_class_path(ar, j)
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


REWRITTEN = {
    "level_pair_sums": _reference_check_level_pair_sums,
    "triangle": _reference_check_triangle,
    "sigma_kappa": _reference_check_sigma_kappa,
    "longest_root": _reference_check_longest_root,
    "nfree_region": _reference_check_nfree_region,
}


def _two_root_swaps(ar):
    """Copies of ar in which each pair of roots has traded places."""
    coords = sorted(ar.root_at)
    for x, cx in enumerate(coords):
        for cy in coords[x + 1:]:
            root_at = dict(ar.root_at)
            root_at[cx], root_at[cy] = root_at[cy], root_at[cx]
            yield _copy(ar, root_at)


def _reference_outcome(reference, ar):
    """The former check's message, or the exception it raised."""
    try:
        return reference(ar)
    except Exception as exc:
        return exc


@pytest.mark.parametrize("rank", [4, 5, 6, 7])
def test_rewritten_checks_pass_where_their_former_bodies_pass(rank):
    for ar in _every_d_orientation(rank):
        for check_id, reference in REWRITTEN.items():
            assert reference(ar) is None, check_id
            assert getattr(verify, f"check_{check_id}")(ar) is None, check_id


@pytest.mark.parametrize("rank", [4, 5])
def test_rewritten_checks_flag_what_their_former_bodies_flag(rank):
    # a former body that raised or returned a message is a fault the new check
    # must report; where the former body returned None, so must the new one
    flagged = dict.fromkeys(REWRITTEN, 0)
    for ar in _every_d_orientation(rank):
        for faulted in _two_root_swaps(ar):
            for check_id, reference in REWRITTEN.items():
                message = getattr(verify, f"check_{check_id}")(faulted)
                former = _reference_outcome(reference, faulted)
                assert (message is None) == (former is None), (check_id, former)
                flagged[check_id] += message is not None
    assert all(flagged.values()), flagged


@pytest.mark.parametrize("rank", [4, 5])
def test_structure_checks_never_raise_on_swapped_roots(rank):
    structure = [c.fn for c in verify.ORIENTATION_CHECKS if c.suite == "structure"]
    for ar in _every_d_orientation(rank):
        for faulted in _two_root_swaps(ar):
            for check in structure:
                message = check(faulted)
                assert message is None or isinstance(message, str), check.__name__
