"""Exhaustive theorem harness over all orientations at small rank.

Every check is a pure function returning None on success or a short
counterexample string; a check that raises is recorded as an error and the
sweep goes on.  ``ORIENTATION_CHECKS`` and ``GLOBAL_CHECKS`` list the checks:
a check's id is its function's name without ``check_``, and its docstring
states the theorem it checks.  The runner owns all iteration: per-orientation
checks sweep the 2^(n-1) orientations of each rank (height anchored at vertex
n = 0), global checks run once.  Records are sorted by (rank, orientation,
check), so a report is the same, apart from ``elapsed``, for any worker count.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

from . import ar_quiver, orders, qaffine
from . import root_system as rs
from .ar_quiver import (
    BUILD_CHECKS,
    ARQuiver,
    check_arrow_rule,
    check_mesh_additivity,
    check_nakayama,
    check_vertex_range,
)
from .orders import MINIMAL, NON_MINIMAL
from .quiver import (
    DynkinQuiver,
    VertexClass,
    all_orientations,
    classify_vertex,
    is_adapted,
    make_height_function,
)
from .root_system import CartanDatum


class VerifyError(rs.ArquiverError):
    pass


class CheckRecord(NamedTuple):
    check_id: str
    suite: str
    rank: Optional[int]
    orientation: Optional[str]
    status: str  # "pass" | "fail" | "error" (the check raised)
    counterexample: Optional[str]
    elapsed: float


class VerifyReport:
    def __init__(self, records: list[CheckRecord]):
        self.records = records

    @property
    def ok(self) -> bool:
        return all(r.status == "pass" for r in self.records)

    def failures(self) -> list[CheckRecord]:
        return [r for r in self.records if r.status != "pass"]

    def to_json(self) -> str:
        import json

        return json.dumps([r._asdict() for r in self.records], indent=2)

    def summary(self) -> str:
        total = len(self.records)
        bad = len(self.failures())
        return f"{total - bad}/{total} checks passed"


# --- structure checks (the four build checks come from ar_quiver) ------------------

def check_simple_root_coords(ar: ARQuiver) -> Optional[str]:
    """alpha_k sits where its vertex class predicts."""
    datum = ar.datum
    n = ar.rank
    star = rs.longest_element_star(datum)
    for k in datum.vertices:
        actual = ar.coord_of(datum.simple_root(k))
        cls = classify_vertex(datum, ar.xi, k)
        if cls is VertexClass.SOURCE:
            expected = (k, ar.xi[k - 1])
        elif cls is VertexClass.SINK:
            ks = star[k]
            expected = (ks, ar.xi[ks - 1] - 2 * ar.m[ks - 1])
        elif cls is VertexClass.LEFT_INTERMEDIATE:
            expected = (1, ar.xi[k - 1] - k + 1)
        elif cls is VertexClass.RIGHT_INTERMEDIATE:
            expected = (1, ar.xi[k - 1] - 2 * n + k + 3)
        else:  # OTHER is n-2: a path vertex is a source, a sink or turns one way
            # a mixed fork: one spin vertex a sits apart from n-3 in height
            (a,) = (j for j in (n - 1, n) if ar.xi[j - 1] != ar.xi[n - 4])
            if ar.xi[n - 4] > ar.xi[k - 1]:  # n-3 -> n-2 -> a
                expected = (star[a], ar.xi[k - 1] - 2 * n + 5)
            else:  # a -> n-2 -> n-3
                expected = (a, ar.xi[k - 1] - 1)
        if actual != expected:
            return f"alpha_{k} at {actual}, expected {expected} ({cls.value})"
    return None


@lru_cache(maxsize=None)
def _pairing(datum: CartanDatum, head: rs.Root, tail: rs.Root) -> int:
    """``datum.pairing``, once per root pair: a sweep meets each arrow's pair in many quivers."""
    return datum.pairing(head, tail)


def check_arrow_pairing(ar: ARQuiver) -> Optional[str]:
    """Every arrow's endpoints pair to 1 under the root form."""
    datum = ar.datum
    for src, dst in ar.arrows:
        value = _pairing(datum, ar.root_at[dst], ar.root_at[src])
        if value != 1:
            return f"arrow {src}->{dst} has pairing {value}"
    return None


def check_range_lemma(ar: ARQuiver) -> Optional[str]:
    """(i, xi_j - d(i,j)) and (i, xi_j - 2m_j + d(i,j)) are vertices."""
    datum, root_at = ar.datum, ar.root_at
    ends = [(j, top, top - 2 * m) for j, top, m in zip(datum.vertices, ar.xi, ar.m)]
    for i in datum.vertices:
        distance = datum.distance_table[i]
        for j, top, bottom in ends:
            d = distance[j]
            if (i, p := top - d) not in root_at or (i, p := bottom + d) not in root_at:
                return f"({i},{p}) missing for (i,j)=({i},{j})"
    return None


def check_m_values(ar: ARQuiver) -> Optional[str]:
    """m_i = n-2 below the fork; spin depths follow parity of n and xi."""
    n = ar.rank
    for i in range(1, n - 1):
        if ar.m[i - 1] != n - 2:
            return f"m_{i} = {ar.m[i - 1]} != {n - 2}"
    mn1, mn = ar.m[n - 2], ar.m[n - 1]
    # every expected pair sums to 2n-4 with both depths >= n-3, so this test holds that law too
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


def check_level_pair_sums(ar: ARQuiver) -> Optional[str]:
    """Same-column spin roots are <a,t>, <a,-t> summing to 2e_a."""
    datum = ar.datum
    n = ar.rank
    t = ar.t_index
    for p in sorted({q for (lvl, q) in ar.root_at if lvl == n - 1}):
        if (n, p) not in ar.root_at:
            continue
        upper = rs.epsilon_form(datum, ar.root_at[n - 1, p])
        eps = {upper, rs.epsilon_form(datum, ar.root_at[n, p])}
        # <a,t> and <a,-t> sum to 2e_a, so the sum needs no test of its own
        if eps != {(upper.a, t), (upper.a, -t)}:  # an EpsilonForm equals its plain tuple
            return f"column {p}: pair {sorted(map(str, eps))} != <{upper.a},+-{t}>"
    return None


def check_triangle(ar: ARQuiver) -> Optional[str]:
    """Spin pairs with matching parity meet at (n-1-k, (s+l)/2)."""
    n = ar.rank
    root_at, codes = ar.root_at, rs.root_table(ar.datum).codes
    # packed codes add as the roots do; a label outside Phi+ has none and fails.
    # (i, p), (j, r) make a triangle when r - p = 2k > 0 and i - j, k - 1 share
    # a parity, that is when p - 2i and r - 2j differ by 2 mod 4
    spin = [(c, c[1], c[1] - 2 * c[0], codes.get(root))
            for c, root in root_at.items() if c[0] in (n - 1, n)]
    for ca, p, qa, a in spin:
        for cb, r, qb, b in spin:
            if r <= p or (qb - qa) % 4 != 2:
                continue
            k = (r - p) // 2
            apex = (n - 1 - k, p + k)
            if a is None or b is None or codes.get(root_at.get(apex)) != a + b:
                return f"triangle at {ca},{cb}: apex {apex} does not hold the sum of the pair"
    return None


def check_swing_shapes(ar: ARQuiver) -> Optional[str]:
    """n-2 maximal swings, each sharing one +e_a; the a-swing holds all e_a carriers."""
    datum = ar.datum
    n = ar.rank
    swings = ar.swings()
    # every swing has a label, read off its size; a swing whose roots do not
    # share that +e_a fails the carrier test below
    if [s.shared_index for s in swings] != list(range(1, n - 1)):
        return f"swing indices {[s.shared_index for s in swings]} != 1..{n - 2}"
    root_at = ar.root_at
    for swing in swings:
        a = swing.shared_index
        carriers = rs.summand_class(datum, a)
        members = {root_at[c] for c in swing.coords}
        # equal sets also fix the size, |carriers(+e_a)| = 2(n-a) + (a-1) = 2n-a-1,
        # and hold alpha_a, since alpha_a = e_a - e_(a+1) carries +e_a
        if members != carriers:
            return f"{a}-swing misses carriers {set(carriers) - members} or adds extras"
        s_start = swing.s_part[0][0]
        n_end = swing.n_part[-1][0]
        if not ((s_start == a and n_end == 1) or (s_start == 1 and n_end == a)):
            return f"{a}-swing shape ({s_start}..fork..{n_end}) is not one of the two"
    return None


def check_shallow_paths(ar: ARQuiver) -> Optional[str]:
    """Shallow maximal paths reach level 1 and share one -e_k."""
    datum = ar.datum
    n = ar.rank
    # 1 when both spin vertices are sinks or both sources: xi_(n-1) = xi_n
    delta = int(ar.xi[n - 2] == ar.xi[n - 1])
    for path in ar.sectional_paths():
        if not path.shallow:
            continue
        levels = [c[0] for c in path.coords]
        if min(levels) != 1:
            return f"shallow {path.kind}-path {path.coords} misses level 1"
        k = len(path.coords) + 1  # the -e_k class holds the k - 1 roots e_a - e_k, a < k
        if k > n - 2 + delta:
            return f"shallow path {path.coords} is sized for -e_{k}, beyond n-2+{delta}"
        # two brooms of one size cannot both pass: each would hold the whole
        # -e_k class, and root_at is injective (check_vertex_range)
        members = {ar.root_at[c] for c in path.coords}
        if members != rs.summand_class(datum, -k):
            return f"shallow -e_{k} path does not hold the whole class"
    return None


def check_sigma_kappa(ar: ARQuiver) -> Optional[str]:
    """sigma swing indices are reverse-unimodal; kappa tents at t'."""
    datum = ar.datum
    n = ar.rank
    # sigma: the level-(n-1) roots other than the simples; kappa: the level-1
    # roots; both read in one pass over the vertices, columns descending
    simples = {datum.simple_root(n - 1), datum.simple_root(n)}
    sigma, kappa = [], []
    for (i, p), root in ar.root_at.items():
        if i == 1:
            kappa.append((p, root))
        elif i == n - 1 and root not in simples:
            sigma.append((p, root))
    sigma.sort(reverse=True)
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
        # the fork's first coord is the one level-(n-1) coord a swing holds
        if idx not in swings or swings[idx].fork[0] != (n - 1, p):
            return f"sigma_{pos + 1} not in its {idx}-swing"
        s_len, n_len = len(swings[idx].s_part), len(swings[idx].n_part)
        if pos < valley and not n_len < s_len:
            return f"{idx}-swing left of the valley has N-part not shorter"
        if pos > valley and not s_len < n_len:
            return f"{idx}-swing right of the valley has S-part not shorter"

    kappa.sort(reverse=True)
    if len(kappa) != n - 1:
        return f"|kappa| = {len(kappa)} != {n - 1}"
    cols, kappa_roots = map(list, zip(*kappa))
    if any(cols[k] - cols[k + 1] != 2 for k in range(len(cols) - 1)):
        return f"kappa columns {cols} do not descend by 2"
    kappa_idx = [rs.epsilon_form(datum, root).b_signed for root in kappa_roots]
    tp = ar.t_prime_index
    expected_idx = set(range(-2, -(n - 2) - 1, -1)) | {tp, -tp}
    # t' is n-1 or n, so expected_idx has n-1 members, as many as kappa_idx
    if set(kappa_idx) != expected_idx:
        return f"kappa summand indices {kappa_idx} != {sorted(expected_idx)}"
    mags = [abs(j) for j in kappa_idx]
    # the fold: the 1-based position l with |j_(l-1)| = |j_l| = t'
    fold = next((l for l in range(2, len(mags) + 1) if mags[l - 2] == mags[l - 1] == tp), None)
    if fold is None:
        return f"kappa sequence has no adjacent +-{tp} pair"
    left, right = mags[: fold - 1], mags[fold - 1:]
    if left != sorted(left) or right != sorted(right, reverse=True):
        return f"kappa magnitudes {mags} are not a tent around position {fold}"

    def eps_sum(roots) -> tuple[int, ...]:
        return rs.epsilon_coords(datum, tuple(map(sum, zip(*roots))))

    e = eps_sum(kappa_roots)
    if e != (2,) + (0,) * (n - 1):
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
    if seg != (1, 1) + (0,) * (n - 2):
        return f"kappa segment sum {seg} is not e_1 + e_2"
    # kappa_l at (1, p) carries its own class, so a broom holding the whole class
    # runs through (1, p): the S-broom starting there or the N-broom ending there
    paths = ar.sectional_paths()
    s_from = {path.coords[0]: path for path in paths if path.kind == "S"}
    n_into = {path.coords[-1]: path for path in paths if path.kind == "N"}
    for pos, (p, j) in enumerate(zip(cols, kappa_idx), start=1):
        carriers = rs.summand_class(datum, j)
        if len(carriers) <= 1:
            continue
        coords = set(map(ar.coord_of, carriers))
        for path in (s_from.get((1, p)), n_into.get((1, p))):
            if path is not None and coords.issubset(path.coords):
                break
        else:
            return f"kappa_{pos} class {j} lies on no single broom"
        want_kind = "S" if pos <= fold - 1 else "N"
        if path.kind != want_kind:
            return f"kappa_{pos} class {j} is {path.kind}-sectional, wanted {want_kind}"
    return None


def check_longest_root(ar: ARQuiver) -> Optional[str]:
    """e_1+e_2 at (n-2, xi_1-n+1 or +3); 1- and 2-swings adjacent."""
    n = ar.rank
    coord = ar.coord_of(rs.root_from_epsilon(ar.datum, rs.EpsilonForm(1, 2)))
    formula = (n - 2, ar.xi[0] - n + (1 if ar.xi[1] < ar.xi[0] else 3))  # +1: 1 is a source
    if coord != formula:
        return f"e_1+e_2 at {coord}, formula gives {formula}"
    swings = {s.shared_index: s for s in ar.swings()}
    if 1 not in swings or 2 not in swings:
        return f"swing indices {sorted(swings)} lack 1 or 2"
    gap = abs(swings[1].fork[0][1] - swings[2].fork[0][1])
    if gap != 2:
        return f"1-swing and 2-swing forks are {gap} columns apart"
    return None


def check_nfree_region(ar: ARQuiver) -> Optional[str]:
    """Tall roots stay in the diagonal window below tall spin roots."""
    n = ar.rank
    # one pass: columns of spin roots of height >= 2 (the window), flat and tall coords
    spin_tall, flat, tall = [], set(), {}
    for coord, root in ar.root_at.items():
        if coord[0] in (n - 1, n) and rs.ht(root) >= 2:
            spin_tall.append(coord[1])
        mul = rs.mul(root)
        if mul >= 2:
            tall[coord] = root
        elif mul == 1 and coord[0] < n - 1:
            flat.add(coord)
    if not spin_tall:
        return "no spin-level roots of height >= 2"
    hi, lo = max(spin_tall), min(spin_tall)
    if hi - lo != 2 * (n - 3):
        return f"window extremes ({hi},{lo}) differ by {hi - lo} != {2 * (n - 3)}"
    for (level, p), root in tall.items():
        # level l of the window spans columns lo - d .. hi - d, d = n-1-l
        if not (1 < level < n - 1 and lo - (n - 1 - level) <= p <= hi - (n - 1 - level)):
            return f"tall root {root} at {(level, p)} escapes the window"
    for path in ar.sectional_paths():
        tall_here = [c for c in path.coords if c in tall]
        if not tall_here:
            continue
        for cf in [c for c in path.coords if c in flat]:
            for ct in tall_here:
                if cf[0] >= ct[0]:
                    return (
                        f"multiplicity-free {cf} not below non-free {ct} "
                        f"on one sectional path"
                    )
    return None


# --- order checks --------------------------------------------------------------

def check_canonical_orders(ar: ARQuiver) -> Optional[str]:
    """The four canonical readings are convex and adapted."""
    for tag in orders.STRATEGIES:
        try:
            order = orders.canonical_reading(ar, tag)
        except orders.OrderError as exc:
            return f"{tag}: {exc}"
        if not is_adapted(order.word, ar.quiver):
            return f"{tag} word is not adapted"
    return None


def check_compatibility(ar: ARQuiver) -> Optional[str]:
    """Path order implies order in every canonical reading.

    The path order is the transitive closure of the arrows and a reading is
    a total order, so it is enough that each arrow's head comes first.
    """
    readings = {tag: orders.canonical_reading(ar, tag) for tag in orders.STRATEGIES}
    for src, dst in sorted(ar.arrows):
        alpha, beta = ar.root_at[src], ar.root_at[dst]
        for tag, order in readings.items():
            if not order.position[beta] < order.position[alpha]:
                return f"{tag}: {beta} should precede {alpha}"
    return None


def check_pair_counts(ar: ARQuiver) -> Optional[str]:
    """ht-1 pairs; minimal = |Supp>=1|-1, non-minimal = |Supp>=2|."""
    for gamma in orders.roots_with_sums(ar):
        pairs = orders._pair_table(ar, gamma)  # walked in place, in pairs_of order
        if len(pairs) != rs.ht(gamma) - 1:
            return f"{gamma} has {len(pairs)} pairs, expected ht-1 = {rs.ht(gamma) - 1}"
        verdicts = [orders.classify_pair(ar, gamma, pair).verdict for pair in pairs]
        minimal = sum(v is MINIMAL for v in verdicts)
        nonmin = len(verdicts) - minimal
        # a positive root's coefficients are non-negative, so each support is a count
        support = len(gamma) - gamma.count(0)
        want_min = support - 1
        want_non = support - gamma.count(1)
        if (minimal, nonmin) != (want_min, want_non):
            return (
                f"{gamma}: ({minimal} minimal, {nonmin} non-minimal), "
                f"expected ({want_min},{want_non})"
            )
    return None


def check_nonfree_counts(ar: ARQuiver) -> Optional[str]:
    """e_a + e_b has exactly n-b-1 non-minimal pairs."""
    datum = ar.datum
    n = ar.rank
    for gamma in orders.roots_with_sums(ar):  # a root of mul >= 2 has ht >= 2
        if rs.mul(gamma) < 2:
            continue
        eps = rs.epsilon_form(datum, gamma)
        b = eps.b_signed
        nonmin = sum(
            orders.classify_pair(ar, gamma, pair).verdict is NON_MINIMAL
            for pair in orders._pair_table(ar, gamma)
        )
        if b < 0 or b > n - 2 or nonmin != n - b - 1:
            return f"{gamma} = <{eps.a},{b}>: {nonmin} non-minimal != {n - b - 1}"
    return None


def check_readings_equal_class(ar: ARQuiver) -> Optional[str]:
    """Readings of Gamma_Q = commutation class of one word."""
    # the seed first: an order that fails its convexity test says so before
    # the walk that reads the words orients any pair
    seed = orders.canonical_reading(ar, "U1").word
    reading_words = orders.reading_words(ar)
    cls = orders.commutation_class(ar.datum, seed)
    if reading_words != cls:
        return (
            f"{len(reading_words)} readings vs {len(cls)} words in the class"
        )
    return None


def check_oracle_agreement(ar: ARQuiver) -> Optional[str]:
    """Dominance classifier matches the all-readings oracle."""
    for gamma, pair in orders.all_pairs(ar):
        fast = orders.classify_pair(ar, gamma, pair).verdict
        slow = orders.oracle_classify(ar, gamma, pair).verdict
        if fast != slow:
            return f"{gamma} pair {pair}: classifier {fast.value}, oracle {slow.value}"
    return None


NON_ADAPTED_WORD = (1, 2, 3, 1, 2, 4, 1, 2, 3, 1, 2, 4)


def check_non_adapted_word() -> Optional[str]:
    """The 12-letter non-adapted word never makes its pair minimal."""
    datum = CartanDatum("D", 4)
    word = NON_ADAPTED_WORD
    if not rs.is_reduced(datum, word):
        return "the 12-letter word is not reduced"
    for quiver in all_orientations(datum):
        if is_adapted(word, quiver):
            return f"word is adapted to {quiver.spec_string()}"
    alpha = (0, 1, 1, 0)  # alpha_2 + alpha_3
    beta = datum.simple_root(4)
    gamma = tuple(a + b for a, b in zip(alpha, beta))
    for other in orders.commutation_class(datum, word):
        order = orders.order_from_word(datum, other)
        if orders.minimal_wrt(order, (alpha, beta), gamma):
            return f"pair minimal under the word {other}"
    return None


# --- quantum-affine checks --------------------------------------------------------

def check_dorey_d1_coverage(ar: ARQuiver) -> Optional[str]:
    """Every pair is Dorey-admissible; case ii iff non-minimal."""
    n = ar.rank
    for gamma, pair in orders.all_pairs(ar):
        triple = qaffine.pair_to_triple(ar, gamma, pair)
        verdict = qaffine.dorey_D1(n, triple)
        if not verdict.admissible:
            return f"{gamma} pair {pair} is not Dorey-admissible"
        minimal = orders.classify_pair(ar, gamma, pair).verdict is MINIMAL
        if minimal and verdict.case == "ii":
            return f"minimal pair {pair} of {gamma} matched case ii"
        if not minimal and verdict.case != "ii":
            return f"non-minimal pair {pair} of {gamma} matched case {verdict.case}"
    return None


def check_star_transport(ar: ARQuiver) -> Optional[str]:
    """Folded images of minimal pairs pass the twisted rule."""
    n = ar.rank
    folded = n - 1
    for gamma, pair in orders.all_pairs(ar):
        if orders.classify_pair(ar, gamma, pair).verdict is not MINIMAL:
            continue
        image = qaffine.star_image(folded, qaffine.pair_to_triple(ar, gamma, pair))
        if not qaffine.dorey_D2(folded, image).admissible:
            return f"star image of minimal pair {pair} of {gamma} rejected"
    return None


@lru_cache(maxsize=None)
def _zero_orders(
    denom: Callable[..., qaffine.DenominatorPoly], n: int
) -> dict[tuple[int, int], Counter[qaffine.SpectralParam]]:
    """(k, l) -> {zero: order} for every level pair of rank n: the zeros of
    ``denom(n, k, l)`` counted, the table form of ``zero_multiplicity``.  The
    checks pass the current ``qaffine.denom_D1``/``denom_D2``, so a rebound one
    is read afresh, and the cache holds each function it has seen, so no later
    one can take its identity."""
    levels = range(1, n + 1)
    return {(k, l): Counter(denom(n, k, l).roots) for k in levels for l in levels}


def check_surj_free_multiplicity(ar: ARQuiver) -> Optional[str]:
    """Zero multiplicity at (-q)^|column gap| is 1 for minimal pairs, 2 otherwise."""
    zero_orders = _zero_orders(qaffine.denom_D1, ar.rank)
    phi = ar.phi  # all_pairs yields roots of this quiver
    for gamma, pair in orders.all_pairs(ar):
        minimal = orders.classify_pair(ar, gamma, pair).verdict is MINIMAL
        (k, p), (l, r) = phi[pair[0]], phi[pair[1]]
        found = zero_orders[k, l][qaffine.mq(abs(p - r))]
        if found != (1 if minimal else 2):
            return f"zero multiplicity {found} for pair {pair} of {gamma}"
    return None


def check_sectional_commuting(ar: ARQuiver) -> Optional[str]:
    """No denominator zero in either direction along a path."""
    zero_orders = _zero_orders(qaffine.denom_D1, ar.rank)
    for path in ar.sectional_paths():
        for x, (k, p) in enumerate(path.coords):
            for l, r in path.coords[x + 1:]:
                zeros = zero_orders[k, l]
                if qaffine.mq(p - r) in zeros or qaffine.mq(r - p) in zeros:
                    return f"pair {(k, p)}, {(l, r)} on {path.kind}-path has a zero"
    return None


def check_double_zero_correspondence() -> Optional[str]:
    """Untwisted rank n+1 and twisted n double zeros both equal one table."""
    for n in range(3, 9):
        for family, denom, rank, form in (
            ("untwisted", qaffine.denom_D1, n + 1, qaffine.mq),
            ("twisted", qaffine.denom_D2, n, lambda s: qaffine.SpectralParam(2 * s, 2 * s)),
        ):  # a double zero at (-q)^s, or at (-q^2)^(s/2), is listed as s
            found = {(k, l, zero.p // 2) for (k, l), zeros in _zero_orders(denom, rank).items()
                     for zero, order in zeros.items()
                     if order == 2 and zero == form(zero.p // 2)}
            if found != qaffine.double_zero_set_D1(n + 1):
                return f"{family} double zeros disagree with the table at n = {n}"
    return None


def check_dorey_ii_in_double_zero() -> Optional[str]:
    """Case-ii data always lands on a double zero."""
    for n in range(4, 9):
        zeros = qaffine.double_zero_set_D1(n)
        for i in range(1, n - 1):
            for j in range(1, n - 1):
                k = 2 * n - 2 - i - j
                if i + j < n or not 1 <= k <= n - 2:
                    continue
                if (i, j, i + j) not in zeros:
                    return f"rank {n}: admissible ({i},{j},{k}) misses ({i},{j},{i + j})"
    return None


# --- the check table and runner ------------------------------------------------

class Check(NamedTuple):
    """One check of the harness; its id is its function's name without ``check_``."""

    id: str  # interned once by _checks: a sweep's records share one string per check
    suite: str
    fn: Callable[..., Optional[str]]
    rank_max: Optional[int] = None  # the largest rank it is brute-forced at


def _checks(suite: str, *fns: Callable[..., Optional[str]], rank_max=None) -> tuple[Check, ...]:
    return tuple(
        Check(sys.intern(fn.__name__.removeprefix("check_")), suite, fn, rank_max) for fn in fns
    )


# the build checks come first: a failing one stops its orientation
ORIENTATION_CHECKS = (
    *_checks(
        "structure", *BUILD_CHECKS,
        check_simple_root_coords, check_arrow_pairing, check_range_lemma, check_m_values,
        check_level_pair_sums, check_triangle, check_swing_shapes, check_shallow_paths,
        check_sigma_kappa, check_longest_root, check_nfree_region,
    ),
    *_checks(
        "orders", check_canonical_orders, check_compatibility, check_pair_counts,
        check_nonfree_counts,
    ),
    *_checks("orders", check_readings_equal_class, check_oracle_agreement, rank_max=4),
    *_checks(
        "qaffine", check_dorey_d1_coverage, check_star_transport,
        check_surj_free_multiplicity, check_sectional_commuting,
    ),
)

GLOBAL_CHECKS = (
    *_checks("orders", check_non_adapted_word),
    *_checks("qaffine", check_double_zero_correspondence, check_dorey_ii_in_double_zero),
)

SUITES = tuple(dict.fromkeys(check.suite for check in ORIENTATION_CHECKS + GLOBAL_CHECKS))


def _run_check(check: Check, rank, orientation, *args) -> CheckRecord:
    """The record of one check; an exception is an error."""
    start = time.perf_counter()
    try:
        message = check.fn(*args)
        status = "pass" if message is None else "fail"
    except Exception as exc:
        message, status = f"{type(exc).__name__}: {exc}", "error"
    elapsed = time.perf_counter() - start
    return CheckRecord(check.id, check.suite, rank, orientation, status, message, elapsed)


def _run_orientation_task(args) -> list[CheckRecord]:
    rank, mask, suites = args
    quiver = DynkinQuiver.from_bitmask(CartanDatum("D", rank), mask)
    xi = make_height_function(quiver, rank, 0)
    spec = quiver.spec_string()
    records = []
    # the structure suite records the build checks itself
    try:
        ar = ar_quiver.build(quiver, xi, validate="structure" not in suites)
    except ar_quiver.ARQuiverError as exc:
        return [CheckRecord("build", "structure", rank, spec, "fail", str(exc), 0.0)]
    except Exception as exc:
        message = f"{type(exc).__name__}: {exc}"
        return [CheckRecord("build", "structure", rank, spec, "error", message, 0.0)]
    for position, check in enumerate(ORIENTATION_CHECKS):
        if check.suite not in suites or rank > (check.rank_max or rank):
            continue
        records.append(_run_check(check, rank, spec, ar))
        if records[-1].status != "pass" and position < len(BUILD_CHECKS):
            break  # a broken build never reaches the later checks
    return records


def run_suite(
    rank_max: int,
    suites: Optional[set[str]] = None,
    parallelism: int = 1,
) -> VerifyReport:
    """Run the selected suites over every orientation for 4 <= n <= rank_max.

    ``suites=None`` selects every suite and an empty selection is an error;
    ``parallelism`` > 1 sweeps the orientations in a process pool of at most
    one worker per orientation; only then is the pool machinery imported,
    so a serial sweep never loads ``concurrent.futures`` or
    ``multiprocessing``.
    """
    if rank_max < 4:
        raise VerifyError("rank_max must be at least 4")
    if parallelism < 1:
        raise VerifyError("parallelism must be at least 1")
    selected = set(SUITES) if suites is None else set(suites)
    if not selected:
        raise VerifyError("no suite selected; pass None for every suite")
    unknown = selected - set(SUITES)
    if unknown:
        raise VerifyError(f"unknown suites {sorted(unknown)}")
    tasks = [
        (rank, mask, tuple(sorted(selected)))
        for rank in range(4, rank_max + 1)
        for mask in range(1 << (rank - 1))
    ]
    records: list[CheckRecord] = []
    if parallelism > 1:
        from concurrent.futures import ProcessPoolExecutor

        # fork starts every worker up front, so never ask for more than the work
        with ProcessPoolExecutor(max_workers=min(parallelism, len(tasks))) as pool:
            for chunk in pool.map(_run_orientation_task, tasks, chunksize=4):
                records.extend(chunk)
    else:
        for task in tasks:
            records.extend(_run_orientation_task(task))
    records.extend(
        _run_check(check, None, None) for check in GLOBAL_CHECKS if check.suite in selected
    )
    records.sort(key=lambda r: (r.rank or 0, r.orientation or "", r.check_id))
    return VerifyReport(records)
