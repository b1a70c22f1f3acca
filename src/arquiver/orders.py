"""Convex total orders on positive roots and the minimal-pair classifier.

A reduced word w = s_{i_1}...s_{i_N} of the longest element induces the
convex order beta_1 < ... < beta_N with beta_z = s_{i_1}...s_{i_{z-1}}
alpha_{i_z}.  Readings of Gamma_Q (linear extensions of the arrow-reversed
reachability order) produce exactly the words of the commutation class of
the orientation; ``all_readings`` enumerates them on the path-order bitsets
of ``ARQuiver``, keeping a mask of the vertices ready to read: reading a
vertex readies each arrow source into it whose down-set is then read.
"""

from __future__ import annotations

from bisect import bisect_right
from enum import Enum
from itertools import accumulate
from typing import Iterator, NamedTuple, Optional

from . import root_system as rs
from .ar_quiver import ARQuiver, Coord
from .root_system import CartanDatum, Root, WeylWord


class OrderError(rs.ArquiverError):
    pass


class Verdict(Enum):
    MINIMAL = "minimal"
    NON_MINIMAL = "non-minimal"


# the members as plain names: the per-pair paths build and compare them without a class lookup
MINIMAL, NON_MINIMAL = Verdict.MINIMAL, Verdict.NON_MINIMAL


class PairVerdict(NamedTuple):
    gamma: Root
    alpha: Root
    beta: Root
    verdict: Verdict
    witness: Optional[tuple[Root, Root]] = None  # dominating pair when non-minimal
    order_tag: Optional[str] = None  # a canonical order realizing minimality


class ConvexOrder:
    """A reduced word of w0 together with its root sequence.

    ``nests`` maps a root gamma to its nest table in this order, filled by
    ``minimal_wrt`` on first use: the positions (x, y), x < y, of gamma's sum
    pairs with x < position(gamma) < y, sorted by x, held in one tuple as
    their xs followed by the suffix minima of their ys.
    """

    def __init__(self, datum: CartanDatum, word: WeylWord, roots: tuple[Root, ...]):
        self.datum = datum
        self.word = word
        self.roots = roots
        self.position = dict(zip(roots, range(len(roots))))
        self.nests: dict[Root, tuple[int, ...]] = {}

    def check_convexity(self) -> None:
        """Raise unless this orders Phi+ with each root sum between its parts (Papi)."""
        pos, sums = self.position, rs.root_sums(self.datum)
        if len(self.roots) != len(pos) or pos.keys() != sums.keys():
            raise OrderError("order is not an ordering of the positive roots")
        for total, pairs in sums.items():
            mid = pos[total]
            for pair in pairs:
                x, y = pos[pair[0]], pos[pair[1]]
                if not (x < mid < y or y < mid < x):
                    a, b = sorted(pair, key=pos.__getitem__)
                    raise OrderError(f"sum {total} not between its parts {a}, {b}")


def order_from_word(datum: CartanDatum, word: WeylWord) -> ConvexOrder:
    """The convex order induced by a reduced word of the longest element."""
    n_roots = datum.num_positive_roots
    if len(word) != n_roots:
        raise OrderError(
            f"need a word of length {n_roots} for the longest element, got {len(word)}"
        )
    roots = []
    seen = set()
    for z in range(len(word)):
        sign, root = rs.apply_word(datum, word[: z], datum.simple_root(word[z]))
        if sign < 0 or root in seen:
            raise OrderError(f"word is not reduced (fails at position {z + 1})")
        seen.add(root)
        roots.append(root)
    order = ConvexOrder(datum, tuple(word), tuple(roots))
    order.check_convexity()
    return order


STRATEGIES = ("U1", "U2", "L1", "L2")


def canonical_reading(ar: ARQuiver, strategy: str) -> ConvexOrder:
    """One of the four canonical readings of Gamma_Q (type D), named as in STRATEGIES.

    U-orders scan so that d(1,i) - p ascends, breaking ties by d(1,i)
    descending and then by level (U1 reads level n before n-1, U2 the
    reverse).  L-orders scan so that d(1,i) + p descends, breaking ties by
    d(1,i) ascending and then by the sign of the spin summand (L1 reads the
    root with negative summand first, L2 the positive one).  Type A falls
    back to a plain column-major reading.  Each reading is built and checked
    for convexity once per quiver and kept in ``ar.readings_cache``.
    """
    try:
        return ar.readings_cache[strategy]
    except (KeyError, TypeError):  # not built yet, or unhashable
        pass
    if strategy not in STRATEGIES:
        raise OrderError(f"unknown strategy {strategy!r}")
    coords = sorted(ar.root_at, key=_reading_key(ar, strategy))
    word = tuple(c[0] for c in coords)
    order = ConvexOrder(ar.datum, word, tuple(ar.root_at[c] for c in coords))
    order.check_convexity()
    ar.readings_cache[strategy] = order
    return order


def _reading_key(ar: ARQuiver, strategy: str):
    datum = ar.datum
    if datum.diagram_type != "D":
        return lambda c: (-c[1], c[0])
    d1 = datum.distance_table[1]

    def spin_sign(coord: Coord) -> int:
        eps = rs.epsilon_form(datum, ar.root_at[coord])
        return 1 if eps.b_signed > 0 else 0

    def key(coord: Coord):
        level, p = coord
        d = d1[level]
        if strategy == "U1":
            return (d - p, -d, -level)
        if strategy == "U2":
            return (d - p, -d, level)
        if strategy == "L1":
            return (-(d + p), d, spin_sign(coord))
        return (-(d + p), d, 1 - spin_sign(coord))

    return key


def all_readings(ar: ARQuiver) -> Iterator[ConvexOrder]:
    """Lazily enumerate every reading of Gamma_Q (lexicographic in coordinates).

    A reading lists a vertex only after everything reachable from it, so the
    outputs are exactly the linear extensions of the arrow-reversed order.
    They are enumerated on the path-order bitsets with a stack of frames
    (read, ready, untried): a vertex is ready once its down-set lies inside
    the mask of the vertices already read, and each step reads the lowest
    untried ready bit.  The last vertex of a down-set to be read is a target
    of an arrow from its owner, so reading vertex k readies exactly those
    arrow sources into k whose down-set is now read.
    """
    coords, _, below = ar._path_order
    root_at = ar.root_at
    index = {c: k for k, c in enumerate(coords)}
    roots = [root_at[c] for c in coords]
    levels = [c[0] for c in coords]
    downs = [below[root] for root in roots]
    sources: list[list[tuple[int, int]]] = [[] for _ in coords]
    for source, target in ar.arrows:
        k = index[source]
        sources[index[target]].append((1 << k, downs[k]))
    everything = (1 << len(coords)) - 1
    ready = sum(1 << k for k, down in enumerate(downs) if not down)
    datum, word, read_roots = ar.datum, [], []
    stack = [(0, ready, ready)]
    while stack:
        read, ready, untried = stack[-1]
        if not untried:
            stack.pop()
            if word:  # the root frame was reached by no letter
                word.pop()
                read_roots.pop()
            continue
        own = untried & -untried
        stack[-1] = (read, ready, untried ^ own)
        k = own.bit_length() - 1
        read |= own
        ready ^= own
        for source, down in sources[k]:
            if down & read == down:
                ready |= source
        word.append(levels[k])
        read_roots.append(roots[k])
        if read == everything:
            yield ConvexOrder(datum, tuple(word), tuple(read_roots))
            word.pop()
            read_roots.pop()
        else:
            stack.append((read, ready, ready))


def commutation_class(datum: CartanDatum, word: WeylWord) -> frozenset[WeylWord]:
    """Closure of a word under swapping adjacent letters not linked in the diagram."""
    word = tuple(word)
    for letter in word:
        if letter not in datum.neighbor_table:
            raise rs.RootSystemError(f"letter {letter!r} is not a vertex in 1..{datum.rank}")
    # equal letters are linked too: swapping them changes nothing
    linked = {(i, i) for i in datum.vertices}
    linked.update(datum.edges)
    linked.update((j, i) for i, j in datum.edges)
    seen = {word}
    frontier = [word]
    while frontier:
        nxt = []
        for w in frontier:
            for k in range(len(w) - 1):
                a, b = w[k], w[k + 1]
                if (a, b) not in linked:
                    swapped = w[:k] + (b, a) + w[k + 2:]
                    if swapped not in seen:
                        seen.add(swapped)
                        nxt.append(swapped)
        frontier = nxt
    return frozenset(seen)


# --- pairs of a root and their classification ---------------------------------

def pairs_of(ar: ARQuiver, gamma: Root) -> list[tuple[Root, Root]]:
    """All pairs (alpha, beta) with alpha + beta = gamma, alpha first in <=_Q."""
    return list(_pair_table(ar, gamma))


def _pair_table(ar: ARQuiver, gamma: Root) -> dict[tuple[Root, Root], Optional[tuple[Root, Root]]]:
    """gamma's oriented pairs, in pairs_of order, each mapped to its first dominating
    pair (c, d), a < c and d < b, or to None; built once into ``ar.pairs_cache`` from
    the path-order bitsets.  The order is strict, so no pair dominates itself."""
    table = ar.pairs_cache.get(gamma)
    if table is not None:
        return table
    if rs.ht(gamma) < 2:
        raise OrderError("simple roots have no pairs")
    sums = rs.root_sums(ar.datum).get(gamma)
    if sums is None:
        raise OrderError(f"{gamma} is not a positive root")
    pairs = [orient_pair(ar, alpha, beta) for alpha, beta in sums]
    phi = ar.phi  # orient_pair found every root in the path order, so in phi
    pairs.sort(key=lambda ab: phi[ab[0]])
    _, bit, below = ar._path_order
    rows = [(c, d, below[c], bit[d]) for c, d in pairs]
    table = {}
    for a, b in pairs:
        bit_a, below_b = bit[a], below[b]
        witness = None
        for c, d, below_c, bit_d in rows:
            if bit_a & below_c and bit_d & below_b:
                witness = (c, d)
                break
        table[a, b] = witness
    ar.pairs_cache[gamma] = table
    return table


def roots_with_sums(ar: ARQuiver) -> Iterator[Root]:
    """The roots of Gamma_Q with ht >= 2, ascending.

    ``root_sums`` holds the positive roots ascending, and a root has sums exactly
    when its height is at least 2; a root missing from this quiver is skipped."""
    phi = ar.phi
    for gamma, sums in rs.root_sums(ar.datum).items():
        if sums and gamma in phi:
            yield gamma


def all_pairs(ar: ARQuiver) -> Iterator[tuple[Root, tuple[Root, Root]]]:
    """Every (gamma, pair) of Gamma_Q: gamma ascending, ht >= 2, pairs as in pairs_of."""
    for gamma in roots_with_sums(ar):
        for pair in _pair_table(ar, gamma):
            yield gamma, pair


def orient_pair(ar: ARQuiver, alpha: Root, beta: Root) -> tuple[Root, Root]:
    """Order a pair so the first member precedes the second in the path order.

    Two roots whose sum is a root pair to -1, which forces a nonzero Ext^1
    between their indecomposables and hence a path in Gamma_Q; so an
    incomparable pair is an error, not a case to break ties for.
    """
    if ar.prec(alpha, beta):
        return (alpha, beta)
    if ar.prec(beta, alpha):
        return (beta, alpha)
    raise OrderError(f"{alpha} and {beta} are incomparable in the path order")


def classify_pair(ar: ARQuiver, gamma: Root, pair: tuple[Root, Root]) -> PairVerdict:
    """Dominance test: a pair is non-minimal iff another pair of gamma nests
    strictly inside it in the path order (alpha < alpha' and beta' < beta).
    The pair is accepted and its witness read off gamma's table by
    ``_oriented_pair``."""
    alpha, beta, witness = _oriented_pair(ar, gamma, pair)
    if witness is not None:
        return PairVerdict(gamma, alpha, beta, NON_MINIMAL, witness, None)
    tag = _minimality_tag(ar, gamma, (alpha, beta))
    return PairVerdict(gamma, alpha, beta, MINIMAL, None, tag)


def _oriented_pair(ar: ARQuiver, gamma: Root, pair) -> tuple[Root, Root, Optional[tuple[Root, Root]]]:
    """A caller's pair of gamma as (alpha, beta, witness), oriented, with its
    dominating pair or None.  A pair gamma's table holds, in its order, is one
    lookup; any other pair is sum-checked, oriented and then looked up."""
    try:
        witness = ar.pairs_cache[gamma][pair]
        alpha, beta = pair
        return alpha, beta, witness
    except (KeyError, TypeError):  # no table yet, an unoriented pair, or a list
        pass
    # checked after the handler, so its errors carry no lookup context
    alpha, beta = _check_pair(ar, gamma, pair)
    return alpha, beta, _pair_table(ar, gamma)[alpha, beta]


def _minimality_tag(ar, gamma, pair) -> Optional[str]:
    if ar.datum.diagram_type != "D":
        return None
    for tag in STRATEGIES:
        order = canonical_reading(ar, tag)
        if minimal_wrt(order, pair, gamma):
            return tag
    return None


def _check_pair(ar: ARQuiver, gamma: Root, pair) -> tuple[Root, Root]:
    alpha, beta = pair
    if tuple(a + b for a, b in zip(alpha, beta)) != tuple(gamma):
        raise OrderError(f"{alpha} + {beta} != {gamma}")
    return orient_pair(ar, alpha, beta)


def minimal_wrt(order: ConvexOrder, pair: tuple[Root, Root], gamma: Root) -> bool:
    """False iff some pair of gamma nests inside `pair` with gamma between its parts.

    With lo < hi the positions of ``pair``, that is a sum pair at x < y with
    lo < x < pos(gamma) < y < hi.  Gamma's nest table in ``order.nests``
    holds the pairs straddling gamma by x, so the pairs with x > lo are a
    suffix found by bisection, and its least y decides: one lookup per query
    at any height of gamma, exact for any order, convex or not.
    """
    pos = order.position
    lo, hi = pos[pair[0]], pos[pair[1]]
    if lo > hi:
        lo, hi = hi, lo
    nest = order.nests.get(gamma)
    if nest is None:
        nest = order.nests[gamma] = _nest_table(order, gamma)
    size = len(nest) // 2
    k = bisect_right(nest, lo, 0, size)
    return k == size or nest[size + k] >= hi


def _nest_table(order: ConvexOrder, gamma: Root) -> tuple[int, ...]:
    """Gamma's sum pairs straddling it in ``order``: their xs ascending, then the
    suffix minima of their ys, in one tuple (one object per table keeps the
    readings' tables small)."""
    pos = order.position
    mid = pos[gamma]
    straddling = []
    for a, b in rs.root_sums(order.datum)[gamma]:
        x, y = pos[a], pos[b]
        if x > y:
            x, y = y, x
        if x < mid < y:
            straddling.append((x, y))
    straddling.sort()
    low = list(accumulate(reversed([y for _, y in straddling]), min))
    return (*[x for x, _ in straddling], *reversed(low))


def oracle_classify(ar: ARQuiver, gamma: Root, pair) -> PairVerdict:
    """Ground truth by exhausting every reading of Gamma_Q (small ranks only)."""
    alpha, beta, _ = _oriented_pair(ar, gamma, pair)
    if (gamma, alpha, beta) in _oracle(ar)[1]:
        return PairVerdict(gamma, alpha, beta, NON_MINIMAL)
    return PairVerdict(gamma, alpha, beta, MINIMAL)


def reading_words(ar: ARQuiver) -> frozenset[WeylWord]:
    """The words of every reading of Gamma_Q, from the walk that serves the oracle."""
    return _oracle(ar)[0]


def _oracle(ar: ARQuiver) -> tuple[frozenset[WeylWord], frozenset[tuple[Root, Root, Root]]]:
    """The reading words, and the (gamma, alpha, beta) of every pair no reading
    makes minimal.

    One walk over every reading fills ``ar.oracle``, which is None until then;
    it keeps no order, so each reading's nest tables go with it.
    """
    if ar.oracle is None:
        pending = [(gamma, *pair) for gamma, pair in all_pairs(ar)]
        words = set()
        for order in all_readings(ar):
            words.add(order.word)
            if pending:
                pending = [(g, a, b) for g, a, b in pending if not minimal_wrt(order, (a, b), g)]
        ar.oracle = (frozenset(words), frozenset(pending))
    return ar.oracle
