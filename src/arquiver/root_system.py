"""Root systems and Weyl group arithmetic for Dynkin types A and D.

Positive roots are stored as coefficient vectors over the simple roots
(tuples of non-negative ints, index i-1 holds the coefficient of alpha_i).
Signed roots are pairs (sign, coeffs) with sign in {+1, -1}; a negative
coefficient vector never leaves this module.

Type D uses the enumeration with the path 1 - 2 - ... - (n-2) and both
n-1 and n attached to n-2, so alpha_i = e_i - e_{i+1} for i <= n-1 and
alpha_n = e_{n-1} + e_n in the usual orthonormal coordinates.
"""

from __future__ import annotations

import operator
import re
from functools import cached_property, lru_cache
from itertools import accumulate
from types import MappingProxyType
from typing import NamedTuple

Root = tuple[int, ...]
SignedRoot = tuple[int, Root]
WeylWord = tuple[int, ...]


class RootSystemError(ValueError):
    pass


class _CartanFields(NamedTuple):
    diagram_type: str
    rank: int


class CartanDatum(_CartanFields):
    """Diagram type ('A' or 'D') plus rank; all diagram data derives from it.

    The cached tables live in __dict__ (no __slots__); __setattr__ refuses the rest.
    """

    def __new__(cls, diagram_type: str, rank: int):
        if diagram_type not in ("A", "D"):
            raise RootSystemError(f"unsupported diagram type {diagram_type!r}")
        minimum = 4 if diagram_type == "D" else 1
        if rank < minimum:
            raise RootSystemError(f"type {diagram_type} needs rank >= {minimum}, got {rank}")
        return tuple.__new__(cls, (diagram_type, rank))

    def __setattr__(self, name, value):
        raise AttributeError(f"CartanDatum is immutable; cannot set {name!r}")

    @property
    def vertices(self) -> range:
        return range(1, self.rank + 1)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Undirected diagram edges, sorted by (min endpoint, max endpoint)."""
        n = self.rank
        if self.diagram_type == "A":
            return tuple((i, i + 1) for i in range(1, n))
        path = [(i, i + 1) for i in range(1, n - 1)]
        path.append((n - 2, n))
        return tuple(sorted(path))

    @cached_property
    def neighbor_table(self) -> dict[int, tuple[int, ...]]:
        """Vertex -> its diagram neighbours, ascending."""
        table: dict[int, list[int]] = {i: [] for i in self.vertices}
        for i, j in self.edges:
            table[i].append(j)
            table[j].append(i)
        return {i: tuple(sorted(js)) for i, js in table.items()}

    @cached_property
    def neighbor_index(self) -> dict[int, tuple[int, ...]]:
        """Vertex -> its neighbours' 0-based coordinates; letter 0 or -1 finds no key."""
        return {i: tuple(j - 1 for j in js) for i, js in self.neighbor_table.items()}

    @cached_property
    def edge_index(self) -> tuple[tuple[int, int], ...]:
        """The diagram edges as pairs of 0-based coordinates."""
        return tuple((i - 1, j - 1) for i, j in self.edges)

    @cached_property
    def distance_table(self) -> dict[int, dict[int, int]]:
        """Vertex -> {vertex: graph distance}, by breadth-first search."""
        dist: dict[int, dict[int, int]] = {}
        for source in self.vertices:
            d = {source: 0}
            frontier = [source]
            while frontier:
                nxt = []
                for u in frontier:
                    for v in self.neighbor_table[u]:
                        if v not in d:
                            d[v] = d[u] + 1
                            nxt.append(v)
                frontier = nxt
            dist[source] = d
        return dist

    def adjacent(self, i: int, j: int) -> bool:
        return j in self.neighbors(i)

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self.neighbor_table.get(i, ())

    def distance(self, i: int, j: int) -> int:
        """Graph distance between diagram vertices."""
        return self.distance_table[i][j]

    def cartan(self, i: int, j: int) -> int:
        if i == j:
            return 2
        return -1 if self.adjacent(i, j) else 0

    @property
    def coxeter_number(self) -> int:
        return self.rank + 1 if self.diagram_type == "A" else 2 * self.rank - 2

    @property
    def num_positive_roots(self) -> int:
        n = self.rank
        return n * (n + 1) // 2 if self.diagram_type == "A" else n * (n - 1)

    def simple_root(self, i: int) -> Root:
        if i not in self.vertices:
            raise RootSystemError(f"no vertex {i} in rank {self.rank}")
        return tuple(1 if j == i else 0 for j in self.vertices)

    def pairing(self, a: Root, b: Root) -> int:
        """Symmetric bilinear form (a, b) induced by the Cartan matrix."""
        if len(a) != self.rank or len(b) != self.rank:
            raise RootSystemError(f"cannot pair {a} with {b} in rank {self.rank}")
        total = 2 * sum(map(operator.mul, a, b))
        for i, j in self.edge_index:
            total -= a[i] * b[j] + a[j] * b[i]
        return total


def _as_signed(datum: CartanDatum, root: Root | SignedRoot) -> SignedRoot:
    """(sign, coeffs) of a bare or signed root whose coeffs have rank entries."""
    sign, coeffs = root if len(root) == 2 and isinstance(root[1], tuple) else (1, root)
    if len(coeffs) != datum.rank:
        raise RootSystemError(f"{coeffs} has {len(coeffs)} coefficients, rank is {datum.rank}")
    return sign, coeffs  # type: ignore[return-value]


def reflect(datum: CartanDatum, i: int, root: Root | SignedRoot) -> SignedRoot:
    """Apply the simple reflection s_i to a (signed) root: ``apply_word`` on one letter."""
    return apply_word(datum, (i,), root)


def apply_word(datum: CartanDatum, word: WeylWord, root: Root | SignedRoot) -> SignedRoot:
    """Apply a product of simple reflections; the last letter acts first.

    Coordinate i becomes the sum of its neighbours minus itself; a negative
    one negates the vector and flips the sign (only coordinate i moves, and a
    root is never mixed-sign).
    """
    sign, coeffs = _as_signed(datum, root)
    out = list(coeffs)
    table = datum.neighbor_index
    try:
        for i in reversed(word):
            neighbors = table[i]  # before out[i - 1], which 0 or n + 1 would wrap or overrun
            value = -out[i - 1]
            for j in neighbors:
                value += out[j]
            out[i - 1] = value
            if value < 0:
                sign, out = -sign, [-c for c in out]
    except KeyError as exc:
        letter = exc.args[0]
        raise RootSystemError(f"letter {letter!r} is not a vertex in 1..{datum.rank}") from None
    return (sign, tuple(out))


@lru_cache(maxsize=None)
def enumerate_positive_roots(datum: CartanDatum) -> frozenset[Root]:
    """All positive roots, by closing the simple roots under reflections.

    Breadth-first: starting from the simple roots, keep every s_i-image
    that stays positive.  The result is checked against the classical
    count for the type.
    """
    found: set[Root] = {datum.simple_root(i) for i in datum.vertices}
    frontier = list(found)
    while frontier:
        nxt = []
        for root in frontier:
            for i in datum.vertices:
                sign, image = reflect(datum, i, root)
                if sign > 0 and image not in found:
                    found.add(image)
                    nxt.append(image)
        frontier = nxt
    if len(found) != datum.num_positive_roots:
        raise RootSystemError(
            f"positive-root closure gave {len(found)} roots, "
            f"expected {datum.num_positive_roots}"
        )
    return frozenset(found)


@lru_cache(maxsize=None)
def root_sums(datum: CartanDatum) -> MappingProxyType[Root, tuple[tuple[Root, Root], ...]]:
    """Positive root gamma -> every unordered pair of positive roots summing to it."""
    roots = sorted(enumerate_positive_roots(datum))
    # 4 bits per coefficient: coefficients are at most 2, so codes add without carries
    codes = [sum(c << 4 * k for k, c in enumerate(root)) for root in roots]
    by_code = dict(zip(codes, roots))
    table: dict[Root, list[tuple[Root, Root]]] = {root: [] for root in roots}
    for x, a in enumerate(codes):
        for b in codes[x + 1:]:
            if a + b in by_code:
                table[by_code[a + b]].append((roots[x], by_code[b]))
    return MappingProxyType({gamma: tuple(pairs) for gamma, pairs in table.items()})


def ht(root: Root) -> int:
    return sum(root)


def supp_ge(root: Root, k: int) -> frozenset[int]:
    """Vertices whose simple-root coefficient is at least k."""
    return frozenset(i + 1 for i, c in enumerate(root) if c >= k)


def mul(root: Root) -> int:
    return max(root)


def longest_element_star(datum: CartanDatum) -> dict[int, int]:
    """The diagram involution i -> i* with w0(alpha_i) = -alpha_{i*}."""
    n = datum.rank
    if datum.diagram_type == "A":
        return {i: n + 1 - i for i in datum.vertices}
    star = {i: i for i in range(1, n - 1)}
    if n % 2 == 0:
        star[n - 1] = n - 1
        star[n] = n
    else:
        star[n - 1] = n
        star[n] = n - 1
    return star


def is_reduced(datum: CartanDatum, word: WeylWord) -> bool:
    """A word is reduced iff its length equals the inversion count of its product."""
    inversions = 0
    for root in enumerate_positive_roots(datum):
        sign, _ = apply_word(datum, word, root)
        if sign < 0:
            inversions += 1
    return inversions == len(word)


# --- epsilon forms (type D) -------------------------------------------------

class EpsilonForm(NamedTuple):
    """A type-D positive root written as e_a + sign(b)*e_|b|, with a < |b| <= n."""

    a: int
    b_signed: int

    def __str__(self) -> str:
        return f"<{self.a},{self.b_signed}>"


def epsilon_coords(datum: CartanDatum, root: Root) -> tuple[int, ...]:
    """Coordinates of a root in the orthonormal e-basis (type D)."""
    if datum.diagram_type != "D":
        raise RootSystemError("epsilon coordinates are defined for type D only")
    n = datum.rank
    e = [0] * n
    for i in range(1, n):  # alpha_i = e_i - e_{i+1}
        e[i - 1] += root[i - 1]
        e[i] -= root[i - 1]
    e[n - 2] += root[n - 1]  # alpha_n = e_{n-1} + e_n
    e[n - 1] += root[n - 1]
    return tuple(e)


@lru_cache(maxsize=None)
def epsilon_form(datum: CartanDatum, root: Root) -> EpsilonForm:
    """The unique presentation e_a +- e_b of a type-D positive root."""
    e = epsilon_coords(datum, root)
    support = [(i + 1, c) for i, c in enumerate(e) if c]
    if len(support) != 2 or support[0][1] != 1 or abs(support[1][1]) != 1:
        raise RootSystemError(f"{root} is not a positive root of type D_{datum.rank}")
    (a, _), (b, cb) = support
    return EpsilonForm(a, cb * b)


def root_from_epsilon(datum: CartanDatum, eps: EpsilonForm) -> Root:
    """Inverse of epsilon_coords: partial sums of the e-coordinates, halved at the fork."""
    if datum.diagram_type != "D":
        raise RootSystemError("epsilon forms are defined for type D only")
    n = datum.rank
    a, b = eps.a, abs(eps.b_signed)
    if not (1 <= a < b <= n):
        raise RootSystemError(f"bad epsilon form {eps}")
    e = [0] * n
    e[a - 1] = 1
    e[b - 1] = 1 if eps.b_signed > 0 else -1
    sums = list(accumulate(e[: n - 1]))  # c_k = e_1 + ... + e_k below the fork
    fork, spin = sums[-1], e[n - 1]
    return (*sums[:-1], (fork - spin) // 2, (fork + spin) // 2)


@lru_cache(maxsize=None)
def summand_class(datum: CartanDatum, signed_index: int) -> frozenset[Root]:
    """Positive roots with e_{|s|} (s > 0) or -e_{|s|} (s < 0) as a summand (type D)."""
    return frozenset(
        root
        for root in enumerate_positive_roots(datum)
        if signed_index in epsilon_form(datum, root)
    )


# --- parsing and formatting -------------------------------------------------

_ANGLE_RE = re.compile(r"^<\s*(\d+)\s*,\s*(-?\d+)\s*>$")
_EPS_RE = re.compile(r"^e(\d+)\s*([+-])\s*e(\d+)$")
_BRACKET_RE = re.compile(r"^\[(\s*\d+\s*(?:,\s*\d+\s*)*)\]$")  # one integer per slot


def parse_root(datum: CartanDatum, text: str) -> Root:
    """Parse `[1,2,1,1]`, `e1+e2` / `e1-e3`, or `<1,-4>` into a positive root."""
    text = text.strip()
    m = _BRACKET_RE.match(text)
    if m:
        coeffs = tuple(int(p) for p in m.group(1).split(","))
        if len(coeffs) != datum.rank:
            raise RootSystemError(
                f"expected {datum.rank} coefficients, got {len(coeffs)}"
            )
        if coeffs not in enumerate_positive_roots(datum):
            raise RootSystemError(f"{text} is not a positive root")
        return coeffs
    m = _ANGLE_RE.match(text)
    if m:
        a, b = int(m.group(1)), int(m.group(2))
        return root_from_epsilon(datum, EpsilonForm(a, b))
    m = _EPS_RE.match(text)
    if m:
        a, sign, b = int(m.group(1)), m.group(2), int(m.group(3))
        b_signed = b if sign == "+" else -b
        return root_from_epsilon(datum, EpsilonForm(a, b_signed))
    raise RootSystemError(f"cannot parse root {text!r}")


def format_root(datum: CartanDatum, root: Root) -> str:
    """Angle form for type D, coefficient vector for type A."""
    if datum.diagram_type == "D":
        return str(epsilon_form(datum, root))
    return "[" + ",".join(str(c) for c in root) + "]"
