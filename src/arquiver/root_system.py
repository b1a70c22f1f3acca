"""Root systems and Weyl group arithmetic for Dynkin types A and D.

Positive roots are stored as coefficient vectors over the simple roots
(tuples of non-negative ints, index i-1 holds the coefficient of alpha_i).
Signed roots are pairs (sign, coeffs) with sign in {+1, -1}; a negative
coefficient vector never leaves this module.

Type D uses the enumeration with the path 1 - 2 - ... - (n-2) and both
n-1 and n attached to n-2, so alpha_i = e_i - e_{i+1} for i <= n-1 and
alpha_n = e_{n-1} + e_n in the usual orthonormal coordinates.

``root_table`` closes the simple roots under reflections once per datum and
keeps what the closure computed: the sorted positive roots, their indices and
packed codes, and each s_i as a row of signed indices.  ``ar_quiver.build``
knits by walking those indices, so ``reflect`` and ``apply_word`` run only in
the closure and for callers outside the knitting; ``verify`` caches
``CartanDatum.pairing`` per root pair for the arrow check.
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


class ArquiverError(ValueError):
    """Bad input, in any module: ``arq`` exits 2 on it."""


class RootSystemError(ArquiverError):
    pass


class _CartanFields(NamedTuple):
    diagram_type: str
    rank: int


_DATA: dict[tuple[str, int], CartanDatum] = {}


class CartanDatum(_CartanFields):
    """Diagram type ('A' or 'D') plus rank; all diagram data derives from it.

    There is one instance per (type, rank) and process, so its cached tables,
    which live in __dict__ (no __slots__), are built once for every caller;
    __setattr__ refuses the rest, and a pickle carries only the two fields.
    """

    def __new__(cls, diagram_type: str, rank: int):
        if diagram_type not in ("A", "D"):
            raise RootSystemError(f"unsupported diagram type {diagram_type!r}")
        if type(rank) is not int:  # True or 5.0 must not stand for 1 or 5
            raise RootSystemError(f"a rank must be an int, not {rank!r}")
        minimum = 4 if diagram_type == "D" else 1
        if rank < minimum:
            raise RootSystemError(f"type {diagram_type} needs rank >= {minimum}, got {rank}")
        key = (diagram_type, rank)
        datum = _DATA.get(key)
        if datum is None:
            datum = _DATA[key] = tuple.__new__(cls, key)
        return datum

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # _replace calls _make: both validate and share as a call does

    def __reduce__(self):
        return CartanDatum, tuple(self)

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

    @property
    def coxeter_number(self) -> int:
        return self.rank + 1 if self.diagram_type == "A" else 2 * self.rank - 2

    @property
    def num_positive_roots(self) -> int:
        n = self.rank
        return n * (n + 1) // 2 if self.diagram_type == "A" else n * (n - 1)

    @cached_property
    def simple_root_table(self) -> dict[int, Root]:
        """Vertex -> alpha_i as a coefficient vector."""
        return {i: tuple(int(j == i) for j in self.vertices) for i in self.vertices}

    def simple_root(self, i: int) -> Root:
        try:
            return self.simple_root_table[i]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise RootSystemError(f"no vertex {i} in rank {self.rank}") from None

    def pairing(self, a: Root, b: Root) -> int:
        """Symmetric bilinear form (a, b) induced by the Cartan matrix."""
        if len(a) != self.rank or len(b) != self.rank:
            raise RootSystemError(f"cannot pair {a} with {b} in rank {self.rank}")
        total = 2 * sum(map(operator.mul, a, b))
        for i, j in self.edges:
            total -= a[i - 1] * b[j - 1] + a[j - 1] * b[i - 1]
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
    table = datum.neighbor_table
    try:
        for i in reversed(word):
            neighbors = table[i]  # before out[i - 1], which 0 or n + 1 would wrap or overrun
            value = -out[i - 1]
            for j in neighbors:
                value += out[j - 1]
            out[i - 1] = value
            if value < 0:
                sign, out = -sign, [-c for c in out]
    except KeyError as exc:
        letter = exc.args[0]
        raise RootSystemError(f"letter {letter!r} is not a vertex in 1..{datum.rank}") from None
    return (sign, tuple(out))


CODE_BITS = 4  # bits per coefficient in a packed code


class RootTable(NamedTuple):
    """The positive roots of a datum, sorted, with codes and s_i as index rows.

    codes[root] holds coefficient k in bits CODE_BITS*k and up.  A coefficient
    is at most 2 and no caller adds more than three codes, so no digit reaches
    16: sums never carry, and equal codes mean equal vectors.
    rows[i - 1][k] is the signed index of s_i(roots[k]): k' when the image is
    roots[k'] and ~k' when it is -roots[k'].
    """

    roots: tuple[Root, ...]
    index: MappingProxyType[Root, int]
    codes: MappingProxyType[Root, int]
    rows: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def root_table(datum: CartanDatum) -> RootTable:
    """Close the simple roots under reflections, recording every s_i-image.

    Breadth-first: starting from the simple roots, keep every s_i-image
    that stays positive.  The result is checked against the classical
    count for the type.
    """
    found = list(datum.simple_root_table.values())  # grows as it is read
    seen = {root: k for k, root in enumerate(found)}
    images = []  # images[k][i - 1]: s_i(found[k]) as a signed index into found
    for root in found:
        row = []
        for i in datum.vertices:
            sign, image = reflect(datum, i, root)
            k = seen.get(image)
            if k is None:  # a new positive root: a negative image is -alpha_i, seen already
                k = seen[image] = len(found)
                found.append(image)
            row.append(k if sign > 0 else ~k)
        images.append(row)
    if len(found) != datum.num_positive_roots:
        raise RootSystemError(
            f"positive-root closure gave {len(found)} roots, "
            f"expected {datum.num_positive_roots}"
        )
    order = sorted(range(len(found)), key=found.__getitem__)
    position = [0] * len(found)
    for pos, k in enumerate(order):
        position[k] = pos
    rows = tuple(
        tuple(position[x] if x >= 0 else ~position[~x] for x in column)
        for column in zip(*(images[k] for k in order))
    )
    roots = tuple(found[k] for k in order)
    codes = (sum(c << CODE_BITS * k for k, c in enumerate(root)) for root in roots)
    return RootTable(roots, MappingProxyType(dict(zip(roots, range(len(roots))))),
                     MappingProxyType(dict(zip(roots, codes))), rows)


@lru_cache(maxsize=None)
def enumerate_positive_roots(datum: CartanDatum) -> frozenset[Root]:
    """All positive roots, read off the closure in ``root_table``."""
    return frozenset(root_table(datum).roots)


@lru_cache(maxsize=None)
def root_sums(datum: CartanDatum) -> MappingProxyType[Root, tuple[tuple[Root, Root], ...]]:
    """Positive root gamma -> every unordered pair of positive roots summing to it."""
    roots = root_table(datum).roots
    codes = list(root_table(datum).codes.values())  # in the order of roots
    by_code = dict(zip(codes, roots))
    table: dict[Root, list[tuple[Root, Root]]] = {root: [] for root in roots}
    for x, a in enumerate(codes):
        for b in codes[x + 1:]:
            if a + b in by_code:
                table[by_code[a + b]].append((roots[x], by_code[b]))
    return MappingProxyType({gamma: tuple(pairs) for gamma, pairs in table.items()})


def ht(root: Root) -> int:
    return sum(root)


def mul(root: Root) -> int:
    return max(root)


def longest_element_star(datum: CartanDatum) -> dict[int, int]:
    """The diagram involution i -> i* with w0(alpha_i) = -alpha_{i*}."""
    n = datum.rank
    if datum.diagram_type == "A":
        return {i: n + 1 - i for i in datum.vertices}
    star = {i: i for i in datum.vertices}
    if n % 2:  # w0 = -1 in even rank; in odd rank it swaps the spin nodes
        star[n - 1], star[n] = n, n - 1
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
