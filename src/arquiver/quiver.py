"""Dynkin quivers: orientations, height functions, and vertex classification.

An orientation is stored as a tuple of directed arrows (src, dst) covering
every diagram edge exactly once; ``from_bitmask`` reads one off a bitmask
against the canonical edge order (edges sorted by (min endpoint, max
endpoint); bit 0 means the arrow runs min -> max).

Orientation facts are read off the height function xi, the one walk over the
arrows: i is a source when every neighbour sits at xi_i - 1, reflecting at a
source lowers xi_i by 2, and a path j ~> i exists when xi_j - xi_i = d(i, j).
Every vertex class (``classify_vertex``) is read off xi the same way, from
each neighbour's rise xi_j - xi_i: -1 at every neighbour of a source, +1 at
every neighbour of a sink.
"""

from __future__ import annotations

import enum
import re
from typing import Iterator, NamedTuple

from .root_system import ArquiverError, CartanDatum, Root, WeylWord


class QuiverError(ArquiverError):
    pass


class VertexClass(enum.Enum):
    SOURCE = "source"
    SINK = "sink"
    LEFT_INTERMEDIATE = "left-intermediate"
    RIGHT_INTERMEDIATE = "right-intermediate"
    OTHER = "other"


class DynkinQuiver(NamedTuple):
    datum: CartanDatum
    arrows: tuple[tuple[int, int], ...]

    @classmethod
    def from_arrows(cls, datum: CartanDatum, arrows) -> "DynkinQuiver":
        """Build from directed (src, dst) pairs covering each edge once."""
        covered = {}
        for src, dst in arrows:
            edge = (min(src, dst), max(src, dst))
            if edge not in datum.edges:
                raise QuiverError(f"{src}>{dst} is not a diagram edge")
            if edge in covered:
                raise QuiverError(f"edge {edge} oriented twice")
            covered[edge] = (src, dst)
        missing = [e for e in datum.edges if e not in covered]
        if missing:
            raise QuiverError(f"edges {missing} are not oriented")
        return cls(datum, tuple(covered[e] for e in datum.edges))

    @classmethod
    def from_bitmask(cls, datum: CartanDatum, mask: int) -> "DynkinQuiver":
        arrows = []
        for bit, (lo, hi) in enumerate(datum.edges):
            arrows.append((hi, lo) if mask >> bit & 1 else (lo, hi))
        return cls(datum, tuple(arrows))

    def spec_string(self) -> str:
        return ",".join(f"{s}>{t}" for s, t in self.arrows)


def classify_vertex(datum: CartanDatum, xi, i: int) -> VertexClass:
    """Source, sink, left/right intermediate, or other, read off the heights xi.

    i is a source when every neighbour j sits at xi_i - 1 and a sink when
    every one sits at xi_i + 1.  Otherwise i is a right intermediate when
    (xi_j - xi_i) * (d(1, j) - d(1, i)) = 1 for every neighbour j: it receives
    its arrows from the far side of the diagram and emits toward vertex 1.
    A left intermediate is the mirror image, the product -1 throughout.  At
    the branch vertex n-2 of type D this needs both spin arrows to point the
    same way; the four mixed orientations classify as OTHER.
    """
    if i not in datum.vertices:
        raise QuiverError(f"no vertex {i}")
    top, neighbors = xi[i - 1], datum.neighbor_table[i]
    rises = [xi[j - 1] - top for j in neighbors]  # each xi_j - xi_i, read once
    if rises.count(-1) == len(rises):
        return VertexClass.SOURCE
    if rises.count(1) == len(rises):
        return VertexClass.SINK
    d1 = datum.distance_table[1]
    turns = {rise * (d1[j] - d1[i]) for rise, j in zip(rises, neighbors)}
    if turns == {1}:
        return VertexClass.RIGHT_INTERMEDIATE
    if turns == {-1}:
        return VertexClass.LEFT_INTERMEDIATE
    return VertexClass.OTHER


def make_height_function(
    quiver: DynkinQuiver, anchor_vertex: int, anchor_value: int
) -> tuple[int, ...]:
    """The unique xi with xi_j = xi_i - 1 along arrows and the given anchor."""
    datum = quiver.datum
    if anchor_vertex not in datum.vertices:
        raise QuiverError(f"no vertex {anchor_vertex}")
    arrows = set(quiver.arrows)
    xi = {anchor_vertex: anchor_value}
    stack = [anchor_vertex]
    while stack:
        u = stack.pop()
        for v in datum.neighbor_table[u]:
            if v not in xi:
                xi[v] = xi[u] - 1 if (u, v) in arrows else xi[u] + 1
                stack.append(v)
    return tuple(xi[i] for i in datum.vertices)


def _is_source(datum: CartanDatum, xi, i: int) -> bool:
    """i is a source exactly when every neighbour sits at xi_i - 1."""
    below = xi[i - 1] - 1
    for j in datum.neighbor_table[i]:
        if xi[j - 1] != below:
            return False
    return True


def is_adapted(word: WeylWord, quiver: DynkinQuiver) -> bool:
    """Each letter must be a source of the quiver reflected at all earlier letters."""
    datum = quiver.datum
    if not set(word).issubset(datum.vertices):
        raise QuiverError(f"{word} has letters outside 1..{datum.rank}")
    xi = list(make_height_function(quiver, 1, 0))
    for i in word:
        if not _is_source(datum, xi, i):
            return False
        xi[i - 1] -= 2
    return True


def coxeter_word(quiver: DynkinQuiver) -> WeylWord:
    """The source-peeling word: repeatedly remove the smallest current source.

    Peeling a source only changes whether its neighbours are sources (no two
    adjacent vertices are), so the ready list grows by its remaining ones.
    """
    datum = quiver.datum
    neighbors = datum.neighbor_table
    xi = list(make_height_function(quiver, 1, 0))
    remaining = set(datum.vertices)
    ready = [i for i in datum.vertices if _is_source(datum, xi, i)]
    word = []
    while ready:
        source = min(ready)
        ready.remove(source)
        remaining.discard(source)
        word.append(source)
        xi[source - 1] -= 2
        ready += [j for j in neighbors[source] if j in remaining and _is_source(datum, xi, j)]
    return tuple(word)


def eta_from_heights(datum: CartanDatum, xi, i: int) -> Root:
    """eta_i of the quiver with height function xi: alpha_j summed over j ~> i.

    Q is a tree, so j ~> i exactly when xi_j - xi_i is the distance d(i, j).
    """
    dist, top = datum.distance_table[i], xi[i - 1]
    return tuple(int(h - top == dist[j]) for j, h in enumerate(xi, 1))


def check_height_function(quiver: DynkinQuiver, xi) -> None:
    if len(xi) != quiver.datum.rank:
        raise QuiverError("height function has wrong length")
    for src, dst in quiver.arrows:
        if xi[dst - 1] != xi[src - 1] - 1:
            raise QuiverError(
                f"height function violates arrow {src}>{dst}: "
                f"xi_{dst}={xi[dst - 1]} != xi_{src}-1"
            )


def all_orientations(datum: CartanDatum) -> Iterator[DynkinQuiver]:
    """All 2^(#edges) orientations in canonical bitmask order."""
    for mask in range(1 << len(datum.edges)):
        yield DynkinQuiver.from_bitmask(datum, mask)


# --- quiver spec strings (CLI) ------------------------------------------------

_ARROW_RE = re.compile(r"^\s*(\d+)\s*>\s*(\d+)\s*$")
_XI_RE = re.compile(r"^\s*(\d+)\s*=\s*(-?\d+)\s*$")


def parse_arrow_spec(datum: CartanDatum, text: str) -> DynkinQuiver:
    """Parse `2>1,3>2,2>4` into an orientation; a blank spec has no arrows (A1)."""
    arrows = []
    for chunk in text.split(",") if text.strip() else ():
        m = _ARROW_RE.match(chunk)
        if not m:
            raise QuiverError(f"cannot parse arrow {chunk!r}")
        arrows.append((int(m.group(1)), int(m.group(2))))
    return DynkinQuiver.from_arrows(datum, arrows)


def parse_xi_anchor(text: str) -> tuple[int, int]:
    """Parse a `vertex=value` height anchor."""
    m = _XI_RE.match(text)
    if not m:
        raise QuiverError(f"cannot parse height anchor {text!r}")
    return int(m.group(1)), int(m.group(2))
