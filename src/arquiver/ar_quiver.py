"""The Auslander-Reiten quiver Gamma_Q and its combinatorial structure.

The quiver is built by seeding level i at column xi_i with the root eta_i
and stepping left by the Coxeter transformation tau while the image stays
positive.  Vertices are coordinates (level, column); the builder records
the bijection between coordinates and positive roots, the arrow set
((i,p) -> (j,p+1) for adjacent i,j), and the per-level depths m_i.

Maximal sectional paths are modelled as "brooms": a diagonal chain through
levels <= n-2 together with the spin-level tips it runs into (an S-broom
may fork into both levels n-1 and n at its top; an N-broom may start from
both).  They are read off the grid's diagonals: with the folded level
l(i) = min(i, n-1) in type D (l(i) = i in type A), an S-broom is the set of
vertices with one value of p - l(i) and an N-broom the set with one value of
p + l(i), kept when it has two or more members and, in type D, one at a
level <= n-2.  Two roots count as lying on a common sectional path when one
maximal broom contains both.  A swing is read off the paths too: the
S-broom whose tips are the fork (n-1, u), (n, u) plus the N-broom leaving
that fork.

The rest of the paper's description of Gamma_Q (spin-level pairs, triangles,
the place of e_1+e_2, the sigma/kappa sequences, the non-free window) is
stated once, in the ``verify`` checks that test it.
"""

from __future__ import annotations

from functools import cached_property
from operator import add
from typing import TYPE_CHECKING, NamedTuple, Optional

from . import root_system as rs
from .quiver import DynkinQuiver, QuiverError, check_height_function, coxeter_word, eta_from_heights
from .root_system import CartanDatum, Root

if TYPE_CHECKING:
    from .orders import ConvexOrder

Coord = tuple[int, int]


class ARQuiverError(ValueError):
    pass


class SectionalPath(NamedTuple):
    """A maximal S- or N-broom; coords run in arrow order (column ascending)."""

    kind: str  # "S" or "N"
    coords: tuple[Coord, ...]
    shallow: bool


class Swing(NamedTuple):
    """S-broom into the level-(n-1, n) fork plus the N-broom out of it."""

    shared_index: int  # the a of the one +e_a its roots share, else 0
    s_part: tuple[Coord, ...]
    fork: tuple[Coord, Coord]  # ((n-1, u), (n, u))
    n_part: tuple[Coord, ...]

    @property
    def coords(self) -> tuple[Coord, ...]:
        return self.s_part + self.fork + self.n_part


class ARQuiver:
    """Immutable after build; every query is a pure function of the data."""

    def __init__(
        self,
        quiver: DynkinQuiver,
        xi: tuple[int, ...],
        root_at: dict[Coord, Root],
        arrows: frozenset[tuple[Coord, Coord]],
        m: tuple[int, ...],
    ):
        self.quiver = quiver
        self.datum = quiver.datum
        self.xi = xi
        self.root_at = root_at
        self.phi = {root: coord for coord, root in root_at.items()}
        self.arrows = arrows
        self.m = m
        # tables the orders module fills on first use
        self.pairs_cache: dict[Root, dict[tuple[Root, Root], Optional[tuple[Root, Root]]]] = {}
        self.oracle_cache: dict[tuple[Root, Root, Root], bool] = {}
        self.readings_cache: dict[str, ConvexOrder] = {}

    # --- basic queries -------------------------------------------------------

    @property
    def rank(self) -> int:
        return self.datum.rank

    @property
    def vertices(self) -> list[Coord]:
        """Coordinates in the stable export order (column, then level)."""
        return sorted(self.root_at, key=lambda c: (c[1], c[0]))

    def coord_of(self, root: Root) -> Coord:
        try:
            return self.phi[root]
        except KeyError:
            raise ARQuiverError(f"{root} is not a positive root here") from None

    @property
    def t_index(self) -> int:
        """The spin index t: roots with summand +-e_t sit at levels n-1 and n."""
        if self.datum.diagram_type != "D":
            raise ARQuiverError("spin indices exist only in type D")
        n = self.rank
        return n - 1 if abs(self.xi[n - 2] - self.xi[n - 1]) == 2 else n

    @property
    def t_prime_index(self) -> int:
        """The other spin index t': {t, t'} = {n-1, n}."""
        return 2 * self.rank - 1 - self.t_index

    def out_arrows(self, coord: Coord) -> list[Coord]:
        i, p = coord
        return [
            (j, p + 1)
            for j in self.datum.neighbor_table[i]
            if (j, p + 1) in self.root_at
        ]

    def in_arrows(self, coord: Coord) -> list[Coord]:
        i, p = coord
        return [
            (j, p - 1)
            for j in self.datum.neighbor_table[i]
            if (j, p - 1) in self.root_at
        ]

    # --- reachability / the convex partial order ------------------------------

    @cached_property
    def _path_order(self) -> tuple[tuple[Coord, ...], dict[Root, int], dict[Root, int]]:
        """The path order as int bitsets: (coords, bit, below).

        Vertex coords[k] owns bit 1 << k, coords running columns descending;
        bit maps each root to its bit and below maps it to the mask of every
        vertex reachable from it along arrows.  Arrows raise the column, so
        each down-set is ready before the vertices that point into it.
        """
        coords = tuple(sorted(self.root_at, key=lambda c: (-c[1], c[0])))
        bit = {self.root_at[c]: 1 << k for k, c in enumerate(coords)}
        below: dict[Root, int] = {}
        for c in coords:
            mask = 0
            for nxt in self.out_arrows(c):
                root = self.root_at[nxt]
                mask |= bit[root] | below[root]
            below[self.root_at[c]] = mask
        return coords, bit, below

    def descendants(self, coord: Coord) -> frozenset[Coord]:
        """All coordinates reachable from coord along arrows (coord excluded)."""
        coords, _, below = self._path_order
        mask = below[self.root_at[coord]]
        return frozenset(c for k, c in enumerate(coords) if mask >> k & 1)

    def prec(self, alpha: Root, beta: Root) -> bool:
        """alpha strictly precedes beta: a path from beta down to alpha exists."""
        _, bit, below = self._path_order
        try:
            return bit[alpha] & below[beta] != 0
        except KeyError as exc:
            raise ARQuiverError(f"{exc.args[0]} is not a positive root here") from None

    # --- sectional paths and swings ---------------------------------------------

    def sectional_paths(self) -> list[SectionalPath]:
        """All maximal sectional brooms, S-kind then N-kind, by start coordinate."""
        return list(self._sectional_paths)

    @cached_property
    def _sectional_paths(self) -> tuple[SectionalPath, ...]:
        # fold the spin levels onto level n-1 in type D, so that S-arrows raise
        # the folded level by one and N-arrows lower it: an S-broom is a class of
        # equal p - level, an N-broom one of equal p + level
        n = self.rank
        is_d = self.datum.diagram_type == "D"
        top = n - 1 if is_d else n
        paths: list[SectionalPath] = []
        for kind, sign in (("S", -1), ("N", 1)):
            diagonals: dict[int, list[Coord]] = {}
            for i, p in self.root_at:
                diagonals.setdefault(p + sign * min(i, top), []).append((i, p))
            brooms = []
            for coords in diagonals.values():
                levels = [i for i, _ in coords]
                # a spin pair (n-1, u), (n, u) with no stem below it is no broom
                if len(coords) < 2 or (is_d and min(levels) > n - 2):
                    continue
                coords.sort(key=lambda c: (c[1], c[0]))
                shallow = is_d and max(levels) <= n - 2
                brooms.append(SectionalPath(kind=kind, coords=tuple(coords), shallow=shallow))
            paths += sorted(brooms, key=lambda path: path.coords)
        return tuple(paths)

    def swings(self) -> list[Swing]:
        """Maximal swings, one per fork column with stems on both sides."""
        if self.datum.diagram_type != "D":
            raise ARQuiverError("swings exist only in type D")
        return list(self._swings)

    @cached_property
    def _swings(self) -> tuple[Swing, ...]:
        n = self.rank
        stems: dict[tuple[str, tuple[Coord, ...]], tuple[Coord, ...]] = {}
        for path in self._sectional_paths:
            fork = tuple(c for c in path.coords if c[0] >= n - 1)
            if len(fork) == 2:
                stems[path.kind, fork] = tuple(c for c in path.coords if c[0] <= n - 2)
        swings = []
        for (kind, fork), s_part in stems.items():
            n_part = stems.get(("N", fork))
            if kind == "S" and n_part is not None:
                shared = {s for s in self.common_summands(s_part + fork + n_part) if s > 0}
                label = shared.pop() if len(shared) == 1 else 0
                swings.append(Swing(label, s_part, fork, n_part))
        return tuple(sorted(swings, key=lambda s: s.shared_index))

    def common_summands(self, coords) -> set[int]:
        """The signed epsilon summands (a for e_a, -k for -e_k) of every root at coords."""
        forms = (set(rs.epsilon_form(self.datum, self.root_at[c])) for c in coords)
        return set.intersection(*forms)

    # --- export ---------------------------------------------------------------

    def to_json_dict(self) -> dict:
        verts = self.vertices
        index = {c: i for i, c in enumerate(verts)}
        vertices = []
        for level, p in verts:
            root = self.root_at[(level, p)]
            if self.datum.diagram_type == "D":
                eps = rs.epsilon_form(self.datum, root)
                eps_out = [eps.a, eps.b_signed]
            else:
                eps_out = None
            vertices.append(
                {"level": level, "p": p, "coeffs": list(root), "eps": eps_out}
            )
        arrows = sorted(
            [index[a], index[b]] for a, b in self.arrows
        )
        return {
            "diagram": {
                "type": self.datum.diagram_type,
                "rank": self.rank,
                "arrows": [list(a) for a in self.quiver.arrows],
            },
            "vertices": vertices,
            "arrows": arrows,
            "m": list(self.m),
            "xi": list(self.xi),
        }

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_json_dict(), indent=2)

    def to_dot(self) -> str:
        verts = self.vertices
        lines = ["digraph gamma_q {", "  rankdir=LR;", '  node [shape=box];']
        by_column: dict[int, list[Coord]] = {}
        for c in verts:
            by_column.setdefault(c[1], []).append(c)
        for level, p in verts:
            root = self.root_at[(level, p)]
            label = rs.format_root(self.datum, root)
            lines.append(f'  "v_{level}_{p}" [label="{label} @({level},{p})"];')
        for p in sorted(by_column):
            names = " ".join(f'"v_{i}_{q}"' for i, q in sorted(by_column[p]))
            lines.append(f"  {{ rank=same; {names} }}")
        for (a, b) in sorted(self.arrows):
            lines.append(f'  "v_{a[0]}_{a[1]}" -> "v_{b[0]}_{b[1]}";')
        lines.append("}")
        return "\n".join(lines)


def build(quiver: DynkinQuiver, xi, validate: bool = True) -> ARQuiver:
    """Knit Gamma_Q from the seeds (i, xi_i) -> eta_i, read off xi, by repeated tau steps."""
    datum = quiver.datum
    xi = tuple(xi)
    check_height_function(quiver, xi)
    tau = coxeter_word(quiver)
    root_at: dict[Coord, Root] = {}
    m = []
    for i in datum.vertices:
        beta = eta_from_heights(datum, xi, i)
        p = xi[i - 1]
        for _ in range(datum.num_positive_roots):  # the most a tau-orbit can hold
            root_at[(i, p)] = beta
            sign, image = rs.apply_word(datum, tau, beta)
            if sign < 0:
                break
            p -= 2
            beta = image
        else:
            raise ARQuiverError(
                f"tau-orbit of level {i} still positive after {datum.num_positive_roots} steps"
            )
        m.append((xi[i - 1] - p) // 2)
    arrows = set()
    for (i, p) in root_at:
        for j in datum.neighbor_table[i]:
            if (j, p + 1) in root_at:
                arrows.add(((i, p), (j, p + 1)))
    ar = ARQuiver(quiver, xi, root_at, frozenset(arrows), tuple(m))
    if validate:
        message = validate_build(ar)
        if message is not None:
            raise ARQuiverError(message)
    return ar


# --- the defining invariants, shared by build(validate=True) and verify ---------

def check_vertex_range(ar: ARQuiver) -> Optional[str]:
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


def check_nakayama(ar: ARQuiver) -> Optional[str]:
    """xi_(i*) - 2m_(i*) = xi_i - h + 2 at every level."""
    datum = ar.datum
    star = rs.longest_element_star(datum)
    h = datum.coxeter_number
    for i in datum.vertices:
        lhs = ar.xi[star[i] - 1] - 2 * ar.m[star[i] - 1]
        rhs = ar.xi[i - 1] - h + 2
        if lhs != rhs:
            return f"level {i}: xi_(i*) - 2m_(i*) = {lhs} != xi_i - h + 2 = {rhs}"
    return None


def check_mesh_additivity(ar: ARQuiver) -> Optional[str]:
    """beta + tau(beta) equals the sum over arrow sources into beta."""
    root_at, arrows, neighbors = ar.root_at, ar.arrows, ar.datum.neighbor_table
    for (i, p), root in root_at.items():
        prev = root_at.get((i, p - 2))
        if prev is None:
            continue
        mesh = (0,) * ar.rank
        for j in neighbors.get(i, ()):
            src = (j, p - 1)
            if src in root_at and (src, (i, p)) in arrows:
                mesh = tuple(map(add, mesh, root_at[src]))
        if mesh != tuple(map(add, root, prev)):
            return f"mesh fails at ({i},{p})"
    return None


def check_arrow_rule(ar: ARQuiver) -> Optional[str]:
    """Arrows are exactly (i,p)->(j,p+1) for adjacent levels."""
    neighbors = ar.datum.neighbor_table
    for a, b in ar.arrows:
        if b[1] != a[1] + 1 or b[0] not in neighbors.get(a[0], ()):
            return f"arrow {a}->{b} malformed"
    expected = {((i, p), (j, p + 1)) for i, p in ar.root_at
                for j in neighbors.get(i, ()) if (j, p + 1) in ar.root_at}
    if expected != ar.arrows:
        extra = ar.arrows - expected
        missing = expected - ar.arrows
        return f"arrow set off: extra {sorted(extra)}, missing {sorted(missing)}"
    return None


BUILD_CHECKS = (check_vertex_range, check_nakayama, check_mesh_additivity, check_arrow_rule)


def validate_build(ar: ARQuiver) -> Optional[str]:
    """The first diagnostic of BUILD_CHECKS, or None when every one holds.

    A failure here means the builder itself is wrong.
    """
    for check in BUILD_CHECKS:
        message = check(ar)
        if message is not None:
            return message
    return None


def from_json_dict(payload: dict) -> ARQuiver:
    """Rebuild from the export schema and check it reproduces the same quiver."""
    try:
        diagram = payload["diagram"]
        datum = CartanDatum(diagram["type"], diagram["rank"])
        quiver = DynkinQuiver.from_arrows(datum, [tuple(a) for a in diagram["arrows"]])
        ar = build(quiver, tuple(payload["xi"]))
        rebuilt = ar.to_json_dict()
        if rebuilt["vertices"] != payload["vertices"]:
            raise ARQuiverError("vertex table does not match the rebuilt quiver")
        if rebuilt["arrows"] != [list(a) for a in payload["arrows"]]:
            raise ARQuiverError("arrow table does not match the rebuilt quiver")
        if rebuilt["m"] != list(payload["m"]):
            raise ARQuiverError("m values do not match the rebuilt quiver")
    except (QuiverError, rs.RootSystemError, ARQuiverError):
        raise  # these already name the fault in the diagram or height function
    except (LookupError, TypeError, ValueError) as exc:
        raise ARQuiverError(f"malformed quiver payload: {type(exc).__name__}: {exc}") from None
    return ar


def from_json(text: str) -> ARQuiver:
    import json

    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise ARQuiverError(f"not JSON: {exc}") from None
    return from_json_dict(payload)
