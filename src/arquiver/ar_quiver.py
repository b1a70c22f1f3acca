"""The Auslander-Reiten quiver Gamma_Q and its combinatorial structure.

The quiver is built by seeding level i at column xi_i with the root eta_i
and stepping left by the Coxeter transformation tau while the image stays
positive.  Vertices are coordinates (level, column); the builder records
the bijection between coordinates and positive roots, the arrow set
((i,p) -> (j,p+1) for adjacent i,j), and the per-level depths m_i.  The
path order (``prec``, ``descendants``) and the readings are read from that
stored arrow set alone.

Maximal sectional paths are modelled as "brooms": a diagonal chain through
levels <= n-2 together with the spin-level tips it runs into (an S-broom
may fork into both levels n-1 and n at its top; an N-broom may start from
both).  They are read off the grid's diagonals: with the folded level
l(i) = min(i, n-1) in type D (l(i) = i in type A), an S-broom is the set of
vertices with one value of p - l(i) and an N-broom the set with one value of
p + l(i), kept when it has two or more members and, in type D, one at a
level <= n-2.  Two roots count as lying on a common sectional path when one
maximal broom contains both.  A swing is read off the brooms' ends: an
S-broom holds spin vertices only in its last column and an N-broom only in
its first, so the swing is the S-broom whose last two coords are the fork
(n-1, u), (n, u) plus the N-broom whose first two coords are that fork.  It
is labelled by its size, as the paper describes Gamma_Q: the a-swing holds
the 2n-a-1 roots with summand +e_a, so a = 2n - 1 - |swing|.

The rest of the paper's description of Gamma_Q (spin-level pairs, triangles,
the place of e_1+e_2, the sigma/kappa sequences, the non-free window) is
stated once, in the ``verify`` checks that test it.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple, Optional

from . import root_system as rs
from .quiver import DynkinQuiver, check_height_function, eta_from_heights
from .root_system import CartanDatum, Root, WeylWord

if TYPE_CHECKING:
    from .orders import ConvexOrder

Coord = tuple[int, int]


class ARQuiverError(rs.ArquiverError):
    pass


class SectionalPath(NamedTuple):
    """A maximal S- or N-broom; coords run in arrow order (column ascending)."""

    kind: str  # "S" or "N"
    coords: tuple[Coord, ...]
    shallow: bool


class Swing(NamedTuple):
    """S-broom into the level-(n-1, n) fork plus the N-broom out of it."""

    shared_index: int  # a = 2n - 1 - len(coords), the +e_a its roots share
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
        self.readings_cache: dict[str, ConvexOrder] = {}
        # the reading words and the (gamma, alpha, beta) no reading makes minimal
        self.oracle: Optional[tuple[frozenset[WeylWord], frozenset[tuple[Root, Root, Root]]]] = None

    # --- basic queries -------------------------------------------------------

    @property
    def rank(self) -> int:
        return self.datum.rank

    @property
    def vertices(self) -> list[Coord]:
        """Coordinates in the stable export order (column, then level)."""
        return sorted(self.root_at, key=itemgetter(1, 0))

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

    # --- reachability / the convex partial order ------------------------------

    @cached_property
    def _path_order(self) -> tuple[tuple[Coord, ...], dict[Root, int], dict[Root, int]]:
        """The path order as int bitsets: (coords, bit, below).

        Vertex coords[k] owns bit 1 << k, coords running columns descending;
        bit maps each root to its bit and below maps it to the mask of every
        vertex reachable from it along the arrows this quiver stores.  Those
        arrows must raise the column (``check_arrow_rule`` proves it of a
        built quiver), so walking them by source column, highest first,
        finishes each down-set before any arrow into its vertex is read.
        """
        root_at = self.root_at
        coords = tuple(sorted(root_at, key=lambda c: (-c[1], c[0])))
        bit = {root_at[c]: 1 << k for k, c in enumerate(coords)}
        below = dict.fromkeys(bit, 0)
        for source, target in sorted(self.arrows, key=lambda arrow: -arrow[0][1]):
            target = root_at[target]
            below[root_at[source]] |= bit[target] | below[target]
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
        by_s: dict[int, list[Coord]] = {}
        by_n: dict[int, list[Coord]] = {}
        for c in self.vertices:  # column, then level: each diagonal comes out in arrow order
            i, p = c
            level = i if i < top else top
            by_s.setdefault(p - level, []).append(c)
            by_n.setdefault(p + level, []).append(c)
        paths: list[SectionalPath] = []
        # the folded level rises along an S-diagonal and falls along an N-diagonal,
        # and only levels above n-2 share one, so a diagonal reaches below n-1 when
        # its `low` end does and stays below n-1 when its `high` end does
        for kind, diagonals, low, high in (("S", by_s, 0, -1), ("N", by_n, -1, 0)):
            # a spin pair (n-1, u), (n, u) with no stem below it is no broom
            brooms = [SectionalPath(kind, tuple(coords), is_d and coords[high][0] <= n - 2)
                      for coords in diagonals.values()
                      if len(coords) > 1 and not (is_d and coords[low][0] > n - 2)]
            # the brooms of one kind are disjoint, so their first coords order them
            paths += sorted(brooms, key=lambda path: path.coords[0])
        return tuple(paths)

    def swings(self) -> list[Swing]:
        """Maximal swings, one per fork column with stems on both sides."""
        if self.datum.diagram_type != "D":
            raise ARQuiverError("swings exist only in type D")
        return list(self._swings)

    @cached_property
    def _swings(self) -> tuple[Swing, ...]:
        # an S- and an N-diagonal share one vertex, or the two of a fork
        # (n-1, u), (n, u): the S-broom's last two coords and the N-broom's first two
        n = self.rank
        n_from = {path.coords[:2]: path.coords for path in self._sectional_paths
                  if path.kind == "N"}
        swings = []
        for path in self._sectional_paths:
            n_coords = n_from.get(path.coords[-2:]) if path.kind == "S" else None
            if n_coords is not None:
                label = 2 * n + 1 - len(path.coords) - len(n_coords)  # the fork is on both
                swings.append(Swing(label, path.coords[:-2], path.coords[-2:], n_coords[2:]))
        return tuple(sorted(swings, key=lambda s: s.shared_index))

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
    """Knit Gamma_Q from the seeds (i, xi_i) -> eta_i, read off xi, by repeated tau steps.

    tau's letters are read off xi as well, so no Coxeter word is peeled; each
    tau step walks a root's index through the s_i rows of ``rs.root_table``.
    """
    datum = quiver.datum
    xi = tuple(xi)
    check_height_function(quiver, xi)
    table = rs.root_table(datum)
    # tau = s_w1 ... s_wn, its letters by descending height (each a source once the
    # higher ones are reflected; equal heights are never adjacent, so ties commute),
    # acts on root indices, its last letter first
    tau_rows = [table.rows[i - 1] for i in sorted(datum.vertices, key=lambda i: xi[i - 1])]
    root_at: dict[Coord, Root] = {}
    m = []
    levels: dict[int, list[Coord]] = {}  # each level's coords, columns descending from xi_i
    for i in datum.vertices:
        k = table.index[eta_from_heights(datum, xi, i)]
        p = xi[i - 1]
        level = levels[i] = []
        for _ in range(datum.num_positive_roots):  # the most a tau-orbit can hold
            level.append(c := (i, p))
            root_at[c] = table.roots[k]
            for row in tau_rows:
                k = row[k] if k >= 0 else ~row[~k]
            if k < 0:
                break
            p -= 2
        else:
            raise ARQuiverError(
                f"tau-orbit of level {i} still positive after {datum.num_positive_roots} steps"
            )
        m.append((xi[i - 1] - p) // 2)
    # (i, p) -> (j, p + 1): level j is one column right of level i when it sits
    # higher, else one column left, so its k-th coord meets i's k-th or (k+1)-th
    arrows = frozenset(
        arrow for i in datum.vertices for j in datum.neighbor_table[i]
        for arrow in zip(levels[i][xi[j - 1] < xi[i - 1]:], levels[j])
    )
    ar = ARQuiver(quiver, xi, root_at, arrows, tuple(m))
    if validate:
        message = validate_build(ar)
        if message is not None:
            raise ARQuiverError(message)
    return ar


# --- the defining invariants, shared by build(validate=True) and verify ---------

def check_vertex_range(ar: ARQuiver) -> Optional[str]:
    """Vertex set is Phi+ spread over columns xi_i - 2m_i .. xi_i."""
    roots = rs.enumerate_positive_roots(ar.datum)
    if ar.phi.keys() != roots or len(ar.root_at) != len(roots):
        return "vertex labels are not a bijection with the positive roots"
    columns: dict[int, set[int]] = {}
    for i, p in ar.root_at:
        columns.setdefault(i, set()).add(p)
    for i in ar.datum.vertices:
        expected = set(range(ar.xi[i - 1] - 2 * ar.m[i - 1], ar.xi[i - 1] + 1, 2))
        actual = columns.get(i, set())
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
    codes = rs.root_table(ar.datum).codes  # a label outside Phi+ has none: its mesh fails
    for (i, p), root in root_at.items():
        prev = root_at.get((i, p - 2))
        if prev is None:
            continue
        try:
            mesh = 0
            for j in neighbors.get(i, ()):
                src = (j, p - 1)
                summand = root_at.get(src)
                if summand is not None and (src, (i, p)) in arrows:
                    mesh += codes[summand]
            holds = mesh == codes[root] + codes[prev]
        except KeyError:
            holds = False
        if not holds:
            return f"mesh fails at ({i},{p})"
    return None


def check_arrow_rule(ar: ARQuiver) -> Optional[str]:
    """Arrows are exactly (i,p)->(j,p+1) for adjacent levels."""
    neighbors, root_at = ar.datum.neighbor_table, ar.root_at
    expected = {((i, p), (j, p + 1)) for i, p in root_at
                for j in neighbors.get(i, ()) if (j, p + 1) in root_at}
    if expected == ar.arrows:  # the rule's arrows are well formed, so none is malformed
        return None
    for a, b in ar.arrows:
        if b[1] != a[1] + 1 or b[0] not in neighbors.get(a[0], ()):
            return f"arrow {a}->{b} malformed"
    extra = ar.arrows - expected
    missing = expected - ar.arrows
    return f"arrow set off: extra {sorted(extra)}, missing {sorted(missing)}"


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


def from_json(text: str) -> ARQuiver:
    """Rebuild from the export schema and check it reproduces the same quiver."""
    import json

    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise ARQuiverError(f"not JSON: {exc}") from None
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
    except rs.ArquiverError:
        raise  # these already name the fault in the diagram or height function
    except (LookupError, TypeError, ValueError) as exc:
        raise ARQuiverError(f"malformed quiver payload: {type(exc).__name__}: {exc}") from None
    return ar
