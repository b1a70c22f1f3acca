import json
import re
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arquiver import ar_quiver, verify
from arquiver import quiver as quiver_module
from arquiver import root_system as rs
from arquiver.ar_quiver import ARQuiver, ARQuiverError, Coord, SectionalPath, Swing
from arquiver.quiver import (
    DynkinQuiver,
    all_orientations,
    check_height_function,
    coxeter_word,
    make_height_function,
    parse_arrow_spec,
)
from arquiver.root_system import CartanDatum, EpsilonForm

from conftest import EXAMPLE1_GRID, eta_zeta


def eps_of(ar, coord):
    form = rs.epsilon_form(ar.datum, ar.root_at[coord])
    return (form.a, form.b_signed)


def swapped(ar, x, y):
    """A copy of ar in which the roots at x and y have traded places."""
    root_at = dict(ar.root_at)
    root_at[x], root_at[y] = root_at[y], root_at[x]
    return ARQuiver(ar.quiver, ar.xi, root_at, ar.arrows, ar.m)


def without_swing(ar, index):
    """A copy of ar whose swings() has lost the index-swing."""
    copy = ARQuiver(ar.quiver, ar.xi, ar.root_at, ar.arrows, ar.m)
    copy._swings = tuple(s for s in ar.swings() if s.shared_index != index)
    return copy


def test_example1_grid_exact(example1_ar):
    got = {coord: eps_of(example1_ar, coord) for coord in example1_ar.root_at}
    assert got == EXAMPLE1_GRID
    assert example1_ar.m == (2, 2, 2, 2)
    assert example1_ar.xi == (-2, -1, 0, -2)


def test_d5_spin_depths_split_by_parity():
    d5 = CartanDatum("D", 5)
    quiver = parse_arrow_spec(d5, "1>2,2>3,3>4,5>3")
    xi = make_height_function(quiver, 5, 0)
    assert xi[4] == xi[3] + 2  # xi_5 = xi_4 + 2
    ar = ar_quiver.build(quiver, xi)
    assert ar.m[:3] == (3, 3, 3)
    assert (ar.m[3], ar.m[4]) == (2, 4)


def test_simple_root_coords(example1_ar, d4):
    coords = {k: example1_ar.coord_of(d4.simple_root(k)) for k in d4.vertices}
    assert coords[3] == (3, 0)  # source
    assert coords[1] == (1, -6)  # sink
    assert coords[4] == (4, -6)  # sink
    assert coords[2] == (3, -2)  # mixed branch vertex


def test_left_intermediate_simple_root_position():
    d5 = CartanDatum("D", 5)
    quiver = parse_arrow_spec(d5, "1>2,2>3,3>4,3>5")
    xi = make_height_function(quiver, 5, 0)
    ar = ar_quiver.build(quiver, xi)
    # vertex 2 is a left intermediate: alpha_2 at (1, xi_2 - 1)
    assert ar.coord_of(d5.simple_root(2)) == (1, xi[1] - 1)


def test_level_pair_sum(example1_ar):
    # column -4 holds the spin pair <1,3>, <1,-3>, summing to 2e_1; column 0 holds one root
    assert eps_of(example1_ar, (3, -4)) == (1, 3)
    assert eps_of(example1_ar, (4, -4)) == (1, -3)
    assert (3, 0) in example1_ar.root_at and (4, 0) not in example1_ar.root_at
    assert example1_ar.t_index == 3
    assert example1_ar.t_prime_index == 4
    assert verify.check_level_pair_sums(example1_ar) is None
    faulted = swapped(example1_ar, (4, -4), (4, -2))
    assert verify.check_level_pair_sums(faulted) == (
        "column -4: pair ['<1,3>', '<2,3>'] != <1,+-3>"
    )


def test_spin_indices_exist_only_in_type_d():
    a3 = CartanDatum("A", 3)
    quiver = parse_arrow_spec(a3, "1>2,2>3")
    ar = ar_quiver.build(quiver, make_height_function(quiver, 3, 0))
    for name in ("t_index", "t_prime_index"):
        with pytest.raises(ARQuiverError, match="only in type D"):
            getattr(ar, name)


@pytest.mark.parametrize("rank", range(4, 9))
def test_spin_indices_are_the_two_spin_levels(rank):
    for quiver in all_orientations(CartanDatum("D", rank)):
        ar = ar_quiver.build(quiver, make_height_function(quiver, rank, 0), validate=False)
        assert {ar.t_index, ar.t_prime_index} == {rank - 1, rank}


def test_level_pair_equal_heights():
    d4 = CartanDatum("D", 4)
    quiver = parse_arrow_spec(d4, "1>2,2>3,2>4")
    xi = make_height_function(quiver, 4, 0)
    ar = ar_quiver.build(quiver, xi)
    assert ar.t_index == 4
    columns = {q for (i, q) in ar.root_at if i == 3} & {q for (i, q) in ar.root_at if i == 4}
    assert columns == {-4, -2, 0}
    for p in columns:
        forms = {abs(rs.epsilon_form(d4, ar.root_at[i, p]).b_signed) for i in (3, 4)}
        assert forms == {4}
    assert verify.check_level_pair_sums(ar) is None
    message = verify.check_level_pair_sums(swapped(ar, (4, 0), (1, 0)))
    assert message is not None and message.startswith("column 0: pair")


def test_triangle_apex(example1_ar):
    # k = 1 pairs sit at the same spin level, two columns apart, with apex (2, -3)
    root_at = example1_ar.root_at
    for pair in (((3, -4), (3, -2)), ((4, -4), (4, -2))):
        assert tuple(map(sum, zip(*(root_at[c] for c in pair)))) == root_at[2, -3]
    assert verify.check_triangle(example1_ar) is None
    assert verify.check_triangle(swapped(example1_ar, (2, -3), (2, -5))) == (
        "triangle at (3, -4),(3, -2): apex (2, -3) does not hold the sum of the pair"
    )


def test_swings_example1(example1_ar):
    swings = example1_ar.swings()
    assert [s.shared_index for s in swings] == [1, 2]
    by_index = {s.shared_index: s for s in swings}
    one = by_index[1]
    labels = {eps_of(example1_ar, c) for c in one.coords}
    assert labels == {(1, -2), (1, 4), (1, 3), (1, -3), (1, 2), (1, -4)}
    assert len(one.coords) == 2 * 4 - 1 - 1
    two = by_index[2]
    assert len(two.coords) == 2 * 4 - 2 - 1
    assert two.fork == ((3, -2), (4, -2))


@pytest.mark.parametrize("stem, missed, sigma_kappa, longest", [
    (0, (1, 1, 1, 1, 0), "sum of kappa is not 2*e_1 (epsilon coords (1, 0, 0, 1, 0))", None),
    # (3, -3) is on the 1-swing's S-stem and the 2-swing's N-stem, and holds e_1+e_2
    (-1, (1, 2, 2, 1, 1), "kappa_4 class -5 lies on no single broom",
     "e_1+e_2 at (5, -8), formula gives (3, -3)"),
], ids=["first-stem-root", "stem-root-on-two-swings"])
def test_a_swing_that_loses_a_carrier_keeps_its_size_label(stem, missed, sigma_kappa, longest):
    d5 = CartanDatum("D", 5)
    quiver = parse_arrow_spec(d5, "1>2,2>3,3>4,5>3")
    ar = ar_quiver.build(quiver, make_height_function(quiver, 5, 0))
    swings = ar.swings()
    on_swings = {c for swing in swings for c in swing.coords}
    off = min(set(ar.root_at) - on_swings)
    assert off == (5, -8)
    faulted = swapped(ar, swings[0].s_part[stem], off)
    assert [s.shared_index for s in faulted.swings()] == [1, 2, 3]
    assert verify.check_swing_shapes(faulted) == (
        f"1-swing misses carriers {{{missed}}} or adds extras"
    )
    assert verify.check_mesh_additivity(faulted) is not None
    assert verify.check_sigma_kappa(faulted) == sigma_kappa
    assert verify.check_longest_root(faulted) == longest


def test_sectional_paths_example1(example1_ar):
    paths = example1_ar.sectional_paths()
    coord_sets = {frozenset(p.coords) for p in paths}
    # the -e4 class runs up the S-diagonal, the +e4 class down the N-diagonal
    assert frozenset({(1, -2), (2, -1), (3, 0)}) in coord_sets
    assert frozenset({(4, -6), (2, -5), (1, -4)}) in coord_sets
    for path in paths:
        assert not path.shallow  # none exist in this small example


def _arrow_kind(n, diagram_type, a, b):
    """The paper's rule: which kind of sectional arrow a -> b is, if any."""
    i, j = a[0], b[0]
    if diagram_type == "A":
        return "S" if j == i + 1 else "N"
    if (i <= n - 2 and j == i + 1) or (i == n - 2 and j == n):
        return "S"
    if (2 <= i <= n - 1 and j == i - 1) or (i == n and j == n - 2):
        return "N"
    return None


def _arrow_components(ar, kind):
    """Connected components with two or more vertices of one arrow kind."""
    neighbours = {}
    for a, b in ar.arrows:
        if _arrow_kind(ar.rank, ar.datum.diagram_type, a, b) == kind:
            neighbours.setdefault(a, []).append(b)
            neighbours.setdefault(b, []).append(a)
    seen, components = set(), []
    for start in sorted(neighbours):
        if start in seen:
            continue
        seen.add(start)
        queue, members = deque([start]), []
        while queue:
            c = queue.popleft()
            members.append(c)
            for d in neighbours[c]:
                if d not in seen:
                    seen.add(d)
                    queue.append(d)
        components.append(tuple(sorted(members, key=lambda c: (c[1], c[0]))))
    return sorted(components)


@pytest.mark.parametrize(
    "diagram_type, rank",
    [("D", n) for n in range(4, 8)] + [("A", n) for n in range(1, 6)],
)
def test_sectional_paths_are_the_arrow_components(diagram_type, rank):
    datum = CartanDatum(diagram_type, rank)
    for quiver in all_orientations(datum):
        ar = ar_quiver.build(quiver, make_height_function(quiver, rank, 0))
        expected = [("S", c) for c in _arrow_components(ar, "S")]
        expected += [("N", c) for c in _arrow_components(ar, "N")]
        assert [(p.kind, p.coords) for p in ar.sectional_paths()] == expected


def _reference_sectional_paths(self):
    """The former body of ``ARQuiver._sectional_paths``: each diagonal sorted
    on its own, its levels listed, and the brooms sorted by their whole coords."""
    n = self.rank
    is_d = self.datum.diagram_type == "D"
    top = n - 1 if is_d else n
    paths = []
    for kind, sign in (("S", -1), ("N", 1)):
        diagonals = {}
        for i, p in self.root_at:
            diagonals.setdefault(p + sign * min(i, top), []).append((i, p))
        brooms = []
        for coords in diagonals.values():
            levels = [i for i, _ in coords]
            if len(coords) < 2 or (is_d and min(levels) > n - 2):
                continue
            coords.sort(key=lambda c: (c[1], c[0]))
            shallow = is_d and max(levels) <= n - 2
            brooms.append(SectionalPath(kind=kind, coords=tuple(coords), shallow=shallow))
        paths += sorted(brooms, key=lambda path: path.coords)
    return tuple(paths)


@pytest.mark.parametrize(
    "diagram_type, rank", [("A", n) for n in range(1, 8)] + [("D", n) for n in range(4, 10)]
)
def test_sectional_paths_equal_their_former_body(diagram_type, rank):
    datum = CartanDatum(diagram_type, rank)
    for quiver in all_orientations(datum):
        ar = ar_quiver.build(quiver, make_height_function(quiver, rank, 0))
        assert ar._sectional_paths == _reference_sectional_paths(ar)


def test_stemless_spin_pair_is_no_path():
    d4 = CartanDatum("D", 4)
    quiver = parse_arrow_spec(d4, "1>2,2>3,2>4")
    ar = ar_quiver.build(quiver, make_height_function(quiver, 4, 0))
    pair = {(3, -4), (4, -4)}
    # one S-diagonal (equal p - min(i, 3)) holds both, but no S-arrow reaches
    # them: they are tips of an N-broom only
    assert pair <= set(ar.root_at) and (2, -5) not in ar.root_at
    holding = [p.kind for p in ar.sectional_paths() if pair <= set(p.coords)]
    assert holding == ["N"]
    assert not any(set(p.coords) <= pair for p in ar.sectional_paths())


def _reference_stem_swings(self):
    """The former body of ``ARQuiver._swings``: each path's coords filtered by
    level into its fork and its stem."""
    n = self.rank
    stems = {}
    for path in self._sectional_paths:
        fork = tuple(c for c in path.coords if c[0] >= n - 1)
        if len(fork) == 2:
            stems[path.kind, fork] = tuple(c for c in path.coords if c[0] <= n - 2)
    swings = []
    for (kind, fork), s_part in stems.items():
        n_part = stems.get(("N", fork))
        if kind == "S" and n_part is not None:
            label = 2 * n - 1 - len(s_part + fork + n_part)
            swings.append(Swing(label, s_part, fork, n_part))
    return tuple(sorted(swings, key=lambda s: s.shared_index))


def _moved_or_dropped(ar):
    """Copies of ar with one vertex dropped, or moved by +-1, +-2 or +-3 columns."""
    for (i, p), root in sorted(ar.root_at.items()):
        root_at = dict(ar.root_at)
        del root_at[i, p]
        yield ARQuiver(ar.quiver, ar.xi, root_at, ar.arrows, ar.m)
        for shift in (-3, -2, -1, 1, 2, 3):
            if (i, p + shift) not in root_at:
                moved = {**root_at, (i, p + shift): root}
                yield ARQuiver(ar.quiver, ar.xi, moved, ar.arrows, ar.m)


@pytest.mark.parametrize("rank", range(4, 10))
def test_swings_equal_their_former_stem_scan(rank):
    for quiver in all_orientations(CartanDatum("D", rank)):
        ar = ar_quiver.build(quiver, make_height_function(quiver, rank, 0))
        assert ar._swings == _reference_stem_swings(ar)
        if rank <= 6:
            for faulted in _moved_or_dropped(ar):
                assert faulted._swings == _reference_stem_swings(faulted)


def test_sigma_kappa_example1(example1_ar):
    # sigma: level 3 minus the simple alpha_3 at (3, 0); kappa: level 1; columns descending
    assert [eps_of(example1_ar, (3, p)) for p in (-2, -4)] == [(2, -3), (1, 3)]
    assert (3, 0) == example1_ar.coord_of(example1_ar.datum.simple_root(3))
    assert {p for (i, p) in example1_ar.root_at if i == 1} == {-2, -4, -6}
    kappa = [eps_of(example1_ar, (1, p)) for p in (-2, -4, -6)]
    assert [b for _, b in kappa] == [-4, 4, -2]  # the fold is at position 2
    total = [0] * 4
    for p in (-2, -4, -6):
        for i, c in enumerate(example1_ar.root_at[1, p]):
            total[i] += c
    assert rs.epsilon_coords(example1_ar.datum, tuple(total)) == (2, 0, 0, 0)
    assert verify.check_sigma_kappa(example1_ar) is None
    assert verify.check_sigma_kappa(without_swing(example1_ar, 2)) == "sigma_1 not in its 2-swing"
    # a D5 copy whose kappa loses its adjacent +-t' pair
    d5 = CartanDatum("D", 5)
    quiver = parse_arrow_spec(d5, "1>2,2>3,3>4,3>5")
    ar = ar_quiver.build(quiver, make_height_function(quiver, 5, 0))
    assert verify.check_sigma_kappa(ar) is None
    assert verify.check_sigma_kappa(swapped(ar, (1, -3), (1, 3))) == (
        "kappa sequence has no adjacent +-4 pair"
    )


def test_longest_root_coord(example1_ar):
    gamma = rs.root_from_epsilon(example1_ar.datum, EpsilonForm(1, 2))
    assert example1_ar.coord_of(gamma) == (2, -3)  # vertex 1 is a sink: xi_1 - n + 3
    assert example1_ar.xi[0] - 4 + 3 == -3
    assert verify.check_longest_root(example1_ar) is None
    assert verify.check_longest_root(swapped(example1_ar, (2, -3), (2, -5))) == (
        "e_1+e_2 at (2, -5), formula gives (2, -3)"
    )
    assert verify.check_longest_root(without_swing(example1_ar, 2)) == (
        "swing indices [1] lack 1 or 2"
    )
    # source case
    d4 = CartanDatum("D", 4)
    quiver = parse_arrow_spec(d4, "1>2,2>3,2>4")
    xi = make_height_function(quiver, 4, 0)
    ar = ar_quiver.build(quiver, xi)
    assert ar.coord_of(rs.root_from_epsilon(d4, EpsilonForm(1, 2))) == (4 - 2, xi[0] - 4 + 1)
    assert verify.check_longest_root(ar) is None


def test_prec(example1_ar):
    a = example1_ar.root_at[(3, -2)]  # <2,-3>
    b = example1_ar.root_at[(3, -4)]  # <1,3>
    assert example1_ar.prec(a, b)
    assert not example1_ar.prec(b, a)
    assert not example1_ar.prec(a, a)
    first = example1_ar.root_at[(3, 0)]  # <3,-4>, read first in every order
    assert example1_ar.descendants((3, 0)) == frozenset()
    assert example1_ar.prec(first, example1_ar.root_at[(2, -1)])


def _reference_closure(self) -> dict[Coord, frozenset[Coord]]:
    """The former frozenset closure of the path order, over the grid's arrows
    (i,p) -> (j,p+1), kept as the reference."""
    neighbors = self.datum.neighbor_table
    closure: dict[Coord, frozenset[Coord]] = {}
    for c in sorted(self.root_at, key=lambda c: -c[1]):
        i, p = c
        acc: set[Coord] = set()
        for j in neighbors[i]:
            nxt = (j, p + 1)
            if nxt in self.root_at:
                acc.add(nxt)
                acc |= closure[nxt]
        closure[c] = frozenset(acc)
    return closure


def _closure_over(coords, arrows) -> dict[Coord, frozenset[Coord]]:
    """Every coordinate reachable from each coordinate along the given arrows."""
    targets: dict[Coord, set[Coord]] = {c: set() for c in coords}
    for a, b in arrows:
        targets[a].add(b)
    closure = {}
    for c in coords:
        seen, stack = set(), [c]
        while stack:
            for nxt in targets[stack.pop()] - seen:
                seen.add(nxt)
                stack.append(nxt)
        closure[c] = frozenset(seen)
    return closure


@pytest.mark.parametrize(
    "diagram, rank", [("A", n) for n in range(1, 7)] + [("D", n) for n in range(4, 9)]
)
def test_path_order_bitsets_equal_the_frozenset_closure(diagram, rank):
    datum = CartanDatum(diagram, rank)
    for quiver in all_orientations(datum):
        ar = ar_quiver.build(quiver, make_height_function(quiver, rank, 0))
        closure = _reference_closure(ar)
        for coord, below in closure.items():
            assert ar.descendants(coord) == below
        for a, root_a in ar.root_at.items():
            for b, root_b in ar.root_at.items():
                assert ar.prec(root_a, root_b) == (a in closure[b])


@pytest.mark.parametrize("rank", [4, 5])
def test_path_order_follows_the_stored_arrows(rank):
    # a hand-built quiver short of one arrow orders its roots by the arrows it
    # holds, not by the grid the arrow rule would knit
    for quiver in all_orientations(CartanDatum("D", rank)):
        ar = ar_quiver.build(quiver, make_height_function(quiver, rank, 0))
        for dropped in sorted(ar.arrows):
            arrows = ar.arrows - {dropped}
            broken = ARQuiver(ar.quiver, ar.xi, ar.root_at, arrows, ar.m)
            closure = _closure_over(ar.root_at, arrows)
            # every arrow raises the column by one, so no other path replaces it
            assert dropped[1] not in closure[dropped[0]]
            for coord, below in closure.items():
                assert broken.descendants(coord) == below, (dropped, coord)
            for a, root_a in ar.root_at.items():
                for b, root_b in ar.root_at.items():
                    assert broken.prec(root_a, root_b) == (a in closure[b]), (dropped, a, b)


def test_prec_names_a_root_outside_the_quiver(example1_ar):
    inside = example1_ar.root_at[(3, 0)]
    for outside in ((1, 0, 1, 0), (2, 0, 0, 0)):
        for args in ((outside, inside), (inside, outside)):
            with pytest.raises(ARQuiverError, match=re.escape(f"{outside} is not a positive root")):
                example1_ar.prec(*args)


def test_nfree_region(example1_ar):
    # the window's extremes are the columns of the spin-level roots of height >= 2
    spin_tall = [p for (i, p), root in example1_ar.root_at.items()
                 if i in (3, 4) and rs.ht(root) >= 2]
    hi, lo = max(spin_tall), min(spin_tall)
    assert (hi, lo) == (-2, -4)
    assert hi - lo == 2 * (4 - 3)
    assert [c for c, root in example1_ar.root_at.items() if rs.mul(root) >= 2] == [(2, -3)]
    assert verify.check_nfree_region(example1_ar) is None  # the only tall root is inside
    for outside in ((1, -2), (3, -4)):
        faulted = swapped(example1_ar, (2, -3), outside)
        assert verify.check_nfree_region(faulted) == (
            f"tall root (1, 2, 1, 1) at {outside} escapes the window"
        )


def test_xi_shift_moves_columns(example1_quiver, example1_ar):
    shifted = ar_quiver.build(
        example1_quiver, make_height_function(example1_quiver, 3, 6)
    )
    assert shifted.m == example1_ar.m
    for root, (level, p) in example1_ar.phi.items():
        assert shifted.phi[root] == (level, p + 6)


def test_type_a_build_and_guards():
    a3 = CartanDatum("A", 3)
    quiver = parse_arrow_spec(a3, "1>2,2>3")
    ar = ar_quiver.build(quiver, make_height_function(quiver, 3, 0))
    assert len(ar.root_at) == 6
    with pytest.raises(ARQuiverError):
        ar.swings()


def test_a_kernel_that_never_turns_negative_fails_the_build(monkeypatch, example1_quiver):
    # every s_i row fixes every root, so no tau-orbit ever turns negative
    table = rs.root_table(example1_quiver.datum)
    identity = tuple(range(len(table.roots)))
    endless = table._replace(rows=(identity,) * len(table.rows))
    monkeypatch.setattr(ar_quiver.rs, "root_table", lambda datum: endless)
    with pytest.raises(ARQuiverError, match="still positive after 12 steps"):
        ar_quiver.build(example1_quiver, make_height_function(example1_quiver, 3, 0))
    task = (DynkinQuiver.from_bitmask(CartanDatum("D", 4), 0), ("structure",))
    records = verify._run_orientation_task(task)
    assert [(r.check_id, r.status) for r in records] == [("build", "fail")]


def _reference_build(quiver, xi):
    """The former body of ``ar_quiver.build`` without validation: each eta_i
    from its own ``eta_zeta`` height walk."""
    datum = quiver.datum
    xi = tuple(xi)
    check_height_function(quiver, xi)
    tau = coxeter_word(quiver)
    root_at, m = {}, []
    for i in datum.vertices:
        beta, _ = eta_zeta(quiver, i)
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
    return ARQuiver(quiver, xi, root_at, frozenset(arrows), tuple(m))


@pytest.mark.parametrize(
    "diagram, rank", [("A", n) for n in range(1, 8)] + [("D", n) for n in range(4, 10)]
)
def test_build_equals_its_reference(diagram, rank):
    datum = CartanDatum(diagram, rank)
    for quiver in all_orientations(datum):
        xi = make_height_function(quiver, 1, 3)
        ar, expected = ar_quiver.build(quiver, xi), _reference_build(quiver, xi)
        assert ar.root_at == expected.root_at
        assert ar.arrows == expected.arrows
        assert (ar.m, ar.xi) == (expected.m, expected.xi)


def test_build_reads_tau_off_the_heights_it_is_given(monkeypatch):
    # tau's letters come from xi alone: no Coxeter word is peeled and no second
    # height function is walked, whether build or coxeter_word would look the name up
    inputs = [(quiver, make_height_function(quiver, 1, 3))
              for rank in (4, 5, 6) for quiver in all_orientations(CartanDatum("D", rank))]
    calls = {"coxeter_word": 0, "make_height_function": 0}

    def counting(name, original):
        def counted(*args):
            calls[name] += 1
            return original(*args)
        return counted

    for module in (ar_quiver, quiver_module):
        for name in calls:
            original = getattr(quiver_module, name)
            monkeypatch.setattr(module, name, counting(name, original), raising=False)
    for quiver, xi in inputs:
        ar_quiver.build(quiver, xi)
    assert calls == {"coxeter_word": 0, "make_height_function": 0}
    # the counters are live: coxeter_word still walks its own height function
    coxeter_word(inputs[0][0])
    assert calls == {"coxeter_word": 0, "make_height_function": 1}


def _reference_check_mesh_additivity(ar):
    """The former body of ``ar_quiver.check_mesh_additivity``, reading the grid's
    arrows (j,p-1) -> (i,p) into each vertex."""
    for (i, p), root in ar.root_at.items():
        prev = ar.root_at.get((i, p - 2))
        if prev is None:
            continue
        mesh = [0] * ar.rank
        for j in ar.datum.neighbor_table[i]:
            src = (j, p - 1)
            if src not in ar.root_at or (src, (i, p)) not in ar.arrows:
                continue
            for idx, c in enumerate(ar.root_at[src]):
                mesh[idx] += c
        if tuple(mesh) != tuple(a + b for a, b in zip(root, prev)):
            return f"mesh fails at ({i},{p})"
    return None


@pytest.mark.parametrize("rank", range(4, 8))
def test_mesh_check_equals_its_reference(rank):
    for quiver in all_orientations(CartanDatum("D", rank)):
        ar = ar_quiver.build(quiver, make_height_function(quiver, rank, 0))
        assert ar_quiver.check_mesh_additivity(ar) is _reference_check_mesh_additivity(ar) is None
        if rank > 5:
            continue
        coords = sorted(ar.root_at)
        for k, x in enumerate(coords):
            for y in coords[k + 1:]:
                faulted = swapped(ar, x, y)
                message = ar_quiver.check_mesh_additivity(faulted)
                assert message == _reference_check_mesh_additivity(faulted), (x, y)


def test_mesh_check_counts_only_the_arrows_in_the_quiver(example1_ar):
    # the grid offers every neighbour source; the mesh sums only those ar.arrows holds
    messages = set()
    for dropped in sorted(example1_ar.arrows):
        broken = ARQuiver(example1_ar.quiver, example1_ar.xi, example1_ar.root_at,
                          example1_ar.arrows - {dropped}, example1_ar.m)
        message = ar_quiver.check_mesh_additivity(broken)
        assert message == _reference_check_mesh_additivity(broken), dropped
        messages.add(message)
    assert "mesh fails at (2,-1)" in messages


def test_mesh_and_arrow_checks_name_a_stray_level(example1_ar):
    # a vertex at level 0 is outside the diagram: a message, not a KeyError
    root_at = dict(example1_ar.root_at)
    root_at[(0, -2)] = root_at[(0, -4)] = (1, 0, 0, 0)
    stray = ARQuiver(example1_ar.quiver, example1_ar.xi, root_at,
                     example1_ar.arrows | {((0, -3), (1, -2))}, example1_ar.m)
    assert ar_quiver.check_mesh_additivity(stray) == "mesh fails at (0,-2)"
    assert ar_quiver.check_arrow_rule(stray) == "arrow (0, -3)->(1, -2) malformed"
    assert ar_quiver.check_arrow_rule(stray) == _reference_check_arrow_rule(stray)


def test_a_label_outside_the_positive_roots_fails_mesh_and_triangle(example1_ar):
    # alpha_1 + alpha_3 is no root (1 and 3 are not adjacent), so it has no
    # packed code; (2,-3) is a mesh source into (1,-2) and the apex of (3,-4), (3,-2)
    root_at = dict(example1_ar.root_at)
    root_at[2, -3] = (1, 0, 1, 0)
    stray = ARQuiver(example1_ar.quiver, example1_ar.xi, root_at, example1_ar.arrows, example1_ar.m)
    assert ar_quiver.check_mesh_additivity(stray) == "mesh fails at (1,-2)"
    assert verify.check_triangle(stray) == (
        "triangle at (3, -4),(3, -2): apex (2, -3) does not hold the sum of the pair"
    )
    # the build checks report the labelling before the mesh
    message = "vertex labels are not a bijection with the positive roots"
    assert ar_quiver.check_vertex_range(stray) == message
    assert ar_quiver.validate_build(stray) == message
    # a stray label at a spin vertex fails the first triangle it sits in
    root_at = dict(example1_ar.root_at)
    root_at[3, -2] = (1, 0, 1, 0)
    stray = ARQuiver(example1_ar.quiver, example1_ar.xi, root_at, example1_ar.arrows, example1_ar.m)
    assert verify.check_triangle(stray) == (
        "triangle at (3, -2),(3, 0): apex (2, -1) does not hold the sum of the pair"
    )


def _reference_check_arrow_rule(ar):
    """The former body of ``ar_quiver.check_arrow_rule``, through the adjacency test
    ``j in neighbor_table.get(i, ())`` and a neighbour lookup that finds none off
    the diagram."""
    for a, b in ar.arrows:
        if b[1] != a[1] + 1 or b[0] not in ar.datum.neighbor_table.get(a[0], ()):
            return f"arrow {a}->{b} malformed"
    expected = set()
    for (i, p) in ar.root_at:
        for j in ar.datum.neighbor_table.get(i, ()):
            if (j, p + 1) in ar.root_at:
                expected.add(((i, p), (j, p + 1)))
    if expected != ar.arrows:
        extra = ar.arrows - expected
        missing = expected - ar.arrows
        return f"arrow set off: extra {sorted(extra)}, missing {sorted(missing)}"
    return None


def _arrow_faults(ar):
    """ar with one arrow dropped, or with one malformed or stray arrow added."""
    (i, p), _ = min(ar.arrows)
    far = next(j for j in ar.datum.vertices
               if abs(i - j) > 1 and j not in ar.datum.neighbor_table.get(i, ()))
    j = ar.datum.neighbor_table[i][0]
    added = [((i, p), (i, p + 1)), ((i, p), (far, p + 1)), ((i, p), (0, p + 1)),
             ((i, p), (j, p + 3)), ((99, p), (i, p + 1)), ((i, p + 100), (j, p + 101))]
    for arrows in [ar.arrows - {arrow} for arrow in sorted(ar.arrows)] + [
        ar.arrows | {arrow} for arrow in added
    ]:
        yield ARQuiver(ar.quiver, ar.xi, ar.root_at, frozenset(arrows), ar.m)


@pytest.mark.parametrize("diagram, rank", [("A", 4), ("D", 4), ("D", 5), ("D", 6), ("D", 7)])
def test_arrow_rule_equals_its_reference(diagram, rank):
    for quiver in all_orientations(CartanDatum(diagram, rank)):
        ar = ar_quiver.build(quiver, make_height_function(quiver, rank, 0))
        assert ar_quiver.check_arrow_rule(ar) is _reference_check_arrow_rule(ar) is None
        if rank > 5:
            continue
        for faulted in _arrow_faults(ar):
            message = ar_quiver.check_arrow_rule(faulted)
            assert message is not None and message == _reference_check_arrow_rule(faulted)


def test_json_roundtrip(example1_ar):
    payload = example1_ar.to_json()
    rebuilt = ar_quiver.from_json(payload)
    assert rebuilt.root_at == example1_ar.root_at
    assert rebuilt.arrows == example1_ar.arrows
    assert rebuilt.m == example1_ar.m
    assert rebuilt.xi == example1_ar.xi


@st.composite
def oriented_quivers(draw):
    diagram = draw(st.sampled_from("AD"))
    rank = draw(st.integers(1, 6) if diagram == "A" else st.integers(4, 8))
    datum = CartanDatum(diagram, rank)
    mask = draw(st.integers(0, (1 << len(datum.edges)) - 1))
    return DynkinQuiver.from_bitmask(datum, mask)


@settings(max_examples=60, deadline=None, database=None)
@given(oriented_quivers())
def test_json_round_trip_of_random_orientations(quiver):
    ar = ar_quiver.build(quiver, make_height_function(quiver, quiver.datum.rank, 0))
    assert ar_quiver.from_json(ar.to_json()).to_json_dict() == ar.to_json_dict()


def _bump_m(payload):
    payload["m"][0] += 1


def _flip_eps_sign(payload):
    payload["vertices"][0]["eps"][1] *= -1


def _move_arrow_head(payload):
    payload["arrows"][0][1] += 1


@pytest.mark.parametrize(
    "tamper, message",
    [
        (_bump_m, "m values"),
        (_flip_eps_sign, "vertex table"),
        (_move_arrow_head, "arrow table"),
    ],
    ids=["m", "eps", "arrow"],
)
def test_json_detects_tampering(example1_ar, tamper, message):
    import json

    payload = example1_ar.to_json_dict()
    tamper(payload)
    with pytest.raises(ARQuiverError, match=message):
        ar_quiver.from_json(json.dumps(payload))


def _drop(key):
    return lambda payload: payload.pop(key)


def _set_diagram_arrows(payload):
    payload["diagram"]["arrows"] = "x"


def _set_xi_strings(payload):
    payload["xi"] = ["a", "b", "c", "d"]


@pytest.mark.parametrize(
    "tamper",
    [lambda payload: payload.clear(), _drop("xi"), _drop("vertices"),
     _set_diagram_arrows, _set_xi_strings],
    ids=["empty", "no-xi", "no-vertices", "diagram-arrows", "xi-strings"],
)
def test_malformed_payload_raises_ar_quiver_error(example1_ar, tamper):
    payload = example1_ar.to_json_dict()
    tamper(payload)
    with pytest.raises(ARQuiverError, match="malformed quiver payload"):
        ar_quiver.from_json(json.dumps(payload))


@pytest.mark.parametrize("text", ["[]", '"abc"', "{", ""])
def test_malformed_json_raises_ar_quiver_error(text):
    with pytest.raises(ARQuiverError):
        ar_quiver.from_json(text)


def test_dot_export(example1_ar):
    dot = example1_ar.to_dot()
    assert dot.startswith("digraph")
    assert '"v_3_0" [label="<3,-4> @(3,0)"];' in dot
    assert "rank=same" in dot
    assert '"v_2_-1" -> "v_3_0";' in dot


def test_every_orientation_builds_clean():
    for n in (4, 5):
        datum = CartanDatum("D", n)
        for quiver in all_orientations(datum):
            ar = ar_quiver.build(quiver, make_height_function(quiver, n, 0))
            assert len(ar.root_at) == datum.num_positive_roots
