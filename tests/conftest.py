import pytest

from arquiver import ar_quiver, orders
from arquiver import root_system as rs
from arquiver.orders import OrderError, Verdict
from arquiver.quiver import (
    DynkinQuiver,
    all_orientations,
    eta_from_heights,
    make_height_function,
    parse_arrow_spec,
)
from arquiver.root_system import CartanDatum, Root


def eta_zeta(quiver: DynkinQuiver, i: int) -> tuple[Root, Root]:
    """eta_i sums alpha_j over j with a path j ~> i, zeta_i over i ~> j.

    Reversing every arrow negates xi and turns each path i ~> j into j ~> i,
    so zeta_i is eta_i read off -xi.
    """
    datum = quiver.datum
    xi = make_height_function(quiver, i, 0)
    return eta_from_heights(datum, xi, i), eta_from_heights(datum, [-h for h in xi], i)


def arrow_ends(quiver: DynkinQuiver, i: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(the j with an arrow j -> i, the j with an arrow i -> j), scanned off quiver.arrows.

    The former bodies kept as test references read orientations through this
    scan, not through the height functions the code under test reads.
    """
    into = tuple(src for src, dst in quiver.arrows if dst == i)
    out_of = tuple(dst for src, dst in quiver.arrows if src == i)
    return into, out_of


def _every_orientation(diagram, rank):
    datum = CartanDatum(diagram, rank)
    for quiver in all_orientations(datum):
        yield ar_quiver.build(quiver, make_height_function(quiver, rank, 0))


def _reference_minimal_wrt(order, pair, gamma):
    """The former minimal_wrt, sorting positions through order.position."""
    alpha, beta = pair
    lo, hi = sorted((order.position[alpha], order.position[beta]))
    mid = order.position[gamma]
    for other in rs.root_sums(order.datum)[gamma]:
        x, y = sorted(map(order.position.__getitem__, other))
        if lo < x < mid < y < hi:
            return False
    return True


def _reference_minimality_tag(ar, gamma, pair):
    if ar.datum.diagram_type != "D":
        return None
    for tag in orders.STRATEGIES:
        order = orders.canonical_reading(ar, tag)
        if _reference_minimal_wrt(order, pair, gamma):
            return tag
    return None


def _reference_pairs_of(ar, gamma):
    """The former pairs_of without its cache: each pair oriented through two
    prec calls."""
    if rs.ht(gamma) < 2:
        raise OrderError("simple roots have no pairs")
    sums = rs.root_sums(ar.datum).get(gamma)
    if sums is None:
        raise OrderError(f"{gamma} is not a positive root")
    pairs = [orders.orient_pair(ar, alpha, beta) for alpha, beta in sums]
    pairs.sort(key=lambda ab: ar.coord_of(ab[0]))
    return pairs


def _reference_classify_pair(ar, gamma, pair):
    """The former classify_pair: it scans every other pair of gamma through
    prec and tags through the former minimal_wrt."""
    alpha, beta = orders._check_pair(ar, gamma, pair)
    for other_alpha, other_beta in _reference_pairs_of(ar, gamma):
        if (other_alpha, other_beta) == (alpha, beta):
            continue
        if ar.prec(alpha, other_alpha) and ar.prec(other_beta, beta):
            return orders.PairVerdict(
                gamma, alpha, beta, Verdict.NON_MINIMAL,
                witness=(other_alpha, other_beta),
            )
    tag = _reference_minimality_tag(ar, gamma, (alpha, beta))
    return orders.PairVerdict(gamma, alpha, beta, Verdict.MINIMAL, order_tag=tag)


# The running example: D4 with arrows 2>1, 3>2, 2>4 and xi_3 = 0.
EXAMPLE1_ARROWS = "2>1,3>2,2>4"

# Every vertex of its AR quiver, (level, column) -> <a,+-b>.
EXAMPLE1_GRID = {
    (1, -6): (1, -2),
    (1, -4): (2, 4),
    (1, -2): (1, -4),
    (2, -5): (1, 4),
    (2, -3): (1, 2),
    (2, -1): (2, -4),
    (3, -4): (1, 3),
    (3, -2): (2, -3),
    (3, 0): (3, -4),
    (4, -6): (3, 4),
    (4, -4): (1, -3),
    (4, -2): (2, 3),
}

# The four canonical convex orders of the running example, as <a,+-b> pairs.
EXAMPLE1_ORDERS = {
    "U1": [(3, -4), (2, -4), (1, -4), (2, 3), (2, -3), (1, 2),
           (2, 4), (1, -3), (1, 3), (1, 4), (1, -2), (3, 4)],
    "U2": [(3, -4), (2, -4), (1, -4), (2, -3), (2, 3), (1, 2),
           (2, 4), (1, 3), (1, -3), (1, 4), (1, -2), (3, 4)],
    "L1": [(3, -4), (2, -4), (2, -3), (2, 3), (1, -4), (1, 2),
           (1, -3), (1, 3), (2, 4), (1, 4), (3, 4), (1, -2)],
    "L2": [(3, -4), (2, -4), (2, 3), (2, -3), (1, -4), (1, 2),
           (1, 3), (1, -3), (2, 4), (1, 4), (3, 4), (1, -2)],
}


@pytest.fixture(scope="session")
def d4():
    return CartanDatum("D", 4)


@pytest.fixture(scope="session")
def example1_quiver(d4):
    return parse_arrow_spec(d4, EXAMPLE1_ARROWS)


@pytest.fixture(scope="session")
def example1_ar(example1_quiver):
    xi = make_height_function(example1_quiver, 3, 0)
    return ar_quiver.build(example1_quiver, xi)
