"""The value types are immutable named tuples: they compare, hash and sort
as tuples of their fields, and pickle (``--jobs`` > 1 ships records)."""

import pickle

import pytest

from arquiver.ar_quiver import SectionalPath, Swing
from arquiver.orders import PairVerdict, Verdict
from arquiver.qaffine import ONE, DenominatorPoly, DoreyVerdict, HomTriple, SpectralParam
from arquiver.quiver import DynkinQuiver
from arquiver.root_system import CartanDatum, EpsilonForm, RootSystemError, reflect
from arquiver.verify import CheckRecord

D4 = CartanDatum("D", 4)

VALUES = [
    D4,
    EpsilonForm(1, -2),
    DynkinQuiver.from_bitmask(D4, 5),
    SectionalPath("S", ((1, -2), (2, -1)), False),
    Swing(1, ((1, -4),), ((3, -3), (4, -3)), ((2, -2),)),
    PairVerdict((1, 1, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), Verdict.MINIMAL, order_tag="U1"),
    SpectralParam(5, -3),
    DenominatorPoly((SpectralParam(4, 2), SpectralParam(0, 6))),
    HomTriple(1, ONE, 2, SpectralParam(4, 2), 3, SpectralParam(0, 4)),
    DoreyVerdict(True, "(i)", exhaustive=False),
    CheckRecord("build", "structure", 4, "1>2,3>2,4>2", "fail", "no", 0.5),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_value_types_are_frozen_tuples_of_their_fields(value):
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], value[0])
    assert hash(value) == hash(tuple(value))
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value) and copy == value


def test_value_semantics_the_named_tuples_keep():
    datum = CartanDatum("D", 5)
    with pytest.raises(AttributeError):
        datum.cache = {}
    assert repr(CartanDatum("D", 4)) == "CartanDatum(diagram_type='D', rank=4)"
    assert SpectralParam(9, 3) == SpectralParam(1, 3)
    params = [SpectralParam(u, p) for u, p in [(7, 2), (1, -3), (12, 0), (1, -4), (0, 0)]]
    assert sorted(params) == sorted(params, key=lambda x: (x.u, x.p))
    forms = [EpsilonForm(a, b) for a, b in [(2, -3), (1, 4), (2, 3), (1, -4), (1, 2)]]
    assert sorted(forms) == sorted(forms, key=lambda x: (x.a, x.b_signed))
    datum.distance_table  # fills the cached tables
    datum.pairing(datum.simple_root(1), datum.simple_root(2))
    reflect(datum, 3, datum.simple_root(3))
    copy = pickle.loads(pickle.dumps(datum))
    assert copy == datum and vars(copy) == vars(datum)
    tables = {"edges", "neighbor_table", "distance_table"}
    assert tables <= set(vars(copy))
    assert reflect(copy, 3, copy.simple_root(4)) == (1, (0, 0, 1, 1, 0))


def test_one_datum_per_type_and_rank():
    datum = CartanDatum("D", 5)
    assert CartanDatum("D", 5) is datum
    assert CartanDatum("D", 5).distance_table is datum.distance_table
    assert pickle.loads(pickle.dumps(datum)) is datum
    assert CartanDatum("D", 6) is not datum and CartanDatum("A", 5) is not datum
    for rank in (5.0, True):  # neither may stand for an int rank, nor make a datum of its own
        with pytest.raises(RootSystemError, match="a rank must be an int"):
            CartanDatum("D" if rank == 5 else "A", rank)


def test_make_and_replace_build_through_the_constructor():
    with pytest.raises(RootSystemError, match="unsupported diagram type"):
        CartanDatum._make(("X", 0))
    with pytest.raises(RootSystemError, match="needs rank >= 4"):
        CartanDatum("D", 5)._replace(rank=3)
    assert CartanDatum._make(("D", 5)) is CartanDatum("D", 5)
    assert CartanDatum("D", 5)._replace(rank=6) is CartanDatum("D", 6)
    assert SpectralParam._make((9, 0)) == SpectralParam(9, 0) == (1, 0)
    assert str(SpectralParam._make((9, 0))) == str(SpectralParam(1, 0))
    assert SpectralParam(1, 0)._replace(u=12) == (4, 0)
