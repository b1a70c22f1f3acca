"""Spectral parameters, denominator polynomials, and Dorey-rule predicates.

Parameters live in the abstract group zeta8^Z x q^(Z/2): a pair (u, p)
stands for zeta8^u * q^(p/2) with zeta8 a primitive eighth root of unity
(zeta8^2 = sqrt(-1), zeta8^4 = -1).  Every value needed here embeds
exactly:

    (-q)^m        -> (4m mod 8, 2m)        (m in Z/2)
    (-q^2)^(m/2)  -> (2m mod 8, 2m)        (m in Z)
    sqrt(-1)      -> (2, 0)

so equality is decidable and no complex arithmetic ever appears.
Exponents are integer units throughout: p counts half-units of q, so
(-q)^(h/2) is (2h, h) and (-q^2)^(e/4) is (e, e).  The Dorey rules
compare these integers directly; a printed a/b exponent is reduced by a
gcd and a parsed one is read as two integers, so no rational arithmetic
happens anywhere.

The untwisted Dorey rule is an if-and-only-if; the twisted one is an
"if" only, and its verdict records that.  The twisted ratio tables are
the untwisted rank-(n+1) tables with exponents halved into (-q^2)-powers
(the printed source mixes (-q) and (-q^2) in a few entries; the halved
form is the one the fold correspondence actually satisfies, which the
exhaustive harness confirms).

Each distinct value is computed once per process: `mq`, `denom_D1`,
`denom_D2`, `star_image`, `dorey_D1` and `dorey_D2` are `lru_cache`d pure
functions.  A serial orders+qaffine sweep to rank 8 makes 385,402 `mq`
calls on 35 exponents, 40,960 `dorey_D1` calls on 1,110 triples, 34,808
`dorey_D2` and 34,808 `star_image` calls on 970 and 271 `denom_D1`
calls, one per input.  A cache stores no exception, so a refused input
raises on every call; `typed=True` keeps a float, a bool or a plain tuple
out of a valid input's entry.  The arguments must be hashable.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import gcd
from typing import NamedTuple, Optional

from . import orders
from .ar_quiver import ARQuiver
from .root_system import ArquiverError, CartanDatum, Root, longest_element_star


class QAffineError(ArquiverError):
    pass


class _SpectralFields(NamedTuple):
    u: int  # mod 8
    p: int


class SpectralParam(_SpectralFields):
    """zeta8^u * q^(p/2); the group law adds both components."""

    __slots__ = ()

    def __new__(cls, u: int, p: int):
        return tuple.__new__(cls, (u % 8, p))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # _replace calls _make: both reduce u mod 8 as a call does

    def __mul__(self, other: "SpectralParam") -> "SpectralParam":
        return SpectralParam(self.u + other.u, self.p + other.p)

    def negate(self) -> "SpectralParam":
        return SpectralParam(self.u + 4, self.p)

    def __str__(self) -> str:
        """(-q)^x if it is one, else [-][i*](-q^2)^x, else zeta8^u q^(p/2)."""
        if (self.u - 2 * self.p) % 8 == 0:
            return f"(-q)^{_exponent(self.p, 2)}"
        if (self.u - self.p) % 2 == 0:
            unit = _UNITS[(self.u - self.p) % 8 // 2]
            return f"{unit}(-q^2)^{_exponent(self.p, 4)}"
        return f"zeta8^{self.u} q^({self.p}/2)"


_UNITS = ("", "i*", "-", "-i*")  # zeta8^0, ^2, ^4, ^6 as printed prefixes
_PARAM_RE = re.compile(r"(-?(?:i\*)?)\(-q(\^?2)?\)\^(\{)?(-?\d+(?:/0*[1-9]\d*)?)(?(3)\})")
_ZETA_RE = re.compile(r"zeta8\^(-?\d+)q\^\((-?\d+)/2\)")


def _exponent(num: int, den: int) -> str:
    """num/den in lowest terms, braced when fractional so (-q)^{1/2} cannot read as ((-q)^1)/2."""
    g = gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{{{num}/{den}}}"


def _units(base: str, num: int, den: int, per: int) -> int:
    """The exponent num/den counted in units of 1/per; off that lattice it is no parameter."""
    units, rest = divmod(per * num, den)
    if rest:
        raise QAffineError(f"{base}^{_exponent(num, den)} does not live in the parameter group")
    return units


def _ratio(exponent) -> tuple[int, int]:
    """An int's or a Fraction's numerator and denominator; the arithmetic here is exact."""
    try:
        return exponent.numerator, exponent.denominator
    except AttributeError:
        raise QAffineError(f"an exponent must be an int or a Fraction, not {exponent!r}") from None


def parse_param(text: str) -> SpectralParam:
    """Read back every form str(SpectralParam) prints; braces are optional but paired."""
    text = text.strip().replace(" ", "")
    m = _ZETA_RE.fullmatch(text)
    if m:
        return SpectralParam(int(m[1]), int(m[2]))
    m = _PARAM_RE.fullmatch(text)
    if not m:
        raise QAffineError(f"cannot parse spectral parameter {text!r}")
    unit, squared, _, exponent = m.groups()
    num, _, den = exponent.partition("/")
    num, den = int(num), int(den or 1)
    # (-q)^(num/den) in half-units h is (2h, h); (-q^2)^(num/den) in quarter-units e is (e, e)
    units = _units("(-q^2)" if squared else "(-q)", num, den, 4 if squared else 2)
    power = SpectralParam(units, units) if squared else SpectralParam(2 * units, units)
    return SpectralParam(2 * _UNITS.index(unit), 0) * power


ONE = SpectralParam(0, 0)
SQRT_MINUS_ONE = SpectralParam(2, 0)


@lru_cache(maxsize=None, typed=True)
def mq(exponent) -> SpectralParam:
    """(-q)^exponent, for an integer or half-integer exponent."""
    h = _units("(-q)", *_ratio(exponent), 2)
    return SpectralParam(2 * h, h)


def mq2(exponent) -> SpectralParam:
    """(-q^2)^exponent, for an exponent in (1/4)Z."""
    e = _units("(-q^2)", *_ratio(exponent), 4)
    return SpectralParam(e, e)


class DenominatorPoly(NamedTuple):
    """The multiset of zeros of one normalized R-matrix denominator."""

    roots: tuple[SpectralParam, ...]

    def zero_multiplicity(self, at: SpectralParam) -> int:
        return self.roots.count(at)


@lru_cache(maxsize=None)
def denom_D1(n: int, k: int, l: int) -> DenominatorPoly:
    """Zeros of d_{k,l}(z) for the untwisted type-D algebra of rank n."""
    if n < 4:
        raise QAffineError("untwisted type D needs n >= 4")
    if not (1 <= k <= n and 1 <= l <= n):
        raise QAffineError(f"levels ({k},{l}) out of range 1..{n}")
    k, l = min(k, l), max(k, l)
    zeros: list[SpectralParam] = []
    if l <= n - 2:
        for s in range(1, k + 1):
            zeros.append(mq(abs(k - l) + 2 * s))
            zeros.append(mq(2 * n - 2 - k - l + 2 * s))
    elif k <= n - 2:
        for s in range(1, k + 1):
            zeros.append(mq(n - k - 1 + 2 * s))
    elif k != l:  # {k, l} = {n-1, n}
        for s in range(1, (n - 1) // 2 + 1):
            zeros.append(mq(4 * s))
    else:  # k = l in {n-1, n}
        for s in range(1, n // 2 + 1):
            zeros.append(mq(4 * s - 2))
    return DenominatorPoly(tuple(sorted(zeros)))


@lru_cache(maxsize=None)
def denom_D2(n: int, k: int, l: int) -> DenominatorPoly:
    """Zeros of d_{k,l}(z) for the twisted algebra over the rank-(n+1) diagram."""
    if n < 3:
        raise QAffineError("twisted type D needs n >= 3")
    if not (1 <= k <= n and 1 <= l <= n):
        raise QAffineError(f"levels ({k},{l}) out of range 1..{n}")
    k, l = min(k, l), max(k, l)
    zeros: list[SpectralParam] = []
    if l <= n - 1:
        for s in range(1, k + 1):
            for m in (abs(k - l) + 2 * s, 2 * n - k - l + 2 * s):
                root = SpectralParam(2 * m, 2 * m)  # (-q^2)^(m/2)
                zeros.append(root)
                zeros.append(root.negate())
    elif k <= n - 1:  # l = n
        for s in range(1, k + 1):
            m = n - k + 2 * s
            root = SpectralParam(2 * m + 2, 2 * m)  # sqrt(-1) (-q^2)^(m/2)
            zeros.append(root)
            zeros.append(root.negate())
    else:  # k = l = n
        for s in range(1, n + 1):
            zeros.append(mq2(s).negate())
    return DenominatorPoly(tuple(sorted(zeros)))


def double_zero_set_D1(n: int) -> frozenset[tuple[int, int, int]]:
    """(k, l, s) with a double zero of d_{k,l} at (-q)^s, untwisted rank n."""
    out = set()
    for k in range(2, n - 1):
        for l in range(2, n - 1):
            if k + l <= n - 1:
                continue
            for s in range(2 * n - k - l, k + l + 1, 2):
                out.add((k, l, s))
    return frozenset(out)


# --- Dorey predicates ---------------------------------------------------------

class HomTriple(NamedTuple):
    """Candidate Hom(V(w_i)_x (x) V(w_j)_y, V(w_k)_z), as levels and parameters."""

    i: int
    x: SpectralParam
    j: int
    y: SpectralParam
    k: int
    z: SpectralParam


class DoreyVerdict(NamedTuple):
    admissible: bool
    case: Optional[str] = None
    # the untwisted rule is an iff; the twisted one only asserts existence
    exhaustive: bool = True


def _is_mq_power(param: SpectralParam) -> bool:
    return (2 * param.u - param.p * 4) % 16 == 0 and param.p % 2 == 0


@lru_cache(maxsize=None, typed=True)
def dorey_D1(n: int, triple: HomTriple) -> DoreyVerdict:
    """Untwisted Dorey rule (an iff) for rank n >= 4; rows hold integer (-q)-exponents."""
    if n < 4:
        raise QAffineError("untwisted type D needs n >= 4")
    i, j, k = triple.i, triple.j, triple.k
    if not all(1 <= lvl <= n for lvl in (i, j, k)):
        raise QAffineError(f"levels {(i, j, k)} out of range 1..{n}")
    for param in (triple.x, triple.y, triple.z):
        if not _is_mq_power(param):
            raise QAffineError(f"{param} is not an integer power of (-q)")
    z = triple.z.p
    ratios = ((triple.x.p - z) // 2, (triple.y.p - z) // 2)

    # (i): all levels small, one is the sum (so the largest) of the other two
    if max(i, j, k) <= n - 2:
        for top, a, b, expected in (
            (k, i, j, (-j, i)),
            (i, j, k, (-j, 2 * n - 2 - i)),
            (j, i, k, (j - 2 * n + 2, i)),
        ):
            if top == a + b and ratios == expected:
                return DoreyVerdict(True, "i")
        if i + j >= n and k == 2 * n - 2 - i - j and ratios == (-j, i):
            return DoreyVerdict(True, "ii")

    # (iii): the two large levels are spin; beside i and j, k is read through *
    if min(i, j, k) <= n - 2:
        star_k = longest_element_star(CartanDatum("D", n))[k]
        for low, a, b, expected in (
            (k, i, j, (k + 1 - n, n - k - 1)),
            (i, j, star_k, (i + 1 - n, 2 * i)),
            (j, i, star_k, (-2 * j, n - j - 1)),
        ):
            if min(a, b) >= n - 1 and (n - low - a + b) % 2 == 0 and ratios == expected:
                return DoreyVerdict(True, "iii")
    return DoreyVerdict(False)


@lru_cache(maxsize=None, typed=True)
def dorey_D2(n: int, triple: HomTriple) -> DoreyVerdict:
    """Twisted Dorey rule over the rank-(n+1) diagram; an "if" only.

    A ratio zeta8^u q^(p/2) is zeta8^(u-p) (-q^2)^(p/4), so it is read as
    (p, (u - p) mod 4): its quarter-unit exponent and its phase, which a
    row expects to be 0 for a (-q^2)-power or 2 for sqrt(-1) times one.
    Reading the phase mod 4 equates two parameters that differ by a sign;
    it absorbs the "up to sign" in case (i') and the +- sqrt(-1) choices in
    (iii').
    """
    if n < 3:
        raise QAffineError("twisted type D needs n >= 3")
    i, j, k = triple.i, triple.j, triple.k
    if not all(1 <= lvl <= n for lvl in (i, j, k)):
        raise QAffineError(f"levels {(i, j, k)} out of range 1..{n}")
    x, y, z = triple.x, triple.y, triple.z
    xp, yp = x.p - z.p, y.p - z.p
    ratios = ((xp, (x.u - z.u - xp) % 4), (yp, (y.u - z.u - yp) % 4))

    if max(i, j, k) <= n - 1:
        for top, a, b, expected in (
            (k, i, j, ((-2 * j, 0), (2 * i, 0))),
            (i, j, k, ((-2 * j, 0), (4 * n - 2 * i, 0))),
            (j, i, k, ((2 * j - 4 * n, 0), (2 * i, 0))),
        ):
            if top == a + b and ratios == expected:
                return DoreyVerdict(True, "i'", exhaustive=False)

    # one level below n, two at n
    for low, a, b, expected in (
        (k, i, j, ((2 * (k - n), 2), (2 * (n - k), 2))),
        (i, j, k, ((2 * (i - n), 2), (4 * i, 0))),
        (j, i, k, ((-4 * j, 0), (2 * (n - j), 2))),
    ):
        if a == b == n > low and ratios == expected:
            return DoreyVerdict(True, "iii'", exhaustive=False)
    return DoreyVerdict(False, exhaustive=False)


# --- the fold correspondence ----------------------------------------------------

def star_map(n: int, level: int, param: SpectralParam) -> tuple[int, SpectralParam]:
    """Send untwisted rank-(n+1) data (level, (-q)-power) to twisted data.

    Levels fold by n+1 -> n; the parameter picks up sqrt(-1)^(delta+1) at
    levels below n and (-1)^level at the two spin levels.
    """
    if not 1 <= level <= n + 1:
        raise QAffineError(f"level {level} out of range 1..{n + 1}")
    if level <= n - 1:
        delta = 1 if (n + 1 - level) % 2 == 0 else 0
        shift = SpectralParam(2 * (delta + 1), 0)
        return level, param * shift
    shift = SpectralParam(4, 0) if level % 2 else ONE
    return n, param * shift


@lru_cache(maxsize=None, typed=True)
def star_image(n: int, triple: HomTriple) -> HomTriple:
    """The fold of untwisted rank-(n+1) hom data: ``star_map`` on each of its three parts."""
    i, x = star_map(n, triple.i, triple.x)
    j, y = star_map(n, triple.j, triple.y)
    k, z = star_map(n, triple.k, triple.z)
    return HomTriple(i, x, j, y, k, z)


# --- the bridge from Gamma_Q ------------------------------------------------------

def pair_to_triple(ar: ARQuiver, gamma: Root, pair: tuple[Root, Root]) -> HomTriple:
    """Candidate hom data of a pair: (level, (-q)^column) of beta, alpha, gamma.
    The pair is accepted as ``orders.classify_pair`` accepts it."""
    alpha, beta, _ = orders._oriented_pair(ar, gamma, pair)
    # an accepted pair holds roots of this quiver; gamma is only its table's
    # key, so it alone goes through coord_of
    (bi, bp), (ai, ap) = ar.phi[beta], ar.phi[alpha]
    gi, gp = ar.coord_of(gamma)
    return HomTriple(bi, mq(bp), ai, mq(ap), gi, mq(gp))
