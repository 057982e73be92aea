"""Exact arithmetic in rings of cyclotomic integers Z[zeta_n].

A value is a vector of integer coordinates in the power basis
1, zeta, ..., zeta^(phi(n)-1), i.e. a residue in Z[x]/(Phi_n(x)).  The power
basis is an integral basis, so equality is coordinate-wise and division by a
rational integer is coordinate-wise when it is exact.  All character values in
this package live here; nothing is ever rounded.

Reduction mod Phi_n is one cached table per conductor, the coordinates of
zeta^t for t < n (_power_terms).  reduce_coeffs, the one reducer, adds each
term's multiple of row t mod n; polynomial division only builds Phi_n.

On the hot paths of the character code a value is packed into one Python
int (pack, unpack): the coordinates are balanced signed digits of width W,
coordinate 0 the most significant, so x = sum of c_i * 2^(W*(d-1-i)) for
d = phi(n).  While every |c_i| < 2^(W-1) the digits are unique, so ints are
equal exactly when the coordinate tuples are, integer order is the
lexicographic order of the tuples, and adding values or scaling them by an
integer is plain int arithmetic on the packed form.  A product of two packed
values is the packed polynomial product: its 2d-1 digits are the
coefficients of zeta^0 .. zeta^(2d-2), read back once and reduced
(packed_product_coeffs).  For the class functions of the subgroups of a
group of order N, packing_bounds gives the value bound V = N * M, M the
largest |coordinate| of a root of unity in the power basis, so that every
character of degree at most N has coordinates at most V, and W, the least
width with B = N * phi(n) * V^2 below 2^(W-1).  B bounds every digit of a
sum of class sizes times products of two values within V (at most phi(n)
products meet in a digit), and every sum and scaled value the character code
forms from such values.  Packing a coordinate at or beyond 2^(W-1) raises
InternalCheckError.
"""

from __future__ import annotations

from functools import cache
from itertools import cycle
from typing import Sequence

from .errors import ConductorMismatch, InternalCheckError, NotDivisible, NotRationalInteger


def _poly_divmod(num: Sequence[int], den: Sequence[int]) -> tuple[list[int], list[int]]:
    """Exact long division by a monic integer polynomial."""
    num = list(num)
    d = len(den) - 1
    if den[d] != 1:
        raise InternalCheckError("divisor polynomial is not monic")
    quot = [0] * max(len(num) - d, 1)
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i]
        if c:
            quot[i - d] = c
            for j, dj in enumerate(den):
                num[i - d + j] -= c * dj
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


@cache
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, low degree first, computed by dividing x^n - 1
    by all Phi_d for proper divisors d."""
    if n < 1:
        raise ValueError(f"conductor must be positive, got {n}")
    if n == 1:
        return (-1, 1)
    rem = [0] * (n + 1)
    rem[0] = -1
    rem[n] = 1
    for d in range(1, n):
        if n % d == 0:
            rem, r = _poly_divmod(rem, cyclotomic_polynomial(d))
            if r != [0]:
                raise InternalCheckError(f"Phi_{d} does not divide the cofactor of x^{n} - 1")
    return tuple(rem)


def euler_phi(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


def reduce_coeffs(n: int, poly: Sequence[int]) -> tuple[int, ...]:
    """Power-basis coordinates of the sum of poly[t] * zeta_n^t: each term
    adds its multiple of the coordinates of zeta_n^(t mod n)."""
    out = [0] * euler_phi(n)
    for c, terms in zip(poly, cycle(_power_terms(n))):
        if c:
            for k, v in terms:
                out[k] += c * v
    return tuple(out)


@cache
def _power_terms(n: int) -> tuple:
    """For 0 <= t < n, the nonzero coordinates (k, c_k) of zeta_n^t: zeta
    times the row before, with zeta^phi(n) replaced by
    zeta^phi(n) - Phi_n(zeta)."""
    phi = cyclotomic_polynomial(n)
    row, rows = [1] + [0] * (len(phi) - 2), []
    for _ in range(n):
        rows.append(tuple((k, c) for k, c in enumerate(row) if c))
        row = [c - row[-1] * f for c, f in zip([0] + row[:-1], phi)]
    return tuple(rows)


class CycInt:
    """An element of Z[zeta_n] in canonical power-basis coordinates."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Sequence[int], *, _raw: bool = False):
        self.n = n
        self.coeffs = tuple(coeffs) if _raw else reduce_coeffs(n, coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, CycInt)
            and self.n == other.n
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.n, self.coeffs))

    def __repr__(self):
        return f"CycInt({self.n}, {list(self.coeffs)})"

    def __add__(self, other: "CycInt") -> "CycInt":
        _check(self, other)
        return CycInt(self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)), _raw=True)

    def __sub__(self, other: "CycInt") -> "CycInt":
        _check(self, other)
        return CycInt(self.n, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)), _raw=True)

    def __neg__(self) -> "CycInt":
        return CycInt(self.n, tuple(-a for a in self.coeffs), _raw=True)

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt(self.n, tuple(a * other for a in self.coeffs), _raw=True)
        _check(self, other)
        return CycInt(self.n, mul_coeffs(self.n, self.coeffs, other.coeffs), _raw=True)

    __rmul__ = __mul__


def _check(a: CycInt, b: CycInt) -> None:
    if a.n != b.n:
        raise ConductorMismatch(f"conductors differ: {a.n} vs {b.n}")


def mul_coeffs(n: int, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Product in power-basis coordinates: the polynomial product, reduced."""
    acc = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    acc[i + j] += ai * bj
    return reduce_coeffs(n, acc)


def integer(n: int, c: int) -> CycInt:
    """The rational integer c as an element of Z[zeta_n]."""
    coeffs = [0] * euler_phi(n)
    coeffs[0] = c
    return CycInt(n, coeffs, _raw=True)


def zero(n: int) -> CycInt:
    return CycInt(n, [0] * euler_phi(n), _raw=True)


def one(n: int) -> CycInt:
    return integer(n, 1)


def zeta_pow(n: int, k: int) -> CycInt:
    """Canonical representative of zeta_n^k."""
    return zeta_table(n)[k % n]


def conjugate(a: CycInt) -> CycInt:
    """Image under zeta -> zeta^(n-1), i.e. complex conjugation."""
    poly = [0] * a.n
    for i, c in enumerate(a.coeffs):
        poly[-i] += c  # zeta^i -> zeta^(n-i)
    return CycInt(a.n, poly)


def coeffs_as_integer(coeffs: Sequence[int]) -> int:
    """The rational integer with these power-basis coordinates."""
    if any(coeffs[1:]):
        raise NotRationalInteger(f"coordinates {list(coeffs)} have a nonzero non-constant entry")
    return coeffs[0]


def as_integer(a: CycInt) -> int:
    return coeffs_as_integer(a.coeffs)


def exact_div_int(a: CycInt, m: int) -> CycInt:
    if m < 1:
        raise ValueError(f"divisor must be positive, got {m}")
    out = []
    for c in a.coeffs:
        q, r = divmod(c, m)
        if r:
            raise NotDivisible(f"coefficient {c} not divisible by {m}")
        out.append(q)
    return CycInt(a.n, tuple(out), _raw=True)


@cache
def zeta_table(n: int) -> tuple[CycInt, ...]:
    """All powers zeta_n^0 .. zeta_n^(n-1), for bulk character construction:
    the rows of _power_terms(n) as values."""
    d = euler_phi(n)
    return tuple(
        CycInt(n, [dict(row).get(k, 0) for k in range(d)], _raw=True) for row in _power_terms(n)
    )


# -- packed values ---------------------------------------------------------------


def packing_bounds(n: int, order: int) -> tuple[int, int]:
    """(V, W) for class functions of subgroups of a group of this order at
    conductor n: V = order * M bounds every coordinate of a character of
    degree at most order, and W is the least width with B = order * phi(n) *
    V^2, a bound on every digit that the packed hot paths form from values
    within V, below 2^(W-1)."""
    m = max(abs(c) for z in zeta_table(n) for c in z.coeffs)
    v = order * m
    return v, (order * euler_phi(n) * v * v).bit_length() + 1


def pack(coeffs: Sequence[int], width: int) -> int:
    """The coordinates as balanced digits of this width, coordinate 0 the
    most significant; InternalCheckError for one at or beyond 2^(width-1)."""
    half = 1 << (width - 1)
    x = 0
    for c in coeffs:
        if not -half < c < half:
            raise InternalCheckError(f"coordinate {c} is beyond the packing bound 2^{width - 1}")
        x = (x << width) + c
    return x


def unpack(x: int, width: int, count: int) -> tuple[int, ...]:
    """The count balanced digits of x, most significant first: the inverse
    of pack on coordinates below 2^(width-1)."""
    half = 1 << (width - 1)
    x += _halves(width, count)  # every digit shifted into [0, 2^width)
    mask = (1 << width) - 1
    return tuple([(x >> k & mask) - half for k in range(width * (count - 1), -1, -width)])


@cache
def _halves(width: int, count: int) -> int:
    """count digits of 2^(width-1), unsigned."""
    return (1 << (width - 1)) * ((1 << (width * count)) - 1) // ((1 << width) - 1)


def unpack_integer(x: int, width: int, count: int) -> int:
    """The rational integer a packed value stands for: its top digit, when
    every lower digit is 0; NotRationalInteger otherwise."""
    shift = width * (count - 1)
    c = x >> shift
    if c << shift != x:
        raise NotRationalInteger(
            f"coordinates {list(unpack(x, width, count))} have a nonzero non-constant entry"
        )
    return c


def packed_div(x: int, m: int, width: int, count: int) -> tuple[int, int]:
    """x / m digit by digit, with the largest |digit| of the quotient;
    NotDivisible unless m divides every digit.  The quotient's digits times m
    are a balanced representation of x exactly when they stay below
    2^(width-1), and then they are x's own digits."""
    q, r = divmod(x, m)
    top = max(map(abs, unpack(q, width, count)))
    if r or top * m >= 1 << (width - 1):
        raise NotDivisible(
            f"a coordinate of {list(unpack(x, width, count))} is not divisible by {m}"
        )
    return q, top


def packed_product_coeffs(n: int, x: int, width: int, count: int) -> tuple[int, ...]:
    """Power-basis coordinates of a sum of products of packed values: its
    2*count - 1 digits are the coefficients of zeta_n^0 .. zeta_n^(2*count-2)."""
    return reduce_coeffs(n, unpack(x, width, 2 * count - 1))
