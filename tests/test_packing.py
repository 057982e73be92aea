"""Packed class values: the digit format of cyclotomic.pack against the
power-basis coordinates it stands for."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charposet import cyclotomic as cyc
from charposet import families as fam
from charposet.characters import (
    ClassFunction,
    decompose,
    frobenius_check,
    get_context,
    induce,
    inner_product,
    mackey_check,
    restrict,
)
from charposet.errors import (
    IncompleteIrr,
    InputError,
    InternalCheckError,
    NotDivisible,
    NotMultipleOfLinear,
    NotRationalInteger,
)
from charposet.poset import central_index, central_poset_map
from conftest import naive_induced_value, naive_inner_products, run_script


def _digits(width):
    """Coordinates below the bound 2^(width-1), its edges drawn often."""
    top = (1 << (width - 1)) - 1
    return st.sampled_from([-top, -1, 0, 1, top]) | st.integers(-top, top)


@st.composite
def _packable(draw):
    width = draw(st.integers(2, 40))
    count = draw(st.integers(1, 60))
    row = st.lists(_digits(width), min_size=count, max_size=count)
    return width, count, draw(row), draw(row)


@pytest.mark.slow
@settings(max_examples=400, deadline=None)
@given(_packable())
def test_pack_round_trips_and_keeps_lexicographic_order(case):
    width, count, a, b = case
    x, y = cyc.pack(a, width), cyc.pack(b, width)
    assert cyc.unpack(x, width, count) == tuple(a)
    assert (x < y) == (a < b) and (x == y) == (a == b)
    assert cyc.unpack(-x, width, count) == tuple(-c for c in a)
    sums = tuple(map(sum, zip(a, b)))
    if max(map(abs, sums)) < 1 << (width - 1):  # then adding ints adds digits
        assert cyc.unpack(x + y, width, count) == sums


@settings(max_examples=200, deadline=None)
@given(_packable(), st.integers(0, 59), st.sampled_from([1, -1]), st.integers(0, 3))
def test_a_coordinate_at_or_beyond_the_bound_raises(case, at, sign, beyond):
    width, count, a, _ = case
    a[at % count] = sign * ((1 << (width - 1)) + beyond)
    with pytest.raises(InternalCheckError):
        cyc.pack(a, width)


def test_integers_products_and_digitwise_division_on_packed_values():
    n, order = 9, 27
    width, count = cyc.packing_bounds(n, order)[1], cyc.euler_phi(n)
    assert cyc.unpack_integer(cyc.pack((-27, 0, 0, 0, 0, 0), width), width, count) == -27
    with pytest.raises(NotRationalInteger):
        cyc.unpack_integer(cyc.pack((3, 1, 0, 0, 0, 0), width), width, count)
    a, b = cyc.zeta_pow(n, 4) * 3 - cyc.one(n), cyc.zeta_pow(n, 7) + cyc.zeta_pow(n, 8)
    x, y = cyc.pack(a.coeffs, width), cyc.pack(b.coeffs, width)
    assert cyc.packed_product_coeffs(n, x * y, width, count) == (a * b).coeffs
    assert cyc.packed_div(cyc.pack((a * 3).coeffs, width), 3, width, count) == (x, 3)
    # 2^width is divisible by 2 as an int, but its digits (1, 0) are not.
    with pytest.raises(NotDivisible):
        cyc.packed_div(cyc.pack((0, 0, 0, 0, 1, 0), width), 2, width, count)


def _catalog_groups():
    return [fam.builtin(spec) for spec in fam.builtin_catalog(2, 32) + fam.builtin_catalog(3, 27)]


def test_character_values_round_trip_through_the_packed_rows():
    """For every character of every subgroup of the catalogs p=2 <= 32 and
    p=3 <= 27: the rows are the packed coordinates of .values, the public
    constructor gives the same rows back, and Irr's order is the order of
    the coordinate tuples."""
    checked = 0
    for G in _catalog_groups():
        ctx = get_context(G)
        for S in ctx.lattice():
            cc = ctx.classes(S)
            chars = ctx.irr(S)
            for ch in chars:
                values = ch.values
                assert all(max(map(abs, v.coeffs)) <= ch.degree for v in values), G.name
                assert ch.rows == tuple(cyc.pack(v.coeffs, ctx.width) for v in values)
                assert ClassFunction(S, cc, values).rows == ch.rows, G.name
                checked += 1
            coords = [(ch.degree, [v.coeffs for v in ch.values]) for ch in chars]
            assert coords == sorted(coords), G.name
    assert checked == 9548


def test_the_constructor_takes_values_up_to_the_packing_bound(c4):
    """Coordinates above the value bound V are accepted and make the class
    function wide; one at 2^(W-1), beyond what packing holds, is an
    InputError."""
    ctx = get_context(c4)
    W = ctx.whole
    cc = ctx.classes(W)
    zeros = [cyc.zero(4)] * 3
    assert not ClassFunction(W, cc, [cyc.integer(4, ctx.value_bound)] + zeros).wide
    top = cyc.integer(4, (1 << (ctx.width - 1)) - 1)
    assert ClassFunction(W, cc, [top] + zeros).wide
    assert ClassFunction(W, cc, [top] + zeros).values[0] == top
    with pytest.raises(InputError, match="packing bound"):
        ClassFunction(W, cc, [cyc.integer(4, -(1 << (ctx.width - 1)))] + zeros)


def test_wide_class_functions_keep_exact_results(c4, d8):
    """Induction multiplies values by up to the index, so a class function
    at the value bound V induces to one beyond it; that and a multiple of
    the trivial character beyond V are induced, restricted, paired and
    decomposed in CycInt arithmetic, with the oracles' results."""
    ctx = get_context(c4)
    V = ctx.value_bound
    T = next(S for S in ctx.lattice() if len(S.elems) == 1)
    phi = ClassFunction(T, ctx.classes(T), [cyc.integer(4, V)])
    assert not phi.wide
    theta = induce(phi, ctx.whole)
    assert theta.wide and theta.degree == 4 * V
    assert theta.values == tuple(
        naive_induced_value(ctx.whole, T, phi, r) for r in ctx.classes(ctx.whole).reps
    )
    assert inner_product(theta, theta) == naive_inner_products([theta], [theta])[0][0] == 4 * V * V
    lhs, rhs = frobenius_check(T, phi, ctx.irr(ctx.whole)[0])
    assert lhs == rhs == V
    assert decompose(theta, ctx.irr(ctx.whole)) == (V,) * 4
    assert inner_product(induce(theta, ctx.whole), theta) == 4 * V * V

    ctx = get_context(d8)
    whole, cc = ctx.whole, ctx.classes(ctx.whole)
    irr = ctx.irr(whole)
    big = ClassFunction(whole, cc, [v * (d8.order + 1) for v in irr[0].values])
    assert big.wide and not irr[0].wide
    assert inner_product(big, irr[0]) == inner_product(irr[0], big) == d8.order + 1
    assert decompose(big, irr) == (d8.order + 1,) + (0,) * (len(irr) - 1)
    with pytest.raises(IncompleteIrr):  # 81 * big is not big, compared on CycInt values
        decompose(big, [big])
    K = next(K for K, H in ctx.maximal_pairs() if H.elems == whole.elems)
    small = restrict(big, K)
    assert small.wide
    assert induce(small, whole).values == tuple(
        naive_induced_value(whole, K, small, r) for r in cc.reps
    )
    # K is normal of index 2, so (big_K)^G restricted to K is 2 * big_K.
    expected = 2 * (d8.order + 1)
    assert mackey_check(K, K, small, restrict(irr[0], K)) == (expected, expected)


def test_an_inner_product_that_is_not_an_integer_raises_not_divisible(c4):
    """On C4, the class function f that is 1 at the identity and 0 elsewhere
    has [f, f] = 1/4: the packed sum 1 is not divisible by |C4| = 4, nor is
    the CycInt sum 5 against f of the wide one with the identity value
    V + 1 = 5; each raises NotDivisible."""
    ctx = get_context(c4)
    W, cc = ctx.whole, ctx.classes(ctx.whole)

    def at_identity(v):
        return ClassFunction(
            W, cc, [cyc.integer(4, v if c == cc.identity_class else 0) for c in range(cc.count)]
        )

    f = at_identity(1)
    with pytest.raises(NotDivisible, match="inner product sum 1 not divisible by 4"):
        inner_product(f, f)
    wide = at_identity(ctx.value_bound + 1)
    assert wide.wide and ctx.value_bound == 4
    with pytest.raises(NotDivisible, match="inner product sum 5 not divisible by 4"):
        inner_product(wide, f)

def test_central_division_by_the_degree_on_packed_rows(q8):
    """central_index divides packed rows by the degree: an int that the
    degree does not divide fails the first NotMultipleOfLinear condition,
    and one it divides whose digits it does not divide misses char_index,
    the second condition."""
    ctx = get_context(q8)
    Z = ctx.center
    lookup = ctx.char_index(Z)
    chi = ctx.irr(ctx.whole)[-1]
    rows = restrict(chi, Z).rows
    beta = central_poset_map(chi, Z)
    assert chi.degree == 2 and beta.rows == tuple(x // 2 for x in rows)
    assert ctx.irr(Z)[central_index(lookup, rows, 2)] is beta
    assert central_index(lookup, beta.rows, 1) == lookup[beta.rows]
    with pytest.raises(NotMultipleOfLinear, match="single value vector"):
        central_index(lookup, (rows[0] + 1,) + rows[1:], 2)
    # (1, 0) packs to 2^W: even as an int, odd in its top digit.
    odd_digit = cyc.pack((1, 0), ctx.width)
    assert odd_digit % 2 == 0
    with pytest.raises(NotMultipleOfLinear, match="one linear character"):
        central_index(lookup, rows[:-1] + (odd_digit,), 2)


_NARROW = """
import sys
from charposet import cli, cyclotomic

bounds = cyclotomic.packing_bounds
cyclotomic.packing_bounds = lambda n, order: (bounds(n, order)[0], 4)
sys.exit(0 if cli.main(["verify", "--group", "Dihedral(8)"]) == 5 else "verify did not exit 5")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
def test_a_coordinate_beyond_the_packing_bound_exits_5(flags):
    """With a packing width of 4, too narrow for Dihedral(8), packing the
    value 8 of its regular character (the Clifford route's completeness
    check) raises InternalCheckError, and verify exits 5, under plain Python
    and under python -O."""
    proc = run_script(flags, _NARROW)
    assert proc.returncode == 0, proc.stderr
    assert "internal check failed: coordinate 8 is beyond the packing bound 2^3" in proc.stderr
