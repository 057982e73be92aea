import random

import pytest

from charposet import cyclotomic as cyc
from charposet.errors import ConductorMismatch, InternalCheckError, NotDivisible, NotRationalInteger
from conftest import run_script

CONDUCTORS = (2, 4, 8, 16, 3, 9, 27, 5, 25)


def _poly_mod(num, den):
    """Test-local long division remainder (monic integer divisor)."""
    num = list(num)
    d = len(den) - 1
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i]
        if c:
            for j, dj in enumerate(den):
                num[i - d + j] -= c * dj
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return num


def test_zeta_pow_basics():
    assert cyc.zeta_pow(4, 0) == cyc.integer(4, 1)
    assert cyc.zeta_pow(4, 2) == cyc.integer(4, -1)
    assert cyc.zeta_pow(4, 5) == cyc.zeta_pow(4, 1)
    assert cyc.CycInt(8, [0] * 9 + [1]) == cyc.zeta_pow(8, 1)  # more than n coordinates


def test_zeta8_fourth_power():
    # oracle: x^4 mod Phi_8 = x^4 + 1 leaves -1
    phi8 = list(cyc.cyclotomic_polynomial(8))
    assert phi8 == [1, 0, 0, 0, 1]
    rem = _poly_mod([0, 0, 0, 0, 1], phi8)
    assert rem == [-1]
    assert cyc.zeta_pow(8, 4) == cyc.integer(8, -1)


def test_phi_prime_power_formula():
    # Phi_{p^k}(x) = sum of x^(i * p^(k-1)) for i < p, vs the divide-out build
    for p, kmax in [(2, 4), (3, 3), (5, 2)]:
        for k in range(1, kmax + 1):
            n = p**k
            expected = [0] * (p ** (k - 1) * (p - 1) + 1)
            for i in range(p):
                expected[i * p ** (k - 1)] = 1
            assert list(cyc.cyclotomic_polynomial(n)) == expected


def test_arith_identities():
    rng = random.Random(7)
    for n in CONDUCTORS:
        deg = cyc.euler_phi(n)
        for _ in range(20):
            a = cyc.CycInt(n, [rng.randint(-9, 9) for _ in range(deg)])
            assert a + cyc.zero(n) == a
            assert a * cyc.one(n) == a
            assert a - a == cyc.zero(n)


def test_zeta4_squares_to_minus_one():
    i4 = cyc.zeta_pow(4, 1)
    assert i4 * i4 == cyc.integer(4, -1)


def test_mul_cross_check_redundant_basis():
    # (1 + z8)(1 - z8) against multiplication in Z[x]/(x^8 - 1)
    a = [1, 1, 0, 0, 0, 0, 0, 0]
    b = [1, -1, 0, 0, 0, 0, 0, 0]
    prod = [0] * 8
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[(i + j) % 8] += ai * bj
    oracle = _poly_mod(prod, list(cyc.cyclotomic_polynomial(8)))
    oracle += [0] * (4 - len(oracle))
    lib = (cyc.one(8) + cyc.zeta_pow(8, 1)) * (cyc.one(8) - cyc.zeta_pow(8, 1))
    assert list(lib.coeffs) == oracle
    assert lib == cyc.one(8) - cyc.zeta_pow(8, 2)


def test_random_mul_cross_check_redundant_basis():
    rng = random.Random(13)
    for n in (8, 9, 16, 25, 32, 64, 81, 125):
        deg = cyc.euler_phi(n)
        phi = list(cyc.cyclotomic_polynomial(n))
        for _ in range(25):
            ac = [rng.randint(-5, 5) for _ in range(deg)]
            bc = [rng.randint(-5, 5) for _ in range(deg)]
            prod = [0] * n
            for i, ai in enumerate(ac):
                for j, bj in enumerate(bc):
                    prod[(i + j) % n] += ai * bj
            oracle = _poly_mod(prod, phi)
            oracle += [0] * (deg - len(oracle))
            lib = cyc.CycInt(n, ac) * cyc.CycInt(n, bc)
            assert list(lib.coeffs) == oracle


def test_conductor_mismatch():
    with pytest.raises(ConductorMismatch):
        cyc.one(4) + cyc.one(8)


def test_conjugate_fixed_on_integers():
    assert cyc.conjugate(cyc.integer(8, 7)) == cyc.integer(8, 7)


def test_conjugate_zeta4():
    assert cyc.conjugate(cyc.zeta_pow(4, 1)) == -cyc.zeta_pow(4, 1)


def test_conjugate_involution_and_automorphism():
    rng = random.Random(99)
    for n in CONDUCTORS:
        deg = cyc.euler_phi(n)
        for _ in range(100):
            a = cyc.CycInt(n, [rng.randint(-6, 6) for _ in range(deg)])
            b = cyc.CycInt(n, [rng.randint(-6, 6) for _ in range(deg)])
            assert cyc.conjugate(cyc.conjugate(a)) == a
            assert cyc.conjugate(a * b) == cyc.conjugate(a) * cyc.conjugate(b)


def test_as_integer():
    assert cyc.as_integer(cyc.CycInt(5, [5, 0, 0, 0])) == 5
    with pytest.raises(NotRationalInteger):
        cyc.as_integer(cyc.zeta_pow(4, 1))


def test_full_root_sum_collapses():
    for p in (3, 5):
        s = cyc.zero(p)
        for k in range(p):
            s = s + cyc.zeta_pow(p, k)
        assert cyc.as_integer(s) == 0


def test_exact_div_int():
    assert cyc.exact_div_int(cyc.CycInt(4, [4, 8]), 4) == cyc.CycInt(4, [1, 2])
    with pytest.raises(NotDivisible):
        cyc.exact_div_int(cyc.CycInt(4, [3, 0]), 2)


def test_ring_axioms_random():
    # 1000 random triples per conductor
    rng = random.Random(2024)
    for n in CONDUCTORS:
        deg = cyc.euler_phi(n)

        def rand():
            return cyc.CycInt(n, [rng.randint(-4, 4) for _ in range(deg)])

        for _ in range(1000):
            a, b, c = rand(), rand(), rand()
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def test_zeta_table():
    tab = cyc.zeta_table(8)
    assert len(tab) == 8
    assert tab[0] == cyc.one(8)
    assert tab[4] == cyc.integer(8, -1)


def test_every_row_of_the_zeta_table_is_the_power_reduced_mod_phi():
    """Row t of zeta_table(n) is x^t mod Phi_n by the test-local division,
    for the powers of 2 up to 128, of 3 up to 243 and of 5 up to 125, and
    for 6, 12 and 60."""
    conductors = [2**k for k in range(1, 8)] + [3**k for k in range(1, 6)]
    for n in conductors + [5, 25, 125, 6, 12, 60]:
        phi = list(cyc.cyclotomic_polynomial(n))
        deg = len(phi) - 1
        table = cyc.zeta_table(n)
        assert len(table) == n
        for t, z in enumerate(table):
            oracle = _poly_mod([0] * t + [1], phi)
            assert list(z.coeffs) == oracle + [0] * (deg - len(oracle)), (n, t)


_PHI_D_REMAINDER = """
import sys
from charposet import cli, cyclotomic

divmod_ = cyclotomic._poly_divmod
cyclotomic._poly_divmod = lambda num, den: (divmod_(num, den)[0], [1])
sys.exit(cli.main(["irr", "--group", "Cyclic(2,2)"]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
def test_a_cyclotomic_factor_that_leaves_a_remainder_exits_5(flags):
    """With every division leaving the remainder 1, Phi_4 is built from
    x^4 - 1 and Phi_1 first, and the cofactor check raises
    InternalCheckError; irr exits 5, under plain Python and under
    python -O."""
    proc = run_script(flags, _PHI_D_REMAINDER)
    assert proc.returncode == 5, proc.stderr
    assert proc.stderr == (
        "internal check failed: Phi_1 does not divide the cofactor of x^4 - 1\n"
    )


def test_poly_divmod_refuses_a_divisor_that_is_not_monic():
    with pytest.raises(InternalCheckError, match="divisor polynomial is not monic"):
        cyc._poly_divmod([1, 0, 1], [1, 2])
