import hashlib
import itertools
import random

import pytest

from charposet import families as fam
from charposet import groups as gr
from charposet.errors import (
    ClosureTooLarge,
    DomainError,
    EmptyInput,
    InputError,
    InternalCheckError,
    LatticeTooLarge,
    NoIdentity,
    NoInverse,
    NotAbelian,
    NotAssociative,
    NotNormal,
    NotPGroup,
    OrderCapExceeded,
)

from conftest import brute_classes, brute_commuting, brute_group_check, relabelled, run_script
from test_cli import _sl23_table


def _z4_table():
    return [[(i + j) % 4 for j in range(4)] for i in range(4)]


def test_from_cayley_trivial():
    G = gr.from_cayley([[0]])
    assert G.order == 1 and G.exponent == 1 and G.identity == 0


@pytest.mark.parametrize("p", [0, 1, 4, -3])
def test_trivial_group_needs_a_prime(p):
    """Every prime is the prime of the trivial group; no other p is."""
    G = gr.from_cayley([[0]])
    with pytest.raises(NotPGroup, match=f"p = {p} is not a prime"):
        gr.require_p_group(G, p)
    assert gr.require_p_group(G, 2) == 2 and gr.require_p_group(G, 3) == 3


def test_from_cayley_z4():
    G = gr.from_cayley(_z4_table(), name="Z4")
    assert G.order == 4
    assert G.exponent == 4
    assert G.elem_order == (1, 4, 2, 4)
    assert G.inverse == (0, 3, 2, 1)
    assert [G.power(g, -1) for g in range(4)] == [0, 3, 2, 1]
    assert [G.power(g, -3) for g in range(4)] == [0, 1, 2, 3]  # g^-3 = g in Z4


def test_from_cayley_not_associative():
    table = _z4_table()
    table[1][1] = 1  # breaks (1*1)*2 = 1*(1*2)
    with pytest.raises(NotAssociative):
        gr.from_cayley(table)


def test_from_cayley_no_identity():
    with pytest.raises(NoIdentity):
        gr.from_cayley([[1, 1], [1, 1]])


def test_from_cayley_offset_identity():
    # identity need not sit at index 0 in user tables
    G = gr.from_cayley([[1, 0], [0, 1]])
    assert G.identity == 1
    assert G.elem_order == (2, 1)


def test_from_cayley_no_inverse():
    with pytest.raises(NoInverse):
        gr.from_cayley([[0, 1, 2], [1, 1, 1], [2, 1, 2]])


def test_from_cayley_malformed():
    with pytest.raises(InputError):
        gr.from_cayley([[0, 1], [1]])
    with pytest.raises(InputError):
        gr.from_cayley([[0, 5], [5, 0]])
    for table in ([["a"]], [1, 2], [[0.9]], [[False, True], [True, False]]):
        with pytest.raises(InputError):
            gr.from_cayley(table)


def test_from_permutations_transposition():
    G = gr.from_permutations([(1, 0)])
    assert G.order == 2


def test_from_permutations_identity_only():
    G = gr.from_permutations([(0, 1, 2)])
    assert G.order == 1


def test_from_permutations_d8_closure():
    r = (1, 2, 3, 0)
    s = (0, 3, 2, 1)
    # independent closure oracle on raw tuples
    elems = {(0, 1, 2, 3)}
    while True:
        new = {
            tuple(a[b[i]] for i in range(4))
            for a in elems
            for b in [r, s] + list(elems)
        } | elems
        if new == elems:
            break
        elems = new
    assert len(elems) == 8
    G = gr.from_permutations([r, s], name="D8")
    assert G.order == 8
    assert G.identity == 0


def test_from_permutations_bad_input():
    with pytest.raises(InputError):
        gr.from_permutations([(0, 0, 1)])
    with pytest.raises(InputError):
        gr.from_permutations([])
    for gens in ([["a", 0]], [1], [[1.0, 0]], [[True, False]]):
        with pytest.raises(InputError):
            gr.from_permutations(gens)


def test_from_permutations_cap():
    with pytest.raises(ClosureTooLarge):
        gr.from_permutations([(1, 2, 3, 0), (0, 3, 2, 1)], cap=4)


def test_light_associativity_used_for_large_tables():
    G = fam.cyclic(2, 7)  # order 128, cyclic: Light's test checks one generator
    assert G.order == 128 and G.exponent == 128
    table = [list(r) for r in G.table]
    table[3][5] = G.table[3][6]  # corrupt one entry
    with pytest.raises((NotAssociative, NoInverse, NoIdentity)):
        gr.from_cayley(table)


def _latin_square_with_identity(n, rng):
    """A random Latin square on 0..n-1 whose row and column 0 are the
    identity, filled cell by cell with backtracking."""
    t = [[None] * n for _ in range(n)]
    t[0] = list(range(n))
    for i in range(n):
        t[i][0] = i
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        options = [v for v in range(n) if v not in t[i] and all(row[j] != v for row in t)]
        rng.shuffle(options)
        for v in options:
            t[i][j] = v
            if fill(k + 1):
                return True
        t[i][j] = None
        return False

    assert fill(0)
    return t


def test_from_cayley_matches_brute_force_oracle():
    """Light's test on a generating set rejects exactly the tables the full
    triple loop rejects, with the same error class."""
    rng = random.Random(0)
    tables = [_latin_square_with_identity(4 + k % 5, rng) for k in range(1000)]
    # A non-associative loop times C2, the C2 coordinate in the low bit: the
    # first generator, 1, is central and passes, so a later one must fail.
    loops = [t for t in tables if brute_group_check(t) is NotAssociative][:20]
    for L in loops:
        n = 2 * len(L)
        tables.append([[2 * L[a >> 1][b >> 1] + ((a ^ b) & 1) for b in range(n)] for a in range(n)])
    for spec in ("Dihedral(8)", "Quaternion(8)", "AbelianProduct(4,2)", "Extraspecial(3,+)"):
        G = fam.builtin(spec)
        for a, b, v in itertools.product(range(G.order), repeat=3):
            if v != G.table[a][b]:
                table = [list(row) for row in G.table]
                table[a][b] = v
                tables.append(table)
    assert len(tables) == 1000 + 20 + 3 * 8 * 8 * 7 + 27 * 27 * 26
    outcomes = set()
    for table in tables:
        expected = brute_group_check(table)
        try:
            gr.from_cayley(table)
            got = None
        except InputError as err:
            got = type(err)
        assert got is expected, table
        outcomes.add(expected)
    assert outcomes == {None, NoIdentity, NoInverse, NotAssociative}


def test_prime_of():
    assert gr.prime_of(8) == 2
    assert gr.prime_of(81) == 3
    assert gr.prime_of(12) is None
    assert gr.prime_of(1) is None


def test_is_prime_matches_trial_division_and_rejects_strong_pseudoprimes():
    """Miller-Rabin to the bases 2, ..., 41 agrees with trial division below
    20,000, rejects the Carmichael number 561 and the least strong
    pseudoprimes to the first 4, 9 and 12 prime bases, accepts the least
    primes above 10^14 and 10^16, and refuses every n from the bound on:
    psi_13, the least strong pseudoprime to all thirteen bases."""
    for n in range(-5, 20_000):
        assert gr.is_prime(n) == (gr.prime_of(n) == n), n
    for n in (561, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not gr.is_prime(n), n
    assert gr.is_prime(100000000000031) and gr.is_prime(10000000000000061)
    for n in (gr.PRIME_TEST_BOUND, gr.PRIME_TEST_BOUND + 2):
        with pytest.raises(DomainError, match=str(gr.PRIME_TEST_BOUND)):
            gr.is_prime(n)


def test_lattice_sequences_generate_each_subgroup_and_flag_the_abelian_ones():
    """On the catalogs p = 2 up to 64, p = 3 up to 81, p = 5 up to 125,
    relabelled tables and S3, A4 and S4, the lattice maps every subgroup S
    to a sequence whose closure is S, of length log_p|S| in a p-group, and
    to an abelian flag that equals a brute-force commutation check over all
    of S."""
    specs = fam.builtin_catalog(2, 64) + fam.builtin_catalog(3, 81) + fam.builtin_catalog(5, 125)
    groups = [fam.builtin(spec) for spec in specs]
    groups += [relabelled(fam.builtin(spec), seed) for seed, spec in enumerate(
        ["Dihedral(16)", "Quaternion(16)", "Extraspecial(3,+)", "ElemAbelian(3,2)", "Cyclic(5,2)"]
    )]
    groups += [_s3(), _a4(), _s4()]
    checked = abelian = 0
    for G in groups:
        p = gr.prime_of(G.order)
        sequences: dict = {}
        lattice = gr.all_subgroups(G, 256, sequences=sequences)
        assert sorted(sequences) == sorted(S.mask for S in lattice), G.name
        for S in lattice:
            seq, flag = sequences[S.mask]
            assert p is None or p ** len(seq) == len(S.elems), (G.name, S)
            assert gr.closure_from_gens(G, seq) == S.elems, (G.name, S)
            assert flag == (len(brute_commuting(G.table, S.elems)) == len(S.elems)), (G.name, S)
            abelian += flag
        checked += len(lattice)
    assert checked > 10_000 and 0 < abelian < checked


def test_center_abelian(c4xc2):
    W = gr.whole_group(c4xc2)
    assert gr.center(W).elems == W.elems


def test_center_q8_d8(q8, d8):
    for G in (q8, d8):
        W = gr.whole_group(G)
        expected = brute_commuting(G.table, W.elems)
        Z = gr.center(W)
        assert list(Z.elems) == expected
        assert len(Z) == 2


def test_derived_subgroup_abelian(c4xc2):
    D = gr.derived_subgroup(gr.whole_group(c4xc2))
    assert len(D) == 1


def test_derived_subgroup_q8(q8):
    D = gr.derived_subgroup(gr.whole_group(q8))
    # brute-force commutators
    t, inv = q8.table, q8.inverse
    comms = {t[t[inv[a]][inv[b]]][t[a][b]] for a in range(8) for b in range(8)}
    assert set(D.elems) == comms  # already closed here
    assert len(D) == 2


def test_derived_subgroup_d16(d16):
    D = gr.derived_subgroup(gr.whole_group(d16))
    assert len(D) == 4
    # <r^2> in the (i + 8j) encoding: indices 0,2,4,6
    assert D.elems == (0, 2, 4, 6)


def test_conjugacy_classes_abelian(c4xc2):
    cc = gr.conjugacy_classes(gr.whole_group(c4xc2))
    assert cc.count == 8
    assert all(s == 1 for s in cc.sizes)


@pytest.mark.parametrize("maker", ["q8", "d8"])
def test_conjugacy_classes_order8(maker, request):
    G = request.getfixturevalue(maker)
    W = gr.whole_group(G)
    cc = gr.conjugacy_classes(W)
    expected = brute_classes(G, W.elems)
    assert sorted(cc.sizes) == sorted(len(c) for c in expected)
    assert sorted(cc.sizes) == [1, 1, 2, 2, 2]
    assert set(cc.members) == set(expected)
    # reps minimal, identity class is a singleton, inverse_class involutive
    for r, mem in zip(cc.reps, cc.members):
        assert r == min(mem)
    assert cc.sizes[cc.identity_class] == 1
    for c in range(cc.count):
        assert cc.inverse_class[cc.inverse_class[c]] == c


def test_all_subgroups_cyclic(c8):
    subs = gr.all_subgroups(c8)
    assert [len(S) for S in subs] == [1, 2, 4, 8]
    c27 = fam.cyclic(3, 3)
    assert [len(S) for S in gr.all_subgroups(c27)] == [1, 3, 9, 27]


def _s3():
    return gr.from_permutations([(1, 0, 2), (1, 2, 0)], name="S3")


def _a4():
    return gr.from_permutations([(1, 2, 0, 3), (1, 0, 3, 2)], name="A4")


def _s4():
    return gr.from_permutations([(1, 0, 2, 3), (1, 2, 3, 0)], name="S4")


# sha256 of repr([(S.elems, sequences[S.mask]) for S in all_subgroups(G)]):
# the closure route's lattice, its sequences and its abelian flags.
_CLOSURE_LATTICE_DIGESTS = {
    "S3": "b0977cc0d5158f270e5c7e0e8aebe0ae998083c3c6cc4f81faecd8f3981588a5",
    "A4": "a811ee44900d2223e26e756f4264f1fbc05b5603dff3553a686083b4296d1d10",
    "S4": "df99764d9c0544aba38e56564cfff2c0b707fb9faf1fc83ae7095103a50dc213",
    "SL(2,3)": "741778976f720e4471304642b398e671e6d8b941498268f38ca9c26b77e1bfe3",
}


def test_closure_route_lattices_are_pinned():
    """The lattices of S3, A4, S4 and SL(2,3), which are not p-groups, with
    each subgroup's sequence and abelian flag, are the pinned ones: 6, 10,
    30 and 15 subgroups."""
    groups = [_s3(), _a4(), _s4(), gr.from_cayley(_sl23_table(), name="SL(2,3)")]
    for G, count in zip(groups, (6, 10, 30, 15)):
        sequences: dict = {}
        lattice = gr.all_subgroups(G, sequences=sequences)
        assert len(lattice) == count == len(sequences), G.name
        records = repr([(S.elems, sequences[S.mask]) for S in lattice])
        assert hashlib.sha256(records.encode()).hexdigest() == _CLOSURE_LATTICE_DIGESTS[G.name]


def test_all_subgroups_q8_brute(q8):
    assert [len(S) for S in gr.all_subgroups(q8)] == [1, 2, 4, 4, 4, 8]
    # S3 and A4 are not p-groups: they take the closure route.
    for G, count in ((q8, 6), (_s3(), 6), (_a4(), 10)):
        subs = gr.all_subgroups(G)
        assert len(subs) == count, G.name
        # independent oracle: check every subset of each divisor size
        t = G.table
        others = [x for x in range(G.order) if x != G.identity]
        found = []
        for size in (d for d in range(1, G.order + 1) if G.order % d == 0):
            for cand in itertools.combinations(others, size - 1):
                elems = (G.identity,) + cand
                eset = set(elems)
                if all(t[a][b] in eset for a in elems for b in elems):
                    found.append(tuple(sorted(elems)))
        assert sorted(found) == sorted(S.elems for S in subs), G.name


def test_all_subgroups_e222(e222):
    assert len(gr.all_subgroups(e222)) == 16  # 1 + 7 + 7 + 1 subspaces


def test_all_subgroups_conjugation_closed(d8, q8, d16):
    for G in (d8, q8, d16):
        subs = gr.all_subgroups(G)
        keys = {S.elems for S in subs}
        for S in subs:
            for x in range(G.order):
                assert gr.conjugate_subgroup(S, x).elems in keys


def test_all_subgroups_deterministic(d16):
    a = [S.elems for S in gr.all_subgroups(d16)]
    b = [S.elems for S in gr.all_subgroups(d16)]
    assert a == b


def test_all_subgroups_caps():
    big = fam.cyclic(2, 8, cap=512)
    with pytest.raises(OrderCapExceeded):
        gr.all_subgroups(big)
    with pytest.raises(LatticeTooLarge):
        gr.all_subgroups(fam.elem_abelian(2, 5), lattice_cap=100)
    # The cap is the largest lattice allowed, on both routes.
    for G, count in ((fam.dihedral(16), 19), (_s3(), 6)):
        assert len(gr.all_subgroups(G, lattice_cap=count)) == count
        with pytest.raises(LatticeTooLarge):
            gr.all_subgroups(G, lattice_cap=count - 1)
    # (C2)^7 has 29,212 subgroups.
    with pytest.raises(LatticeTooLarge):
        gr.all_subgroups(fam.elem_abelian(2, 7))


def _raised_internal_check(flags, body):
    """Run body in a fresh interpreter with flags; return the message of the
    InternalCheckError it raises, or fail if it raises none."""
    script = (
        "from charposet import families, groups as gr\n"
        "from charposet.errors import InternalCheckError\n"
        "try:\n"
        + "".join(f"    {line}\n" for line in body.splitlines())
        + "except InternalCheckError as err:\n"
        "    print(err)\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit('no InternalCheckError')\n"
    )
    proc = run_script(flags, script)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_lattice_layer_counts_are_checked_under_python_O():
    """C2 x C2 with every inverse set to the identity: the normaliser mask
    of a subgroup of order 2 (x g x^-1 read as x g) holds no x outside it,
    so the layer of order 4 comes out empty, and the Frobenius count check
    raises even under -O."""
    body = (
        "G = families.elem_abelian(2, 2)\n"
        "bad = gr.GroupTable(4, G.table, G.identity, (G.identity,) * 4, G.elem_order, 2, 'bad')\n"
        "gr.all_subgroups(bad)"
    )
    message = _raised_internal_check(["-O"], body)
    assert message == "0 subgroups of order 4 in bad, not 1 mod 2 (Frobenius)"


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
def test_a_subgroup_order_that_does_not_divide_the_group_order_is_checked(flags):
    """A table of S3 that claims order 5: {1, an involution} is closed under
    the product and inverses, but 2 does not divide 5, and the subgroup
    check raises under plain Python and under python -O."""
    body = (
        "S3 = gr.from_permutations([(1, 0, 2), (1, 2, 0)])\n"
        "bad = gr.GroupTable(5, S3.table, S3.identity, S3.inverse, S3.elem_order, 6, 'bad')\n"
        "s = S3.elem_order.index(2)\n"
        "gr.Subgroup(bad, [S3.identity, s])"
    )
    assert _raised_internal_check(flags, body) == "subgroup order 2 does not divide 5"


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
def test_double_cosets_that_do_not_cover_the_group_are_checked(flags):
    """With S = {r} for r of order 4 in D8, taken unvalidated, each rep x
    marks only the one element r x r as covered, and some rep is left
    unmarked; the cover check raises under plain Python and under
    python -O."""
    body = (
        "D8 = families.dihedral(8)\n"
        "r = D8.elem_order.index(4)\n"
        "S = gr.Subgroup(D8, [r], validate=False)\n"
        "gr.double_cosets(D8, S, S)"
    )
    assert _raised_internal_check(flags, body) == "the double cosets do not cover G"


def test_coset_union_certificate_rejects_a_non_normalising_x(d8):
    """<s> u x<s> for reflections s, x of D8 with x s x^-1 != s is no
    subgroup, and the certificate of the cyclic extension step says so; for
    an x that normalises <s> it passes."""
    t, inv = d8.table, d8.inverse
    involutions = [g for g in range(d8.order) if d8.elem_order[g] == 2]
    center = gr.center(gr.whole_group(d8))
    s = next(g for g in involutions if not center.contains(g))

    def union(x):
        kelems = [d8.identity, s, x, t[x][s]]
        kmask = sum(1 << k for k in set(kelems))
        return kelems, kmask

    x = next(g for g in involutions if t[t[g][s]][inv[g]] not in (s, d8.identity))
    with pytest.raises(InternalCheckError):
        gr._check_extension(d8, *union(x), x)
    z = next(g for g in involutions if center.contains(g))
    gr._check_extension(d8, *union(z), z)


def test_subgroups_of_order(c8, q8, d8):
    assert len(gr.subgroups_of_order(c8, 4)) == 1
    assert len(gr.subgroups_of_order(q8, 4)) == 3
    d8_4 = gr.subgroups_of_order(d8, 4)
    assert len(d8_4) == 3
    cyclic_count = sum(
        1 for S in d8_4 if any(d8.elem_order[x] == 4 for x in S.elems)
    )
    assert cyclic_count == 1  # one C4, two Klein
    with pytest.raises(InputError):
        gr.subgroups_of_order(q8, 3)


def test_subgroups_of_order_reads_the_context_lattice(monkeypatch):
    """Without a lattice, subgroups_of_order reads the lattice of G's
    context, built at the context's cap, rather than a second lattice at
    the default cap: at order 256 under a cap of 256 it succeeds, and the
    subgroups are enumerated once."""
    from charposet import characters

    real, runs = gr.all_subgroups, []

    def counted(*args, **kwargs):
        runs.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(gr, "all_subgroups", counted)
    monkeypatch.setattr(characters, "all_subgroups", counted)
    G = fam.builtin("Cyclic(2,8)", 256)
    ctx = characters.get_context(G, order_cap=256)
    assert len(ctx.lattice()) == 9
    assert gr.subgroups_of_order(G, 4) == [S for S in ctx.lattice() if len(S.elems) == 4]
    assert len(runs) == 1


def test_intersect_all(q8, klein):
    subs4 = gr.subgroups_of_order(q8, 4)
    I = gr.intersect_all(subs4)
    assert I.elems == gr.center(gr.whole_group(q8)).elems
    subs2 = gr.subgroups_of_order(klein, 2)
    assert len(gr.intersect_all(subs2)) == 1
    one = gr.subgroups_of_order(q8, 8)
    assert gr.intersect_all(one).elems == one[0].elems
    with pytest.raises(EmptyInput):
        gr.intersect_all([])


def test_quotient_self(q8):
    W = gr.whole_group(q8)
    Q, proj = gr.quotient(W, W)
    assert Q.order == 1
    assert all(p == 0 for p in proj)


def test_quotient_q8_center(q8):
    W = gr.whole_group(q8)
    Z = gr.center(W)
    Q, proj = gr.quotient(W, Z)
    assert Q.order == 4
    assert all(Q.elem_order[x] <= 2 for x in range(4))  # Klein four


def test_quotient_d8_rotations(d8):
    W = gr.whole_group(d8)
    R = gr.generated_subgroup(d8, [1])  # <r>
    assert len(R) == 4
    Q, proj = gr.quotient(W, R)
    assert Q.order == 2


def test_quotient_not_normal(d8):
    W = gr.whole_group(d8)
    S = gr.generated_subgroup(d8, [4])  # a reflection
    assert len(S) == 2
    with pytest.raises(NotNormal):
        gr.quotient(W, S)


def test_quotient_projection_homomorphism(q8, d8, c4xc2):
    cases = [
        (q8, gr.center(gr.whole_group(q8))),
        (d8, gr.generated_subgroup(d8, [1])),
        (c4xc2, gr.generated_subgroup(c4xc2, [4])),
    ]
    for G, N in cases:
        W = gr.whole_group(G)
        Q, proj = gr.quotient(W, N)
        for a in range(G.order):
            for b in range(G.order):
                assert proj[G.table[a][b]] == Q.table[proj[a]][proj[b]]


def test_abelian_decomposition_examples(c4, klein, c4xc2):
    assert gr.abelian_decomposition(c4).factors == (4,)
    assert gr.abelian_decomposition(klein).factors == (2, 2)
    assert gr.abelian_decomposition(c4xc2).factors == (4, 2)
    big = fam.abelian_product([8, 4, 2])
    assert gr.abelian_decomposition(big).factors == (8, 4, 2)
    shuffled = fam.abelian_product([2, 8, 4])
    assert gr.abelian_decomposition(shuffled).factors == (8, 4, 2)


def test_abelian_decomposition_round_trip():
    for spec in ([4], [2, 2], [4, 2], [9, 3], [8, 2], [3, 3, 3]):
        A = fam.abelian_product(spec)
        dec = gr.abelian_decomposition(A)
        for x in range(A.order):
            acc = A.identity
            for g, k in zip(dec.generators, dec.dlog[x]):
                acc = A.table[acc][A.power(g, k)]
            assert acc == x


def test_abelian_decomposition_rejects_nonabelian(q8):
    with pytest.raises(NotAbelian):
        gr.abelian_decomposition(q8)


def test_double_cosets_whole(q8):
    W = gr.whole_group(q8)
    assert gr.double_cosets(q8, W, W) == [0]


def test_double_cosets_abelian(c4xc2):
    H = gr.generated_subgroup(c4xc2, [4])  # order 2
    K = gr.generated_subgroup(c4xc2, [2])  # order 2: (2,0) has order 2
    reps = gr.double_cosets(c4xc2, H, K)
    # abelian: double cosets are cosets of HK
    HK = gr.generated_subgroup(c4xc2, [4, 2])
    assert len(reps) == c4xc2.order // len(HK)


def test_double_cosets_d8(d8):
    S = gr.generated_subgroup(d8, [4])
    reps = gr.double_cosets(d8, S, S)
    # brute-force partition: H x K sets
    t = d8.table
    sizes = []
    for x in reps:
        sizes.append(len({t[t[h][x]][k] for h in S.elems for k in S.elems}))
    assert len(reps) == 3
    assert sorted(sizes) == [2, 2, 4]
    assert sum(sizes) == 8


def test_subgroup_validation(q8):
    with pytest.raises(InputError):
        gr.Subgroup(q8, [0, 1])  # not closed: 1*1 = 2 missing
    S = gr.Subgroup(q8, [0, 1, 2, 3])
    assert len(S) == 4


def test_lagrange_all_subgroups(d16):
    for S in gr.all_subgroups(d16):
        assert d16.order % len(S) == 0


def test_normality_under_the_lattice_generators_matches_is_normal_in():
    """The lattice hands out a generating sequence of G, and normality under
    it agrees with conjugation by every element, on every subgroup of the
    catalogs p = 2 <= 32 and p = 3 <= 27, normal or not.  The closure route
    of a group that is not a p-group hands out generators too."""
    tally = {True: 0, False: 0}
    for spec in fam.builtin_catalog(2, 32) + fam.builtin_catalog(3, 27):
        G = fam.builtin(spec)
        sequences: dict = {}
        lattice = gr.all_subgroups(G, sequences=sequences)
        whole = gr.whole_group(G)
        gens = sequences[whole.mask][0]
        assert gr.closure_from_gens(G, gens) == whole.elems, spec
        for S in lattice:
            normal = gr.normalised_by(S, gens)
            assert normal == gr.is_normal_in(S, whole), (spec, S.elems)
            tally[normal] += 1
    assert tally[True] and tally[False]
    S3 = gr.from_permutations([(1, 2, 0), (1, 0, 2)])
    sequences = {}
    lattice = gr.all_subgroups(S3, sequences=sequences)
    whole = gr.whole_group(S3)
    gens = sequences[whole.mask][0]
    assert gr.closure_from_gens(S3, gens) == tuple(range(6))
    assert [gr.normalised_by(S, gens) for S in lattice] == [gr.is_normal_in(S, whole) for S in lattice]
