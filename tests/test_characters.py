import gc
import itertools
import random
import weakref
from functools import reduce
from operator import or_

import pytest

from charposet import characters
from charposet import cyclotomic as cyc
from charposet import export
from charposet import families as fam
from charposet import groups as gr
from charposet.characters import (
    ClassFunction,
    _monomial_irr,
    conjugate_character,
    decompose,
    frobenius_check,
    get_context,
    induce,
    inner_product,
    irr,
    linear_characters,
    mackey_check,
    restrict,
)
from charposet.cli import main
from charposet.errors import (
    ConductorMismatch,
    IncompleteIrr,
    InputError,
    InternalCheckError,
    NotASubgroup,
    OrderCapExceeded,
)
from charposet.poset import build_poset, central_poset_map
from charposet.verify import theorem_report, valid_exponents

from conftest import (
    brute_classes,
    brute_commuting,
    closure_lattice,
    naive_induced_value,
    naive_inner_products,
    relabelled,
    run_script,
)


def _sub(G, gens):
    return gr.generated_subgroup(G, gens)


def test_linear_characters_trivial(q8):
    T = gr.trivial_subgroup(q8)
    chars = linear_characters(T)
    assert len(chars) == 1
    assert chars[0].degree == 1


def test_linear_characters_c4(c4):
    W = gr.whole_group(c4)
    chars = linear_characters(W)
    assert len(chars) == 4
    gen_class = get_context(c4).classes(W).class_of[1]
    vals = {ch.values[gen_class] for ch in chars}
    assert vals == {
        cyc.one(4),
        cyc.zeta_pow(4, 1),
        cyc.integer(4, -1),
        -cyc.zeta_pow(4, 1),
    }


def test_linear_characters_q8(q8):
    assert len(linear_characters(gr.whole_group(q8))) == 4


def test_restrict_identity(q8):
    W = gr.whole_group(q8)
    for chi in irr(W):
        assert restrict(chi, W).values == chi.values


def test_restrict_q8_two_dim_to_center(q8):
    ctx = get_context(q8)
    two = [ch for ch in ctx.irr(ctx.whole) if ch.degree == 2]
    assert len(two) == 1
    Z = gr.center(ctx.whole)
    r = restrict(two[0], Z)
    assert [v.coeffs[0] for v in r.values] == [2, -2]


def test_restrict_faithful_c4_to_c2(c4):
    W = gr.whole_group(c4)
    C2 = _sub(c4, [2])
    faithful = [ch for ch in irr(W) if ch.values[1].coeffs == (0, 1)]
    assert faithful
    r = restrict(faithful[0], C2)
    assert [v.coeffs[0] for v in r.values] == [1, -1]  # sign character


def test_restrict_requires_containment(q8):
    A = _sub(q8, [1])
    B = _sub(q8, [4])
    with pytest.raises(NotASubgroup):
        restrict(irr(A)[0], B)


def test_induce_identity_case(q8):
    H = _sub(q8, [1])
    one = [ch for ch in irr(H) if all(v == cyc.one(4) for v in ch.values)][0]
    assert induce(one, H).values == one.values


def test_induce_c2_to_c4(c4):
    W = gr.whole_group(c4)
    C2 = _sub(c4, [2])
    one = [ch for ch in irr(C2) if ch.values[1].coeffs[0] == 1][0]
    ind = induce(one, W)
    assert [v.coeffs[0] for v in ind.values] == [2, 0, 2, 0]
    # oracle: the two characters of C4 trivial on C2 sum to it
    triv_on_c2 = [ch for ch in irr(W) if ch.values[2].coeffs[0] == 1]
    assert len(triv_on_c2) == 2
    total = [
        triv_on_c2[0].values[c] + triv_on_c2[1].values[c] for c in range(4)
    ]
    assert list(ind.values) == total


def test_induce_faithful_linear_gives_two_dim(q8):
    ctx = get_context(q8)
    H = _sub(q8, [1])  # <i>
    faithful = [ch for ch in irr(H) if ch.value_at(1).coeffs == (0, 1)][0]
    ind = induce(faithful, ctx.whole)
    assert ind.degree == 2
    assert inner_product(ind, ind) == 1


def test_induce_matches_naive_formula(q8, d8, d16):
    for G in (q8, d8, d16):
        ctx = get_context(G)
        W = ctx.whole
        rng = random.Random(G.order)
        subs = ctx.lattice()
        for H in subs:
            for lam in ctx.linear(H)[:3]:
                ind = induce(lam, W)
                for rep in ctx.classes(W).reps:
                    assert ind.value_at(rep) == naive_induced_value(W, H, lam, rep)


def test_induce_degree_bookkeeping(d16):
    ctx = get_context(d16)
    W = ctx.whole
    for H in ctx.lattice():
        lam = ctx.linear(H)[0]
        assert induce(lam, W).degree == (d16.order // len(H)) * lam.degree


def test_conjugate_character_identity_and_inner(q8):
    H = _sub(q8, [1])
    chi = irr(H)[1]
    assert conjugate_character(chi, 0).values == chi.values
    # conjugation by an element of H fixes the character
    assert conjugate_character(chi, 1).values == chi.values


def test_conjugate_character_swaps_faithful_pair(q8):
    H = _sub(q8, [1])  # <i>
    faithfuls = [ch for ch in irr(H) if ch.value_at(1).coeffs in ((0, 1), (0, -1))]
    assert len(faithfuls) == 2
    moved = conjugate_character(faithfuls[0], 4)  # conjugate by j
    assert moved.owner.elems == H.elems
    assert moved.values == faithfuls[1].values


def test_inner_product_orthogonality(q8):
    chars = irr(gr.whole_group(q8))
    for i, a in enumerate(chars):
        for j, b in enumerate(chars):
            assert inner_product(a, b) == (1 if i == j else 0)


def test_inner_product_regular_character(d8):
    ctx = get_context(d8)
    W = ctx.whole
    cc = ctx.classes(W)
    vals = [
        cyc.integer(d8.exponent, 8 if c == cc.identity_class else 0)
        for c in range(cc.count)
    ]
    reg = ClassFunction(W, cc, vals)
    for chi in ctx.irr(W):
        assert inner_product(reg, chi) == chi.degree


def test_inner_product_restricted_two_dim(q8):
    ctx = get_context(q8)
    two = ctx.irr(ctx.whole)[-1]
    Z = gr.center(ctx.whole)
    sign = [ch for ch in irr(Z) if ch.values[1].coeffs[0] == -1][0]
    # (1/2) * (2*1 + (-2)*(-1)) = 2
    assert inner_product(restrict(two, Z), sign) == 2


def test_irr_abelian_is_linear(c4xc2):
    chars = irr(gr.whole_group(c4xc2))
    assert len(chars) == 8
    assert all(ch.degree == 1 for ch in chars)


def test_irr_degrees_q8_d8(q8, d8):
    assert [ch.degree for ch in irr(gr.whole_group(q8))] == [1, 1, 1, 1, 2]
    assert [ch.degree for ch in irr(gr.whole_group(d8))] == [1, 1, 1, 1, 2]


def test_irr_completeness_various():
    for spec in ["Dihedral(16)", "Quaternion(16)", "Semidihedral(16)", "Modular(2,4)",
                 "Extraspecial(3,+)", "Extraspecial(3,-)"]:
        G = fam.builtin(spec)
        ctx = get_context(G)
        for S in ctx.lattice():
            chars = ctx.irr(S)
            assert sum(ch.degree**2 for ch in chars) == len(S)
            assert len(chars) == ctx.classes(S).count


def test_decompose_irreducible_indicator(q8):
    chars = irr(gr.whole_group(q8))
    for i, chi in enumerate(chars):
        mults = decompose(chi, chars)
        assert mults == tuple(1 if j == i else 0 for j in range(len(chars)))


def test_decompose_regular_q8(q8):
    ctx = get_context(q8)
    W = ctx.whole
    cc = ctx.classes(W)
    vals = [
        cyc.integer(q8.exponent, 8 if c == cc.identity_class else 0)
        for c in range(cc.count)
    ]
    reg = ClassFunction(W, cc, vals)
    assert decompose(reg, ctx.irr(W)) == (1, 1, 1, 1, 2)


def test_induced_from_trivial_subgroup_is_regular(d8):
    ctx = get_context(d8)
    T = gr.trivial_subgroup(d8)
    reg = induce(irr(T)[0], ctx.whole)
    mults = decompose(reg, ctx.irr(ctx.whole))
    assert mults == tuple(ch.degree for ch in ctx.irr(ctx.whole))


def test_restriction_transitivity(c8, d16):
    for G, chain in [
        (c8, ([2, 4], [4])),  # C4 >= C2 inside C8 via powers of the generator
        (d16, ([2], [4])),
    ]:
        ctx = get_context(G)
        W = ctx.whole
        M = _sub(G, chain[0])
        K = _sub(G, chain[1])
        assert K.is_subset_of(M)
        for chi in ctx.irr(W):
            assert restrict(restrict(chi, M), K).values == restrict(chi, K).values


def test_induction_transitivity(d16, q8):
    for G, mid_gens, low_gens in [(d16, [2], [4]), (q8, [1], [2])]:
        ctx = get_context(G)
        W = ctx.whole
        M = _sub(G, mid_gens)
        K = _sub(G, low_gens)
        assert K.is_subset_of(M)
        for lam in ctx.linear(K):
            via = induce(induce(lam, M), W)
            direct = induce(lam, W)
            assert via.values == direct.values


def test_mackey_whole_group(q8):
    W = gr.whole_group(q8)
    chars = irr(W)
    lhs, rhs = mackey_check(W, W, chars[1], chars[1])
    assert lhs == rhs == 1
    lhs, rhs = mackey_check(W, W, chars[1], chars[2])
    assert lhs == rhs == 0


def test_mackey_abelian(c4xc2):
    ctx = get_context(c4xc2)
    subs = [S for S in ctx.lattice() if 1 < len(S) < 8]
    rng = random.Random(5)
    for _ in range(20):
        H, K = rng.choice(subs), rng.choice(subs)
        a = rng.choice(ctx.irr(H))
        b = rng.choice(ctx.irr(K))
        lhs, rhs = mackey_check(H, K, a, b)
        assert lhs == rhs


def test_mackey_q8_i_j(q8):
    H = _sub(q8, [1])
    K = _sub(q8, [4])
    for a in irr(H):
        for b in irr(K):
            lhs, rhs = mackey_check(H, K, a, b)
            assert lhs == rhs


def test_frobenius_whole_and_trivial(q8):
    ctx = get_context(q8)
    W = ctx.whole
    chars = ctx.irr(W)
    lhs, rhs = frobenius_check(W, chars[3], chars[3])
    assert lhs == rhs == 1
    H = _sub(q8, [1])
    one_H = [ch for ch in irr(H) if all(v == cyc.one(4) for v in ch.values)][0]
    triv_G = [ch for ch in chars if all(v == cyc.one(4) for v in ch.values)][0]
    lhs, rhs = frobenius_check(H, one_H, triv_G)
    assert lhs == rhs == 1


def test_class_function_value_at_outside_raises(q8):
    H = _sub(q8, [1])
    chi = irr(H)[0]
    with pytest.raises(Exception):
        chi.value_at(4)


def _rescan_covers(ctx):
    """Every (K, H) with K of index p in H, found by testing all pairs of
    the lattice: the oracle for the covers recorded during enumeration."""
    p = gr.prime_of(ctx.group.order)
    lattice = ctx.lattice()
    return [
        (K, H)
        for H in lattice
        for K in lattice
        if p * len(K.elems) == len(H.elems) and K.is_subset_of(H)
    ]


def test_maximal_pairs_match_rescan():
    specs = (
        fam.builtin_catalog(2, 32)
        + fam.builtin_catalog(3, 81)
        + fam.builtin_catalog(5, 25)
    )
    groups = [fam.builtin(spec) for spec in specs]
    groups += [relabelled(fam.builtin(spec), seed) for seed, spec in enumerate(
        ["Dihedral(16)", "Quaternion(16)", "Extraspecial(3,+)", "ElemAbelian(3,2)", "Cyclic(5,2)"]
    )]
    for G in groups:
        ctx = get_context(G)
        assert ctx.maximal_pairs() == _rescan_covers(ctx), G.name
        for below in ctx._maximal.values():
            assert [K.elems for K in below] == sorted(K.elems for K in below), G.name


def test_up_cover_is_the_first_cover_in_maximal_pairs():
    """The cover relation is stored once, as each subgroup's sorted list of
    maximal subgroups; up_cover[K] is the first H over K in maximal_pairs()
    derived from it, and every K below G has one."""
    specs = fam.builtin_catalog(2, 64) + fam.builtin_catalog(3, 81)
    groups = [fam.builtin(spec) for spec in specs]
    groups += [relabelled(fam.builtin(spec), seed) for seed, spec in enumerate(
        ["Dihedral(16)", "Quaternion(16)", "Extraspecial(3,+)", "ElemAbelian(3,2)"]
    )]
    for G in groups:
        ctx = get_context(G)
        first = {}
        for K, H in ctx.maximal_pairs():
            first.setdefault(K.mask, H)
        assert len(first) == len(ctx.lattice()) - 1, G.name
        assert ctx.up_cover.keys() == first.keys(), G.name
        assert all(ctx.up_cover[k] is H for k, H in first.items()), G.name


@pytest.mark.slow
def test_cyclic_extension_matches_closure_oracle():
    """all_subgroups' cyclic extension route gives the closure loop's sorted
    lattice, its cover pairs (each met once) and so its maximal_pairs()."""
    specs = (
        fam.builtin_catalog(2, 64)
        + fam.builtin_catalog(3, 81)
        + fam.builtin_catalog(5, 125)
    )
    groups = [fam.builtin(spec) for spec in specs]
    groups += [relabelled(fam.builtin(spec), seed) for seed, spec in enumerate(
        ["Dihedral(16)", "Quaternion(16)", "Extraspecial(3,+)", "ElemAbelian(3,2)", "Cyclic(5,2)"]
    )]
    groups += [
        fam.builtin("DirectProduct(Dihedral(16),Dihedral(8))"),
        relabelled(fam.builtin("DirectProduct(Extraspecial(3,+),ElemAbelian(3,2))", 256), 1),
    ]
    for G in groups:
        oracle_covers: list = []
        oracle = closure_lattice(G, oracle_covers)
        covers: list = []
        lattice = gr.all_subgroups(G, 256, covers=covers)
        assert [S.elems for S in lattice] == [S.elems for S in oracle], G.name
        pairs = [(H.elems, K.elems) for H, K in covers]
        assert len(set(pairs)) == len(pairs), G.name
        assert sorted(pairs) == sorted((H.elems, K.elems) for H, K in oracle_covers), G.name
        oracle_covers.sort(key=lambda kh: (len(kh[1].elems), kh[1].elems, kh[0].elems))
        assert [(K.elems, H.elems) for K, H in get_context(G, 256).maximal_pairs()] == [
            (K.elems, H.elems) for K, H in oracle_covers
        ], G.name


@pytest.mark.slow
def test_lattice_normalisers_match_brute_force():
    """On every subgroup H of the catalogs, of relabelled tables and of two
    reach groups, the normaliser mask that the lattice reads off H's
    sequence (groups._normaliser) is the brute-force {x : x H x^-1 = H}."""
    specs = (
        fam.builtin_catalog(2, 64)
        + fam.builtin_catalog(3, 81)
        + fam.builtin_catalog(5, 125)
    )
    groups = [fam.builtin(spec) for spec in specs]
    groups += [relabelled(fam.builtin(spec), seed) for seed, spec in enumerate(
        ["Dihedral(16)", "Quaternion(16)", "Extraspecial(3,+)", "ElemAbelian(3,2)", "Cyclic(5,2)"]
    )]
    groups += [
        fam.builtin("DirectProduct(Dihedral(16),Dihedral(8))"),
        relabelled(fam.builtin("DirectProduct(Extraspecial(3,+),ElemAbelian(3,2))", 256), 1),
    ]
    checked = 0
    for G in groups:
        t, inv = G.table, G.inverse
        sequences: dict = {}
        conjugators: dict = {}
        for H in gr.all_subgroups(G, 256, sequences=sequences):
            brute = sum(
                1 << x for x in range(G.order)
                if all(H.contains(t[t[x][h]][inv[x]]) for h in H.elems)
            )
            mask = gr._normaliser(G, H.mask, sequences[H.mask][0], conjugators)
            assert mask == brute, (G.name, H)
            checked += 1
    assert checked > 10000


def _singleton_oracle(S):
    """The classes of an abelian S, one per element in index order, as
    (class_of, reps, sizes, inverse_class, identity_class)."""
    G = S.ambient
    class_of = [-1] * G.order
    for c, x in enumerate(S.elems):
        class_of[x] = c
    return (
        class_of,
        S.elems,
        (1,) * len(S.elems),
        tuple(class_of[G.inverse[x]] for x in S.elems),
        class_of[G.identity],
    )


def test_class_sets_and_centres_match_their_oracles():
    """On every subgroup S of the small catalogs, of two relabelled tables
    and of reach's four groups: conjugacy_classes(S, ()) of an abelian S is,
    field by field, one class per element in index order; the default
    sequence gives what conjugacy_classes(S, S.elems) gives; that sequence
    closes to S in at most log_2|S| elements; and ctx.center and
    groups.center are the brute-force centre."""
    specs = fam.builtin_catalog(2, 32) + fam.builtin_catalog(3, 27) + fam.builtin_catalog(5, 25)
    groups = [fam.builtin(spec) for spec in specs]
    groups += [relabelled(fam.builtin(spec), seed) for seed, spec in enumerate(
        ["DirectProduct(Dihedral(8),Cyclic(2,1))", "Extraspecial(3,+)"]
    )]
    groups += [fam.builtin(spec, 256) for spec in (
        "Dihedral(128)",
        "DirectProduct(Dihedral(16),Dihedral(8))",
        "Modular(3,5)",
        "DirectProduct(Extraspecial(3,+),ElemAbelian(3,2))",
    )]
    abelian = nonabelian = 0
    for G in groups:
        ctx = get_context(G, 256)
        for S in ctx.lattice():
            seq = gr._generating_sequence(G.table, G.identity, S.elems)
            assert gr.closure_from_gens(G, seq) == S.elems, (G.name, S)
            assert 1 << len(seq) <= len(S.elems), (G.name, S)
            cc = gr.conjugacy_classes(S)
            assert cc == gr.conjugacy_classes(S, S.elems), (G.name, S)
            assert gr.center(S).elems == tuple(brute_commuting(G.table, S.elems)), (G.name, S)
            if ctx.is_abelian(S):
                empty = gr.conjugacy_classes(S, ())
                fields = (
                    list(empty.class_of), empty.reps, empty.sizes,
                    empty.inverse_class, empty.identity_class,
                )
                assert fields == _singleton_oracle(S), (G.name, S)
                assert empty == cc, (G.name, S)
                abelian += 1
            else:
                nonabelian += 1
        assert ctx.center.elems == tuple(brute_commuting(G.table, ctx.whole.elems)), G.name
    assert abelian > 1000 and nonabelian > 500


def test_context_is_freed_with_its_group():
    G = fam.builtin("Dihedral(8)")
    theorem_report(G, None, 1)
    ref = weakref.ref(G)
    del G
    gc.collect()
    assert ref() is None


def _linear_via_quotient(ctx, H):
    """Value vectors of H's linear characters, through the quotient table
    H/H' and its cyclic decomposition: the oracle for the walk over the
    cosets of H' inside the ambient table."""
    n = ctx.conductor
    Q, proj = gr.quotient(H, gr.derived_subgroup(H))
    dec = gr.abelian_decomposition(Q)
    zpows = cyc.zeta_table(n)
    rep_logs = [dec.dlog[proj[r]] for r in ctx.classes(H).reps]
    return [
        tuple(
            zpows[sum(ti * ei * (n // d) for ti, ei, d in zip(t, logs, dec.factors)) % n]
            for logs in rep_logs
        )
        for t in itertools.product(*(range(d) for d in dec.factors))
    ]


def test_linear_characters_match_quotient_route():
    specs = (
        fam.builtin_catalog(2, 32)
        + fam.builtin_catalog(3, 81)
        + fam.builtin_catalog(5, 25)
    )
    groups = [fam.builtin(spec) for spec in specs]
    groups += [relabelled(fam.builtin(spec), seed) for seed, spec in enumerate(
        ["Dihedral(16)", "Quaternion(16)", "Extraspecial(3,+)", "ElemAbelian(3,2)", "Cyclic(5,2)"]
    )]
    for G in groups:
        ctx = get_context(G)
        for S in ctx.lattice():
            expected = _linear_via_quotient(ctx, S)
            chars = ctx.linear(S)
            got = [ch.values for ch in chars]
            assert all(ch.degree == 1 for ch in chars), G.name
            assert len(got) == len(expected) == len(set(got)), G.name
            assert set(got) == set(expected), G.name


def test_get_context_applies_an_explicit_cap_late():
    G = fam.builtin("Modular(3,5)", 256)
    get_context(G)
    assert len(get_context(G, order_cap=256).lattice()) == 18
    get_context(G)  # no cap given: the stored one stays
    assert get_context(G).order_cap == 256
    with pytest.raises(OrderCapExceeded):
        get_context(fam.builtin("Cyclic(2,1)"), order_cap=0).lattice()


def test_class_function_checks_conductor_and_length(c4):
    ctx = get_context(c4)
    W = ctx.whole
    cc = ctx.classes(W)
    good = [cyc.zeta_pow(4, k) for k in range(4)]
    chi = ClassFunction(W, cc, good)
    assert inner_product(chi, chi) == 1
    with pytest.raises(ConductorMismatch):
        ClassFunction(W, cc, [cyc.zeta_pow(8, 2 * k) for k in range(4)])
    with pytest.raises(InputError):
        ClassFunction(W, cc, good[:-1])
    with pytest.raises(InputError):
        ClassFunction(W, cc, good + good[:1])


def _bad_induce():
    W = get_context(fam.builtin("Quaternion(8)")).whole
    phi = restrict(irr(W)[0], gr.center(W))
    phi.degree += 1
    induce(phi, W)


def _bad_mackey():
    G = fam.builtin("Dihedral(8)")
    W = get_context(G).whole
    Z = gr.center(W)
    mackey_check(Z, W, irr(W)[0], irr(W)[0])


def _bad_frobenius():
    G = fam.builtin("Dihedral(8)")
    W = get_context(G).whole
    frobenius_check(gr.center(W), irr(W)[0], irr(W)[0])


def _bad_central(case):
    ctx = get_context(fam.builtin("Dihedral(8)"))
    Z = ctx.center
    other = next(S for S in ctx.lattice() if len(S.elems) == 2 and S.elems != Z.elems)
    top = irr(ctx.whole)[-1]
    alpha, A = {
        "trivial": (top, gr.trivial_subgroup(ctx.group)),
        "not central": (top, other),
        "outside": (irr(other)[0], Z),
    }[case]
    central_poset_map(alpha, A)


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(_bad_induce, InternalCheckError, id="induce-degree"),
        pytest.param(_bad_mackey, InputError, id="mackey-owners"),
        pytest.param(_bad_frobenius, InputError, id="frobenius-owner"),
        pytest.param(lambda: _bad_central("trivial"), InputError, id="central-trivial"),
        pytest.param(lambda: _bad_central("not central"), InputError, id="central-not-central"),
        pytest.param(lambda: _bad_central("outside"), InputError, id="central-outside-owner"),
    ],
)
def test_invariant_checks_raise_named_errors(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.slow
def test_inner_product_matches_cycint_oracle():
    specs = fam.builtin_catalog(2, 32) + fam.builtin_catalog(3, 27) + fam.builtin_catalog(5, 25)
    groups = [fam.builtin(spec) for spec in specs] + [
        relabelled(fam.builtin("Extraspecial(3,+)"), 3),
        relabelled(fam.builtin("DirectProduct(Quaternion(8),Cyclic(2,2))"), 4),
        gr.from_cayley([[0]], "C1"),
    ]
    for G in groups:
        ctx = get_context(G)
        covers: dict = {}
        for K, H in ctx.maximal_pairs():
            covers.setdefault(K.elems, []).append(H)
        for S in ctx.lattice():
            cc = ctx.classes(S)
            chars = ctx.irr(S)
            for ch in chars:
                same = ClassFunction(S, cc, ch.values)
                assert same == ch and hash(same) == hash(ch), G.name
                values = ch.values
                for g in S.elems:
                    assert ch.value_at(g) == values[cc.class_of[g]], G.name
            gram = [[inner_product(a, b) for b in chars] for a in chars]
            assert gram == naive_inner_products(chars, chars), G.name
            for H in covers.get(S.elems, ()):
                res = [restrict(chi, S) for chi in ctx.irr(H)]
                mults = [[inner_product(r, psi) for psi in chars] for r in res]
                assert mults == naive_inner_products(res, chars), G.name


def test_class_function_value_at_rejects_out_of_range_indices(c4):
    ctx = get_context(c4)
    chi = ctx.irr(ctx.whole)[1]
    assert chi.value_at(3) == chi.values[ctx.classes(ctx.whole).class_of[3]]
    for g in (-1, 4, 99):
        with pytest.raises(InputError):
            chi.value_at(g)


def test_class_function_rejects_values_that_are_not_cycint(c4):
    ctx = get_context(c4)
    W = ctx.whole
    with pytest.raises(InputError):
        ClassFunction(W, ctx.classes(W), [1, 1, 1, 1])


def test_class_function_rejects_classes_of_another_subgroup(d8):
    """The classes must be the owner's own: the 4 classes of a subgroup of
    order 4 on the whole of D8, or classes of an equal element set in
    another copy of the table, raise InputError instead of building a class
    function whose inner products zip over the wrong classes."""
    ctx = get_context(d8)
    W = ctx.whole
    V = next(S for S in ctx.lattice() if len(S.elems) == 4)
    values = irr(V)[0].values
    with pytest.raises(InputError, match="another subgroup"):
        ClassFunction(W, ctx.classes(V), values)
    copy = gr.whole_group(fam.builtin("Dihedral(8)"))
    with pytest.raises(InputError, match="another subgroup"):
        ClassFunction(copy, ctx.classes(W), irr(W)[0].values)
    assert ClassFunction(V, ctx.classes(V), values) == irr(V)[0]


def test_restricted_rows_rejects_a_subgroup_outside_the_other(d8):
    """_restricted_rows(K, H), the one bulk restriction, raises
    InternalCheckError for K not inside H rather than reading the -1 of
    K's elements outside H as a class of H."""
    ctx = get_context(d8)
    fours = [S for S in ctx.lattice() if len(S.elems) == 4]
    twos = [S for S in ctx.lattice() if len(S.elems) == 2]
    K, H = next((K, H) for K in twos for H in fours if not K.is_subset_of(H))
    with pytest.raises(InternalCheckError, match="is not inside H"):
        ctx._restricted_rows(K, H)
    with pytest.raises(InternalCheckError, match="is not inside H"):
        ctx._restriction_masks(K, H)
    inside = next(K for K in twos if K.is_subset_of(H))
    assert ctx._restricted_rows(inside, H) == [restrict(chi, inside).rows for chi in irr(H)]


def test_clifford_split_rejects_a_subgroup_that_is_not_normal(d8):
    """_clifford_split(K, H) permutes K's classes by conjugation with an x in
    H outside K; for a K not normal in H some conjugate leaves K, and the
    split raises InternalCheckError rather than reading its class as -1.
    Each of D8's four non-normal subgroups of order 2 under D8 does."""
    ctx = get_context(d8)
    twos = [K for K in ctx.lattice() if len(K.elems) == 2 and not gr.is_normal_in(K, ctx.whole)]
    assert len(twos) == 4
    for K in twos:
        with pytest.raises(InternalCheckError, match="K is not normal in H"):
            ctx._clifford_split(K, ctx.whole)


def _inner_product_oracle(ctx, K, H) -> tuple:
    """The masks of (K, H) with every row of Irr(H) fed to the inner-product
    handler, none looked up."""
    rows = ctx._restricted_rows(K, H)
    return tuple(ctx._inner_product_masks(K, H, rows, range(len(rows))))


def test_clifford_edges_match_inner_product_edges():
    """On every index-p cover pair of the sweep catalog and of relabelled
    tables, the front (lookup, then the orbit walk for the misses) gives the
    masks of the inner-product handler fed every row, and restriction_edges
    returns them."""
    specs = fam.builtin_catalog(2, 64) + fam.builtin_catalog(3, 64) + fam.builtin_catalog(5, 64)
    groups = [fam.builtin(spec) for spec in specs]
    groups += [relabelled(fam.builtin(spec), seed) for seed, spec in enumerate(
        ["Dihedral(16)", "Quaternion(16)", "Extraspecial(3,+)", "ElemAbelian(3,2)", "Cyclic(5,2)"]
    )]
    pairs = 0
    for G in groups:
        ctx = get_context(G)
        for K, H in ctx.maximal_pairs():
            expected = _inner_product_oracle(ctx, K, H)
            assert ctx._restriction_masks(K, H) == expected, (G.name, K, H)
            assert ctx.restriction_edges(K, H) == expected, (G.name, K, H)
            pairs += 1
    assert pairs > 54_000


def test_non_cover_masks_are_cover_masks_composed_down_a_chain():
    """Every comparable pair K < H of index at least p^2 in the catalogs p = 2
    up to 32 and p = 3 up to 27 sends its misses to inner products; its masks
    equal the front's masks of the covers of one chain H > M > ... > K,
    composed from the top: the constituents of chi_K are those of psi_K
    over the constituents psi of chi_M, and nothing cancels."""
    specs = fam.builtin_catalog(2, 32) + fam.builtin_catalog(3, 27)
    pairs = 0
    for G in map(fam.builtin, specs):
        ctx = get_context(G)
        p = gr.require_p_group(G)
        subs = ctx.lattice()
        for H in subs:
            for K in subs:
                if len(H.elems) < p * p * len(K.elems) or not K.is_subset_of(H):
                    continue
                top, composed = H, None
                while top.elems != K.elems:
                    M = next(M for M in ctx._maximal[top.mask] if K.is_subset_of(M))
                    cover = ctx._restriction_masks(M, top)
                    if composed is None:
                        composed = cover
                    else:
                        composed = tuple(
                            reduce(or_, (m for i, m in enumerate(cover) if c >> i & 1))
                            for c in composed
                        )
                    top = M
                assert ctx.restriction_edges(K, H) == composed, (G.name, K, H)
                pairs += 1
    assert pairs == 8063


def test_irreducible_restrictions_of_a_non_cover_pair_need_no_inner_product(monkeypatch):
    """In D8 x C2^2 a nonabelian K of order 8 has index 4, and every chi of G
    restricts to one irreducible of K, degree 2 ones too.  So the front's
    lookup hits every row: restriction_edges(K, G) makes no inner product,
    and its masks are those of the inner-product handler fed every row."""
    ctx = get_context(fam.builtin("DirectProduct(Dihedral(8),ElemAbelian(2,2))"))
    K = next(S for S in ctx.lattice() if len(S.elems) == 8 and not ctx.is_abelian(S))
    inner_raw, calls = characters.CharContext.inner_raw, []

    def counted(self, *args):
        calls.append(args)
        return inner_raw(self, *args)

    monkeypatch.setattr(characters.CharContext, "inner_raw", counted)
    masks = ctx.restriction_edges(K, ctx.whole)
    assert calls == [] and 2 in ctx.degrees(ctx.whole)
    assert masks == _inner_product_oracle(ctx, K, ctx.whole)


def test_restriction_columns_are_the_transpose_of_restriction_edges():
    """On every containment pair K <= H of the catalogs p = 2 up to 16 and
    p = 3 up to 27, and of a relabelled table, column i of
    restriction_columns(K, H) holds exactly the j with bit i set in mask j
    of restriction_edges(K, H), one column per character of K."""
    specs = fam.builtin_catalog(2, 16) + fam.builtin_catalog(3, 27)
    groups = [fam.builtin(spec) for spec in specs]
    groups.append(relabelled(fam.builtin("DirectProduct(Quaternion(8),Cyclic(2,1))"), 3))
    pairs = 0
    for G in groups:
        ctx = get_context(G)
        subs = ctx.lattice()
        for H in subs:
            for K in subs:
                if not K.is_subset_of(H):
                    continue
                masks = ctx.restriction_edges(K, H)
                want = tuple(
                    sum(1 << j for j, m in enumerate(masks) if m >> i & 1)
                    for i in range(len(ctx.irr_rows(K)))
                )
                assert ctx.restriction_columns(K, H) == want, (G.name, K, H)
                pairs += 1
    assert pairs == 1918


def test_restriction_columns_are_kept_after_the_first_read(monkeypatch):
    """The first read of a pair's columns reads restriction_edges; a second
    read returns the kept tuple and decomposes nothing."""
    ctx = get_context(relabelled(fam.builtin("Dihedral(16)"), 5))
    K = next(S for S in ctx.lattice() if len(S.elems) == 2)
    calls = []
    front = characters.CharContext._restriction_masks

    def counted(self, *args):
        calls.append(args)
        return front(self, *args)

    monkeypatch.setattr(characters.CharContext, "_restriction_masks", counted)
    cols = ctx.restriction_columns(K, ctx.whole)
    assert len(calls) == 1 and cols is ctx._columns[(K.mask, ctx.whole.mask)]
    assert ctx.restriction_columns(K, ctx.whole) is cols and len(calls) == 1


def test_meet_is_the_lattice_instance_of_the_intersection():
    """For every ordered pair of subgroups of the catalogs p = 2 up to 32 and
    p = 3 up to 27, ctx.meet(A, B) is the lattice's own instance with the
    elements of intersect_all([A, B])."""
    specs = fam.builtin_catalog(2, 32) + fam.builtin_catalog(3, 27)
    pairs = 0
    for G in map(fam.builtin, specs):
        ctx = get_context(G)
        subs = ctx.lattice()
        for A in subs:
            for B in subs:
                M, want = ctx.meet(A, B), gr.intersect_all([A, B])
                assert M is ctx.canonical(want) and M.elems == want.elems, (G.name, A, B)
        pairs += len(subs) ** 2
    assert pairs == 218515


def test_non_normal_prime_index_pairs_keep_inner_products():
    """In S3 each C2 has prime index 3 but is not normal: its restriction
    edges must come from inner products, not from the Clifford route."""
    S3 = gr.from_permutations([(1, 0, 2), (1, 2, 0)], name="S3")
    ctx = get_context(S3)
    twos = [K for K in ctx.lattice() if len(K.elems) == 2]
    assert len(twos) == 3 and ctx.maximal_pairs() == []
    for K in twos:
        assert ctx.restriction_edges(K, ctx.whole) == (0b01, 0b10, 0b11)


def _as_stored(chars) -> tuple:
    """ClassFunctions of one subgroup as the context stores Irr: (rows, degrees)."""
    return tuple(ch.rows for ch in chars), tuple(ch.degree for ch in chars)


def _store(ctx, S, chars) -> None:
    """Make chars the stored Irr(S), dropping the view of the old one."""
    ctx._irr[S.mask] = _as_stored(chars)
    ctx._irr_views.pop(S.mask, None)


def _tamper_compute_irr(monkeypatch, tampered, hit) -> None:
    """Let _compute_irr apply tampered, a map of ClassFunction tuples, to
    Irr(S) for every S with hit(ctx, S)."""
    compute_irr = characters._compute_irr

    def tampered_irr(ctx, S):
        rows, degrees = compute_irr(ctx, S)
        if not hit(ctx, S):
            return rows, degrees
        cc = ctx.classes(S)
        chars = tuple(ClassFunction._from_rows(S, cc, r, degree=d) for r, d in zip(rows, degrees))
        return _as_stored(tampered(chars))

    monkeypatch.setattr(characters, "_compute_irr", tampered_irr)


@pytest.mark.parametrize("tamper", ["drop", "spurious"])
def test_bulk_clifford_edges_certify_irr_of_the_smaller_subgroup(tamper, capsys, monkeypatch):
    """On an abelian cover pair every chi_K is irreducible, so the bulk
    lookup is the whole decomposition.  An Irr(K) with one character
    dropped, or with a spurious one added, must raise IncompleteIrr, and
    exit 5 from the CLI."""

    def tampered(chars):
        if tamper == "drop":
            return chars[:-1]
        first = chars[0]
        return chars + (ClassFunction(first.owner, first.classes, [2 * v for v in first.values]),)

    ctx = get_context(fam.builtin("Cyclic(2,2)"))
    K, H = ctx.maximal_pairs()[-1]
    assert (len(K.elems), len(H.elems)) == (2, 4)
    assert ctx.restriction_edges(K, H) == (0b10, 0b01, 0b01, 0b10)
    ctx._edges.clear()
    _store(ctx, K, tampered(ctx.irr(K)))
    ctx._char_index.pop(K.mask, None)
    with pytest.raises(IncompleteIrr):
        ctx.restriction_edges(K, H)

    _tamper_compute_irr(monkeypatch, tampered, lambda ctx, S: len(S.elems) == 2)
    assert main(["poset", "--group", "Cyclic(2,2)", "--e", "0"]) == 5
    assert "internal check failed" in capsys.readouterr().err


@pytest.mark.parametrize("tamper", ["drop", "spurious"])
def test_clifford_orbit_walk_certifies_irr_of_the_smaller_subgroup(tamper):
    """On Q8 over a cyclic C4 the degree-2 chi_K is an orbit sum, so the
    orbit walk runs.  An Irr(K) without the invariant constituent of chi_0
    leaves a restriction that is neither irreducible nor an orbit sum; one
    with a spurious invariant character leaves a psi under no restriction.
    Both raise IncompleteIrr."""
    ctx = get_context(fam.builtin("Quaternion(8)"))
    K, H = ctx.maximal_pairs()[-1]
    masks = ctx.restriction_edges(K, H)
    edges = sum(m.bit_count() for m in masks)
    assert (len(K.elems), len(H.elems), edges) == (4, 8, 6)
    chars = ctx.irr(K)
    psi = chars[(masks[0] & -masks[0]).bit_length() - 1]
    if tamper == "drop":
        chars = tuple(ch for ch in chars if ch is not psi)
    else:
        chars += (ClassFunction(K, psi.classes, [2 * v for v in psi.values]),)
    ctx._edges.clear()
    _store(ctx, K, chars)
    ctx._char_index.pop(K.mask, None)
    with pytest.raises(IncompleteIrr):
        ctx.restriction_edges(K, H)


def _tripled(ch) -> ClassFunction:
    """ch with every row tripled and its degree kept: a row that is neither
    a restriction of a linear character nor a root of unity."""
    return ClassFunction._from_rows(
        ch.owner, ch.classes, tuple(3 * r for r in ch.rows), degree=ch.degree
    )


def test_inner_product_edges_certify_the_linear_rows_of_irr_of_the_smaller_subgroup(monkeypatch):
    """A subgroup K of order 2 in D8 has index 4, so the misses of the lookup
    of (K, D8) go to the inner-product handler.  With Irr(K)'s second row
    tripled, the linear chi_K that restrict to that row miss; the handler
    must raise IncompleteIrr, not KeyError."""
    ctx = get_context(fam.builtin("Dihedral(8)"))
    K = next(S for S in ctx.lattice() if len(S.elems) == 2)
    chars = ctx.irr(K)
    _store(ctx, K, (chars[0], _tripled(chars[1])))
    ctx._char_index.pop(K.mask, None)
    assert (K.mask, ctx.whole.mask) not in ctx._edges
    handler, fed = characters.CharContext._inner_product_masks, []

    def spy(self, K, H, restricted, missed):
        fed.append([restricted[j] for j in missed])
        return handler(self, K, H, restricted, missed)

    monkeypatch.setattr(characters.CharContext, "_inner_product_masks", spy)
    with pytest.raises(IncompleteIrr):
        ctx.restriction_edges(K, ctx.whole)
    assert fed and chars[1].rows in fed[0]


def test_clifford_irr_certifies_the_linear_rows_of_irr_of_the_first_maximal_subgroup():
    """_clifford_irr extends each invariant linear psi of K, the first
    maximal subgroup of D8, by the root-of-unity exponents of its values.
    With Irr(K)'s first row tripled (degree kept), a value is no root of
    unity: Irr(D8) must raise IncompleteIrr, not KeyError."""
    ctx = get_context(fam.builtin("Dihedral(8)"))
    ctx.lattice()
    K = ctx._maximal[ctx.whole.mask][0]
    chars = ctx.irr(K)
    _store(ctx, K, (_tripled(chars[0]),) + chars[1:])
    assert ctx.whole.mask not in ctx._irr
    with pytest.raises(IncompleteIrr):
        ctx.irr_rows(ctx.whole)


def test_clifford_irr_matches_monomial_oracle():
    """Every subgroup of the catalogs and of relabelled tables gets the same
    canonical Irr from Clifford theory over its first maximal subgroup as
    from the monomial search, and the invariant nonlinear case (extensions
    that are orbit sums of other maximal subgroups) is met.  Subgroups
    are taken in lattice order, so at the first disagreement the oracle's
    inputs, the linear characters of proper subgroups, have already been
    checked."""
    specs = fam.builtin_catalog(2, 64) + fam.builtin_catalog(3, 81) + fam.builtin_catalog(5, 125)
    groups = [fam.builtin(spec) for spec in specs]
    groups += [relabelled(fam.builtin(spec), seed) for seed, spec in enumerate(
        ["Dihedral(16)", "Quaternion(16)", "Extraspecial(3,+)", "ElemAbelian(3,2)", "Cyclic(5,2)"]
    )]
    groups += [
        fam.builtin("DirectProduct(Dihedral(16),Dihedral(8))"),
        relabelled(fam.builtin("DirectProduct(Extraspecial(3,+),ElemAbelian(3,2))", 256), 1),
    ]
    compared = invariant_nonlinear = 0
    for G in groups:
        ctx = get_context(G, 256)
        first_below = {}
        for K, H in ctx.maximal_pairs():
            first_below.setdefault(H.elems, K)
        for S in ctx.lattice():
            if ctx.classes(S).count == len(S.elems):
                continue
            expected = sorted(_monomial_irr(ctx, S), key=ClassFunction.sort_key)
            assert [ch.rows for ch in ctx.irr(S)] == [ch.rows for ch in expected], (G.name, S)
            compared += 1
            K = first_below[S.elems]
            x = next(h for h in S.elems if not K.contains(h))
            invariant_nonlinear += sum(
                psi.degree > 1 and conjugate_character(psi, x).rows == psi.rows
                for psi in ctx.irr(K)
            )
    assert compared > 1579 and invariant_nonlinear > 0


_D8xD8 = "DirectProduct(Dihedral(8),Dihedral(8))"


def _invariant_nonlinear_subgroups(ctx) -> list:
    """The nonabelian subgroups H whose first maximal subgroup K carries an
    H-invariant nonlinear character, found by conjugate_character."""
    found = []
    for H in ctx.lattice():
        if ctx.classes(H).count == len(H.elems):
            continue
        K = ctx._maximal[H.mask][0]
        x = next(h for h in H.elems if not K.contains(h))
        if any(
            psi.degree > 1 and conjugate_character(psi, x).rows == psi.rows
            for psi in ctx.irr(K)
        ):
            found.append(H)
    return found


def test_clifford_irr_makes_no_induce_call(monkeypatch):
    """Irr of every subgroup of D8 x D8 comes from orbit sums over maximal
    subgroups, with no induction, although 27 of its subgroups H have a
    first maximal subgroup carrying an H-invariant nonlinear character."""

    def no_induce(phi, target):
        raise AssertionError("induce called on the Clifford route")

    monkeypatch.setattr(characters, "induce", no_induce)
    ctx = get_context(fam.builtin(_D8xD8))
    for S in ctx.lattice():
        ctx.irr(S)
    assert len(_invariant_nonlinear_subgroups(ctx)) == 27


def test_clifford_irr_with_only_the_first_maximal_subgroup_is_incomplete(monkeypatch, capsys):
    """An H-invariant nonlinear psi of the first maximal subgroup K gives no
    character of H from K's orbits: its extensions are orbit sums of H's
    other maximal subgroups.  Withholding those must raise IncompleteIrr,
    and exit 5 from charposet irr --subgroups."""
    ctx = get_context(fam.builtin(_D8xD8))
    H = _invariant_nonlinear_subgroups(ctx)[0]
    assert len(ctx._maximal[H.mask]) > 1
    ctx._maximal[H.mask] = ctx._maximal[H.mask][:1]
    del ctx._irr[H.mask]
    ctx._irr_views.pop(H.mask, None)
    with pytest.raises(IncompleteIrr):
        ctx.irr(H)

    lattice = characters.CharContext.lattice

    def withheld(self):
        out = lattice(self)
        if H.mask in self._maximal:
            self._maximal[H.mask] = self._maximal[H.mask][:1]
        return out

    monkeypatch.setattr(characters.CharContext, "lattice", withheld)
    assert main(["irr", "--group", _D8xD8, "--subgroups"]) == 5
    err = capsys.readouterr().err
    assert "internal check failed" in err and "Clifford theory" in err


def _abelian_up_cover_oracle(ctx, S):
    """Whether S's first cover is abelian, by conjugacy_classes itself."""
    U = ctx.up_cover.get(S.mask)
    return U is not None and gr.conjugacy_classes(U).count == len(U.elems)


def test_abelian_up_cover_route_matches_conjugation_and_coset_walk(monkeypatch):
    """On every subgroup of the catalogs and of relabelled tables,
    ctx.classes equals conjugacy_classes field for field, the members that
    both routes derive from class_of are the brute-force conjugation orbits,
    and Irr of every abelian subgroup equals the coset walk's.  Exactly the
    abelian subgroups (by brute-force commutation) take their classes under
    the empty sequence, and exactly the subgroups under an abelian up cover
    take the set of restrictions of Irr(U)."""
    def spy(seen, fn, at):
        def wrapped(*args):
            seen.append(args[at].elems)
            return fn(*args)
        return wrapped

    singleton, restricted = [], []
    conjugacy_classes = characters.conjugacy_classes

    def empty_sequence(S, *args):
        if args == ((),):
            singleton.append(S.elems)
        return conjugacy_classes(S, *args)

    monkeypatch.setattr(characters, "conjugacy_classes", empty_sequence)
    monkeypatch.setattr(characters, "_fibre_irr", spy(restricted, characters._fibre_irr, 1))
    specs = fam.builtin_catalog(2, 64) + fam.builtin_catalog(3, 81) + fam.builtin_catalog(5, 125)
    groups = [fam.builtin(spec) for spec in specs]
    groups += [relabelled(fam.builtin(spec), seed) for seed, spec in enumerate(
        ["Dihedral(16)", "Quaternion(16)", "Extraspecial(3,+)", "ElemAbelian(3,2)", "Cyclic(5,2)"]
    )]
    under_abelian = 0
    for G in groups:
        ctx = get_context(G, 256)
        lattice = ctx.lattice()
        singleton.clear()
        restricted.clear()
        expected = {S.elems for S in lattice if _abelian_up_cover_oracle(ctx, S)}
        abelian = {S.elems for S in lattice if brute_commuting(G.table, S.elems) == list(S.elems)}
        for S in lattice:
            cc = gr.conjugacy_classes(S)
            assert ctx.classes(S) == cc, (G.name, S)
            orbits = tuple(brute_classes(G, S.elems))
            assert ctx.classes(S).members == cc.members == orbits, (G.name, S)
        for S in lattice:
            if ctx.classes(S).count == len(S.elems):
                walk = sorted(characters._linear_characters(ctx, S, (G.identity,)))
                assert list(ctx.irr_rows(S)) == walk, (G.name, S)
        assert sorted(singleton) == sorted(abelian), G.name
        assert sorted(restricted) == sorted(expected), G.name
        under_abelian += len(expected)
    assert under_abelian > 9000


def test_no_abelian_subgroup_is_conjugated(monkeypatch):
    """theorem_report at every level and irr_json over every subgroup, on
    the small catalogs and two relabelled tables, conjugate no abelian
    subgroup: conjugacy_classes takes every abelian subgroup with the empty
    sequence, and only nonabelian subgroups with any other."""
    taken = []
    conjugacy_classes = characters.conjugacy_classes

    def spy(S, *args):
        taken.append((S.ambient.table, S.elems, args))
        return conjugacy_classes(S, *args)

    monkeypatch.setattr(characters, "conjugacy_classes", spy)
    specs = fam.builtin_catalog(2, 32) + fam.builtin_catalog(3, 27) + fam.builtin_catalog(5, 25)
    groups = [fam.builtin(spec) for spec in specs]
    groups += [relabelled(fam.builtin(spec), seed) for seed, spec in enumerate(
        ["DirectProduct(Dihedral(8),Cyclic(2,1))", "Extraspecial(3,+)"]
    )]
    for G in groups:
        for e in valid_exponents(G):
            theorem_report(G, None, e)
        export.irr_json(G, True)
    kinds = set()
    for table, elems, args in taken:
        abelian = brute_commuting(table, elems) == list(elems)
        assert abelian == (args == ((),)), elems
        kinds.add(abelian)
    assert kinds == {True, False}


def test_is_abelian_without_the_lattice_commutes_elements_and_builds_nothing():
    """With no lattice, is_abelian tests whether the elements commute; it
    builds no class set and no lattice."""
    G = fam.builtin("DirectProduct(Dihedral(8),Cyclic(2,1))")
    ctx = get_context(G)
    pairs = itertools.combinations(range(G.order), 2)
    subgroups = {gr.closure_from_gens(G, gens) for gens in pairs}
    kinds = set()
    for elems in sorted(subgroups):
        S = gr.Subgroup(G, elems)
        abelian = brute_commuting(G.table, S.elems) == list(S.elems)
        assert ctx.is_abelian(S) == abelian, S
        kinds.add(abelian)
    assert kinds == {True, False}
    assert ctx._lattice is None and ctx._classes == {}


def test_a_subgroup_of_a_second_equal_table_is_not_a_subset():
    """Restriction to, and induction from, a subgroup of a second table with
    the same Cayley table raise NotASubgroup, and the context of the first
    table keeps no class set of the second."""
    G1 = fam.builtin("AbelianProduct(4,2)")
    G2 = gr.from_cayley(G1.table, "twin")
    K1, K2 = _sub(G1, [2]), _sub(G2, [2])
    assert K1.mask == K2.mask and not K2.is_subset_of(gr.whole_group(G1))
    ctx = get_context(G1)
    chi = ctx.irr(ctx.whole)[1]
    with pytest.raises(NotASubgroup):
        restrict(chi, K2)
    with pytest.raises(NotASubgroup):
        induce(get_context(G2).irr(K2)[1], ctx.whole)
    assert all(cc.owner.ambient is G1 for cc in ctx._classes.values())
    assert all(ch.classes.owner.ambient is G1 for ch in ctx.irr(K1))


def test_abelian_subgroup_routes_never_build_the_lattice():
    """Classes, Irr and restriction onto a proper subgroup of (C2)^7, whose
    lattice exceeds the lattice cap, read up_cover only and build nothing."""
    G = fam.builtin("ElemAbelian(2,7)", 256)
    ctx = get_context(G, 256)
    gens: list = []
    S = _sub(G, gens)
    for g in range(G.order):
        if len(S.elems) == 64:
            break
        if not S.contains(g):
            gens.append(g)
            S = _sub(G, gens)
    assert len(S.elems) == 64
    assert ctx.classes(S).count == 64
    assert len(ctx.irr(S)) == 64
    chi = ctx.irr(ctx.whole)[-1]
    assert restrict(chi, S).rows in ctx.char_index(S)
    assert ctx._lattice is None


def test_restricted_irr_certifies_irr_of_the_abelian_cover(capsys, monkeypatch):
    """A spurious row (the doubled first character) in Irr(U) restricts to
    one character too many for a subgroup under U: IncompleteIrr, and exit
    5 from charposet irr --subgroups when the whole group's Irr is the one
    tampered with."""

    def tampered(chars):
        first = chars[0]
        return chars + (ClassFunction(first.owner, first.classes, [2 * v for v in first.values]),)

    ctx = get_context(fam.builtin("ElemAbelian(3,2)"))
    S = ctx.lattice()[1]
    U = ctx.up_cover[S.mask]
    assert (len(S.elems), len(U.elems)) == (3, 9)
    _store(ctx, U, tampered(ctx.irr(U)))
    with pytest.raises(IncompleteIrr):
        ctx.irr(S)

    _tamper_compute_irr(monkeypatch, tampered, lambda ctx, S: len(S.elems) == ctx.group.order)
    assert main(["irr", "--group", "Cyclic(2,3)", "--subgroups"]) == 5
    assert "internal check failed" in capsys.readouterr().err


_HALVED_RESTRICTION = """
import sys
from charposet import cli, families
from charposet.characters import CharContext, get_context
from charposet.errors import IncompleteIrr

restricted_rows = CharContext._restricted_rows

def halved(self, K, H):
    # For the first subgroup S of order 4, under U = G, read only the
    # positions of a subgroup of order 2 of S: Irr(U) then restricts to 2
    # distinct rows, not 4.
    S = next(T for T in self.lattice() if len(T.elems) == 4)
    if K.mask == S.mask and H.mask == self.whole.mask:
        K = next(T for T in self.lattice() if len(T.elems) == 2 and T.is_subset_of(S))
    return restricted_rows(self, K, H)

CharContext._restricted_rows = halved
ctx = get_context(families.builtin("AbelianProduct(4,2)"))
S = next(S for S in ctx.lattice() if len(S.elems) == 4)
assert ctx.up_cover[S.mask] is ctx.lattice()[-1]
try:
    ctx.irr_rows(S)
except IncompleteIrr as err:
    print(err)
else:
    sys.exit("Irr(S) took the restrictions to a proper subgroup of S")

sys.exit(0 if cli.main(["verify", "--group", "AbelianProduct(4,2)"]) == 5 else "verify did not exit 5")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
def test_a_sequence_that_generates_a_proper_subgroup_exits_5(flags):
    """Under an abelian up cover U, Irr(S) is the set of restrictions of
    Irr(U) to S.  With the restriction to S, of order 4, reading only the
    positions of a subgroup of order 2 of S, there are 2 distinct rows, not
    4: IncompleteIrr, and verify exits 5, under plain Python and under
    python -O."""
    proc = run_script(flags, _HALVED_RESTRICTION)
    assert proc.returncode == 0, proc.stderr
    assert "restricts to 2 rows over a subgroup of order 4" in proc.stdout
    assert "internal check failed" in proc.stderr


_TRUNCATED_SEQUENCE = """
import sys
from charposet import characters, cli, families, groups
from charposet.errors import IncompleteIrr

all_subgroups = characters.all_subgroups

def truncated(G, *args):
    # Drop the last element of the sequence of the first nonabelian
    # subgroup in lattice order: the rest generates a proper subgroup.
    lattice = all_subgroups(G, *args)
    sequences = args[-1]
    S = next(S for S in lattice if not sequences[S.mask][1])
    gens, abelian = sequences[S.mask]
    sequences[S.mask] = (gens[:-1], abelian)
    return lattice

characters.all_subgroups = truncated
ctx = characters.get_context(families.builtin("Dihedral(16)"))
S = next(S for S in ctx.lattice() if not ctx.is_abelian(S))
gens = ctx._sequences[S.mask][0]
assert len(S.elems) == 8 and len(groups.closure_from_gens(ctx.group, gens)) == 4
if groups.conjugacy_classes(S, gens).members == groups.conjugacy_classes(S).members:
    sys.exit("the truncated sequence gives the orbits of S")
try:
    ctx.irr_rows(S)
except IncompleteIrr as err:
    print(err)
else:
    sys.exit("Irr(S) passed over the orbits of a proper subgroup of S")

sys.exit(0 if cli.main(["verify", "--group", "Dihedral(16)"]) == 5 else "verify did not exit 5")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
def test_a_nonabelian_sequence_that_generates_a_proper_subgroup_exits_5(flags):
    """ctx.classes of a nonabelian subgroup S are the orbits under S's
    lattice sequence.  With the sequence of D8 in D16 cut to a generating
    set of a subgroup of order 4, the orbits are finer than S's classes,
    and Irr's completeness check raises IncompleteIrr; verify exits 5,
    under plain Python and under python -O."""
    proc = run_script(flags, _TRUNCATED_SEQUENCE)
    assert proc.returncode == 0, proc.stderr
    assert "Clifford theory over the maximal subgroups gave" in proc.stdout
    assert "internal check failed" in proc.stderr


_ESCAPING_SEQUENCE = """
import sys
from charposet import characters, cli, families, groups
from charposet.errors import InternalCheckError

all_subgroups = characters.all_subgroups

def escaping(G, *args):
    # Append to the sequence of the first nonabelian subgroup in lattice
    # order that is not normal an element outside its normaliser: some
    # conjugate of an element of S then lies outside S.
    lattice = all_subgroups(G, *args)
    sequences = args[-1]
    for S in lattice:
        gens, abelian = sequences[S.mask]
        outside = [x for x in range(G.order) if not groups.normalised_by(S, (x,))]
        if not abelian and outside:
            sequences[S.mask] = (gens + (outside[0],), abelian)
            break
    return lattice

characters.all_subgroups = escaping
ctx = characters.get_context(families.builtin("Dihedral(32)"))
S = next(S for S in ctx.lattice() if not ctx.is_abelian(S))
gens = ctx._sequences[S.mask][0]
assert len(S.elems) == 8 and not groups.normalised_by(S, gens)
try:
    ctx.irr_rows(S)
except InternalCheckError as err:
    print(err)
else:
    sys.exit("Irr(S) passed over orbits that leave S")

sys.exit(0 if cli.main(["verify", "--group", "Dihedral(32)"]) == 5 else "verify did not exit 5")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
def test_a_sequence_outside_the_normaliser_exits_5(flags):
    """ctx.classes of a nonabelian subgroup S are the orbits under S's
    lattice sequence, which must normalise S.  With an element outside
    N_G(S) appended to the sequence of D8 in D32, an orbit leaves S, the
    class sizes do not sum to |S| and conjugacy_classes raises
    InternalCheckError; verify exits 5, under plain Python and under
    python -O."""
    proc = run_script(flags, _ESCAPING_SEQUENCE)
    assert proc.returncode == 0, proc.stderr
    assert "class sizes do not sum to the subgroup order" in proc.stdout
    assert "internal check failed" in proc.stderr


def test_stored_irr_is_rows_and_degrees_in_canonical_order():
    """On every subgroup of the small catalogs and of S4, whose nonabelian
    subgroups take the monomial search: each stored degree is the identity
    value, the order is (degree, rows) with no repeats, and irr(S) and
    linear(S) are views of the stored rows and degrees."""
    specs = fam.builtin_catalog(2, 32) + fam.builtin_catalog(3, 27) + fam.builtin_catalog(5, 25)
    groups = [fam.builtin(spec) for spec in specs]
    groups.append(gr.from_permutations([(1, 0, 2, 3), (1, 2, 3, 0)], name="S4"))
    for G in groups:
        ctx = get_context(G)
        for S in ctx.lattice():
            rows, degrees = ctx.irr_rows(S), ctx.degrees(S)
            ident = ctx.classes(S).identity_class
            assert list(degrees) == [
                cyc.unpack_integer(r[ident], ctx.width, ctx.digits) for r in rows
            ], (G.name, S)
            keys = list(zip(degrees, rows))
            assert keys == sorted(set(keys)), (G.name, S)
            chars = ctx.irr(S)
            assert ctx.irr(S) is chars
            assert tuple(ch.rows for ch in chars) == rows, (G.name, S)
            assert tuple(ch.degree for ch in chars) == degrees, (G.name, S)
            assert ctx.linear(S) == tuple(ch for ch in chars if ch.degree == 1), (G.name, S)


def test_verification_and_export_build_no_class_function(monkeypatch):
    """theorem_report at every level of D8 x D8 and of (C2)^6, and
    irr_json over every subgroup, read Irr as stored rows and degrees: no
    ClassFunction is built until irr() is read."""
    built = []
    fill = ClassFunction._fill

    def spy(self, owner, *args):
        built.append(owner.elems)
        fill(self, owner, *args)

    monkeypatch.setattr(ClassFunction, "_fill", spy)
    for spec in (_D8xD8, "ElemAbelian(2,6)"):
        G = fam.builtin(spec)
        for e in valid_exponents(G):
            theorem_report(G, None, e)
        export.irr_json(fam.builtin(spec), True)
    assert built == []
    ctx = get_context(G)
    assert len(ctx.irr(ctx.whole)) == len(built) == 64


def test_chain_export_builds_no_class_function(monkeypatch):
    """chain_json reads each node's degree from the stored degrees: a chain
    of Q8 at e = 1 from a character of one subgroup of order 4 up to a peak
    in Irr(G) and down to another builds no ClassFunction, not even the
    view of Irr(G)."""
    poset = build_poset(fam.builtin("Quaternion(8)"), None, 1)
    ctx = poset.ctx
    H, K = poset.subgroups[1], poset.subgroups[0]
    chain = poset.witness_direct(ctx.irr(H)[0], ctx.irr(K)[2])
    assert poset.subgroup_of(chain.nodes[1]).elems == ctx.whole.elems
    assert ctx.whole.mask not in ctx._irr_views
    built = []
    fill = ClassFunction._fill

    def spy(self, owner, *args):
        built.append(owner.elems)
        fill(self, owner, *args)

    monkeypatch.setattr(ClassFunction, "_fill", spy)
    doc = export.chain_json(poset, chain, True)
    assert built == []
    assert [n["degree"] for n in doc["nodes"]] == [poset.char_of(n).degree for n in chain.nodes]
    assert doc["nodes"][1]["degree"] == 2


@pytest.mark.parametrize("spec", ["Dihedral(8)", "Quaternion(16)", "Extraspecial(3,+)"])
def test_regular_character_check_catches_one_changed_value(spec):
    """Rows with the right count, the right degree squares and no repeats,
    but one value changed at a class other than the identity's, fail the
    regular-character check; the true Irr passes it."""
    ctx = get_context(fam.builtin(spec))
    cc = ctx.classes(ctx.whole)
    chars = ctx.irr(ctx.whole)
    rows = [ch.rows for ch in chars]
    characters._check_complete(cc, rows)
    c = next(c for c in range(cc.count) if c != cc.identity_class)
    changed = list(chars[0].values)
    changed[c] = -changed[c]
    bad = [ClassFunction(ctx.whole, cc, changed).rows] + rows[1:]
    assert bad[0] != rows[0] and len(set(bad)) == cc.count
    with pytest.raises(IncompleteIrr, match="regular character"):
        characters._check_complete(cc, bad)
