import gc
import itertools
import random
import weakref

import pytest

from charposet import characters
from charposet import cyclotomic as cyc
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
from charposet.poset import central_poset_map
from charposet.verify import theorem_report

from conftest import closure_lattice, naive_induced_value, naive_inner_products, relabelled


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


def test_clifford_edges_match_inner_product_edges():
    """On every index-p cover pair of the sweep catalog and of relabelled
    tables, the Clifford route gives the inner-product route's edge tuple,
    in the same order, and restriction_edges returns it."""
    specs = fam.builtin_catalog(2, 64) + fam.builtin_catalog(3, 64) + fam.builtin_catalog(5, 64)
    groups = [fam.builtin(spec) for spec in specs]
    groups += [relabelled(fam.builtin(spec), seed) for seed, spec in enumerate(
        ["Dihedral(16)", "Quaternion(16)", "Extraspecial(3,+)", "ElemAbelian(3,2)", "Cyclic(5,2)"]
    )]
    pairs = 0
    for G in groups:
        ctx = get_context(G)
        for K, H in ctx.maximal_pairs():
            expected = ctx._inner_product_edges(K, H)
            assert ctx._clifford_edges(K, H) == expected, (G.name, K, H)
            assert ctx.restriction_edges(K, H) == expected, (G.name, K, H)
            pairs += 1
    assert pairs > 54_000


def test_non_normal_prime_index_pairs_keep_inner_products():
    """In S3 each C2 has prime index 3 but is not normal: its restriction
    edges must come from inner products, not from the Clifford route."""
    S3 = gr.from_permutations([(1, 0, 2), (1, 2, 0)], name="S3")
    ctx = get_context(S3)
    twos = [K for K in ctx.lattice() if len(K.elems) == 2]
    assert len(twos) == 3 and ctx.maximal_pairs() == []
    for K in twos:
        assert ctx.restriction_edges(K, ctx.whole) == ((0, 1, 0, 1), (0, 1, 2, 2))


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
        doubled = tuple(tuple(2 * v for v in row) for row in first.rows)
        return chars + (ClassFunction._from_rows(first.owner, first.classes, doubled),)

    ctx = get_context(fam.builtin("Cyclic(2,2)"))
    K, H = ctx.maximal_pairs()[-1]
    assert (len(K.elems), len(H.elems)) == (2, 4)
    assert ctx.restriction_edges(K, H) == ((1, 0, 0, 1), (0, 1, 2, 3))
    ctx._edges.clear()
    ctx._irr[K.elems] = tampered(ctx.irr(K))
    ctx._char_index.pop(K.elems, None)
    with pytest.raises(IncompleteIrr):
        ctx.restriction_edges(K, H)

    compute_irr = characters._compute_irr

    def tampered_irr(ctx, S):
        chars = compute_irr(ctx, S)
        return tampered(chars) if len(S.elems) == 2 else chars

    monkeypatch.setattr(characters, "_compute_irr", tampered_irr)
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
    I, J = ctx.restriction_edges(K, H)
    assert (len(K.elems), len(H.elems), len(I)) == (4, 8, 6)
    chars = ctx.irr(K)
    psi = chars[I[0]]
    if tamper == "drop":
        chars = tuple(ch for ch in chars if ch is not psi)
    else:
        doubled = tuple(tuple(2 * v for v in row) for row in psi.rows)
        chars += (ClassFunction._from_rows(K, psi.classes, doubled),)
    ctx._edges.clear()
    ctx._irr[K.elems] = chars
    ctx._char_index.pop(K.elems, None)
    with pytest.raises(IncompleteIrr):
        ctx.restriction_edges(K, H)


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
        K = ctx._maximal[H.elems][0]
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
    assert len(ctx._maximal[H.elems]) > 1
    ctx._maximal[H.elems] = ctx._maximal[H.elems][:1]
    del ctx._irr[H.elems]
    with pytest.raises(IncompleteIrr):
        ctx.irr(H)

    lattice = characters.CharContext.lattice

    def withheld(self):
        out = lattice(self)
        if H.elems in self._maximal:
            self._maximal[H.elems] = self._maximal[H.elems][:1]
        return out

    monkeypatch.setattr(characters.CharContext, "lattice", withheld)
    assert main(["irr", "--group", _D8xD8, "--subgroups"]) == 5
    err = capsys.readouterr().err
    assert "internal check failed" in err and "Clifford theory" in err
