import hashlib
import json
import random

import pytest

from charposet import cyclotomic as cyc
from charposet import export
from charposet import families as fam
from charposet import groups as gr
from charposet.characters import (
    CharContext,
    ClassFunction,
    get_context,
    inner_product,
    irr,
    restrict,
)
from charposet.errors import (
    ChoiceExhausted,
    ComponentCoverageError,
    InputError,
    InvalidExponent,
    NoConstituent,
    NotASubgroup,
    NotPGroup,
    PreconditionFailed,
    WitnessError,
)
from charposet.poset import (
    CharacterPoset,
    ComponentPartition,
    PosetNode,
    WitnessChain,
    build_poset,
    central_poset_map,
)
from charposet.verify import theorem_report, valid_exponents

from conftest import (
    bfs_components,
    relabelled,
    run_script,
    union_find_levels,
    witness_direct_oracle,
    witness_sequence_oracle,
)


def _poset(G, e, strategy="maximal"):
    return build_poset(G, None, e, strategy)


def _sign_char_on_center(G):
    ctx = get_context(G)
    Z = gr.center(ctx.whole)
    return Z, [ch for ch in ctx.irr(Z) if ch.values[1].coeffs[0] == -1][0]


def _link(a, direction, b):
    """The one-link chain from node a to node b."""
    return WitnessChain((a, b), (direction,))


def test_build_nodes_c4(c4):
    poset = build_poset(c4, 2, 1)
    subs, nodes = poset.subgroups, poset.nodes
    assert len(subs) == 1 and len(subs[0]) == 4
    assert len(nodes) == 4


def test_build_nodes_q8(q8):
    poset = build_poset(q8, 2, 1)
    subs, nodes = poset.subgroups, poset.nodes
    assert [len(S) for S in subs] == [4, 4, 4, 8]
    assert len(nodes) == 3 * 4 + 5


def test_build_nodes_d8_e0(d8):
    subs = build_poset(d8, 2, 0).subgroups
    assert [len(S) for S in subs] == [2, 2, 2, 2, 2, 4, 4, 4, 8]


def test_nodes_are_built_on_demand_with_unchanged_ids():
    """A poset keeps offsets and a node count; its PosetNode list is built on
    first access, in node-id order, and the subgroups and nodes of a fresh
    poset over every level of five groups match a pinned sha256."""
    digest = hashlib.sha256()
    total = 0
    for spec in ["Quaternion(8)", "Dihedral(16)", "Extraspecial(3,+)",
                 "AbelianProduct(4,2,2)", "Modular(3,3)"]:
        G = fam.builtin(spec)
        ctx = get_context(G)
        for e in valid_exponents(G):
            poset = build_poset(G, None, e)
            poset.components()
            assert "nodes" not in poset.__dict__
            assert poset.nodes == [
                PosetNode(sid, cid)
                for sid, S in enumerate(poset.subgroups)
                for cid in range(len(ctx.irr(S)))
            ]
            assert [poset.node_id(n) for n in poset.nodes] == list(range(poset.node_count))
            fresh = build_poset(G, None, e)
            subs, nodes = fresh.subgroups, fresh.nodes
            doc = [[list(S.elems) for S in subs], [[n.subgroup_id, n.char_id] for n in nodes]]
            digest.update(json.dumps(doc).encode())
            total += len(nodes)
    assert total == 776
    assert digest.hexdigest() == "24b8afd2cd7ba4f957a29ea26fcb74ed72f68a781cac120b16a4a19ec9a9255e"


def test_build_nodes_errors(q8, d8):
    with pytest.raises(InvalidExponent):
        build_poset(q8, 2, 3)
    with pytest.raises(NotPGroup):
        build_poset(q8, 3, 0)
    S3 = gr.from_permutations([(1, 0, 2), (1, 2, 0)], name="S3")
    with pytest.raises(NotPGroup):
        build_poset(S3, None, 0)


def _q8_nodes(q8, e=0):
    """Nodes of Q8 at level e: the two-dimensional (Q8, chi), Q8's trivial
    character, two characters of <1> (the first under chi) and one of <4>,
    and at e = 0 also (Z, sign), which lies under (Q8, chi)."""
    poset = build_poset(q8, None, e)
    ctx = get_context(q8)
    A = ctx.canonical(gr.generated_subgroup(q8, [1]))
    B = ctx.canonical(gr.generated_subgroup(q8, [4]))
    n = {
        "two": poset.locate(ctx.whole, ctx.irr(ctx.whole)[-1]),
        "trivial": poset.locate(ctx.whole, ctx.irr(ctx.whole)[0]),
        "a": poset.locate(A, ctx.irr(A)[1]),
        "c": poset.locate(A, ctx.irr(A)[0]),
        "b": poset.locate(B, ctx.irr(B)[0]),
    }
    if e == 0:
        n["sign"] = poset.locate(*_sign_char_on_center(q8))
    return poset, n


def test_related_equal_and_examples(q8):
    """(Z, sign) lies under the two-dimensional character of Q8: the link
    up from it and the same link read down both verify.  The self-links,
    incomparable pairs and pairs on one subgroup that this test also
    checked are cases of test_validate_chain_rejects_a_bad_link."""
    poset, n = _q8_nodes(q8)
    assert poset.validate_chain(_link(n["sign"], "up", n["two"]))
    assert poset.validate_chain(_link(n["two"], "down", n["sign"]))


# the level e, and one bad chain on the nodes of _q8_nodes(q8, e)
_BAD_CHAINS = {
    "length mismatch": (0, lambda n: WitnessChain((n["sign"], n["two"]), ())),
    "unknown direction": (0, lambda n: _link(n["two"], "sideways", n["sign"])),
    "node to itself, up": (0, lambda n: _link(n["two"], "up", n["two"])),
    "node to itself, down, e=1": (1, lambda n: _link(n["a"], "down", n["a"])),
    "one subgroup, up": (0, lambda n: _link(n["a"], "up", n["c"])),
    "one subgroup, down": (0, lambda n: _link(n["a"], "down", n["c"])),
    "one subgroup, reversed": (0, lambda n: _link(n["c"], "up", n["a"])),
    "incomparable subgroups, up": (0, lambda n: _link(n["a"], "up", n["b"])),
    "incomparable subgroups, down": (0, lambda n: _link(n["a"], "down", n["b"])),
    "incomparable subgroups, reversed": (0, lambda n: _link(n["b"], "up", n["a"])),
    "constituent bit clear": (0, lambda n: _link(n["sign"], "up", n["trivial"])),
    "direction flipped": (0, lambda n: _link(n["sign"], "down", n["two"])),
    "direction flipped, reversed": (0, lambda n: _link(n["two"], "up", n["sign"])),
    "one node, subgroup id too large": (1, lambda n: WitnessChain((PosetNode(99, 0),), ())),
    "one node, char id too large": (1, lambda n: WitnessChain((PosetNode(0, 7),), ())),
    "negative subgroup id": (1, lambda n: _link(n["c"], "up", PosetNode(-1, 0))),
    "subgroup id one past the last": (1, lambda n: _link(n["c"], "up", PosetNode(4, 0))),
    "negative char id": (1, lambda n: _link(PosetNode(0, -1), "up", n["two"])),
    "one node, float subgroup id": (1, lambda n: WitnessChain((PosetNode(0.0, 0),), ())),
    "one node, str subgroup id": (1, lambda n: WitnessChain((PosetNode("0", 0),), ())),
    "one node, bool subgroup id": (1, lambda n: WitnessChain((PosetNode(True, 0),), ())),
    "one node, float char id": (1, lambda n: WitnessChain((PosetNode(0, 1.0),), ())),
    "one node, not a pair": (1, lambda n: WitnessChain((7,), ())),
    "one node, a 1-tuple": (1, lambda n: WitnessChain(((0,),), ())),
}


@pytest.mark.parametrize("case", sorted(_BAD_CHAINS))
def test_validate_chain_rejects_a_bad_link(q8, case):
    """Each chain breaks one rule of validate_chain; the valid link from
    (Q8, chi) down to (<1>, psi), at the same level, is the control."""
    e, make = _BAD_CHAINS[case]
    poset, n = _q8_nodes(q8, e)
    assert poset.validate_chain(_link(n["two"], "down", n["a"]))
    assert poset.validate_chain(make(n)) is False


def _brute_component_count(G, e):
    """Full pairwise relation test plus DFS, independent of the edge
    strategies and of union-find."""
    ctx = get_context(G)
    p = gr.require_p_group(G)
    min_order = p ** (e + 1)
    subs = [S for S in ctx.lattice() if len(S) >= min_order]
    nodes = [(S, chi) for S in subs for chi in ctx.irr(S)]
    adj = {i: set() for i in range(len(nodes))}
    for i, (S, chi) in enumerate(nodes):
        for j, (T, psi) in enumerate(nodes):
            if j <= i:
                continue
            if S.elems != T.elems and S.is_subset_of(T):
                rel = inner_product(restrict(psi, S), chi) != 0
            elif T.elems != S.elems and T.is_subset_of(S):
                rel = inner_product(restrict(chi, T), psi) != 0
            else:
                continue
            if rel:
                adj[i].add(j)
                adj[j].add(i)
    seen = set()
    count = 0
    for i in range(len(nodes)):
        if i in seen:
            continue
        count += 1
        stack = [i]
        while stack:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            stack.extend(adj[x] - seen)
    return count


@pytest.mark.parametrize(
    "spec,e,expected",
    [
        ("ElemAbelian(2,3)", 1, 1),
        ("Quaternion(8)", 1, 2),
        ("Cyclic(2,4)", 2, 8),
        ("Dihedral(8)", 1, 2),
        ("Cyclic(2,2)", 0, 2),
    ],
)
def test_component_counts(spec, e, expected):
    G = fam.builtin(spec)
    assert _brute_component_count(G, e) == expected
    assert build_poset(G, None, e).components().count == expected
    assert bfs_components(build_poset(G, None, e, "full"))[1] == expected


def test_strategy_partitions_identical(q8, d8, d16, c4xc2, e222):
    """The one pass over the upward covers gives the partition of a
    breadth-first search over every containment edge of the full poset."""
    for G in (q8, d8, d16, c4xc2, e222):
        for e in range(0, 3):
            if 2 ** (e + 1) > G.order:
                break
            labels, count = bfs_components(_poset(G, e, "full"))
            part = build_poset(G, None, e).components()
            assert part.node_to_component == labels
            assert part.count == count


@pytest.mark.parametrize(
    "spec, edges",
    [("DirectProduct(Dihedral(8),Dihedral(8))", 4660),
     ("DirectProduct(Extraspecial(3,+),Cyclic(3,1))", 2160)],
)
def test_components_read_one_upward_cover_per_subgroup(spec, edges):
    """A report at e = 0 computes the restriction edges of exactly one pair
    per subgroup K != G of order >= p: K under its first cover in
    maximal_pairs().  The edge total, the popcount of the masks, is counted
    here."""
    G = fam.builtin(spec)
    assert theorem_report(G, None, 0).ok
    ctx = get_context(G)
    first = {}
    for K, H in ctx.maximal_pairs():
        first.setdefault(K.mask, H.mask)
    p = gr.require_p_group(G)
    below = [S.mask for S in ctx.lattice() if p <= len(S.elems) < G.order]
    assert sorted(ctx._edges) == sorted((K, first[K]) for K in below)
    assert sum(m.bit_count() for masks in ctx._edges.values() for m in masks) == edges


def test_component_representatives_abelian(c4xc2):
    poset = _poset(c4xc2, 0)
    part = poset.components()
    W = get_context(c4xc2).whole
    reps = poset.component_representatives(part, W)
    assert len(reps) == part.count
    for comp, node in reps.items():
        assert poset.subgroup_of(node).elems == W.elems
        assert part.node_to_component[poset.node_id(node)] == comp


def test_component_representatives_q8_d8(q8, d8):
    for G in (q8, d8):
        poset = _poset(G, 1)
        part = poset.components()
        for S in poset.subgroups:
            reps = poset.component_representatives(part, S)
            assert len(reps) == part.count == 2


def test_component_representatives_rejects_missing_subgroup(q8):
    poset = _poset(q8, 1)
    part = poset.components()
    Z = gr.center(get_context(q8).whole)
    with pytest.raises(InputError):
        poset.component_representatives(part, Z)


def test_witness_direct_same_node(q8):
    ctx = get_context(q8)
    poset = _poset(q8, 1)
    H = poset.subgroups[0]
    alpha = ctx.irr(H)[1]
    chain = poset.witness_direct(alpha, alpha)
    assert poset.validate_chain(chain)
    assert chain.nodes[0] == chain.nodes[-1] == poset.locate(H, alpha)
    assert len(chain.nodes) == 3  # through a peak over alpha


def test_witness_direct_q8_peak_is_two_dim(q8):
    ctx = get_context(q8)
    poset = _poset(q8, 1)
    Z, sign = _sign_char_on_center(q8)
    A, B = poset.subgroups[0], poset.subgroups[1]
    al = [c for c in ctx.irr(A) if inner_product(restrict(c, Z), sign)][0]
    be = [c for c in ctx.irr(B) if inner_product(restrict(c, Z), sign)][0]
    chain = poset.witness_direct(al, be)
    assert poset.validate_chain(chain)
    assert len(chain.nodes) == 3
    assert poset.char_of(chain.nodes[1]).degree == 2
    assert chain.directions == ("up", "down")


def test_witness_direct_abelian_degenerate(c4):
    ctx = get_context(c4)
    poset = _poset(c4, 1)
    chi = ctx.irr(ctx.whole)[2]
    chain = poset.witness_direct(chi, chi)
    assert len(chain.nodes) == 1
    assert chain.directions == ()
    assert poset.validate_chain(chain)


def test_witness_direct_precondition_failure(q8):
    ctx = get_context(q8)
    poset = _poset(q8, 1)
    Z, sign = _sign_char_on_center(q8)
    A, B = poset.subgroups[0], poset.subgroups[1]
    over_sign = [c for c in ctx.irr(A) if inner_product(restrict(c, Z), sign)][0]
    over_triv = [c for c in ctx.irr(B) if not inner_product(restrict(c, Z), sign)][0]
    with pytest.raises(PreconditionFailed):
        poset.witness_direct(over_sign, over_triv)


def test_witness_direct_rejects_small_subgroup(q8):
    """Also with a reducible alpha on a level subgroup: witness_direct is
    witness_sequence on [H, K], whose order check comes first."""
    ctx = get_context(q8)
    poset = _poset(q8, 1)
    Z, sign = _sign_char_on_center(q8)
    with pytest.raises(PreconditionFailed):
        poset.witness_direct(sign, sign)
    with pytest.raises(PreconditionFailed):
        poset.witness_direct(_zero_function(poset.subgroups[0]), sign)


def test_witness_direct_matches_inner_product_oracle():
    """Every ordered endpoint pair of Q8 and D8 at e = 0 and e = 1 (1,668
    pairs): witness_direct gives the chain, nodes and directions, that
    induction and inner products give, or raises the same WitnessError."""

    def outcome(poset, a, b, direct):
        alpha, beta = poset.char_of(poset.nodes[a]), poset.char_of(poset.nodes[b])
        try:
            chain = direct(poset, alpha, beta)
        except WitnessError as err:
            return type(err)
        return chain.nodes, chain.directions

    seen = set()
    for spec in ("Quaternion(8)", "Dihedral(8)"):
        for e in (0, 1):
            poset = build_poset(fam.builtin(spec), None, e)
            n = len(poset.nodes)
            for a in range(n):
                for b in range(n):
                    got = outcome(poset, a, b, CharacterPoset.witness_direct)
                    want = outcome(poset, a, b, witness_direct_oracle)
                    assert got == want, (spec, e, a, b)
                    seen.add(got if isinstance(got, type) else "chain")
    assert seen == {"chain", PreconditionFailed}


def test_witness_sequence_three_c4s(q8):
    ctx = get_context(q8)
    poset = _poset(q8, 1)
    Z, sign = _sign_char_on_center(q8)
    A, B, C = poset.subgroups[0], poset.subgroups[1], poset.subgroups[2]
    al = [c for c in ctx.irr(A) if inner_product(restrict(c, Z), sign)][0]
    be = [c for c in ctx.irr(C) if inner_product(restrict(c, Z), sign)][0]
    chain = poset.witness_sequence([A, B, C], al, be)
    assert poset.validate_chain(chain)
    assert chain.nodes[0] == poset.locate(A, al)
    assert chain.nodes[-1] == poset.locate(C, be)


def test_witness_errors_name_the_group_and_level(q8, monkeypatch):
    """Each precondition, choice and join error of witness_sequence starts
    with the group's name and the level.  The two choice errors are reached
    by blanking the columns they read: all of them for the eta pick, and
    those of proper pairs for the mid pick.  The join's NoConstituent is
    reached by blanking the columns of each (S, G), which leave no peak."""
    ctx = get_context(q8)
    poset = _poset(q8, 1)
    Z, sign = _sign_char_on_center(q8)
    A, B, C = poset.subgroups[0], poset.subgroups[1], poset.subgroups[2]
    al = [c for c in ctx.irr(A) if inner_product(restrict(c, Z), sign)][0]
    be = [c for c in ctx.irr(C) if inner_product(restrict(c, Z), sign)][0]
    triv = [c for c in ctx.irr(B) if not inner_product(restrict(c, Z), sign)][0]
    with pytest.raises(PreconditionFailed, match=r"^Q8 e=1: restrictions to the full"):
        poset.witness_direct(al, triv)
    with pytest.raises(PreconditionFailed, match=r"^Q8 e=1: sequence member of order 2"):
        poset.witness_sequence([A, Z, C], al, be)
    columns = CharContext.restriction_columns

    def blank(keep):
        def read(self, K, H):
            cols = columns(self, K, H)
            return cols if keep(self, K, H) else (0,) * len(cols)

        return read

    for keep, error, text in (
        (lambda ctx, K, H: False, ChoiceExhausted, "no character over gamma"),
        (lambda ctx, K, H: K is H, ChoiceExhausted, "no constituent of the"),
        (lambda ctx, K, H: H is not ctx.whole, NoConstituent, "no constituent .* over beta"),
    ):
        with monkeypatch.context() as m:
            m.setattr(CharContext, "restriction_columns", blank(keep))
            with pytest.raises(error, match=rf"^Q8 e=1: {text}"):
                poset.witness_sequence([A, B, C], al, be)


def test_witness_sequence_loop_same_subgroup(q8):
    ctx = get_context(q8)
    poset = _poset(q8, 1)
    Z, sign = _sign_char_on_center(q8)
    A, B = poset.subgroups[0], poset.subgroups[1]
    overs = [c for c in ctx.irr(A) if inner_product(restrict(c, Z), sign)]
    assert len(overs) == 2
    chain = poset.witness_sequence([A, B, A], overs[0], overs[1])
    assert poset.validate_chain(chain)
    assert chain.nodes[0] != chain.nodes[-1]


def test_witness_sequence_all_whole_group(q8):
    ctx = get_context(q8)
    poset = _poset(q8, 1)
    chi = ctx.irr(ctx.whole)[0]
    chain = poset.witness_sequence([ctx.whole] * 3, chi, chi)
    assert len(chain.nodes) == 1
    assert poset.validate_chain(chain)


def test_witness_sequence_precondition(q8):
    ctx = get_context(q8)
    poset = _poset(q8, 1)
    Z, sign = _sign_char_on_center(q8)
    A, B = poset.subgroups[0], poset.subgroups[1]
    al = [c for c in ctx.irr(A) if inner_product(restrict(c, Z), sign)][0]
    be = [c for c in ctx.irr(B) if not inner_product(restrict(c, Z), sign)][0]
    with pytest.raises(PreconditionFailed):
        poset.witness_sequence([A, B], al, be)


def _zero_function(S):
    """The zero class function on S: not an irreducible, and orthogonal to
    every character."""
    cc = get_context(S.ambient).classes(S)
    return ClassFunction(S, cc, [cyc.zero(S.ambient.exponent)] * cc.count)


def test_witness_direct_rejects_a_reducible_endpoint(q8):
    ctx = get_context(q8)
    poset = _poset(q8, 1)
    A, B = poset.subgroups[0], poset.subgroups[1]
    with pytest.raises(InputError):
        poset.witness_direct(_zero_function(A), ctx.irr(B)[0])
    with pytest.raises(InputError):
        poset.witness_direct(ctx.irr(A)[0], _zero_function(B))


def test_witness_sequence_rejects_a_reducible_endpoint_before_the_precondition(q8):
    """The zero function shares no constituent with anything, so the
    precondition would fail; the endpoint check comes first."""
    ctx = get_context(q8)
    poset = _poset(q8, 1)
    A, B = poset.subgroups[0], poset.subgroups[1]
    for L in ([A], [A, B], [A, ctx.whole, B]):
        first, last = L[0], L[-1]
        with pytest.raises(InputError):
            poset.witness_sequence(L, _zero_function(first), ctx.irr(last)[0])
        with pytest.raises(InputError):
            poset.witness_sequence(L, ctx.irr(first)[0], _zero_function(last))


def _witness_outcome(poset, a, b, direct, sequence):
    """What `charposet witness` does for nodes a and b: the direct witness,
    else the sequence through the level subgroups.  The outcome with the
    chain's nodes and directions, or the class of the WitnessError."""
    A, B = poset.nodes[a], poset.nodes[b]
    alpha, beta = poset.char_of(A), poset.char_of(B)
    try:
        try:
            chain, outcome = direct(poset, alpha, beta), "direct"
        except WitnessError:
            level = gr.subgroups_of_order(poset.group, poset.min_order, poset.ctx.lattice())
            L = [poset.subgroup_of(A)] + level + [poset.subgroup_of(B)]
            chain, outcome = sequence(poset, L, alpha, beta), "sequence"
    except WitnessError as err:
        return type(err)
    return outcome, chain.nodes, chain.directions


@pytest.mark.slow
def test_witness_chains_match_inner_product_oracle():
    """The constituent-mask route makes every choice the induce and
    inner-product route makes: the same outcome, nodes and directions.  Every
    ordered endpoint pair of a poset with at most 3000 of them, and a seeded
    sample of 600 pairs of each larger one (the oracle needs about 230 s for
    every pair of these four groups); then 300 seeded pairs of D8xD8 at e=3
    and of a relabelled table."""
    rng = random.Random(0)
    cases = []
    for spec in (
        "Quaternion(8)",
        "DirectProduct(Dihedral(8),Cyclic(2,1))",
        "Extraspecial(3,+)",
        "Modular(3,4)",
    ):
        G = fam.builtin(spec)
        for e in valid_exponents(G):
            cases.append((build_poset(G, None, e), 600))
    cases.append((build_poset(fam.builtin("DirectProduct(Dihedral(8),Dihedral(8))"), None, 3), 300))
    shuffled = relabelled(fam.builtin("DirectProduct(Quaternion(8),Cyclic(2,2))"), 1)
    cases.append((build_poset(shuffled, None, 2), 300))
    seen = set()
    for poset, sample in cases:
        n = len(poset.nodes)
        pairs = [(a, b) for a in range(n) for b in range(n)]
        if len(pairs) > 3000:
            pairs = rng.sample(pairs, sample)
        for a, b in pairs:
            got = _witness_outcome(
                poset, a, b, CharacterPoset.witness_direct, CharacterPoset.witness_sequence
            )
            want = _witness_outcome(poset, a, b, witness_direct_oracle, witness_sequence_oracle)
            assert got == want, (poset.group.name, poset.e, a, b)
            seen.add(got if isinstance(got, type) else got[0])
    assert seen == {"direct", "sequence", PreconditionFailed}


def test_witness_queries_build_no_subgroup(monkeypatch):
    """Every meet a witness chain takes is the lattice's own instance: on
    D8xD8 at e = 3 a query with a direct witness, and one that falls back to
    witness_sequence through the level subgroups, construct no Subgroup."""
    poset = build_poset(fam.builtin("DirectProduct(Dihedral(8),Dihedral(8))"), None, 3)
    built = []
    init = gr.Subgroup.__init__

    def spy(self, *args, **kwargs):
        built.append(len(built))
        init(self, *args, **kwargs)

    monkeypatch.setattr(gr.Subgroup, "__init__", spy)
    outcomes = [
        _witness_outcome(
            poset, a, b, CharacterPoset.witness_direct, CharacterPoset.witness_sequence
        )[0]
        for a, b in ((864, 394), (776, 911))
    ]
    assert outcomes == ["direct", "sequence"]
    assert built == []


def test_witness_rejects_characters_of_a_second_equal_table():
    """Two builds of Dihedral(16) are equal tables but two groups, each with
    its own context.  inner_product takes no pair across them, and neither
    do canonical, meet, the witness routes, locate and
    component_representatives: each raises NotASubgroup."""
    G, other = fam.builtin("Dihedral(16)"), fam.builtin("Dihedral(16)")
    assert G is not other and G.table == other.table
    poset = build_poset(G, None, 1)
    ctx, octx = poset.ctx, get_context(other)
    W, stranger_W = ctx.whole, octx.whole
    alpha, stranger = ctx.irr(W)[0], octx.irr(stranger_W)[0]
    with pytest.raises(InputError):
        inner_product(alpha, stranger)
    for call in (
        lambda: ctx.canonical(stranger_W),
        lambda: ctx.meet(W, stranger_W),
        lambda: ctx.meet(stranger_W, W),
        lambda: poset.witness_direct(stranger, alpha),
        lambda: poset.witness_direct(alpha, stranger),
        lambda: poset.witness_sequence([W, W], alpha, stranger),
        lambda: poset.locate(stranger_W, stranger),
        lambda: poset.component_representatives(poset.components(), stranger_W),
    ):
        with pytest.raises(NotASubgroup):
            call()


def test_central_poset_map_linear(c4xc2):
    ctx = get_context(c4xc2)
    W = ctx.whole
    A = gr.generated_subgroup(c4xc2, [2])  # order-2 central
    for chi in ctx.irr(W):
        beta = central_poset_map(chi, A)
        assert beta.values == restrict(chi, A).values


def test_central_poset_map_two_dim(q8):
    ctx = get_context(q8)
    Z, sign = _sign_char_on_center(q8)
    two = ctx.irr(ctx.whole)[-1]
    beta = central_poset_map(two, Z)
    assert beta.values == sign.values


def test_central_poset_map_constant_on_comparable_pairs(q8, d8):
    for G in (q8, d8):
        ctx = get_context(G)
        poset = _poset(G, 1)
        Z = gr.center(ctx.whole)
        for a in poset.nodes:
            for b in poset.nodes:
                if poset.validate_chain(_link(a, "up", b)):
                    ba = central_poset_map(poset.char_of(a), Z)
                    bb = central_poset_map(poset.char_of(b), Z)
                    assert ba.values == bb.values


@pytest.mark.parametrize(
    "spec,f,expected",
    [
        ("Cyclic(2,1)", 0, 2),
        ("Cyclic(3,2)", 1, 9),
        ("ElemAbelian(3,2)", 1, 9),
    ],
)
def test_abelian_component_count(spec, f, expected):
    assert build_poset(fam.builtin(spec), None, f).components().count == expected


def test_edge_lists_deterministic(q8):
    a = build_poset(q8, None, 1).edge_list()
    b = build_poset(q8, None, 1).edge_list()
    assert a == b


def test_level_partitions_match_per_level_oracle():
    """The one top-down pass keeps every level's partition on the context;
    each must be the level's own components, whatever order the levels are
    asked in, from a fresh context."""
    specs = fam.builtin_catalog(2, 32) + fam.builtin_catalog(3, 81) + fam.builtin_catalog(5, 25)
    builds = [lambda spec=spec: fam.builtin(spec) for spec in specs]
    builds += [
        lambda spec=spec, seed=seed: relabelled(fam.builtin(spec), seed)
        for seed, spec in enumerate(
            ["Dihedral(16)", "Quaternion(16)", "Extraspecial(3,+)", "ElemAbelian(3,2)", "Cyclic(5,2)"]
        )
    ]
    for build in builds:
        G = build()
        levels = valid_exponents(G)
        shuffled = levels[:]
        random.Random(G.order).shuffle(shuffled)
        for strategy in ("maximal", "full") if G.order <= 32 else ("maximal",):
            for asked in (levels, levels[::-1], shuffled):
                G = build()
                for e in asked:
                    poset = build_poset(G, None, e, strategy)
                    part = poset.components()
                    got = (part.node_to_component, part.count)
                    assert got == bfs_components(poset), (G.name, strategy, asked, e)


_SWEEP_SPECS = fam.builtin_catalog(2, 64) + fam.builtin_catalog(3, 64) + fam.builtin_catalog(5, 64)
_RELABELLED = ["Dihedral(16)", "Quaternion(16)", "Extraspecial(3,+)", "ElemAbelian(3,2)", "Cyclic(5,2)"]


@pytest.mark.slow
def test_components_match_the_union_find_oracle_at_every_level():
    """On the sweep catalog ((C2)^6 and D8xD8 included) and five relabelled
    tables, the merge of peaks over Irr(G) gives every level exactly the
    partition of the per-node union-find pass, with its labels, whatever
    order the levels are asked in, from a fresh context."""
    builds = [lambda spec=spec: fam.builtin(spec) for spec in _SWEEP_SPECS]
    builds += [
        lambda spec=spec, seed=seed: relabelled(fam.builtin(spec), seed)
        for seed, spec in enumerate(_RELABELLED)
    ]
    assert "AbelianProduct(2,2,2,2,2,2)" in _SWEEP_SPECS
    assert "DirectProduct(Dihedral(8),Dihedral(8))" in _SWEEP_SPECS
    for build in builds:
        G = build()
        oracle = union_find_levels(build_poset(G, None, 0))
        levels = valid_exponents(G)
        shuffled = levels[:]
        random.Random(G.order).shuffle(shuffled)
        for asked in (levels, levels[::-1], shuffled):
            G = build()
            for e in asked:
                poset = build_poset(G, None, e)
                part = poset.components()
                got = (part.node_to_component, part.count)
                assert got == oracle[poset.min_order], (G.name, asked, e)


def test_every_component_holds_a_character_of_the_whole_group():
    """The fact the merge forest rests on, on every level of the sweep
    catalog: each component holds a node (G, omega), so counts never rise as
    e falls, and each count is the number of distinct forest roots over
    Irr(G)."""
    for spec in _SWEEP_SPECS:
        G = fam.builtin(spec)
        whole = get_context(G).whole
        counts = []
        for e in reversed(valid_exponents(G)):
            poset = build_poset(G, None, e)
            part = poset.components()
            reps = poset.component_representatives(part, whole)
            assert part.count == len(reps) == len(set(part.roots)), (spec, e)
            counts.append(part.count)
        assert counts == sorted(counts, reverse=True), spec


def test_level_labels_are_built_on_first_read_and_lower_levels_resume_the_pass():
    """A report keeps one root per character of G for its level, and no node
    labels; asking the levels from the top down reads the edges of each
    subgroup's up cover once in all, since each level continues the pass."""
    G = fam.builtin("DirectProduct(Dihedral(8),Cyclic(2,1))")
    ctx = get_context(G)
    reads = []
    edges = ctx.restriction_edges
    ctx.restriction_edges = lambda K, H: reads.append(K.elems) or edges(K, H)
    levels = valid_exponents(G)
    for e in reversed(levels):
        assert theorem_report(G, None, e).ok
    assert sorted(reads) == sorted(S.elems for S in ctx.lattice()[1:-1])
    parts = ctx.partitions
    assert sorted(parts) == [2 ** (e + 1) for e in levels]
    assert all(len(part.roots) == len(ctx.irr(ctx.whole)) for part in parts.values())
    assert not any("node_to_component" in part.__dict__ for part in parts.values())
    labels = parts[2].node_to_component
    assert "node_to_component" in parts[2].__dict__
    assert len(labels) == build_poset(G, None, 0).node_count


_DROP_PSI = """
import sys
from charposet import characters, cli, families
from charposet.characters import get_context
from charposet.errors import InternalCheckError
from charposet.poset import CharacterPoset

def dropped(masks):
    psi = 1 << (masks[-1].bit_length() - 1)
    return tuple(m & ~psi for m in masks)

ctx = get_context(families.builtin("Dihedral(8)"))
K = next(S for S in ctx.lattice() if len(S.elems) == 2)
key = (K.mask, ctx.up_cover[K.mask].mask)
ctx._edges[key] = dropped(ctx.restriction_edges(K, ctx.up_cover[K.mask]))
try:
    CharacterPoset(ctx, 2, 0).components()
except InternalCheckError as err:
    print(err)
else:
    sys.exit("components() took the tampered edges")

# The same psi dropped on whichever route computes the pair: the
# decomposition front, or the fibre pass that stores the masks with Irr(K).
restriction_masks = characters.CharContext._restriction_masks
fibre_irr = characters._fibre_irr

def tampered(self, K, H):
    masks = restriction_masks(self, K, H)
    return dropped(masks) if (K.mask, H.mask) == key else masks

def fibre_tampered(ctx, S, U):
    rows = fibre_irr(ctx, S, U)
    if (S.mask, U.mask) == key:
        ctx._edges[key] = dropped(ctx._edges[key])
    return rows

characters.CharContext._restriction_masks = tampered
characters._fibre_irr = fibre_tampered
sys.exit(0 if cli.main(["verify", "--group", "Dihedral(8)"]) == 5 else "verify did not exit 5")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
def test_a_character_under_no_character_of_its_up_cover_exits_5(flags):
    """Edges of (K, up(K)) with one psi of K dropped leave psi without a
    peak: components() raises InternalCheckError and verify exits 5, under
    plain Python and under python -O."""
    proc = run_script(flags, _DROP_PSI)
    assert proc.returncode == 0, proc.stderr
    assert "lies under no character of its up cover" in proc.stdout
    assert "internal check failed" in proc.stderr


_BIT_BEYOND = """
import sys
from charposet import characters, cli, families
from charposet.characters import get_context
from charposet.errors import InternalCheckError
from charposet.poset import CharacterPoset

def beyond(masks, count):
    return masks[:-1] + (masks[-1] | 1 << count,)

ctx = get_context(families.builtin("Dihedral(8)"))
K = next(S for S in ctx.lattice() if len(S.elems) == 2)
key = (K.mask, ctx.up_cover[K.mask].mask)
count = len(ctx.irr_rows(K))
ctx._edges[key] = beyond(ctx.restriction_edges(K, ctx.up_cover[K.mask]), count)
try:
    CharacterPoset(ctx, 2, 0).components()
except InternalCheckError as err:
    print(err)
else:
    sys.exit("components() read a bit beyond Irr(K)")

fibre_irr = characters._fibre_irr

def fibre_tampered(ctx, S, U):
    rows = fibre_irr(ctx, S, U)
    if (S.mask, U.mask) == key:
        ctx._edges[key] = beyond(ctx._edges[key], count)
    return rows

characters._fibre_irr = fibre_tampered
sys.exit(0 if cli.main(["verify", "--group", "Dihedral(8)"]) == 5 else "verify did not exit 5")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
def test_a_mask_bit_beyond_irr_of_the_smaller_subgroup_exits_5(flags):
    """Masks of (K, up(K)) that name a character past the end of Irr(K),
    as when Irr(K) no longer matches masks stored with it, make
    components() raise InternalCheckError naming the group and |K|, not
    IndexError, and verify exits 5, under plain Python and under python
    -O."""
    proc = run_script(flags, _BIT_BEYOND)
    assert proc.returncode == 0, proc.stderr
    assert "D8: a mask of a subgroup of order 2 under its up cover sets bit 2" in proc.stdout
    assert "internal check failed" in proc.stderr


def test_a_component_without_a_representative_raises(q8):
    """A partition whose count is one too high leaves a component with no
    node on the chosen subgroup: component_representatives raises
    ComponentCoverageError, an internal check that exits 5.  It raises
    without an assert, so python -O cannot skip it."""
    poset = build_poset(q8, 2, 1)
    part = poset.components()
    over = ComponentPartition(part.count + 1, part.roots, part.peaks)
    with pytest.raises(ComponentCoverageError, match="only 2 of 3 components"):
        poset.component_representatives(over, poset.subgroups[-1])
    assert ComponentCoverageError.exit_code == 5


# sha256 of canonical_json(poset_json(...)) and of poset_dot(...) at each e,
# in the order of valid_exponents.
_POSET_DIGESTS = {
    ("Quaternion(8)", "maximal"): [
        ("4c4073fd6c4b991b06047f3dc2de615ffede68550a1b37c028795bfa799fe78f",
         "91c846f3e5bcd878cc1d1d2aa9440e9febfdaa4fb9d20355edc0b1a91ea79056"),
        ("02eef9a177860e55ef79a48b041c598581a8ef8ba1af7020c2056283ec4c4d18",
         "d22206bf94471347df77b88b52d1ce922c5cddafd3493c84f18c75ce33cc4e6f"),
        ("10ebf146a5da52fad93f0f3f586576cd31f3f7f7fe229ba660dfbe5b83993caf",
         "d88f5a63107f3685644f54917afb826f5f6add036a7f94a385df86f75f95d2de"),
    ],
    ("Quaternion(8)", "full"): [
        ("dc42034d9b19fe2dfe18cf95ffb8f81d760f368d4eadb94e1ce34b913a92fdf8",
         "3fccf7dc8e2eac95d48c258e9198346b4551a15893988953cfb0899fc1fca332"),
        ("45f64f239a0a20957a66818001da94e6fff156b006e20b3f00d9a0a9d46f9efe",
         "d22206bf94471347df77b88b52d1ce922c5cddafd3493c84f18c75ce33cc4e6f"),
        ("5ddd23b77e6a9292f1bfc95ca6233c2709671ad42d8da910a1a0e3c7510eab7c",
         "d88f5a63107f3685644f54917afb826f5f6add036a7f94a385df86f75f95d2de"),
    ],
    ("DirectProduct(Dihedral(8),Cyclic(2,1))", "maximal"): [
        ("45d9da40f6acf38fc553b7e594e4a3cf63b2927491b7f548c9fd70c2d20833be",
         "cb4b8cd2f104e00eb0a1477a661a96765f7af53696598ab2a884c8260e917f6b"),
        ("f08e7e481079fc0c7765253edb7c9326f6f676c0461ae5f6a2bb83328bc2a0f4",
         "fd783c6745efc497bf0627b33dce98509412e412d18f0ba896104c268ad1f680"),
        ("f924f6bb327ac4d64f1790bc965b0804958db9a83d2afaaa9c8eac18e713a859",
         "5a736bb3d0784c858983ecd04ccd8b772003436c630083f37dabb1185f07ee56"),
        ("a568b2a54a9af7e9ae15b581cf633e1e217e3e7aaaa90761633d289da0c57adf",
         "c259a758aae59923914f0ba64ac760734cbdae32c72c78ec42fb5508a4fb3912"),
    ],
    ("DirectProduct(Dihedral(8),Cyclic(2,1))", "full"): [
        ("48fcf0dc0099533292523eee6ad3aac443a705e977c6973a7cf8ad5895f15d61",
         "68732c140894435451ab5af4f5a55bcdb9d86799d30d73e94b0f9fec16182bce"),
        ("f8c32b93871fdd57820b4425a672165f0f25b6651b7c5d23f21a68ebf1e2d692",
         "0dea2ae36c6e2570aff415db5f74a8339d459ec1b7e2142eb8f7236f84da17ed"),
        ("093d052643cf54c3bb7a2635fb24b06d83057629c0a0af3a5be11893d8ee20ea",
         "5a736bb3d0784c858983ecd04ccd8b772003436c630083f37dabb1185f07ee56"),
        ("3f105587fb8f7d0e4bd2d7fe7f608b21e5e73cc51ed87774b90509e09783f77c",
         "c259a758aae59923914f0ba64ac760734cbdae32c72c78ec42fb5508a4fb3912"),
    ],
    ("Modular(3,4)", "maximal"): [
        ("93f42d566f1913ba69fcc9be471be30424ec4511a9ececec4557d497e794d756",
         "46af45450d6994fa89aa20569f4f6477c406758e4ade4ab254a910b124b25b86"),
        ("a148d1e5442fce4f36058d570adfce4f101e972a56e656a4c110dac44eecac13",
         "6fb0b588bb18e01d775840598d4872ac114c6356c08271e7e134ca3dbf4e2592"),
        ("1b703011bd3c503c2d392f2dc32a71b40939d6c1f053ad573d35451e46b83354",
         "02b4c57e70933b3ba1c16fa4dc7bf1c4074bf4462c82bd693496edfeaa915062"),
        ("769b6ed7f5d102aa621537760f10177a3e540e07414357e3c67bd395703dd1dd",
         "5c2fae7bb41c21643f9bc0d519466bac4910018a8afb5109c6f04abd7f643fb9"),
    ],
    ("Modular(3,4)", "full"): [
        ("a64fda37c8506073ee42345aefa5ce58b0668e34cdd33e51a8505267429dbbc6",
         "0454cfe4bc4846cd51aac092ef6a9b55a006a43276475cda745fec772880c4aa"),
        ("cac598848db3b21dab7791aa7cadba41fb851d4a067a75f0a9b4ba856bbd26f4",
         "5486dc745c8978d62697a12d7ede9ceaee3086710dc52ce64aa96a732a091463"),
        ("a4592c740706096c3f7b0887c38ce972a727d849d44e6977502815397b380069",
         "02b4c57e70933b3ba1c16fa4dc7bf1c4074bf4462c82bd693496edfeaa915062"),
        ("038d3a2a4dd114b5e049af4a9d79563ac970a1790e2c33117b506d2d6014ffc1",
         "5c2fae7bb41c21643f9bc0d519466bac4910018a8afb5109c6f04abd7f643fb9"),
    ],
    ("Extraspecial(5,+)", "maximal"): [
        ("1fc22dc7a67c2ddebdb714cbf3e11fe931706ac26e9c93c7a22942087c30c0fd",
         "ecb5c5da69c1d2f6b31cffdbd90327f65717b8ce8d45ad95279af06f9fa4013a"),
        ("c722f2bc16b1ba34f7eaa70308a3390ff051d7ab81eb7b69ecf38746b694e474",
         "0fac963158d0630372ef0f49b26599f68dc4919c9d6c24b3b9f063d92a0742c5"),
        ("5997141fe589557b438cfc49aa6b513b1d61f2f0f37870d416fd606b85d739e5",
         "66ca0f576125600db26d6a9765363efbf12f30e9dbe8b67a2135eea22bf21626"),
    ],
    ("Extraspecial(5,+)", "full"): [
        ("6be98acb4596ac51de2da300ee450c6d091e9b5ab2d639f3bf765681c980ef10",
         "873d0883d36af6b96398bbcf0a909215f4eacb1d046afac5fa16751b63c4ba71"),
        ("0615692cac9a7625bb2e664267d3ddd30057eea22da647a60930c947d58e7ec9",
         "0fac963158d0630372ef0f49b26599f68dc4919c9d6c24b3b9f063d92a0742c5"),
        ("dd2438f3dab4f306be2168f2c77d440b29c2c173ff5f7446c2b42e78877eca78",
         "66ca0f576125600db26d6a9765363efbf12f30e9dbe8b67a2135eea22bf21626"),
    ],
    ("DirectProduct(Dihedral(8),Dihedral(8))", "maximal"): [
        ("98fb5f7980000f69e43960c159b342bc3ede5f7e8a9318cd42245d886f8072da",
         "3231d636f21710995fcc962499185114be84bcf2bf39cc9a1f5e54004340226a"),
        ("8708020bd1610cb3337622e0b3e06bdb7e5688e511bcdc229a0343fef4575adf",
         "aeda805cface53e69673be9c695773d33bceea40687a22ac586a714aa454c389"),
        ("f4eb99ff951e2b608fc0768760005214d73440e8a00c9a5e7e4835f5cd1c5514",
         "80b5699a6cf3e0d729f9aa2d40ca6a004c641bae36d97ff5c6672e7caf944121"),
        ("a932f096893887d7c4fff123817bdbd2dc35c99a408d2a51f5d04a27585de467",
         "ccb1c82910d661e64779492914943887581033c2f4c70a40f337a0ab5f9e4a55"),
        ("164264fb32b71c41c8f983ccbc42e618d433f4b777c08e44b6eeefc07e7401cb",
         "c859acded92558a6bf99d3c40cf6c53cfe077276cfaa9ef0657eb9c1e1f31f08"),
        ("bcacab57fcc2d50b3758d285eb873e892dcf463459ffec342e542a35c373d153",
         "9a916cf9bd3c941f9415cd65238f6ba3a5bb640f6d7282172c07efc6c37fbe5c"),
    ],
}


def test_poset_artifacts_are_pinned():
    """Edge order, node ids and component labels of the exported poset."""
    for (spec, strategy), digests in _POSET_DIGESTS.items():
        G = fam.builtin(spec)
        got = []
        for e in valid_exponents(G):
            poset = build_poset(G, None, e, strategy)
            part = poset.components()
            text = export.canonical_json(export.poset_json(poset, part))
            dot = export.poset_dot(poset, part)
            got.append((hashlib.sha256(text.encode()).hexdigest(),
                        hashlib.sha256(dot.encode()).hexdigest()))
        assert got == digests, (spec, strategy)


def test_poset_exports(q8, tmp_path):
    poset = _poset(q8, 1)
    part = poset.components()
    doc = export.poset_json(poset, part)
    text = export.canonical_json(doc)
    assert json.loads(text)["components"]["count"] == 2
    assert export.canonical_json(export.poset_json(poset, part)) == text

    dot = export.poset_dot(poset, part)
    assert dot.startswith("graph")
    assert dot.count("χ") == len(poset.nodes)
    assert export.poset_dot(poset, part) == dot


def test_chain_json(q8):
    ctx = get_context(q8)
    poset = _poset(q8, 1)
    chi = ctx.irr(ctx.whole)[0]
    chain = poset.witness_direct(chi, chi)
    doc = export.chain_json(poset, chain, poset.validate_chain(chain))
    assert doc["verified"] is True
    assert len(doc["nodes"]) == len(chain.nodes)
