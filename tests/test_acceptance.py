"""Acceptance suite: the exit criteria, one test per criterion.

Everything is exact integer arithmetic, so every assertion is equality, no
tolerances.  Each test prints one PASS line with its headline numbers (run
with -s or -rA to see them).
"""

import json
import random
import time

import pytest

from charposet import families as fam
from charposet import groups as gr
from charposet.characters import get_context, inner_product, irr, restrict
from charposet.cli import main as cli_main
from charposet.errors import WitnessError
from charposet.poset import build_poset, central_poset_map
from charposet.verify import compute_I, theorem_report, valid_exponents

from conftest import bfs_components

POPULATIONS = [(2, 64), (3, 81), (5, 25)]

EXPECTED_COUNTS = [
    ("Quaternion(8)", 1, 2),
    ("Dihedral(8)", 1, 2),
    ("Cyclic(2,4)", 2, 8),
    ("ElemAbelian(2,3)", 1, 1),
    ("Cyclic(2,2)", 0, 2),
]


@pytest.fixture(scope="module")
def population():
    groups = []
    for p, cap in POPULATIONS:
        for spec in fam.builtin_catalog(p, cap):
            groups.append((p, spec, fam.builtin(spec)))
    return groups


@pytest.fixture(scope="module")
def swept(population):
    out = []
    for p, spec, G in population:
        for e in valid_exponents(G, p):
            out.append((p, spec, G, e, theorem_report(G, p, e)))
    return out


def _ok(text):
    print(f"PASS: {text}")


def test_criterion_1_bound_and_criterion_sweep(swept):
    t0 = time.time()
    for p, spec, G, e, report in swept:
        assert report.IZ_order <= report.components <= report.irr_I, (spec, e)
        assert (report.components == 1) == (report.I_order == 1), (spec, e)
        assert report.ok
    groups = {spec for _, spec, _, _, _ in swept}
    elapsed = time.time() - t0
    assert elapsed < 300
    _ok(
        f"criterion 1: bounds and connectivity criterion hold for "
        f"{len(swept)} (group, e) pairs over {len(groups)} groups, 0 violations"
    )


def test_criterion_2_specific_counts():
    for spec, e, expected in EXPECTED_COUNTS:
        G = fam.builtin(spec)
        ctx = get_context(G)
        p = gr.require_p_group(G)

        # independent oracle: exhaustive pairwise relation + DFS, no
        # union-find, no edge strategy
        subs = [S for S in ctx.lattice() if len(S) >= p ** (e + 1)]
        nodes = [(S, chi) for S in subs for chi in ctx.irr(S)]
        adj = {i: [] for i in range(len(nodes))}
        for i, (S, chi) in enumerate(nodes):
            for j in range(i + 1, len(nodes)):
                T, psi = nodes[j]
                if S.elems != T.elems and S.is_subset_of(T):
                    hit = inner_product(restrict(psi, S), chi) != 0
                elif S.elems != T.elems and T.is_subset_of(S):
                    hit = inner_product(restrict(chi, T), psi) != 0
                else:
                    continue
                if hit:
                    adj[i].append(j)
                    adj[j].append(i)
        seen, brute = set(), 0
        for i in range(len(nodes)):
            if i in seen:
                continue
            brute += 1
            stack = [i]
            while stack:
                x = stack.pop()
                if x not in seen:
                    seen.add(x)
                    stack.extend(adj[x])
        assert brute == expected, (spec, e)

        full = build_poset(G, p, e, "full").components()
        assert full.count == expected, (spec, e)
        maxi = build_poset(G, p, e, "maximal").components()
        assert maxi.count == expected, (spec, e)
    _ok(f"criterion 2: {len(EXPECTED_COUNTS)} specific component counts match the brute-force oracle")


@pytest.mark.slow
def test_criterion_3_character_suite(population):
    checked = 0
    for p, spec, G in population:
        ctx = get_context(G)
        for S in ctx.lattice():
            chars = ctx.irr(S)
            cc = ctx.classes(S)
            assert sum(ch.degree**2 for ch in chars) == len(S), spec
            assert len(chars) == cc.count, spec
            for i, a in enumerate(chars):
                for j, b in enumerate(chars):
                    assert ctx.inner_raw(cc, a.rows, b.rows) == (1 if i == j else 0), spec
            checked += 1
    _ok(f"criterion 3: degree sums, class counts and orthogonality exact for {checked} subgroups")


def test_criterion_4_mackey_frobenius(population):
    rng = random.Random(20250808)
    small = [(p, spec, G) for p, spec, G in population if G.order <= 32]
    mackey_n = frobenius_n = 0
    while mackey_n < 200:
        p, spec, G = rng.choice(small)
        ctx = get_context(G)
        lattice = ctx.lattice()
        H = rng.choice(lattice)
        K = rng.choice(lattice)
        alpha = rng.choice(ctx.irr(H))
        beta = rng.choice(ctx.irr(K))
        from charposet.characters import mackey_check

        lhs, rhs = mackey_check(H, K, alpha, beta)
        assert lhs == rhs, (spec, H.elems, K.elems)
        mackey_n += 1
    while frobenius_n < 200:
        p, spec, G = rng.choice(small)
        ctx = get_context(G)
        H = rng.choice(ctx.lattice())
        phi = rng.choice(ctx.irr(H))
        chi = rng.choice(ctx.irr(ctx.whole))
        from charposet.characters import frobenius_check

        lhs, rhs = frobenius_check(H, phi, chi)
        assert lhs == rhs, (spec, H.elems)
        frobenius_n += 1
    _ok(f"criterion 4: {mackey_n} Mackey and {frobenius_n} Frobenius instances, all exact equality")


def test_criterion_5_strategy_equivalence(population):
    pairs = 0
    for p, spec, G in population:
        if G.order > 32:
            continue
        for e in valid_exponents(G, p):
            # the union-find pass over upward covers against a breadth-first
            # search over every containment edge of the full poset
            oracle = bfs_components(build_poset(G, p, e, "full"))
            part = build_poset(G, p, e, "maximal").components()
            assert (part.node_to_component, part.count) == oracle, (spec, e)
            pairs += 1
    _ok(f"criterion 5: the partition matches the full poset's BFS on {pairs} (group, e) posets")


def test_criterion_6_witness_soundness():
    chains = 0
    for spec in ("Quaternion(8)", "Dihedral(8)"):
        G = fam.builtin(spec)
        ctx = get_context(G)
        poset = build_poset(G, 2, 1)
        partition = poset.components()
        level = gr.subgroups_of_order(G, 4, ctx.lattice())
        for a in poset.nodes:
            for b in poset.nodes:
                Sa, Sb = poset.subgroup_of(a), poset.subgroup_of(b)
                alpha, beta = poset.char_of(a), poset.char_of(b)
                same = (
                    partition.node_to_component[poset.node_id(a)]
                    == partition.node_to_component[poset.node_id(b)]
                )
                try:
                    chain = poset.witness_direct(alpha, beta)
                except WitnessError:
                    try:
                        chain = poset.witness_sequence([Sa] + level + [Sb], alpha, beta)
                    except WitnessError:
                        chain = None
                if chain is None:
                    assert not same, (spec, a, b)
                else:
                    assert same, (spec, a, b)
                    assert poset.validate_chain(chain), (spec, a, b)
                    assert chain.nodes[0] == a and chain.nodes[-1] == b
                    chains += 1
    _ok(f"criterion 6: witness chains exist exactly within components; {chains} chains verified link by link")


def test_criterion_7_central_map_suite(swept):
    checked = 0
    for p, spec, G, e, report in swept:
        if report.IZ_order <= 1:
            continue
        ctx = get_context(G)
        poset = build_poset(G, p, e)
        partition = poset.components()
        I_members = gr.intersect_all(gr.subgroups_of_order(G, p ** (e + 1), ctx.lattice()))
        IZ = gr.intersect_all([I_members, gr.center(ctx.whole)])
        lookup = ctx.char_index(IZ)
        comp_to_img = {}
        images = set()
        for node in poset.nodes:
            beta = central_poset_map(poset.char_of(node), IZ)
            idx = lookup[beta.rows]
            images.add(idx)
            comp = partition.node_to_component[poset.node_id(node)]
            assert comp_to_img.setdefault(comp, idx) == idx, (spec, e)
        assert images == set(range(len(IZ.elems))), (spec, e)
        checked += 1
    for spec, f, expected in [
        ("Cyclic(2,1)", 0, 2),
        ("Cyclic(2,2)", 1, 4),
        ("ElemAbelian(2,2)", 1, 4),
        ("Cyclic(3,1)", 0, 3),
        ("Cyclic(3,2)", 1, 9),
        ("ElemAbelian(3,2)", 1, 9),
        ("Cyclic(5,1)", 0, 5),
    ]:
        assert build_poset(fam.builtin(spec), None, f).components().count == expected
    _ok(
        f"criterion 7: central map well-defined, component-constant and surjective on "
        f"{checked} posets; abelian component counts equal group orders"
    )


def test_central_count_matches_quotient_oracle(swept):
    """The standalone central count read from the parent context equals the
    component count of I n Z(G)'s own poset, built on its quotient table."""
    checked = 0
    for p, spec, G, e, report in swept:
        if report.IZ_order <= 1:
            continue
        ctx = get_context(G)
        IZ = gr.intersect_all([compute_I(G, p, e), ctx.center])
        table, _ = gr.quotient(IZ, gr.trivial_subgroup(G))
        count = build_poset(table, p, valid_exponents(table, p)[-1]).components().count
        assert count == len(ctx.irr(IZ)) == len(IZ.elems), (spec, e)
        checked += 1
    _ok(f"central count: parent context and quotient table agree on {checked} (group, e) pairs")


def test_criterion_8_component_coverage(swept):
    checked = 0
    for p, spec, G, e, report in swept:
        poset = build_poset(G, p, e)
        partition = poset.components()
        for S in poset.subgroups:
            reps = poset.component_representatives(partition, S)
            assert len(reps) == partition.count, (spec, e)
        checked += 1
    _ok(f"criterion 8: every component meets every fixed subgroup's fiber on {checked} posets")


def test_criterion_9_sweep_determinism(tmp_path):
    paths = [tmp_path / "run1.json", tmp_path / "run2.json"]
    for path in paths:
        code = cli_main(
            ["sweep", "--p", "2", "--max-order", "16", "--out", str(path)]
        )
        assert code == 0
    b1, b2 = paths[0].read_bytes(), paths[1].read_bytes()
    assert b1 == b2
    doc = json.loads(b1.decode("utf-8"))
    assert doc["errors"] == [] and all(r["ok"] for r in doc["reports"])
    _ok(
        f"criterion 9: repeated sweep runs produce byte-identical JSON "
        f"({len(b1)} bytes, {len(doc['reports'])} reports)"
    )
