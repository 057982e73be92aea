import os
import random
import subprocess
import sys
from collections import deque
from pathlib import Path

import pytest

from charposet import families
from charposet.characters import get_context, induce, inner_product, restrict
from charposet.errors import (
    ChoiceExhausted,
    InputError,
    NoConstituent,
    NoIdentity,
    NoInverse,
    NotAssociative,
    PreconditionFailed,
)
from charposet.groups import Subgroup, closure_from_gens, from_cayley, intersect_all, prime_of
from charposet.poset import WitnessChain


@pytest.fixture(scope="session")
def q8():
    return families.quaternion(8)


@pytest.fixture(scope="session")
def d8():
    return families.dihedral(8)


@pytest.fixture(scope="session")
def d16():
    return families.dihedral(16)


@pytest.fixture(scope="session")
def c4():
    return families.cyclic(2, 2)


@pytest.fixture(scope="session")
def c8():
    return families.cyclic(2, 3)


@pytest.fixture(scope="session")
def c16():
    return families.cyclic(2, 4)


@pytest.fixture(scope="session")
def klein():
    return families.elem_abelian(2, 2)


@pytest.fixture(scope="session")
def e222():
    return families.elem_abelian(2, 3)


@pytest.fixture(scope="session")
def c4xc2():
    return families.abelian_product([4, 2])


def ctx_of(G):
    return get_context(G)


# -- independent oracles used across test modules ------------------------------


def brute_commuting(table, elems):
    """Elements of the subset commuting with the whole subset."""
    return [z for z in elems if all(table[z][h] == table[h][z] for h in elems)]


def brute_classes(G, elems):
    """Conjugation-orbit partition computed directly from the table."""
    table, inv = G.table, G.inverse
    left = set(elems)
    classes = []
    while left:
        x = min(left)
        orbit = {table[table[h][x]][inv[h]] for h in elems}
        classes.append(tuple(sorted(orbit)))
        left -= orbit
    return classes


def brute_group_check(table):
    """The error class of the first failing group axiom (identity, inverses,
    associativity), checked over every pair and triple; None for a group."""
    n = len(table)
    units = [e for e in range(n) if all(table[e][x] == x == table[x][e] for x in range(n))]
    if not units:
        return NoIdentity
    e = units[0]
    if not all(any(table[g][h] == e == table[h][g] for h in range(n)) for g in range(n)):
        return NoInverse
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return NotAssociative
    return None


def relabelling(order, seed):
    """The shuffle relabelled(G, seed) applies: element x becomes perm[x]."""
    perm = list(range(order))
    random.Random(seed).shuffle(perm)
    return perm


def relabelled(G, seed):
    """The same group with its element indices shuffled."""
    perm = relabelling(G.order, seed)
    back = [0] * G.order
    for x, y in enumerate(perm):
        back[y] = x
    table = [[perm[G.table[back[a]][back[b]]] for b in range(G.order)] for a in range(G.order)]
    return from_cayley(table, name=f"{G.name}-shuffled{seed}")


def closure_lattice(G, covers):
    """Every subgroup of the p-group G, sorted by (order, elements), by
    closures of (known subgroup, one extra element x with x^p in it) to a
    fixpoint; each index-p pair (H, K) is appended to covers once, in
    discovery order.  The oracle for all_subgroups' cyclic extension route.

    Bottom-up: cyclic subgroups first.  When an extension step lands exactly
    one level up (index p), all other elements of the result are dropped
    from the candidate list for that H, since they generate the same
    extension."""
    p = prime_of(G.order)
    found = {}
    gens_of = {}
    worklist = []

    def add(elems, gens):
        if elems not in found:
            found[elems] = Subgroup(G, elems, validate=False)
            gens_of[elems] = gens
            worklist.append(elems)

    add((G.identity,), ())
    for g in range(G.order):
        elems = closure_from_gens(G, (g,))
        add(elems, (g,))

    pth_power = tuple(G.power(g, p) for g in range(G.order))

    i = 0
    while i < len(worklist):
        elems = worklist[i]
        i += 1
        H = found[elems]
        if len(elems) == G.order:
            continue
        base_gens = gens_of[elems]
        candidates = [x for x in range(G.order) if not H.contains(x) and H.contains(pth_power[x])]
        skip = 0
        for x in candidates:
            if (skip >> x) & 1:
                continue
            kelems = closure_from_gens(G, base_gens + (x,))
            add(kelems, base_gens + (x,))
            if len(kelems) == p * len(elems):
                covers.append((H, found[kelems]))
                for y in kelems:
                    skip |= 1 << y
    return sorted(found.values(), key=lambda S: (len(S.elems), S.elems))


def run_script(flags, script):
    """Run script in a fresh interpreter with flags and charposet on the path."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run(
        [sys.executable, *flags, "-c", script],
        capture_output=True, text=True, env=env, check=False, timeout=120,
    )


def cyc_to_json(z):
    """A class value as irr_json writes it, built from the CycInt view: the
    oracle for irr_json's route from the integer rows."""
    return {"n": z.n, "coeffs": list(z.coeffs)}


def naive_induced_value(target, source, phi, g):
    """(1/|source|) sum over all x in target of phi(x g x^-1), the unfolded
    induction formula."""
    from charposet import cyclotomic as cyc

    amb = target.ambient
    total = cyc.zero(amb.exponent)
    table, inv = amb.table, amb.inverse
    for x in target.elems:
        y = table[table[x][g]][inv[x]]
        if source.contains(y):
            total = total + phi.value_at(y)
    return cyc.exact_div_int(total, len(source.elems))


def naive_inner_products(A, B):
    """The matrix of [a, b] for a in A and b in B, all on one subgroup, by the
    unfolded formula (1/|H|) sum over classes of size * a * conjugate(b) in
    CycInt arithmetic."""
    from charposet import cyclotomic as cyc

    owner, sizes = A[0].owner, A[0].classes.sizes
    zero = cyc.zero(owner.ambient.exponent)
    weighted = [[cyc.conjugate(y) * s for y, s in zip(b.values, sizes)] for b in B]
    out = []
    for a in A:
        avals = a.values
        row = []
        for wb in weighted:
            total = zero
            for x, y in zip(avals, wb):
                total = total + x * y
            row.append(cyc.as_integer(cyc.exact_div_int(total, len(owner.elems))))
        out.append(row)
    return out


def bfs_components(poset):
    """(node_to_component, count) of the poset by breadth-first search over
    the adjacency of its edge_list(), components numbered in the order of
    their least node id."""
    n = len(poset.nodes)
    adjacent = [[] for _ in range(n)]
    for a, b in poset.edge_list():
        adjacent[a].append(b)
        adjacent[b].append(a)
    label = [None] * n
    count = 0
    for start in range(n):
        if label[start] is not None:
            continue
        label[start] = count
        queue = deque([start])
        while queue:
            for y in adjacent[queue.popleft()]:
                if label[y] is None:
                    label[y] = count
                    queue.append(y)
        count += 1
    return tuple(label), count


def union_find_levels(poset):
    """{least subgroup order: (node_to_component, count)} for the poset's
    level and every level above it, by one union-find pass over node ids.

    The pass adds the subgroups from the largest order down, each K != G with
    the edges of (K, ctx.up_cover[K]); the higher root stays.  Each higher
    level's nodes are a suffix of the poset's ids, so its partition is the
    snapshot after its layer, labelled in order of first appearance.  The
    oracle for CharacterPoset.components, which merges peaks over Irr(G)."""
    n = poset.node_count
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    subs, off = poset.subgroups, poset.offsets
    sid = {S.mask: s for s, S in enumerate(subs)}
    ctx = poset.ctx
    levels = {}
    for s in range(len(subs) - 1, -1, -1):
        K = subs[s]
        H = ctx.up_cover.get(K.mask)
        if H is not None:
            koff, hoff = off[s], off[sid[H.mask]]
            for j, m in enumerate(ctx.restriction_edges(K, H)):
                for i in range(m.bit_length()):
                    if m >> i & 1:
                        a, b = find(koff + i), find(hoff + j)
                        if a != b:
                            parent[min(a, b)] = max(a, b)
        if s == 0 or len(subs[s - 1].elems) < len(K.elems):  # K's layer is complete
            labels = {}
            out = tuple(labels.setdefault(find(x), len(labels)) for x in range(off[s], n))
            levels[len(K.elems)] = (out, len(labels))
    return levels


def merged_chain(steps):
    """Assemble a chain from (direction_from_previous, node) data, merging
    consecutive duplicate nodes, as witness_sequence merges its steps."""
    nodes = [steps[0][1]]
    directions = []
    for prev_dir, node in steps[1:]:
        if node == nodes[-1]:
            continue
        nodes.append(node)
        directions.append(prev_dir)
    return WitnessChain(nodes=tuple(nodes), directions=tuple(directions))


def witness_direct_oracle(poset, alpha, beta):
    """witness_direct by induction and inner products: the first omega in
    Irr(G) with [alpha^G, omega] != 0 and [omega_K, beta] != 0.  The oracle
    for the constituent-mask route."""
    ctx = poset.ctx
    H = ctx.canonical(alpha.owner)
    K = ctx.canonical(beta.owner)
    start = poset.locate(H, alpha)
    end = poset.locate(K, beta)
    M = intersect_all([H, K])
    if inner_product(restrict(alpha, M), restrict(beta, M)) == 0:
        raise PreconditionFailed("restrictions to the intersection share no constituent")
    whole = ctx.whole
    ind = induce(alpha, whole)
    peak = None
    for w in ctx.irr(whole):
        if inner_product(ind, w) != 0 and inner_product(restrict(w, K), beta) != 0:
            peak = w
            break
    if peak is None:
        raise NoConstituent("no constituent of the induced character lies over beta")
    top = poset.locate(whole, peak)
    return merged_chain([(None, start), ("up", top), ("down", end)])


def witness_sequence_oracle(poset, L, alpha, beta):
    """witness_sequence by restriction, induction and inner products, one
    recursion level per subgroup of L, with the chain merged at each level.
    The oracle for the constituent-mask route."""
    ctx = poset.ctx
    L = [ctx.canonical(S) for S in L]
    if not L:
        raise InputError("empty subgroup sequence")
    for S in L:
        if len(S.elems) < poset.min_order:
            raise PreconditionFailed(f"sequence member of order {len(S.elems)} is not in S_(p,e)")
    if alpha.owner.elems != L[0].elems or beta.owner.elems != L[-1].elems:
        raise InputError("endpoint characters must live on the endpoint subgroups")
    bottom = intersect_all(L)
    if inner_product(restrict(alpha, bottom), restrict(beta, bottom)) == 0:
        raise PreconditionFailed("restrictions to the full intersection share no constituent")
    if len(L) == 1:
        return merged_chain([(None, poset.locate(L[0], alpha))])
    if len(L) == 2:
        return witness_direct_oracle(poset, alpha, beta)

    A = intersect_all(L[-2:])
    K_short = intersect_all(L[:-1])
    r_alpha_bottom = restrict(alpha, bottom)
    r_beta_bottom = restrict(beta, bottom)
    gamma = None
    for g in ctx.irr(bottom):
        if inner_product(r_alpha_bottom, g) != 0 and inner_product(r_beta_bottom, g) != 0:
            gamma = g
            break
    if gamma is None:
        raise ChoiceExhausted("no common constituent despite nonzero inner product")

    r_beta_A = restrict(beta, A)
    eta = None
    for h in ctx.irr(A):
        if inner_product(r_beta_A, h) != 0 and inner_product(restrict(h, bottom), gamma) != 0:
            eta = h
            break
    if eta is None:
        raise ChoiceExhausted("no character over gamma and under beta")

    ind = induce(eta, L[-2])
    r_alpha_short = restrict(alpha, K_short)
    mid = None
    for chi in ctx.irr(L[-2]):
        if inner_product(ind, chi) != 0 and inner_product(
            r_alpha_short, restrict(chi, K_short)
        ) != 0:
            mid = chi
            break
    if mid is None:
        raise ChoiceExhausted("no constituent of the induced character fits")

    left = witness_sequence_oracle(poset, L[:-1], alpha, mid)
    right = witness_direct_oracle(poset, mid, beta)
    assert left.nodes[-1] == right.nodes[0]
    steps = [(None, left.nodes[0])]
    steps += list(zip(left.directions, left.nodes[1:]))
    steps += list(zip(right.directions, right.nodes[1:]))
    return merged_chain(steps)
