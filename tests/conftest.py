import random
from collections import deque

import pytest

from charposet import families
from charposet.characters import get_context
from charposet.errors import NoIdentity, NoInverse, NotAssociative
from charposet.groups import Subgroup, closure_from_gens, from_cayley, prime_of


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


def relabelled(G, seed):
    """The same group with its element indices shuffled."""
    perm = list(range(G.order))
    random.Random(seed).shuffle(perm)
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
