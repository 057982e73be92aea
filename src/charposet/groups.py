"""Finite groups as validated multiplication tables, plus subgroup machinery.

Elements are indices 0..n-1 into a dense Cayley table.  Everything is
immutable after construction, apart from the memo slot GroupTable.context;
all operations are pure functions, so results can be shared and memoized
freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import (
    ClosureTooLarge,
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

DEFAULT_ORDER_CAP = 128
DEFAULT_LATTICE_CAP = 20_000


class GroupTable:
    """A finite group: dense table, identity, inverses, element orders.

    context holds the group's CharContext once characters.get_context has
    built it, so the memo lives exactly as long as the group."""

    __slots__ = (
        "order", "table", "identity", "inverse", "elem_order", "exponent", "name", "context",
        "__weakref__",
    )

    def __init__(self, order, table, identity, inverse, elem_order, exponent, name):
        self.order = order
        self.table = table
        self.identity = identity
        self.inverse = inverse
        self.elem_order = elem_order
        self.exponent = exponent
        self.name = name
        self.context = None

    def conj(self, g: int, x: int) -> int:
        """x * g * x^-1."""
        t = self.table
        return t[t[x][g]][self.inverse[x]]

    def power(self, g: int, k: int) -> int:
        if k < 0:
            g, k = self.inverse[g], -k
        acc = self.identity
        row_mul = self.table
        base = g
        while k:
            if k & 1:
                acc = row_mul[acc][base]
            base = row_mul[base][base]
            k >>= 1
        return acc

    def is_abelian(self) -> bool:
        t = self.table
        return all(row[j] == t[j][i] for i, row in enumerate(t) for j in range(i))

    def __repr__(self):
        return f"GroupTable({self.name!r}, order={self.order})"


class Subgroup:
    """A subgroup of an ambient GroupTable, as a sorted tuple of element
    indices plus a membership bitmask for O(1) containment tests."""

    __slots__ = ("ambient", "elems", "mask")

    def __init__(self, ambient: GroupTable, elems: Iterable[int], validate: bool = True):
        elems = tuple(sorted(set(elems)))
        self.ambient = ambient
        self.elems = elems
        mask = 0
        for x in elems:
            mask |= 1 << x
        self.mask = mask
        if validate:
            _validate_subgroup(self)

    @property
    def order(self) -> int:
        return len(self.elems)

    def contains(self, x: int) -> bool:
        return (self.mask >> x) & 1 == 1

    def is_subset_of(self, other: "Subgroup") -> bool:
        return self.mask | other.mask == other.mask

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.ambient is other.ambient
            and self.elems == other.elems
        )

    def __hash__(self):
        return hash((id(self.ambient), self.elems))

    def __len__(self):
        return len(self.elems)

    def __repr__(self):
        return f"Subgroup(order={len(self.elems)}, of={self.ambient.name!r})"


def _validate_subgroup(H: Subgroup) -> None:
    G = H.ambient
    if not H.elems:
        raise InputError("subgroup must be nonempty")
    if not H.contains(G.identity):
        raise InputError("subgroup must contain the identity")
    t = G.table
    for a in H.elems:
        if not H.contains(G.inverse[a]):
            raise InputError(f"element {a} has no inverse in the subset")
        row = t[a]
        for b in H.elems:
            if not H.contains(row[b]):
                raise InputError(f"subset not closed: {a}*{b} escapes")
    if G.order % len(H.elems):
        raise InternalCheckError(f"subgroup order {len(H.elems)} does not divide {G.order}")


@dataclass(frozen=True)
class ConjClasses:
    """Conjugacy classes of a subgroup acting on itself.

    class_of is indexed by ambient element index (-1 outside the owner);
    reps are the minimal element index per class, in increasing order.
    """

    owner: Subgroup
    class_of: tuple
    reps: tuple
    sizes: tuple
    inverse_class: tuple
    members: tuple
    identity_class: int

    @property
    def count(self) -> int:
        return len(self.reps)


@dataclass(frozen=True)
class AbelianDecomp:
    """Invariant-factor style decomposition of an abelian group: cyclic
    factors in weakly decreasing order, independent generators, and the full
    discrete-log table element -> exponent tuple."""

    factors: tuple
    generators: tuple
    dlog: tuple


# -- construction -------------------------------------------------------------


def from_cayley(table: Sequence[Sequence[int]], name: str = "G") -> GroupTable:
    """Build and fully validate a group from a multiplication table."""
    n = len(table)
    if n == 0:
        raise InputError("empty table")
    rows = []
    for i, row in enumerate(table):
        if not isinstance(row, (list, tuple)):
            raise InputError(f"row {i} is not a list")
        row = tuple(row)
        if len(row) != n:
            raise InputError(f"row {i} has length {len(row)}, expected {n}")
        for x in row:
            if type(x) is not int:
                raise InputError(f"row {i} contains non-integer entry {x!r}")
            if not 0 <= x < n:
                raise InputError(f"row {i} contains out-of-range index {x}")
        rows.append(row)
    t = tuple(rows)

    identity = None
    id_perm = tuple(range(n))
    for e in range(n):
        if t[e] == id_perm and all(t[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise NoIdentity("no two-sided identity element")

    inverse = []
    for g in range(n):
        inv = None
        for h in range(n):
            if t[g][h] == identity and t[h][g] == identity:
                inv = h
                break
        if inv is None:
            raise NoInverse(f"element {g} has no two-sided inverse")
        inverse.append(inv)
    inverse = tuple(inverse)

    _light_associativity(t, identity)

    elem_order = []
    for g in range(n):
        k, x = 1, g
        while x != identity:
            x = t[x][g]
            k += 1
        elem_order.append(k)
    elem_order = tuple(elem_order)
    exponent = math.lcm(*elem_order) if n > 1 else 1

    return GroupTable(n, t, identity, inverse, elem_order, exponent, name)


def _light_associativity(t, identity) -> None:
    """Light's test: (x*a)*y = x*(a*y) for every a in a generating set.

    Exact at every order: the a satisfying it for all x, y contain the
    identity and are closed under the product, so they fill the table once
    they contain a set whose right-multiplication closure is the table."""
    n = len(t)
    gens: list[int] = []
    reached = {identity}
    for x in range(n):
        if x not in reached:
            gens.append(x)
            reached = set(_closure(t, identity, gens))
    for a in gens:
        ta = t[a]
        for x in range(n):
            txa = t[t[x][a]]
            tx = t[x]
            for y in range(n):
                if txa[y] != tx[ta[y]]:
                    raise NotAssociative(f"({x}*{a})*{y} != {x}*({a}*{y})")


def _closure(t, identity, gens) -> list:
    """Elements reached from identity by right multiplication by gens, in
    discovery order."""
    seen = bytearray(len(t))
    seen[identity] = 1
    out = [identity]
    stack = [identity]
    gens = tuple(dict.fromkeys(gens))
    while stack:
        x = stack.pop()
        row = t[x]
        for g in gens:
            y = row[g]
            if not seen[y]:
                seen[y] = 1
                out.append(y)
                stack.append(y)
    return out


def from_permutations(
    generators: Sequence[Sequence[int]],
    name: str = "G",
    cap: int = 512,
) -> GroupTable:
    """Close a set of permutations under composition and build the table.

    Elements are ordered by breadth-first discovery starting at the identity,
    so the identity always lands at index 0.
    """
    if not generators:
        raise InputError("at least one generator required")
    for g in generators:
        if not isinstance(g, (list, tuple)) or any(type(x) is not int for x in g):
            raise InputError(f"not a list of integers: {g!r}")
    m = len(generators[0])
    gens = []
    for g in generators:
        g = tuple(g)
        if len(g) != m or sorted(g) != list(range(m)):
            raise InputError(f"not a permutation of 0..{m - 1}: {g}")
        gens.append(g)

    ident = tuple(range(m))
    elems = [ident]
    index = {ident: 0}
    queue = [ident]
    while queue:
        x = queue.pop(0)
        for g in gens:
            y = tuple(x[g[i]] for i in range(m))  # x then g
            if y not in index:
                if len(elems) >= cap:
                    raise ClosureTooLarge(f"closure exceeded cap of {cap} elements")
                index[y] = len(elems)
                elems.append(y)
                queue.append(y)

    n = len(elems)
    table = tuple(
        tuple(index[tuple(a[b[i]] for i in range(m))] for b in elems) for a in elems
    )
    return from_cayley(table, name)


# -- p-group predicates --------------------------------------------------------


def prime_of(order: int) -> Optional[int]:
    """The prime p with order = p^k, or None if order is not a prime power."""
    if order < 2:
        return None
    p = 2
    while p * p <= order:
        if order % p == 0:
            break
        p += 1
    else:
        p = order
    while order % p == 0:
        order //= p
    return p if order == 1 else None


def require_p_group(G: GroupTable, p: Optional[int] = None) -> int:
    """Return the prime, raising NotPGroup otherwise."""
    if G.order == 1:
        if p is None:
            raise NotPGroup("trivial group: the prime must be given explicitly")
        return p
    q = prime_of(G.order)
    if q is None:
        raise NotPGroup(f"|{G.name}| = {G.order} is not a prime power")
    if p is not None and p != q:
        raise NotPGroup(f"|{G.name}| = {G.order} is not a power of {p}")
    return q


# -- basic subgroup operations ---------------------------------------------------


def whole_group(G: GroupTable) -> Subgroup:
    return Subgroup(G, range(G.order), validate=False)


def trivial_subgroup(G: GroupTable) -> Subgroup:
    return Subgroup(G, (G.identity,), validate=False)


def closure_from_gens(G: GroupTable, gens: Iterable[int]) -> tuple:
    """Sorted element tuple of the subgroup generated by gens."""
    return tuple(sorted(_closure(G.table, G.identity, gens)))


def generated_subgroup(G: GroupTable, gens: Iterable[int]) -> Subgroup:
    return Subgroup(G, closure_from_gens(G, gens), validate=False)


def center(H: Subgroup) -> Subgroup:
    G = H.ambient
    t = G.table
    zs = [z for z in H.elems if all(t[z][h] == t[h][z] for h in H.elems)]
    return Subgroup(G, zs, validate=False)


def derived_subgroup(H: Subgroup) -> Subgroup:
    G = H.ambient
    t = G.table
    inv = G.inverse
    comms = set()
    for a in H.elems:
        ia = inv[a]
        for b in H.elems:
            comms.add(t[t[ia][inv[b]]][t[a][b]])
    return Subgroup(G, closure_from_gens(G, sorted(comms)), validate=False)


def conjugate_subgroup(H: Subgroup, x: int) -> Subgroup:
    G = H.ambient
    return Subgroup(G, (G.conj(h, x) for h in H.elems), validate=False)


def is_normal_in(N: Subgroup, H: Subgroup) -> bool:
    G = N.ambient
    return all(N.contains(G.conj(n, h)) for h in H.elems for n in N.elems)


def conjugacy_classes(H: Subgroup) -> ConjClasses:
    """Orbits of H acting on itself by conjugation; reps are minimal indices."""
    G = H.ambient
    t, inv = G.table, G.inverse
    class_of = [-1] * G.order
    reps, sizes, members = [], [], []
    for x in H.elems:
        if class_of[x] != -1:
            continue
        cid = len(reps)
        orbit = sorted({t[t[h][x]][inv[h]] for h in H.elems})  # h x h^-1
        for y in orbit:
            class_of[y] = cid
        reps.append(x)
        sizes.append(len(orbit))
        members.append(tuple(orbit))
    inverse_class = tuple(class_of[G.inverse[r]] for r in reps)
    cc = ConjClasses(
        owner=H,
        class_of=tuple(class_of),
        reps=tuple(reps),
        sizes=tuple(sizes),
        inverse_class=inverse_class,
        members=tuple(members),
        identity_class=class_of[G.identity],
    )
    if sum(cc.sizes) != len(H.elems):
        raise InternalCheckError("class sizes do not sum to the subgroup order")
    return cc


# -- subgroup lattice ------------------------------------------------------------


def all_subgroups(
    G: GroupTable,
    order_cap: int = DEFAULT_ORDER_CAP,
    lattice_cap: int = DEFAULT_LATTICE_CAP,
    covers: Optional[list] = None,
) -> list:
    """Every subgroup of G exactly once, sorted by (order, elements).

    A p-group's lattice is built layer by layer by cyclic extension
    (Neubüser 1960): every subgroup K of order p^(k+1) has a normal subgroup
    H of order p^k, so K = H<x> for some x outside H with x^p in H that
    normalises H, and H<x> is the union of the p cosets H x^i.  Once H<x> is
    met, its other elements are skipped for that H: two distinct index-p
    overgroups of H meet in H.  So when covers is a list, each pair (H, K)
    with H of index p in K is appended to it exactly once, in discovery
    order.  Each new union of cosets K is certified to be the subgroup <H, x>
    by K x <= K (|K| table reads), and the count of each layer is checked
    against Frobenius's theorem (the number of subgroups of order p^k of a
    p-group is 1 mod p).

    Any other group takes closures of (known subgroup, one extra element) to
    a fixpoint, starting from the cyclic subgroups, and records no covers.
    """
    if G.order > order_cap:
        raise OrderCapExceeded(f"|G| = {G.order} exceeds cap {order_cap}")
    p = prime_of(G.order)
    if p is not None:
        return _cyclic_extension_lattice(G, p, lattice_cap, covers)

    found: dict[tuple, Subgroup] = {}
    gens_of: dict[tuple, tuple] = {}
    worklist: list[tuple] = []

    def add(elems: tuple, gens: tuple) -> None:
        if elems not in found:
            if len(found) >= lattice_cap:
                raise LatticeTooLarge(f"more than {lattice_cap} subgroups")
            found[elems] = Subgroup(G, elems, validate=False)
            gens_of[elems] = gens
            worklist.append(elems)

    add((G.identity,), ())
    for g in range(G.order):
        add(closure_from_gens(G, (g,)), (g,))

    i = 0
    while i < len(worklist):
        elems = worklist[i]
        i += 1
        if len(elems) == G.order:
            continue
        H = found[elems]
        base_gens = gens_of[elems]
        for x in range(G.order):
            if not H.contains(x):
                add(closure_from_gens(G, base_gens + (x,)), base_gens + (x,))
    return sorted(found.values(), key=lambda S: (len(S.elems), S.elems))


def _cyclic_extension_lattice(
    G: GroupTable, p: int, lattice_cap: int, covers: Optional[list]
) -> list:
    """all_subgroups for a p-group: layer k+1 is every H<x> over layer k."""
    t = G.table
    inv = G.inverse
    n = G.order
    # roots[y]: the mask of the x with x^p = y.
    roots = [0] * n
    for x in range(n):
        roots[G.power(x, p)] |= 1 << x
    trivial = trivial_subgroup(G)
    out = [trivial]
    # One layer: (subgroup, the generators its normaliser test conjugates).
    layer = [(trivial, ())]
    while len(layer[0][0].elems) < n:
        found: dict[int, tuple] = {}
        for H, gens in layer:
            hmask = H.mask
            helems = H.elems
            # The x outside H with x^p in H, less the overgroups already met.
            candidates = 0
            for h in helems:
                candidates |= roots[h]
            candidates &= ~hmask
            while candidates:
                x = (candidates & -candidates).bit_length() - 1
                candidates &= candidates - 1
                tx, ix = t[x], inv[x]
                for g in gens:
                    if not (hmask >> t[tx[g]][ix]) & 1:
                        break
                else:
                    # x normalises H, so H<x> is the union of the cosets x^i H.
                    kelems = list(helems)
                    kmask = hmask
                    xi = x
                    for _ in range(1, p):
                        row = t[xi]
                        coset = [row[h] for h in helems]
                        for y in coset:
                            kmask |= 1 << y
                        kelems += coset
                        xi = tx[xi]
                    hit = found.get(kmask)
                    if hit is None:
                        if len(out) + len(found) >= lattice_cap:
                            raise LatticeTooLarge(f"more than {lattice_cap} subgroups")
                        _check_extension(G, kelems, kmask, x)
                        hit = found[kmask] = (Subgroup(G, kelems, validate=False), gens + (x,))
                    if covers is not None:
                        covers.append((H, hit[0]))
                    candidates &= ~kmask
        if len(found) % p != 1:
            raise InternalCheckError(
                f"{len(found)} subgroups of order {p * len(layer[0][0].elems)} in {G.name}, "
                f"not 1 mod {p} (Frobenius)"
            )
        layer = sorted(found.values(), key=lambda Sg: Sg[0].elems)
        out += [S for S, _ in layer]
    return out


def _check_extension(G: GroupTable, kelems: Sequence[int], kmask: int, x: int) -> None:
    """Certify that K, the union of the cosets x^i H of a subgroup H, is the
    subgroup <H, x>.  K h = K for h in H, so K x <= K makes K closed under
    right multiplication by <H, x>; K holds 1, so K = <H, x>."""
    t = G.table
    if not all((kmask >> t[k][x]) & 1 for k in kelems):
        raise InternalCheckError(
            f"the cosets of a subgroup by x = {x} in {G.name} do not form a subgroup"
        )


def subgroups_of_order(G: GroupTable, m: int, lattice: Optional[Sequence[Subgroup]] = None) -> list:
    if m < 1 or G.order % m != 0:
        raise InputError(f"{m} does not divide |G| = {G.order}")
    if lattice is None:
        lattice = all_subgroups(G)
    return [S for S in lattice if len(S.elems) == m]


def intersect_all(subs: Sequence[Subgroup]) -> Subgroup:
    if not subs:
        raise EmptyInput("no subgroups to intersect")
    G = subs[0].ambient
    mask = subs[0].mask
    for S in subs[1:]:
        if S.ambient is not G:
            raise InputError("subgroups live in different ambient groups")
        mask &= S.mask
    elems = [x for x in subs[0].elems if (mask >> x) & 1]
    return Subgroup(G, elems, validate=False)


# -- quotients and abelian structure ----------------------------------------------


def quotient(H: Subgroup, N: Subgroup) -> tuple:
    """Coset table of H/N plus the projection (ambient index -> coset index,
    -1 outside H)."""
    G = H.ambient
    if not N.is_subset_of(H):
        raise NotNormal("N is not contained in H")
    if not is_normal_in(N, H):
        raise NotNormal("N is not normal in H")
    t = G.table
    proj = [-1] * G.order
    reps = []
    for h in H.elems:
        if proj[h] != -1:
            continue
        cid = len(reps)
        for n in N.elems:
            proj[t[h][n]] = cid
        reps.append(h)
    q = len(reps)
    table = [[proj[t[a][b]] for b in reps] for a in reps]
    Q = from_cayley(table, name=f"{H.ambient.name}-quot{q}")
    return Q, tuple(proj)


def abelian_decomposition(A: GroupTable) -> AbelianDecomp:
    """Cyclic factors of an abelian group, maximal order first.

    A maximal-order cyclic subgroup is always a direct factor: decompose the
    quotient by it recursively and lift each quotient generator g of order d
    back, correcting by a power of the extracted element a so the lift still
    has order d (g^d = a^t forces d | t; use g * a^(-t/d)).
    """
    if not A.is_abelian():
        raise NotAbelian(f"{A.name} is not abelian")
    generators = _abelian_basis(A)
    factors = tuple(A.elem_order[g] for g in generators)
    if math.prod(factors) != A.order:
        raise InternalCheckError(f"cyclic factors {factors} do not multiply to {A.order}")

    dlog = [None] * A.order
    radix: list[tuple] = [()]
    for d in factors:
        radix = [tup + (k,) for tup in radix for k in range(d)]
    for tup in radix:
        x = A.identity
        for g, k in zip(generators, tup):
            x = A.table[x][A.power(g, k)]
        if dlog[x] is not None:
            raise InternalCheckError("abelian basis generators are not independent")
        dlog[x] = tup
    return AbelianDecomp(factors=factors, generators=tuple(generators), dlog=tuple(dlog))


def _abelian_basis(A: GroupTable) -> list:
    if A.order == 1:
        return []
    m = max(A.elem_order)
    a = min(g for g in range(A.order) if A.elem_order[g] == m)
    if m == A.order:
        return [a]
    Za = generated_subgroup(A, (a,))
    Q, proj = quotient(whole_group(A), Za)
    out = [a]
    for qg in _abelian_basis(Q):
        d = Q.elem_order[qg]
        g = min(h for h in range(A.order) if proj[h] == qg)
        gd = A.power(g, d)
        t, x = 0, A.identity
        while x != gd:
            x = A.table[x][a]
            t += 1
        if t % d:
            raise InternalCheckError(f"lifted generator power a^{t} is not a multiple of {d}")
        lift = A.table[g][A.power(a, (m - t // d) % m)]
        if A.elem_order[lift] != d:
            raise InternalCheckError(f"lifted generator has order {A.elem_order[lift]}, not {d}")
        out.append(lift)
    return out


# -- double cosets ------------------------------------------------------------------


def double_cosets(G: GroupTable, H: Subgroup, K: Subgroup) -> list:
    """Minimal representatives of the H\\G/K double cosets, in index order."""
    t = G.table
    covered = bytearray(G.order)
    reps = []
    for x in range(G.order):
        if covered[x]:
            continue
        reps.append(x)
        for h in H.elems:
            hx = t[h][x]
            row = t[hx]
            for k in K.elems:
                covered[row[k]] = 1
    if not all(covered):
        raise InternalCheckError("the double cosets do not cover G")
    return reps
