"""Irreducible characters of all subgroups of a fixed finite group.

Irr(H) takes one of three routes (_compute_irr):

* an abelian H (as many classes as elements) gets its |H| linear characters
  as exponent maps, grown over the cosets of the trivial subgroup inside
  the ambient table;
* a nonabelian subgroup of a p-group is built by Clifford theory at prime
  index over its maximal subgroups, with no search and no induction: the
  p extensions of each invariant linear character of the first maximal K
  as exponent maps, and one character per conjugation orbit of length p of
  the maximal subgroups, read while Irr(H) is short (_clifford_irr says
  why every nonlinear character is such an orbit sum);
* a nonabelian subgroup of any other group takes the monomial search: its
  linear characters over the cosets of H', plus the norm-1 characters
  induced from linear characters of proper subgroups of index at most
  sqrt(|H|).  It is complete exactly for M-groups, and it is the oracle of
  the Clifford route.

Completeness is asserted: the abelian route's |H| linear characters must
be distinct, the other two routes check the class count and the sum of
squared degrees, and the Clifford route also the regular character.  So a
gap in a method surfaces as an error rather than a wrong answer.

All values are exact cyclotomic integers at one global conductor, the
exponent of the ambient group.  A ClassFunction stores them as integer
coefficient rows, one power-basis coordinate tuple per class, and every hot
path (lookup, restriction, induction, inner products) works on those rows;
CycInt appears only at the boundary: the public ClassFunction constructor
and the views values and value_at (export writes the rows directly).

A per-group CharContext is the one home of each structural fact of the
group: Z(G), the subgroup lattice with its index-p cover relation, conjugacy
classes, character sets with their row index, and restriction
decompositions with their constituent bitmasks; everything it stores is
immutable.

The restriction edges of a pair K < H are stored once per pair, in
CharContext._edges, as two flat int tuples (I, J) in (j, i) order: edge k
says that psi_I[k] in Irr(K) is a constituent of chi_J[k] in Irr(H).
Consumers zip the two tuples; constituent_masks is a view of them.

A pair of index p in a p-group (every cover pair of the lattice) takes the
Clifford route: K is normal, so each chi_K is one irreducible or the sum of
one H-conjugation orbit, found by row lookups with no inner product; one
orbit split (CharContext._clifford_split) serves these edges and Irr.  All of
Irr(H) is restricted at once, by one itemgetter over the class map of K into
H, and looked up in char_index(K) by one map; when every chi_K is
irreducible (always so for an abelian H) those indices are the edges, and
only the misses go on to the orbit walk.  Every other pair (the full
strategy's non-cover pairs, chains checked by related(), groups that are not
p-groups) is decomposed by inner products; that route is kept as the general
case and as the oracle of the Clifford route.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cache
from math import isqrt
from operator import itemgetter
from typing import Optional, Sequence

from . import cyclotomic as cyc
from .cyclotomic import CycInt
from .errors import (
    ConductorMismatch,
    IncompleteIrr,
    InputError,
    InternalCheckError,
    NotASubgroup,
    NotDivisible,
    NotMonomial,
)
from .groups import (
    DEFAULT_LATTICE_CAP,
    DEFAULT_ORDER_CAP,
    ConjClasses,
    GroupTable,
    Subgroup,
    all_subgroups,
    center,
    conjugacy_classes,
    conjugate_subgroup,
    derived_subgroup,
    double_cosets,
    intersect_all,
    prime_of,
    whole_group,
)


class ClassFunction:
    """A class function on a subgroup, stored as integer coefficient rows:
    rows[c] is the power-basis coordinate tuple of its value on class c at
    the ambient group's exponent.  values and value_at build CycInt views of
    the rows on access."""

    __slots__ = ("owner", "classes", "rows", "degree")

    def __init__(self, owner: Subgroup, classes: ConjClasses, values: Sequence[CycInt]):
        values = tuple(values)
        if len(values) != classes.count:
            raise InputError(f"{len(values)} values given for {classes.count} classes")
        n = owner.ambient.exponent
        for v in values:
            if not isinstance(v, CycInt):
                raise InputError(f"value {v!r} is not a CycInt")
            if v.n != n:
                raise ConductorMismatch(
                    f"a value has conductor {v.n}, not the group exponent {n}"
                )
        self._fill(owner, classes, tuple(v.coeffs for v in values))

    @classmethod
    def _from_rows(cls, owner: Subgroup, classes: ConjClasses, rows: tuple) -> "ClassFunction":
        """The hot-path constructor: rows already at the group exponent."""
        self = cls.__new__(cls)
        self._fill(owner, classes, rows)
        return self

    def _fill(self, owner: Subgroup, classes: ConjClasses, rows: tuple) -> None:
        self.owner = owner
        self.classes = classes
        self.rows = rows
        self.degree = cyc.coeffs_as_integer(rows[classes.identity_class])

    @property
    def values(self) -> tuple:
        """One CycInt per class, built from the rows on each access."""
        n = self.owner.ambient.exponent
        return tuple(CycInt(n, row, _raw=True) for row in self.rows)

    def value_at(self, g: int) -> CycInt:
        """Value at an ambient element index (must lie in the owner)."""
        if not 0 <= g < self.owner.ambient.order:
            raise InputError(f"element {g} is not an element index of the group")
        c = self.classes.class_of[g]
        if c < 0:
            raise InputError(f"element {g} is not in the owner subgroup")
        return CycInt(self.owner.ambient.exponent, self.rows[c], _raw=True)

    def sort_key(self):
        return (self.degree, self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, ClassFunction)
            and self.owner.ambient is other.owner.ambient
            and self.owner.elems == other.owner.elems
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.owner.elems, self.rows))

    def __repr__(self):
        return f"ClassFunction(deg={self.degree}, |H|={len(self.owner.elems)})"


@cache
def _first_ints(n: int) -> tuple:
    """tuple(range(n)), one shared instance per n: the J of every pair whose
    restrictions are all irreducible."""
    return tuple(range(n))


def get_context(G: GroupTable, order_cap: Optional[int] = None) -> "CharContext":
    """The group's CharContext, built on first use and kept on G itself.  An
    order cap given here is stored on it for lattice(); None keeps the stored
    one."""
    if G.context is None:
        G.context = CharContext(G, DEFAULT_ORDER_CAP)
    if order_cap is not None:
        G.context.order_cap = order_cap
    return G.context


class CharContext:
    """Per-group memo of Z(G), lattice and covers, classes, characters and
    restriction data."""

    def __init__(self, G: GroupTable, order_cap: int):
        self.group = G
        self.conductor = G.exponent
        self.order_cap = order_cap
        self.whole = whole_group(G)
        self.center = center(self.whole)
        # The prime of a p-group, else None: its index-p pairs are normal.
        self._prime = prime_of(G.order)
        self.zeta_rows = tuple(z.coeffs for z in cyc.zeta_table(G.exponent))
        self.zeta_exponent = {row: k for k, row in enumerate(self.zeta_rows)}
        self._lattice: Optional[list] = None
        self._covers: list = []
        self._maximal: dict = {}  # H.elems -> H's maximal subgroups, in maximal_pairs() order
        self._by_elems: dict = {}
        self._classes: dict = {}
        self._irr: dict = {}
        self._char_index: dict = {}
        self._edges: dict = {}  # (K.elems, H.elems) -> (I, J), see restriction_edges
        self._masks: dict = {}  # constituent_masks, a view of _edges
        # strategy -> {least subgroup order of a level: ComponentPartition}
        self.partitions: dict = {}

    # -- lattice ---------------------------------------------------------

    def lattice(self) -> list:
        if self._lattice is None:
            covers: list = []
            self._lattice = all_subgroups(self.group, self.order_cap, DEFAULT_LATTICE_CAP, covers)
            self._by_elems = {S.elems: S for S in self._lattice}
            # Order by upper subgroup, then lower, as lattice positions.
            covers.sort(key=lambda kh: (len(kh[1].elems), kh[1].elems, kh[0].elems))
            self._covers = covers
            for K, H in covers:
                self._maximal.setdefault(H.elems, []).append(K)
        return self._lattice

    def canonical(self, S: Subgroup) -> Subgroup:
        """The lattice's own instance for this element set."""
        self.lattice()
        hit = self._by_elems.get(S.elems)
        if hit is None:
            raise NotASubgroup(f"{S!r} is not in the subgroup lattice")
        return hit

    def maximal_pairs(self) -> list:
        """All pairs (K, H) with K maximal in H, i.e. of index p, ordered by
        the lattice positions of H and then K."""
        self.lattice()
        return self._covers

    # -- classes and characters -------------------------------------------

    def classes(self, S: Subgroup) -> ConjClasses:
        hit = self._classes.get(S.elems)
        if hit is None:
            hit = conjugacy_classes(S)
            self._classes[S.elems] = hit
        return hit

    def linear(self, S: Subgroup) -> tuple:
        """The degree-1 front of irr(S)."""
        chars = self.irr(S)
        return chars[: bisect_right(chars, 1, key=lambda ch: ch.degree)]

    def irr(self, S: Subgroup) -> tuple:
        hit = self._irr.get(S.elems)
        if hit is None:
            hit = _compute_irr(self, S)
            self._irr[S.elems] = hit
        return hit

    def char_index(self, S: Subgroup) -> dict:
        """Map rows -> index in irr(S)."""
        hit = self._char_index.get(S.elems)
        if hit is None:
            hit = {ch.rows: i for i, ch in enumerate(self.irr(S))}
            self._char_index[S.elems] = hit
        return hit

    # -- restriction decomposition -----------------------------------------

    def inner_raw(self, cc: ConjClasses, rows_a: Sequence[tuple], rows_b: Sequence[tuple]) -> int:
        """[a, b] on the subgroup with classes cc, given their rows.

        Products are accumulated with exponents folded mod n and the whole
        sum is reduced mod Phi_n once at the end."""
        order = len(cc.owner.elems)
        inv = cc.inverse_class
        sizes = cc.sizes
        n = self.conductor
        acc = [0] * n
        for c in range(len(sizes)):
            brow = rows_b[inv[c]]
            s = sizes[c]
            for i, ai in enumerate(rows_a[c]):
                if ai:
                    sai = s * ai
                    for j, bj in enumerate(brow):
                        if bj:
                            k = i + j
                            if k >= n:
                                k -= n
                            acc[k] += sai * bj
        tot = cyc.coeffs_as_integer(cyc.reduce_coeffs(n, acc))
        q, r = divmod(tot, order)
        if r:
            raise NotDivisible(f"inner product sum {tot} not divisible by {order}")
        return q

    def restriction_edges(self, K: Subgroup, H: Subgroup) -> tuple:
        """The pairs (i, j) with psi_i a constituent of chi_j restricted to K,
        for K a proper subgroup of H, as two flat tuples (I, J) sorted by
        (j, i): pair k is (I[k], J[k]).

        In a p-group a subgroup of index p is normal, so those pairs take the
        Clifford route (_clifford_edges).  Every other pair takes the
        inner-product route (_inner_product_edges), which is kept as the
        general case and as the oracle of the Clifford route."""
        key = (K.elems, H.elems)
        hit = self._edges.get(key)
        if hit is None:
            if self._prime is not None and len(H.elems) == self._prime * len(K.elems):
                hit = self._clifford_edges(K, H)
            else:
                hit = self._inner_product_edges(K, H)
            self._edges[key] = hit
        return hit

    def constituent_masks(self, K: Subgroup, H: Subgroup) -> tuple:
        """For K <= H: entry j is the int bitmask of the i such that psi_i in
        Irr(K) is a constituent of chi_j restricted to K; a view of
        restriction_edges(K, H), and 1 << j when K = H."""
        key = (K.elems, H.elems)
        hit = self._masks.get(key)
        if hit is None:
            if K.elems == H.elems:
                hit = tuple(1 << j for j in range(len(self.irr(H))))
            else:
                masks = [0] * len(self.irr(H))
                for i, j in zip(*self.restriction_edges(K, H)):
                    masks[j] |= 1 << i
                hit = tuple(masks)
            self._masks[key] = hit
        return hit

    def _clifford_edges(self, K: Subgroup, H: Subgroup) -> tuple:
        """Restriction edges (I, J) for K normal of prime index p in H, on
        rows only.

        By Clifford's theorem at prime index (Isaacs, Cor. 6.19), chi_K is
        either irreducible or the sum of the p distinct H-conjugates of one
        psi in Irr(K).  All of Irr(H) is restricted by one itemgetter and
        looked up in char_index(K) at once.  When every chi_K is irreducible
        the lookups are the edges, certified by every psi being hit.
        Otherwise each orbit of length p (_clifford_split) must sum to exactly
        one missed chi_K, every missed chi_K must be such a sum, and every psi
        must lie in an edge.  Exact row equality plus the asserted
        completeness of Irr(K) certifies the decomposition."""
        irrK = self.irr(K)
        irrH = self.irr(H)
        lookup = self.char_index(K)
        class_of_H = self.classes(H).class_of
        class_map = [class_of_H[r] for r in self.classes(K).reps]
        restricted = list(map(itemgetter(*class_map), [chi.rows for chi in irrH]))
        if len(class_map) == 1:  # itemgetter of one index returns the bare row
            restricted = [(row,) for row in restricted]
        idx = list(map(lookup.get, restricted))
        if None not in idx:
            if len(set(idx)) != len(irrK):
                raise IncompleteIrr(
                    f"{len(irrK) - len(set(idx))} characters of Irr(K) lie under no irreducible"
                    " restriction"
                )
            return tuple(idx), _first_ints(len(irrH))
        edges = [(i, j) for j, i in enumerate(idx) if i is not None]
        split = {rows: j for j, (rows, i) in enumerate(zip(restricted, idx)) if i is None}
        for orbit, total in self._clifford_split(K, H)[1]:
            if total is None:
                continue
            j = split.pop(total, None)
            if j is None:
                raise IncompleteIrr("a conjugation orbit does not sum to one restriction")
            edges.extend((k, j) for k in orbit)
        if split:
            raise IncompleteIrr(
                f"{len(split)} restrictions are neither irreducible nor an orbit sum"
            )
        if len({i for i, _ in edges}) != len(irrK):
            raise IncompleteIrr("a character of Irr(K) lies under no restriction")
        edges.sort(key=itemgetter(1, 0))
        I, J = zip(*edges)
        return I, J

    def _clifford_split(self, K: Subgroup, H: Subgroup) -> tuple:
        """(x, orbits) for K normal of prime index p in H: one x in H \\ K,
        and the orbits of Irr(K) under conjugation by x, in order of their
        first index.  Each orbit is (indices, total): total is the orbit's
        class-by-class row sum when its length is p, and None when psi is
        H-invariant.  x^p lies in K and fixes psi, so no other length occurs;
        one raises InternalCheckError, as does a K not normal in H, and a
        conjugate missing from Irr(K) raises IncompleteIrr."""
        G, p = self.group, self._prime
        ccK = self.classes(K)
        irrK = self.irr(K)
        lookup = self.char_index(K)
        x = next(h for h in H.elems if not K.contains(h))
        perm = tuple(ccK.class_of[G.conj(r, x)] for r in ccK.reps)
        if min(perm) < 0:
            raise InternalCheckError("K is not normal in H")
        orbits = []
        seen = set()
        for i, psi in enumerate(irrK):
            if i in seen:
                continue
            orbit, rows = [i], psi.rows
            for _ in range(p):
                rows = tuple(map(rows.__getitem__, perm))
                k = lookup.get(rows)
                if k is None:
                    raise IncompleteIrr("a conjugate of an irreducible is not in Irr(K)")
                if k == i:
                    break
                orbit.append(k)
            if len(orbit) not in (1, p):
                raise InternalCheckError(
                    f"a conjugation orbit does not close after 1 or {p} steps"
                )
            seen.update(orbit)
            total = None
            if len(orbit) > 1:
                total = tuple(
                    tuple(map(sum, zip(*col))) for col in zip(*(irrK[k].rows for k in orbit))
                )
            orbits.append((orbit, total))
        return x, orbits

    def _inner_product_edges(self, K: Subgroup, H: Subgroup) -> tuple:
        """Restriction edges (I, J) of any pair K < H, by the multiplicity of
        each psi in chi_K; the general route and the oracle of the Clifford
        one."""
        irrK = self.irr(K)
        irrH = self.irr(H)
        ccK = self.classes(K)
        ccH = self.classes(H)
        index = len(H.elems) // len(K.elems)
        lookup = self.char_index(K)
        class_map = tuple(ccH.class_of[r] for r in ccK.reps)
        I, J = [], []
        for j, chi in enumerate(irrH):
            rrows = tuple(map(chi.rows.__getitem__, class_map))
            if chi.degree == 1:
                I.append(lookup[rrows])
                J.append(j)
                continue
            remaining = chi.degree
            for i, psi in enumerate(irrK):
                if psi.degree > chi.degree or psi.degree * index < chi.degree:
                    continue
                m = self.inner_raw(ccK, rrows, psi.rows)
                if m:
                    I.append(i)
                    J.append(j)
                    remaining -= m * psi.degree
                    if remaining == 0:
                        break
            if remaining:
                raise IncompleteIrr(
                    f"restriction of a degree-{chi.degree} character did not decompose"
                )
        return tuple(I), tuple(J)


# -- spec operations -----------------------------------------------------------


def _linear_characters(ctx: CharContext, H: Subgroup, kernel: Sequence[int]) -> tuple:
    """All |H/H'| degree-1 characters of H as exponent maps lam: H -> Z/n,
    grown from lam = 0 on kernel (the elements of H', or of the trivial
    subgroup when H is abelian) inside the ambient table: for x outside S,
    with x^k the first power of x in S, each lam on S extends to S<x> in
    exactly k ways, x -> a with k*a = lam(x^k) mod n and
    s*x^i -> lam(s) + i*a."""
    G, n = H.ambient, ctx.conductor
    elems = kernel
    pos = {s: j for j, s in enumerate(elems)}
    maps = [[0] * len(elems)]
    for x in H.elems:
        if x in pos:
            continue
        powers, y = [G.identity], x
        while y not in pos:
            powers.append(y)
            y = G.table[y][x]
        k, xk = len(powers), pos[y]
        if any(lam[xk] % k for lam in maps):
            raise IncompleteIrr(f"an exponent of x^{k} is not divisible by {k}")
        maps = [
            [(v + i * a) % n for i in range(k) for v in lam]
            for lam in maps
            for a in range(lam[xk] // k, n, n // k)
        ]
        elems = [G.table[s][xi] for xi in powers for s in elems]
        pos = {s: j for j, s in enumerate(elems)}
    cc = ctx.classes(H)
    zrows = ctx.zeta_rows
    at_reps = [pos[r] for r in cc.reps]
    out = [ClassFunction._from_rows(H, cc, tuple(zrows[lam[j]] for j in at_reps)) for lam in maps]
    if len({ch.rows for ch in out}) != len(out):
        raise IncompleteIrr("two linear characters share their values")
    return tuple(out)


def linear_characters(H: Subgroup) -> tuple:
    return get_context(H.ambient).linear(H)


def _compute_irr(ctx: CharContext, H: Subgroup) -> tuple:
    """Irr(H), canonically sorted, by one of three routes.

    An abelian H (as many classes as elements) gets its |H| linear
    characters by the coset walk from the trivial subgroup.  A nonabelian
    subgroup of a p-group is built from the conjugation orbits of Irr of its
    maximal subgroups by Clifford theory (_clifford_irr), with no search and
    no induction.  A nonabelian subgroup of any other group takes the
    monomial search (_monomial_irr), which is also the oracle of the
    Clifford route."""
    cc = ctx.classes(H)
    if cc.count == len(H.elems):
        chars = _linear_characters(ctx, H, (H.ambient.identity,))
    elif ctx._prime is not None:
        chars = [ClassFunction._from_rows(H, cc, rows) for rows in _clifford_irr(ctx, H)]
    else:
        chars = _monomial_irr(ctx, H)
    return tuple(sorted(chars, key=ClassFunction.sort_key))


def _clifford_irr(ctx: CharContext, H: Subgroup) -> list:
    """The rows of Irr(H) for a nonabelian subgroup H of a p-group, by
    Clifford theory at prime index over H's maximal subgroups, each normal of
    index p (Isaacs, Character Theory of Finite Groups, Cor. 6.19 and 11.22).
    For each maximal M, Irr(M) splits into H-conjugation orbits of length p
    or 1 (CharContext._clifford_split):

    * an orbit of length p gives one irreducible theta^H: the orbit's row
      sum on the classes of H inside M, and 0 off M;
    * an invariant linear psi of K, H's first maximal subgroup, extends to H
      by x -> zeta^a with zeta^(p*a) = psi(x^p), worked as exponent maps
      k*x^i -> psi(k) + i*a mod n; the p solutions a give its p extensions,
      and these are all the linear characters of H.

    Every nonlinear chi in Irr(H) is an orbit sum of some maximal M: p-groups
    are M-groups, so chi = theta^H for a theta of some maximal M, and theta
    is not H-invariant, since otherwise chi_M = p*theta and
    [chi_M, chi_M] = p^2 > p.  K's orbits are read first, then the other
    maximal subgroups in maximal_pairs() order while Irr(H) is still short
    of the class count; rows are keyed in a dict, as one chi is met once per
    maximal subgroup it is induced from.  No subgroup search and no
    induction is needed.

    The result is checked complete: as many characters as classes, sum of
    squared degrees |H|, and sum of chi(1) * chi the regular character (|H|
    at 1, 0 elsewhere); a shortfall raises IncompleteIrr."""
    G, p, n = ctx.group, ctx._prime, ctx.conductor
    t = G.table
    ctx.lattice()
    maximal = ctx._maximal[H.elems]
    K = maximal[0]
    irrK = ctx.irr(K)
    ccK = ctx.classes(K)
    ccH = ctx.classes(H)
    x, orbits = ctx._clifford_split(K, H)
    zrows = ctx.zeta_rows
    # Each class of H lies in one coset K x^i; its rep is k * x^i, k in K.
    xinv = G.inverse[x]
    at_reps = []
    for r in ccH.reps:
        i, k = 0, r
        while not K.contains(k):
            k = t[k][xinv]
            i += 1
        at_reps.append((i, ccK.class_of[k]))
    xp_class = ccK.class_of[G.power(x, p)]
    found: dict = {}
    for orbit, total in orbits:
        psi = irrK[orbit[0]]
        if total is None and psi.degree == 1:
            exps = [ctx.zeta_exponent[row] for row in psi.rows]
            b = exps[xp_class]
            if b % p:
                raise IncompleteIrr(f"the exponent of x^{p} is not divisible by {p}")
            for a in range(b // p, n, n // p):
                found[tuple(zrows[(exps[kc] + i * a) % n] for i, kc in at_reps)] = None
    zero = (0,) * len(zrows[0])
    for M in maximal:
        if len(found) >= ccH.count:
            break
        if M is not K:
            orbits = ctx._clifford_split(M, H)[1]
        at = [ctx.classes(M).class_of[r] for r in ccH.reps]
        for _, total in orbits:
            if total is not None:
                found[tuple(zero if c < 0 else total[c] for c in at)] = None
    out = list(found)
    order = len(H.elems)
    degrees = [cyc.coeffs_as_integer(rows[ccH.identity_class]) for rows in out]
    if len(out) != ccH.count or sum(d * d for d in degrees) != order:
        raise IncompleteIrr(
            f"{G.name}: Clifford theory over the maximal subgroups gave {len(out)} "
            f"distinct characters with sum(deg^2) = "
            f"{sum(d * d for d in degrees)} for |H| = {order} with {ccH.count} classes"
        )
    regular = [[0] * len(zero) for _ in range(ccH.count)]
    for d, rows in zip(degrees, out):
        for acc, row in zip(regular, rows):
            for k, v in enumerate(row):
                if v:
                    acc[k] += d * v
    expected = [[0] * len(zero) for _ in range(ccH.count)]
    expected[ccH.identity_class][0] = order
    if regular != expected:
        raise IncompleteIrr(
            f"{G.name}: sum of chi(1) * chi is not the regular character of |H| = {order}"
        )
    return out


def _monomial_irr(ctx: CharContext, H: Subgroup) -> list:
    """Irr(H) by the monomial search: H's own linear characters, grown over
    the cosets of H', plus the norm-1 characters induced from the linear
    characters of proper subgroups of index at most sqrt(|H|).  Every
    character of an M-group is induced from a linear one of a subgroup of
    index chi(1) <= sqrt(|H|), so the search is complete for M-groups and in
    particular for p-groups.  An incomplete search raises NotMonomial when H
    is not a p-group (it is then not an M-group) and IncompleteIrr when it
    is."""
    cc = ctx.classes(H)
    order = len(H.elems)
    found = {ch.rows: ch for ch in _linear_characters(ctx, H, derived_subgroup(H).elems)}
    total = len(found)
    if len(found) < cc.count:
        bound = isqrt(order)
        cands = [
            K
            for K in ctx.lattice()
            if K.mask | H.mask == H.mask and 2 <= order // len(K.elems) <= bound
        ]
        cands.sort(key=lambda K: -len(K.elems))
        seen = set()
        for K in cands:
            for lam in ctx.linear(K):
                theta = induce(lam, H)
                if theta.rows in seen:
                    continue
                seen.add(theta.rows)
                if inner_product(theta, theta) == 1:
                    found[theta.rows] = theta
                    total += theta.degree**2
            if total == order and len(found) == cc.count:
                break
    if total != order or len(found) != cc.count:
        summary = (
            f"monomial search found {len(found)} characters with "
            f"sum(deg^2) = {total} for |H| = {order}"
        )
        if prime_of(order) is None:
            raise NotMonomial(
                f"a subgroup of order {order} of {H.ambient.name} is not an M-group: {summary}"
            )
        raise IncompleteIrr(summary)
    return list(found.values())


def irr(H: Subgroup) -> tuple:
    """The complete irreducible character set of H, canonically ordered
    (degree-major, then lexicographic in the rows), by the route of
    _compute_irr: linear characters for an abelian H, Clifford theory over
    the maximal subgroups in a p-group, the monomial search otherwise."""
    return get_context(H.ambient).irr(H)


def restrict(chi: ClassFunction, K: Subgroup) -> ClassFunction:
    H = chi.owner
    if not K.is_subset_of(H):
        raise NotASubgroup("restriction target is not a subgroup of the owner")
    ctx = get_context(H.ambient)
    ccK = ctx.classes(K)
    rows, class_of = chi.rows, chi.classes.class_of
    return ClassFunction._from_rows(K, ccK, tuple(rows[class_of[r]] for r in ccK.reps))


def induce(phi: ClassFunction, G_sub: Subgroup) -> ClassFunction:
    """Induced character phi^(G_sub): (1/|H|) sum over x of phi(x g x^-1),
    folded over each class of G_sub (the inner sum is |C(g)| times the sum of
    phi over the class members lying in H)."""
    H = phi.owner
    if not H.is_subset_of(G_sub):
        raise NotASubgroup("induction source is not a subgroup of the target")
    ctx = get_context(H.ambient)
    ccG = ctx.classes(G_sub)
    hsize = len(H.elems)
    gsize = len(G_sub.elems)
    hrows = phi.rows
    class_of_H = phi.classes.class_of
    rows = []
    for ci in range(ccG.count):
        acc = [0] * len(hrows[0])
        for y in ccG.members[ci]:
            c = class_of_H[y]
            if c >= 0:
                for k, vk in enumerate(hrows[c]):
                    if vk:
                        acc[k] += vk
        weight = gsize // ccG.sizes[ci]  # centralizer order
        for k, a in enumerate(acc):
            acc[k], r = divmod(a * weight, hsize)
            if r:
                raise NotDivisible(f"coefficient {a * weight} not divisible by {hsize}")
        rows.append(tuple(acc))
    out = ClassFunction._from_rows(G_sub, ccG, tuple(rows))
    if out.degree != (gsize // hsize) * phi.degree:
        raise InternalCheckError(
            f"induced degree {out.degree} is not {gsize // hsize} * {phi.degree}"
        )
    return out


def conjugate_character(phi: ClassFunction, x: int) -> ClassFunction:
    """The character g -> phi(x^-1 g x) on the conjugated subgroup x H x^-1."""
    G = phi.owner.ambient
    ctx = get_context(G)
    Hx = conjugate_subgroup(phi.owner, x)
    ccHx = ctx.classes(Hx)
    xinv = G.inverse[x]
    rows, class_of = phi.rows, phi.classes.class_of
    return ClassFunction._from_rows(
        Hx, ccHx, tuple(rows[class_of[G.conj(r, xinv)]] for r in ccHx.reps)
    )


def inner_product(chi: ClassFunction, psi: ClassFunction) -> int:
    """[chi, psi] = (1/|H|) sum of size(c) * chi(c) * psi(c^-1)."""
    if chi.owner.ambient is not psi.owner.ambient or chi.owner.elems != psi.owner.elems:
        raise InputError("inner product requires characters of the same subgroup")
    ctx = get_context(chi.owner.ambient)
    return ctx.inner_raw(chi.classes, chi.rows, psi.rows)


def decompose(theta: ClassFunction, basis: Sequence[ClassFunction]) -> tuple:
    """Multiplicities of theta against a complete irreducible basis; the
    reconstruction is checked exactly."""
    mults = tuple(inner_product(theta, ch) for ch in basis)
    for c, row in enumerate(theta.rows):
        acc = [0] * len(row)
        for m, ch in zip(mults, basis):
            if m:
                for k, vk in enumerate(ch.rows[c]):
                    acc[k] += m * vk
        if tuple(acc) != row:
            raise IncompleteIrr("decomposition does not reproduce the class function")
    return mults


def mackey_check(H: Subgroup, K: Subgroup, alpha: ClassFunction, beta: ClassFunction) -> tuple:
    """Both sides of the double-coset identity
    [(alpha^G)_K, beta] = sum over x in [H\\G/K] of [((x^-1 conj) alpha
    restricted to x^-1Hx intersect K) induced to K, beta]."""
    G = H.ambient
    ctx = get_context(G)
    if alpha.owner.elems != H.elems or beta.owner.elems != K.elems:
        raise InputError("alpha must live on H and beta on K")
    lhs = inner_product(restrict(induce(alpha, ctx.whole), K), beta)
    rhs = 0
    for x in double_cosets(G, H, K):
        ax = conjugate_character(alpha, G.inverse[x])
        M = intersect_all([ax.owner, K])
        rhs += inner_product(induce(restrict(ax, M), K), beta)
    return lhs, rhs


def frobenius_check(H: Subgroup, phi: ClassFunction, chi: ClassFunction) -> tuple:
    """Both sides of [phi^G, chi]_G = [phi, chi_H]_H."""
    G = H.ambient
    ctx = get_context(G)
    if phi.owner.elems != H.elems:
        raise InputError("phi must live on H")
    lhs = inner_product(induce(phi, ctx.whole), chi)
    rhs = inner_product(phi, restrict(chi, H))
    return lhs, rhs
