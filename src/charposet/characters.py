"""Irreducible characters of all subgroups of a fixed finite group.

Whether a subgroup S is abelian is one test, CharContext.is_abelian: the
lattice's flag once the lattice holds S (whether the generating sequence it
built S from commutes), else whether S's elements commute.  It picks the
sequence S's class set is built under (groups.conjugacy_classes, the one
builder of class sets: the empty sequence exactly when S is abelian, so no
abelian subgroup is ever conjugated) and the two abelian routes of Irr
below.

Irr(H) takes one of four routes (_compute_irr):

* a proper subgroup H of a p-group whose up cover U (its first cover in
  maximal_pairs() order, read only once the lattice is built) is abelian
  takes the set of restrictions of Irr(U) (_fibre_irr): every linear
  character of H extends to U, so the |H| distinct restrictions are
  Irr(H), and the same restriction gives the masks of (H, U); no class
  array is built, and classes(H) stays lazy for its readers;
* any other abelian H (a whole group, whose Irr never builds the lattice,
  an abelian H under a nonabelian U, an abelian subgroup of a group that is
  not a p-group) gets its |H| linear characters as exponent maps, grown
  over the cosets of the trivial subgroup inside the ambient table; this
  coset walk is also the oracle of the restriction route;
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

Completeness is asserted: the two abelian routes must give |H| distinct
linear characters (|H| distinct restrictions of Irr(U) on the restriction
route), the other two routes check the class count and the sum of squared
degrees, and the Clifford route also the regular character.  So a gap in a
method surfaces as an error rather than a wrong answer.

All values are exact cyclotomic integers at one global conductor n, the
exponent of the ambient group.  A ClassFunction stores them as a row of
ints, one per class: the value's power-basis coordinates packed as balanced
signed digits of the context's width W, coordinate 0 the most significant
(cyclotomic.pack).  W is derived per CharContext from |G| and the largest
coordinate of a root of unity at n (cyclotomic.packing_bounds) so that every
digit the character code forms from values within the value bound V = |G| *
M stays below 2^(W-1).  Below 2^(W-1) ints are equal exactly when the
coordinate tuples are and integer order is their lexicographic order, so
Irr's canonical order, node ids and exports do not depend on the packing,
while row sums, scaling, hashed lookups, restriction, induction and inner
products (one big-int accumulation, cyclotomic.packed_product_coeffs) are
plain int operations.  Every character the package computes lies within V.
A class function built by the public constructor, or induced, may exceed V
up to 2^(W-1) (it is then wide): induce and inner_product take it through
CycInt arithmetic instead, and decompose checks its reconstruction on
CycInt values, so their results do not depend on the packing either.  Only
cyclotomic knows the digit format.  CycInt appears only at the boundary:
the public ClassFunction constructor, the views values and value_at, the
wide paths, and export, which unpacks each distinct value once.

A per-group CharContext is the one home of each structural fact of the
group: Z(G) (G's classes of size 1, read on first use), the subgroup
lattice with its index-p cover relation and, per subgroup, the sequence it
was built from and whether it is abelian, conjugacy classes (each built by
groups.conjugacy_classes), character sets with their row index,
restriction decompositions as constituent bitmasks, and the component
partitions of the poset levels, each keyed S.mask -> fact (a pair K <= H:
(K.mask, H.mask) -> fact); everything it stores is immutable, except the
state of the component pass (the peaks so far and the merge forest over
Irr(G)), which the next lower level resumes.

Irr(S) is stored once, as a tuple of rows and a tuple of degrees sorted by
(degree, rows).  Each route sets the degrees it knows (1 on the two
abelian routes), and the edges, Irr's own routes, union-find, verify and
export read the rows and degrees (irr_rows, degrees).  irr(S) is a view: a
tuple of ClassFunction objects built from them on first read and kept, for
the public API, the witness endpoints and the monomial search.  The cover
relation is stored once too, as each subgroup's maximal subgroups sorted
by elements: maximal_pairs() is derived from it on each call, and
up_cover[K] is the cover of K with the least elements.

The restriction data of a pair K <= H is stored once per pair, in
CharContext._edges, as one constituent bitmask per character of H: bit i of
entry j says that psi_i in Irr(K) is a constituent of chi_j restricted to K
(1 << j when K = H).  Union-find, edge export and witness chains all read
these masks (restriction_edges).  Their transpose (restriction_columns),
one mask per psi_i of the chi_j over it, is a derived index like char_index:
built from restriction_edges on first read and kept, never computed apart
from it.

Every pair whose masks the set of restrictions of Irr(U) has not stored
(with Irr(S), for S under an abelian up cover U) is decomposed by one front
(CharContext._restriction_masks): all of Irr(H) is restricted to K at
once (CharContext._restricted_rows, which verify's central suite reads too;
for an abelian H it reads positions in H.elems, with no class array) and
looked up in char_index(K).  A hit is irreducible, so it is its chi's only
constituent; when K = H every row hits.  Only the misses go on, to one of
two handlers.  A pair of index p in a p-group (every cover pair of the
lattice) takes the orbit walk: K is normal, so each missed chi_K is the sum
of one H-conjugation orbit (CharContext._clifford_split, which serves Irr
too), matched by row lookup with no inner product.  Every other pair (the
full strategy's non-cover pairs, witness meets and peaks (K, G), groups that
are not p-groups) takes inner products, kept as the general case and
as the oracle of the front and of the orbit walk.  One check closes every
pair: each psi in Irr(K) must lie under some chi.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cache, cached_property, reduce
from math import isqrt
from operator import itemgetter, or_
from typing import Optional, Sequence

from . import cyclotomic as cyc
from .cyclotomic import CycInt
from .errors import (
    ConductorMismatch,
    IncompleteIrr,
    InputError,
    InternalCheckError,
    LatticeTooLarge,
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
    conjugacy_classes,
    conjugate_subgroup,
    derived_subgroup,
    double_cosets,
    intersect_all,
    prime_of,
    whole_group,
)


class ClassFunction:
    """A class function on a subgroup, stored as one row of ints: rows[c] is
    its value on class c at the ambient group's exponent n, its phi(n)
    power-basis coordinates packed by cyclotomic.pack at the context's width
    W, coordinate 0 the most significant.  Integer order of the packed values
    is the lexicographic order of the coordinate tuples, which sort_key
    relies on.  The constructor takes CycInt values with coordinates below
    the context's packing bound 2^(W-1); a value beyond it raises InputError.
    wide is True when some coordinate exceeds the value bound |G| * M
    (cyclotomic.packing_bounds) that the packed inner product and induction
    assume; induce, inner_product and decompose then work on the CycInt
    values.  values and value_at unpack the rows on access."""

    __slots__ = ("owner", "classes", "rows", "degree", "wide")

    def __init__(self, owner: Subgroup, classes: ConjClasses, values: Sequence[CycInt]):
        if classes.owner != owner:
            raise InputError("the classes belong to another subgroup than the owner")
        values = tuple(values)
        if len(values) != classes.count:
            raise InputError(f"{len(values)} values given for {classes.count} classes")
        ctx = get_context(owner.ambient)
        n = ctx.conductor
        for v in values:
            if not isinstance(v, CycInt):
                raise InputError(f"value {v!r} is not a CycInt")
            if v.n != n:
                raise ConductorMismatch(
                    f"a value has conductor {v.n}, not the group exponent {n}"
                )
        top = max(abs(c) for v in values for c in v.coeffs)
        if top >= 1 << (ctx.width - 1):
            raise InputError(
                f"a value has a coordinate beyond 2^{ctx.width - 1}, the packing bound of"
                f" {owner.ambient.name}'s class values"
            )
        rows = tuple(cyc.pack(v.coeffs, ctx.width) for v in values)
        self._fill(owner, classes, rows, top > ctx.value_bound, None)

    @classmethod
    def _from_rows(
        cls, owner: Subgroup, classes: ConjClasses, rows: tuple, wide=False, degree=None
    ) -> "ClassFunction":
        """The constructor from rows already packed at the context's width,
        with the degree when the caller knows it."""
        self = cls.__new__(cls)
        self._fill(owner, classes, rows, wide, degree)
        return self

    def _fill(self, owner: Subgroup, classes: ConjClasses, rows: tuple, wide: bool, degree) -> None:
        self.owner = owner
        self.classes = classes
        self.rows = rows
        self.wide = wide
        if degree is None:
            ctx = owner.ambient.context
            degree = cyc.unpack_integer(rows[classes.identity_class], ctx.width, ctx.digits)
        self.degree = degree

    @property
    def values(self) -> tuple:
        """One CycInt per class, unpacked from the rows on each access."""
        ctx = self.owner.ambient.context
        n, width, digits = ctx.conductor, ctx.width, ctx.digits
        return tuple(CycInt(n, cyc.unpack(x, width, digits), _raw=True) for x in self.rows)

    def value_at(self, g: int) -> CycInt:
        """Value at an ambient element index (must lie in the owner)."""
        if not 0 <= g < self.owner.ambient.order:
            raise InputError(f"element {g} is not an element index of the group")
        c = self.classes.class_of[g]
        if c < 0:
            raise InputError(f"element {g} is not in the owner subgroup")
        ctx = self.owner.ambient.context
        return CycInt(ctx.conductor, cyc.unpack(self.rows[c], ctx.width, ctx.digits), _raw=True)

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
def _ones(n: int) -> tuple:
    """(1,) * n, one shared instance per n: the degrees of n linear
    characters."""
    return (1,) * n


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
    restriction data, each keyed S.mask -> (a pair K <= H: (K.mask, H.mask)).
    Z(G) is read off classes(whole) on first use, so a bare context builds
    no class set.  Irr(S) is stored once, as rows and degrees (irr_rows,
    degrees), of which irr(S) is a view; the cover relation once, as
    _maximal; the restriction data once, as constituent masks (_edges), of
    which the column masks (_columns) are a view."""

    def __init__(self, G: GroupTable, order_cap: int):
        self.group = G
        self.conductor = n = G.exponent
        self.order_cap = order_cap
        # Class values are packed at width W (cyclotomic.pack); every digit
        # formed from values within value_bound stays below 2^(W-1).
        self.value_bound, self.width = cyc.packing_bounds(n, G.order)
        self.digits = cyc.euler_phi(n)
        self.whole = whole_group(G)
        # The prime of a p-group, else None: its index-p pairs are normal.
        self._prime = prime_of(G.order)
        self.zeta_rows = tuple(cyc.pack(z.coeffs, self.width) for z in cyc.zeta_table(n))
        self.zeta_exponent = {row: k for k, row in enumerate(self.zeta_rows)}
        self._lattice: Optional[list] = None
        self._lattice_error: Optional[str] = None  # the LatticeTooLarge message, once raised
        # S.mask -> (the sequence the lattice built S from, whether S is abelian)
        self._sequences: dict = {}
        self._maximal: dict = {}  # H.mask -> H's maximal subgroups, sorted by elements
        self.up_cover: dict = {}  # K.mask -> K's first cover in maximal_pairs() order
        self._by_mask: dict = {}  # S.mask -> the lattice's own instance of S
        self._classes: dict = {}  # S.mask -> S's conjugacy classes
        self._irr: dict = {}  # S.mask -> (rows, degrees), sorted by (degree, rows)
        self._irr_views: dict = {}  # S.mask -> irr(S), the ClassFunction view of _irr
        self._char_index: dict = {}  # S.mask -> rows -> index in irr(S)
        self._edges: dict = {}  # (K.mask, H.mask) -> masks, see restriction_edges
        self._columns: dict = {}  # (K.mask, H.mask) -> the transpose of _edges' masks
        # least subgroup order of a level -> its ComponentPartition, which
        # holds one forest root per character of G (CharacterPoset.components)
        self.partitions: dict = {}
        # The state of that pass from G down, which a lower level resumes:
        # K.mask -> the peak in Irr(G) of each character of K, for every
        # subgroup passed so far, and the merge forest over Irr(G) ids.
        self.peaks: dict = {}
        self.forest: list = []
        # (A.mask, S.mask) -> the central map's image index in Irr(A) of
        # each character of S, for A central in S (verify's central suite)
        self.central_images: dict = {}

    # -- lattice ---------------------------------------------------------

    def lattice(self) -> list:
        """All subgroups, sorted by (order, elements).  A lattice over the
        cap raises LatticeTooLarge, and so does every later call, from the
        kept message, with no second enumeration."""
        if self._lattice is None:
            if self._lattice_error is not None:
                raise LatticeTooLarge(self._lattice_error)
            covers: list = []
            try:
                self._lattice = all_subgroups(
                    self.group, self.order_cap, DEFAULT_LATTICE_CAP, covers, self._sequences
                )
            except LatticeTooLarge as err:
                self._lattice_error = str(err)
                raise
            self._by_mask = {S.mask: S for S in self._lattice}
            maximal, up = self._maximal, self.up_cover
            # Covers come in the order of the smaller subgroup's layer, which
            # is sorted by elements, so each list of maximal subgroups is too.
            for K, H in covers:
                maximal.setdefault(H.mask, []).append(K)
                U = up.get(K.mask)
                if U is None or H.elems < U.elems:  # element order, not mask order
                    up[K.mask] = H
        return self._lattice

    @cached_property
    def center(self) -> Subgroup:
        """Z(G): the reps of G's classes of size 1, read on first use off
        classes(whole), the class set Irr(G) reads."""
        cc = self.classes(self.whole)
        central = [r for r, k in zip(cc.reps, cc.sizes) if k == 1]
        return Subgroup(self.group, central, validate=False)

    @property
    def generators(self) -> tuple:
        """A generating set of G: the lattice's sequence of G."""
        self.lattice()
        return self._sequences[self.whole.mask][0]

    def canonical(self, S: Subgroup) -> Subgroup:
        """The lattice's own instance for this element set of G."""
        return self.meet(S, S)

    def meet(self, A: Subgroup, B: Subgroup) -> Subgroup:
        """The lattice's own instance of A n B, for subgroups A and B of G."""
        self.lattice()
        hit = self._by_mask.get(A.mask & B.mask)
        if hit is None or A.ambient is not self.group or B.ambient is not self.group:
            raise NotASubgroup(f"the meet of {A!r} and {B!r} is not in this table's lattice")
        return hit

    def maximal_pairs(self) -> list:
        """All pairs (K, H) with K maximal in H, i.e. of index p, ordered by
        the lattice positions of H and then K; derived from _maximal on each
        call."""
        maximal = self._maximal
        return [(K, H) for H in self.lattice() for K in maximal.get(H.mask, ())]

    # -- classes and characters -------------------------------------------

    def classes(self, S: Subgroup) -> ConjClasses:
        """S's conjugacy classes, conjugacy_classes(S, gens): the orbits under
        the empty sequence, one per element with no conjugation, exactly when
        is_abelian(S); otherwise under S's lattice sequence when the lattice
        holds S, else under conjugacy_classes' own sequence of S."""
        hit = self._classes.get(S.mask)
        if hit is None:
            if self.is_abelian(S):
                hit = conjugacy_classes(S, ())
            else:
                seq = self._sequences.get(S.mask)
                hit = conjugacy_classes(S, None if seq is None else seq[0])
            self._classes[S.mask] = hit
        return hit

    def is_abelian(self, S: Subgroup) -> bool:
        """The one abelian test: the lattice's flag when the lattice holds S,
        else whether S's elements commute pairwise.  It builds no class set
        and no lattice."""
        hit = self._sequences.get(S.mask)
        if hit is None:
            t, elems = self.group.table, S.elems
            return all(t[x][y] == t[y][x] for i, x in enumerate(elems) for y in elems[:i])
        return hit[1]

    def linear(self, S: Subgroup) -> tuple:
        """The degree-1 front of irr(S)."""
        return self.irr(S)[: bisect_right(self.degrees(S), 1)]

    def irr(self, S: Subgroup) -> tuple:
        """Irr(S) as ClassFunction objects: a view of the stored rows and
        degrees, built on first read and kept."""
        hit = self._irr_views.get(S.mask)
        if hit is None:
            rows, degrees = self._stored_irr(S)
            cc = self.classes(S)
            hit = tuple(
                ClassFunction._from_rows(S, cc, r, degree=d) for r, d in zip(rows, degrees)
            )
            self._irr_views[S.mask] = hit
        return hit

    def irr_rows(self, S: Subgroup) -> tuple:
        """The rows of each character of Irr(S), in the order of irr(S)."""
        return self._stored_irr(S)[0]

    def degrees(self, S: Subgroup) -> tuple:
        """The degree of each character of Irr(S), in the order of irr(S)."""
        return self._stored_irr(S)[1]

    def _stored_irr(self, S: Subgroup) -> tuple:
        hit = self._irr.get(S.mask)
        if hit is None:
            hit = self._irr[S.mask] = _compute_irr(self, S)
        return hit

    def char_index(self, S: Subgroup) -> dict:
        """Map rows -> index in irr(S)."""
        hit = self._char_index.get(S.mask)
        if hit is None:
            hit = {rows: i for i, rows in enumerate(self.irr_rows(S))}
            self._char_index[S.mask] = hit
        return hit

    # -- restriction decomposition -----------------------------------------

    def inner_raw(self, cc: ConjClasses, rows_a: Sequence[int], rows_b: Sequence[int]) -> int:
        """[a, b] on the subgroup with classes cc, given their rows.

        The products size * a(c) * b(c^-1) are summed as packed ints, and the
        sum is unpacked, folded mod n and reduced mod Phi_n once at the end."""
        order = len(cc.owner.elems)
        acc = 0
        for s, a, c in zip(cc.sizes, rows_a, cc.inverse_class):
            if a:
                acc += s * a * rows_b[c]
        tot = cyc.coeffs_as_integer(
            cyc.packed_product_coeffs(self.conductor, acc, self.width, self.digits)
        )
        q, r = divmod(tot, order)
        if r:
            raise NotDivisible(f"inner product sum {tot} not divisible by {order}")
        return q

    def restriction_edges(self, K: Subgroup, H: Subgroup) -> tuple:
        """For K <= H, one int bitmask per chi_j in Irr(H): bit i of entry j
        is set when psi_i in Irr(K) is a constituent of chi_j restricted to
        K.  Entry j is 1 << j when K = H.

        Irr(K) as the set of restrictions of Irr(up(K)), for an abelian
        up(K), stores the masks of (K, up(K)) (_fibre_irr); any other pair
        takes _restriction_masks."""
        key = (K.mask, H.mask)
        hit = self._edges.get(key)
        if hit is None:
            self.irr_rows(K)  # Irr(K) by restriction stores the masks under up(K)
            hit = self._edges.get(key)
        if hit is None:
            hit = self._edges[key] = self._restriction_masks(K, H)
        return hit

    def restriction_columns(self, K: Subgroup, H: Subgroup) -> tuple:
        """The transpose of restriction_edges(K, H): one int bitmask per
        psi_i in Irr(K), bit j set when psi_i is a constituent of chi_j
        restricted to K, so (by Frobenius reciprocity) when chi_j is a
        constituent of psi_i induced to H.  Built from restriction_edges on
        first read and kept, as char_index is from irr_rows."""
        key = (K.mask, H.mask)
        hit = self._columns.get(key)
        if hit is None:
            cols = [0] * len(self.irr_rows(K))
            for j, m in enumerate(self.restriction_edges(K, H)):
                bit = 1 << j
                while m:  # the set bits i of m
                    low = m & -m
                    m ^= low
                    cols[low.bit_length() - 1] |= bit
            hit = self._columns[key] = tuple(cols)
        return hit

    def _restriction_masks(self, K: Subgroup, H: Subgroup) -> tuple:
        """The masks of restriction_edges for any K <= H, by the one front of
        the module docstring: a restriction found in char_index(K) is
        irreducible, the misses go to the orbit walk (_orbit_masks) at index
        p in a p-group and to inner products (_inner_product_masks)
        otherwise, and then every psi in Irr(K) must lie under some chi, as
        psi is a constituent of (psi^H)_K (Frobenius reciprocity)."""
        restricted = self._restricted_rows(K, H)
        idx = list(map(self.char_index(K).get, restricted))
        masks = [0 if i is None else 1 << i for i in idx]
        missed = [j for j, i in enumerate(idx) if i is None]
        if missed:
            cover = self._prime is not None and len(H.elems) == self._prime * len(K.elems)
            handler = self._orbit_masks if cover else self._inner_product_masks
            for j, mask in zip(missed, handler(K, H, restricted, missed)):
                masks[j] = mask
        if reduce(or_, masks) != (1 << len(self.irr_rows(K))) - 1:
            raise IncompleteIrr("a character of Irr(K) lies under no restriction")
        return tuple(masks)

    def _orbit_masks(self, K: Subgroup, H: Subgroup, restricted: list, missed) -> list:
        """The masks of the reducible restricted[j], j in missed, for K
        normal of prime index p in H.  By Clifford's theorem at prime index
        (Isaacs, Cor. 6.19) each is the sum of the p distinct H-conjugates
        of one psi in Irr(K): every orbit of length p (_clifford_split) must
        sum to exactly one of them, and each of them must be such a sum."""
        at = {restricted[j]: n for n, j in enumerate(missed)}
        masks = [None] * len(missed)
        for orbit, total in self._clifford_split(K, H)[1]:
            if total is None:
                continue
            n = at.pop(total, None)
            if n is None:
                raise IncompleteIrr("a conjugation orbit does not sum to one restriction")
            masks[n] = sum(1 << k for k in orbit)
        if None in masks:
            raise IncompleteIrr(
                f"{masks.count(None)} restrictions are neither irreducible nor an orbit sum"
            )
        return masks

    def _restricted_rows(self, K: Subgroup, H: Subgroup) -> list:
        """The rows of every chi in Irr(H), in order, restricted to K <= H:
        one itemgetter over the classes of H that hold K's class reps.  In an
        abelian H class c is the element of rank c in H.elems, and in an
        abelian K the reps are K.elems, so neither builds a class array.  A K
        outside H raises InternalCheckError."""
        if not K.is_subset_of(H):
            raise InternalCheckError(
                f"{self.group.name}: K of order {len(K.elems)} is not inside H of order"
                f" {len(H.elems)}"
            )
        if self.is_abelian(H):
            at = [c for c, x in enumerate(H.elems) if K.mask >> x & 1]
        else:
            class_of_H = self.classes(H).class_of
            reps = K.elems if self.is_abelian(K) else self.classes(K).reps
            at = [class_of_H[r] for r in reps]
        return list(map(_picker(at), self.irr_rows(H)))

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
        irrK = self.irr_rows(K)
        lookup = self.char_index(K)
        x = next(h for h in H.elems if not K.contains(h))
        perm = tuple(ccK.class_of[G.conj(r, x)] for r in ccK.reps)
        if min(perm) < 0:
            raise InternalCheckError("K is not normal in H")
        orbits = []
        seen = set()
        for i, rows in enumerate(irrK):
            if i in seen:
                continue
            orbit = [i]
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
                total = tuple(map(sum, zip(*(irrK[k] for k in orbit))))
            orbits.append((orbit, total))
        return x, orbits

    def _inner_product_masks(self, K: Subgroup, H: Subgroup, restricted: list, missed) -> list:
        """The masks of restricted[j], j in missed, for any K <= H, by the
        multiplicity of each psi in chi_K: the general miss handler, and,
        fed every row, the oracle of the front and of the orbit walk."""
        irrK = list(zip(self.irr_rows(K), self.degrees(K)))
        ccK = self.classes(K)
        index = len(H.elems) // len(K.elems)
        degrees = self.degrees(H)
        masks = []
        for j in missed:
            d = degrees[j]
            remaining, mask = d, 0
            for i, (rows, e) in enumerate(irrK):
                if e > d or e * index < d:
                    continue
                m = self.inner_raw(ccK, restricted[j], rows)
                if m:
                    mask |= 1 << i
                    remaining -= m * e
                    if remaining == 0:
                        break
            if remaining:
                raise IncompleteIrr(f"restriction of a degree-{d} character did not decompose")
            masks.append(mask)
        return masks


# -- spec operations -----------------------------------------------------------


def _linear_characters(ctx: CharContext, H: Subgroup, kernel: Sequence[int]) -> list:
    """The rows of all |H/H'| degree-1 characters of H, found as exponent
    maps lam: H -> Z/n grown from lam = 0 on kernel (the elements of H', or
    of the trivial subgroup when H is abelian) inside the ambient table: for
    x outside S, with x^k the first power of x in S, each lam on S extends
    to S<x> in exactly k ways, x -> a with k*a = lam(x^k) mod n and
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
    out = [tuple(zrows[lam[j]] for j in at_reps) for lam in maps]
    if len(set(out)) != len(out):
        raise IncompleteIrr("two linear characters share their values")
    return out


def linear_characters(H: Subgroup) -> tuple:
    return get_context(H.ambient).linear(H)


def _picker(at: list):
    """row -> the tuple of its entries at the positions at: one itemgetter,
    wrapped for a single position, where itemgetter returns the bare
    entry."""
    if len(at) == 1:
        (c,) = at
        return lambda row: (row[c],)
    return itemgetter(*at)


def _fibre_irr(ctx: CharContext, S: Subgroup, U: Subgroup) -> tuple:
    """The sorted rows of Irr(S) for S under an abelian up cover U, from one
    restriction of Irr(U) that also gives the masks of (S, U).

    Every linear character of S extends to U, so Irr(S) is the set of
    restrictions of Irr(U) (ctx._restricted_rows, which reads positions in
    U.elems): the characters of U with one restriction form one fibre of
    the restriction map.  There must be exactly |S| distinct restrictions:
    a row of Irr(U) of degree above 1 adds one, and a fibre missing from
    Irr(U) leaves one out; anything else raises IncompleteIrr.  The mask of
    chi in Irr(U) is the bit of its restriction in Irr(S); the trivial
    subgroup, whose masks no pass reads, stores none."""
    restricted = ctx._restricted_rows(S, U)
    rows = tuple(sorted(set(restricted)))
    if len(rows) != len(S.elems):
        raise IncompleteIrr(
            f"{S.ambient.name}: Irr of an abelian cover of order {len(U.elems)} restricts to "
            f"{len(rows)} rows over a subgroup of order {len(S.elems)}"
        )
    if len(rows) > 1:
        bit = {r: 1 << i for i, r in enumerate(rows)}
        ctx._edges[(S.mask, U.mask)] = tuple(map(bit.__getitem__, restricted))
    return rows


def _compute_irr(ctx: CharContext, H: Subgroup) -> tuple:
    """Irr(H) as (rows, degrees), sorted by (degree, rows), by one of four
    routes, each of which knows the degrees it gives.

    Both abelian tests are ctx.is_abelian.  A proper subgroup of a p-group
    whose up cover U is abelian takes the set of restrictions of Irr(U)
    (_fibre_irr), which also gives the masks of (H, U) that union-find
    reads, and builds no classes.  Any other abelian H (a whole group,
    whose Irr never builds the lattice, an abelian H under a
    nonabelian U, an abelian subgroup of a group that is not a p-group) gets
    its |H| linear characters by the coset walk from the trivial subgroup.
    A nonabelian subgroup of a p-group is built from the conjugation orbits
    of Irr of its maximal subgroups by Clifford theory (_clifford_irr), with
    no search and no induction.  A nonabelian subgroup of any other group takes the
    monomial search (_monomial_irr), which is also the oracle of the
    Clifford route."""
    U = ctx.up_cover.get(H.mask)
    if U is not None and ctx.is_abelian(U):
        return _fibre_irr(ctx, H, U), _ones(len(H.elems))
    if ctx.is_abelian(H):
        rows = _linear_characters(ctx, H, (H.ambient.identity,))
        return tuple(sorted(rows)), _ones(len(rows))
    if ctx._prime is not None:
        rows, degrees = _clifford_irr(ctx, H)
        pairs = zip(degrees, rows)
    else:
        pairs = ((ch.degree, ch.rows) for ch in _monomial_irr(ctx, H))
    degrees, rows = zip(*sorted(pairs))
    return rows, degrees


def _clifford_irr(ctx: CharContext, H: Subgroup) -> tuple:
    """(rows, degrees) of Irr(H) for a nonabelian subgroup H of a p-group, by
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
    maximal = ctx._maximal[H.mask]
    K = maximal[0]
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
    rowsK, degreesK = ctx.irr_rows(K), ctx.degrees(K)
    for orbit, total in orbits:
        if total is None and degreesK[orbit[0]] == 1:
            try:
                exps = [ctx.zeta_exponent[row] for row in rowsK[orbit[0]]]
            except KeyError:
                raise IncompleteIrr(
                    "a value of a linear character of K is not a root of unity"
                ) from None
            b = exps[xp_class]
            if b % p:
                raise IncompleteIrr(f"the exponent of x^{p} is not divisible by {p}")
            for a in range(b // p, n, n // p):
                found[tuple(zrows[(exps[kc] + i * a) % n] for i, kc in at_reps)] = None
    for M in maximal:
        if len(found) >= ccH.count:
            break
        if M is not K:
            orbits = ctx._clifford_split(M, H)[1]
        at = [ctx.classes(M).class_of[r] for r in ccH.reps]
        for _, total in orbits:
            if total is not None:
                found[tuple(0 if c < 0 else total[c] for c in at)] = None
    out = list(found)
    return out, _check_complete(ccH, out)


def _check_complete(cc: ConjClasses, out: list) -> list:
    """The degrees of the distinct rows out, which must be all of Irr of
    cc's owner H: as many as classes, sum of squared degrees |H|, and sum of
    chi(1) * chi the regular character (|H| at 1, 0 elsewhere); else raise
    IncompleteIrr.  The last sum is taken per degree d, as d times the
    column sums of the rows of that degree."""
    H = cc.owner
    order = len(H.elems)
    ctx = H.ambient.context
    degrees = [cyc.unpack_integer(rows[cc.identity_class], ctx.width, ctx.digits) for rows in out]
    if len(out) != cc.count or sum(d * d for d in degrees) != order:
        raise IncompleteIrr(
            f"{H.ambient.name}: Clifford theory over the maximal subgroups gave {len(out)} "
            f"distinct characters with sum(deg^2) = "
            f"{sum(d * d for d in degrees)} for |H| = {order} with {cc.count} classes"
        )
    by_degree = [
        [d * s for s in map(sum, zip(*(rows for e, rows in zip(degrees, out) if e == d)))]
        for d in set(degrees)
    ]
    regular = list(map(sum, zip(*by_degree)))
    expected = [0] * cc.count
    expected[cc.identity_class] = cyc.pack((order,) + (0,) * (ctx.digits - 1), ctx.width)
    if regular != expected:
        raise IncompleteIrr(
            f"{H.ambient.name}: sum of chi(1) * chi is not the regular character of "
            f"|H| = {order}"
        )
    return degrees


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
    found = {
        rows: ClassFunction._from_rows(H, cc, rows, degree=1)
        for rows in _linear_characters(ctx, H, derived_subgroup(H).elems)
    }
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
    _compute_irr: for an abelian H, the set of restrictions of Irr of an
    abelian up cover or else linear characters by the coset walk; Clifford
    theory over the maximal subgroups in a p-group, the monomial search
    otherwise."""
    return get_context(H.ambient).irr(H)


def restrict(chi: ClassFunction, K: Subgroup) -> ClassFunction:
    H = chi.owner
    if not K.is_subset_of(H):
        raise NotASubgroup("restriction target is not a subgroup of the owner")
    ctx = get_context(H.ambient)
    ccK = ctx.classes(K)
    rows, class_of = chi.rows, chi.classes.class_of
    return ClassFunction._from_rows(K, ccK, tuple(rows[class_of[r]] for r in ccK.reps), chi.wide)


def induce(phi: ClassFunction, G_sub: Subgroup) -> ClassFunction:
    """Induced character phi^(G_sub): (1/|H|) sum over x of phi(x g x^-1),
    folded over each class of G_sub (the inner sum is |C(g)| times the sum of
    phi over the class members lying in H).  Packed when phi is within the
    value bound V: the sums' digits then stay within |G_sub| * V, below
    2^(W-1), and the result is wide when a value exceeds V.  A wide phi is
    induced in CycInt arithmetic."""
    H = phi.owner
    if not H.is_subset_of(G_sub):
        raise NotASubgroup("induction source is not a subgroup of the target")
    ctx = get_context(H.ambient)
    ccG = ctx.classes(G_sub)
    hsize = len(H.elems)
    gsize = len(G_sub.elems)
    hrows = phi.values if phi.wide else phi.rows
    class_of_H = phi.classes.class_of
    zero = cyc.zero(ctx.conductor) if phi.wide else 0
    sums = []
    for members, size in zip(ccG.members, ccG.sizes):
        acc = zero
        for y in members:
            c = class_of_H[y]
            if c >= 0:
                acc += hrows[c]
        sums.append(acc * (gsize // size))  # times the centralizer order
    if phi.wide:
        out = ClassFunction(G_sub, ccG, [cyc.exact_div_int(x, hsize) for x in sums])
    else:
        quotients = [cyc.packed_div(x, hsize, ctx.width, ctx.digits) for x in sums]
        wide = max(top for _, top in quotients) > ctx.value_bound
        out = ClassFunction._from_rows(G_sub, ccG, tuple(q for q, _ in quotients), wide)
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
        Hx, ccHx, tuple(rows[class_of[G.conj(r, xinv)]] for r in ccHx.reps), phi.wide
    )


def inner_product(chi: ClassFunction, psi: ClassFunction) -> int:
    """[chi, psi] = (1/|H|) sum of size(c) * chi(c) * psi(c^-1): packed by
    ctx.inner_raw, or in CycInt arithmetic when either is wide."""
    if chi.owner.ambient is not psi.owner.ambient or chi.owner.elems != psi.owner.elems:
        raise InputError("inner product requires characters of the same subgroup")
    ctx = get_context(chi.owner.ambient)
    cc = chi.classes
    if not (chi.wide or psi.wide):
        return ctx.inner_raw(cc, chi.rows, psi.rows)
    b = psi.values
    total = cyc.zero(ctx.conductor)
    for x, s, i in zip(chi.values, cc.sizes, cc.inverse_class):
        total = total + x * b[i] * s
    tot = cyc.as_integer(total)
    order = len(cc.owner.elems)
    q, r = divmod(tot, order)
    if r:
        raise NotDivisible(f"inner product sum {tot} not divisible by {order}")
    return q


def decompose(theta: ClassFunction, basis: Sequence[ClassFunction]) -> tuple:
    """Multiplicities of theta against a complete irreducible basis; the
    reconstruction is checked exactly, on the CycInt values."""
    mults = tuple(inner_product(theta, ch) for ch in basis)
    rows = [ch.values for ch in basis]
    zero = cyc.zero(get_context(theta.owner.ambient).conductor)
    for c, row in enumerate(theta.values):
        if sum((m * r[c] for m, r in zip(mults, rows) if m), zero) != row:
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
