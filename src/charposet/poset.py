"""The subgroup-character poset of a finite p-group and its connectivity.

Nodes are pairs (H, chi) where H runs over the subgroups of order at least
p^(e+1) and chi over Irr(H); (K, psi) <= (H, chi) iff K <= H and psi is a
constituent of chi restricted to K.  Level e is level e+1 plus the layer
of subgroups of order p^(e+1).  Every node (K, psi) lies under some
(G, omega): by Frobenius reciprocity psi^G has a constituent omega, and
restricting omega down the covers G > ... > up(K) > K one constituent at a
time reaches psi through subgroups of order >= |K|, up(K) being K's first
cover in maximal_pairs() order.  So every component holds a character of
G, the edges of (K, up(K)) for each K != G span every component, and as e
falls components only merge classes of Irr(G).  One pass from G down
(components) gives each node a peak in Irr(G) and merges peaks on a forest
over the ids of Irr(G); each level keeps one root per character of G, the
0-dimensional merge tree of the filtration by order.  The edge strategy
(maximal: cover pairs; full: every containment, the oracle) only picks the
edges that edge_list() lists.

A node is an integer id: the characters of the poset's subgroups numbered
consecutively, subgroup by subgroup, from offsets[sid].  A PosetNode, the
pair (subgroup id, char id), is a NamedTuple.  A level's partition has one
form, the roots and peaks of ComponentPartition, and the pass and the
central-map checks never list the nodes: node_to_component is built on
first access from the roots and the peaks, and the PosetNode list (nodes)
on first access, for export and witness chains.

Witness chains make connectivity explicit: witness_sequence joins nodes it
chooses on a list of subgroups whose successive intersections carry a
common constituent, each consecutive pair through a peak in Irr(G) over
both, in one pass over the list that appends a node only when it differs
from the last one kept.  A direct witness is the two-subgroup sequence
[H, K], which makes no choice.  Their meets are lattice instances
(CharContext.meet).  The chain check (validate_chain) tests that every node
is in the poset and reads one mask bit per link.

Every reader of the order works on character indices and the constituent
bitmasks of CharContext.restriction_edges, the one stored form of the
restriction data: bit i of mask j of (K, H) says psi_i <= chi_j.  The pass
and edge_list() read each mask's bits in increasing i, within increasing j.
By Frobenius reciprocity [alpha^G, omega] = [alpha, omega_H], so an induced
character's constituents are read off restrictions, and two restrictions
have a nonzero inner product exactly when their masks meet.  The witness
choices read the transpose, CharContext.restriction_columns: mask i of
(K, H) holds the chi_j over psi_i, the constituents of psi_i^H.  It is a
derived index of the stored masks, like char_index of the rows, so each
"first chi over both" pick is the lowest bit of an AND of two columns.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple, Optional, Sequence

from .characters import CharContext, ClassFunction, get_context, restrict
from .errors import (
    ChoiceExhausted,
    ComponentCoverageError,
    InputError,
    InternalCheckError,
    InvalidExponent,
    NoConstituent,
    NotMultipleOfLinear,
    PreconditionFailed,
)
from .groups import GroupTable, Subgroup, require_p_group


class PosetNode(NamedTuple):
    subgroup_id: int
    char_id: int


@dataclass(frozen=True)
class ComponentPartition:
    """One level's components, stored as their count, roots and peaks.

    CharacterPoset.components gives roots, the forest root of each character
    of G at this level, and peaks, one tuple per subgroup of the level in
    node order: node x lies in the component of roots[peak(x)].
    node_to_component, which labels each node id by component in order of
    first appearance, is a view built from them on first access."""

    count: int
    roots: tuple
    peaks: tuple

    @cached_property
    def node_to_component(self) -> tuple:
        labels: dict = {}
        roots = self.roots
        return tuple(labels.setdefault(roots[w], len(labels)) for pk in self.peaks for w in pk)


@dataclass(frozen=True)
class WitnessChain:
    """A path of comparable nodes; directions[i] says whether
    nodes[i] <= nodes[i+1] ('up') or nodes[i] >= nodes[i+1] ('down')."""

    nodes: tuple
    directions: tuple

    def __len__(self):
        return len(self.nodes)


def level_range(G: GroupTable, p: int) -> range:
    """The levels of G, a group of order p^n for the prime p: 0 <= e < n."""
    n, m = 0, G.order
    while m > 1:
        m //= p
        n += 1
    return range(n)


def check_level(G: GroupTable, p: int, e: int) -> None:
    """Raise InvalidExponent unless e is in level_range(G, p); p^(e+1) is
    named as text, never evaluated."""
    if e < 0:
        raise InvalidExponent(f"e = {e}: the level e must be >= 0")
    if e not in level_range(G, p):
        raise InvalidExponent(f"p^(e+1) = {p}^{e + 1} exceeds |G| = {G.order}")


class CharacterPoset:
    """Node set of the poset for one (G, p, e), with its edges (held by
    ctx.restriction_edges), components, and witness machinery."""

    def __init__(self, ctx: CharContext, p: Optional[int], e: int, strategy: str = "maximal"):
        if strategy not in ("maximal", "full"):
            raise InputError(f"unknown edge strategy {strategy!r}")
        G = ctx.group
        p = require_p_group(G, p)
        check_level(G, p, e)
        self.ctx = ctx
        self.group = G
        self.p = p
        self.e = e
        self.strategy = strategy
        self.min_order = p ** (e + 1)
        lattice = ctx.lattice()  # sorted by order, so the level is a suffix
        self.subgroups = lattice[bisect_left(lattice, self.min_order, key=len) :]
        self._sizes = tuple(len(ctx.irr_rows(S)) for S in self.subgroups)  # |Irr(S)| by subgroup id
        self.offsets = list(accumulate(self._sizes, initial=0))
        self.node_count = self.offsets.pop()

    @cached_property
    def _sid(self) -> dict:
        """S.mask -> position in subgroups, built on first use."""
        return {S.mask: i for i, S in enumerate(self.subgroups)}

    @cached_property
    def nodes(self) -> list:
        """One PosetNode per node id, built on first access."""
        return [PosetNode(sid, cid) for sid, n in enumerate(self._sizes) for cid in range(n)]

    # -- node helpers -------------------------------------------------------

    def node_id(self, node: PosetNode) -> int:
        return self.offsets[node.subgroup_id] + node.char_id

    def subgroup_of(self, node: PosetNode) -> Subgroup:
        return self.subgroups[node.subgroup_id]

    def char_of(self, node: PosetNode) -> ClassFunction:
        return self.ctx.irr(self.subgroups[node.subgroup_id])[node.char_id]

    def locate(self, S: Subgroup, chi: ClassFunction) -> PosetNode:
        """The PosetNode for an irreducible character chi of S, a subgroup
        of this table (CharContext.canonical, else NotASubgroup)."""
        sid = self._sid.get(self.ctx.canonical(S).mask)
        if sid is None:
            raise PreconditionFailed(
                f"subgroup of order {len(S.elems)} is not in S_(p,e): "
                f"needs order >= {self.min_order}"
            )
        return PosetNode(sid, self._char_id(self.subgroups[sid], chi))

    # -- edges ---------------------------------------------------------------

    def edge_list(self) -> list:
        """Comparable node pairs (ids), listed for export: the restriction
        edges of each cover pair K < H of the poset (maximal) or of each
        containment (full), by lattice positions of H, then K."""
        sid, off = self._sid, self.offsets
        if self.strategy == "maximal":
            pairs = [(K, H) for K, H in self.ctx.maximal_pairs() if K.mask in sid]
        else:  # distinct subgroups in lattice order: K <= H is proper containment
            subs = self.subgroups
            pairs = [(K, H) for h, H in enumerate(subs) for K in subs[:h] if K.is_subset_of(H)]
        out = []
        for K, H in pairs:
            koff, hoff = off[sid[K.mask]], off[sid[H.mask]]
            for j, m in enumerate(self.ctx.restriction_edges(K, H), hoff):
                while m:  # the set bits i of m, increasing
                    low = m & -m
                    m ^= low
                    out.append((koff + low.bit_length() - 1, j))
        return out

    # -- components ------------------------------------------------------------

    def components(self) -> ComponentPartition:
        """This level's partition, kept in ctx.partitions.

        On a miss the pass resumes from G down, a layer of subgroups at a
        time, and gives each character psi of K != G a peak: the peak of the
        first chi over psi in the masks of (K, up(K)), read in (j, i) order.
        Every further edge unions the peaks of its ends on the forest over
        Irr(G), and each finished layer stores its level's roots.  Peaks and
        forest do not depend on the level, so they stay on the context.  A
        psi under no chi, or a mask bit beyond Irr(K), raises
        InternalCheckError."""
        ctx = self.ctx
        levels, peaks, parent = ctx.partitions, ctx.peaks, ctx.forest
        if self.min_order in levels:
            return levels[self.min_order]

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            return x

        subs = self.subgroups
        up, edges, irr_rows = ctx.up_cover, ctx.restriction_edges, ctx.irr_rows
        for s in range(len(subs) - 1 - len(peaks), -1, -1):
            K = subs[s]
            H = up.get(K.mask)
            if H is None:  # K is G: each omega is its own peak
                peaks[K.mask] = tuple(range(len(irr_rows(K))))
                parent.extend(peaks[K.mask])
            else:
                over, masks = peaks[H.mask], edges(K, H)
                peak = [None] * len(irr_rows(K))
                top = max(masks).bit_length() - 1
                if top >= len(peak):
                    raise InternalCheckError(
                        f"{self.group.name}: a mask of a subgroup of order {len(K.elems)} under "
                        f"its up cover sets bit {top}, beyond its {len(peak)} characters"
                    )
                for b, m in zip(over, masks):
                    while m:  # the set bits i of m, increasing
                        low = m & -m
                        m ^= low
                        i = low.bit_length() - 1
                        a = peak[i]
                        if a is None:
                            peak[i] = b
                        elif a != b:
                            ra, rb = find(a), find(b)
                            if ra != rb:
                                parent[max(ra, rb)] = min(ra, rb)
                if None in peak:
                    raise InternalCheckError(
                        f"{self.group.name}: a character of a subgroup of order {len(K.elems)} "
                        "lies under no character of its up cover"
                    )
                peaks[K.mask] = tuple(peak)
            if s == 0 or len(subs[s - 1].elems) < len(K.elems):  # K's layer is complete
                roots = tuple(map(find, range(len(parent))))
                levels[len(K.elems)] = ComponentPartition(
                    len(set(roots)), roots, tuple(peaks[S.mask] for S in subs[s:])
                )
        return levels[self.min_order]

    def component_representatives(self, partition: ComponentPartition, H: Subgroup) -> dict:
        """One node (H, chi) per component; every component must contain one.
        H must be a subgroup of this table (CharContext.canonical)."""
        sid = self._sid.get(self.ctx.canonical(H).mask)
        if sid is None:
            raise InputError(f"subgroup of order {len(H.elems)} is not in S_(p,e)")
        reps: dict = {}
        off = self.offsets[sid]
        for cid in range(len(self.ctx.irr_rows(self.subgroups[sid]))):
            comp = partition.node_to_component[off + cid]
            reps.setdefault(comp, PosetNode(sid, cid))
        if len(reps) != partition.count:
            raise ComponentCoverageError(
                f"only {len(reps)} of {partition.count} components contain a node "
                f"with the chosen subgroup"
            )
        return reps

    # -- witness chains ------------------------------------------------------------

    def validate_chain(self, chain: WitnessChain) -> bool:
        """Test each link on the masks: an 'up' link (K, psi) -> (H, chi)
        needs K < H and bit psi set in mask chi of ctx.restriction_edges(K, H),
        and a 'down' link is the same test with its nodes swapped.  Any other
        direction, a length mismatch, or a node that is not in the poset
        (not a pair of int ids, or a subgroup id or char id out of range)
        gives False."""
        nodes, subs, masks = chain.nodes, self.subgroups, self.ctx.restriction_edges
        if len(nodes) != len(chain.directions) + 1:
            return False
        n, sizes = len(subs), self._sizes
        s = c = None
        for d, node in zip((None, *chain.directions), nodes):
            try:
                t, u = node
            except (TypeError, ValueError):  # not a pair
                return False
            if not (type(t) is int and type(u) is int and 0 <= t < n and 0 <= u < sizes[t]):
                return False
            if s is not None:  # the link from (s, c) to (t, u)
                if d == "up":
                    K, H, psi, chi = subs[s], subs[t], c, u
                elif d == "down":
                    K, H, psi, chi = subs[t], subs[s], u, c
                else:
                    return False
                if K is H or not K.is_subset_of(H) or not masks(K, H)[chi] >> psi & 1:
                    return False
            s, c = t, u
        return True

    def witness_direct(self, alpha: ClassFunction, beta: ClassFunction) -> WitnessChain:
        """Join (H, alpha) <= (G, omega) >= (K, beta), omega the first peak
        in Irr(G) over both: the two-subgroup sequence
        witness_sequence([H, K], alpha, beta), which makes no choice and
        requires a common constituent of the restrictions to H n K."""
        return self.witness_sequence([alpha.owner, beta.owner], alpha, beta)

    def witness_sequence(
        self, L: Sequence[Subgroup], alpha: ClassFunction, beta: ClassFunction
    ) -> WitnessChain:
        """Join (L[0], alpha) and (L[-1], beta) given a common constituent of
        their restrictions to the intersection of all of L.

        From the top down, each L[k] (k >= 2) with its chosen character c
        picks: gamma, the first common constituent of alpha and c on
        L[0] n ... n L[k]; eta on L[k-1] n L[k] over gamma and under c; and
        mid, the first constituent of eta induced to L[k-1] whose restriction
        to L[0] n ... n L[k-1] shares a constituent with alpha's.  mid is the
        character on L[k-1].  Every test is a constituent-mask operation: eta
        is the lowest bit of c's mask on A ANDed with gamma's column
        (ctx.restriction_columns), and mid runs over the set bits of eta's
        column on L[k-1], the constituents of eta^(L[k-1]) by Frobenius
        reciprocity, lowest first.  Each prefix intersection is read once
        from the lattice.

        One pass over L then joins consecutive chosen nodes up to the first
        peak in Irr(G) over both, the lowest bit of the AND of their columns
        on (L[k], G), and down to the next; each member's column is read
        once, and a step to the node last kept is dropped.  For L = [H, K]
        that is the whole chain.  alpha and beta must be irreducibles of the
        endpoint subgroups, or InputError is raised before the precondition
        test; the witness errors name the group and level."""
        ctx = self.ctx
        where = f"{self.group.name} e={self.e}"
        L = [ctx.canonical(S) for S in L]
        if not L:
            raise InputError("empty subgroup sequence")
        for S in L:
            if len(S.elems) < self.min_order:
                raise PreconditionFailed(
                    f"{where}: sequence member of order {len(S.elems)} is not in S_(p,e)"
                )
        if ctx.canonical(alpha.owner) is not L[0] or ctx.canonical(beta.owner) is not L[-1]:
            raise InputError("endpoint characters must live on the endpoint subgroups")
        a = self._char_id(L[0], alpha)
        b = self._char_id(L[-1], beta)
        masks, cols = ctx.restriction_edges, ctx.restriction_columns
        prefix = list(accumulate(L, ctx.meet))  # prefix[k] = L[0] n ... n L[k]
        common = masks(prefix[-1], L[0])[a] & masks(prefix[-1], L[-1])[b]
        if not common:
            raise PreconditionFailed(
                f"{where}: restrictions to the full intersection share no constituent"
            )
        chosen = [b]  # the character on L[k], for k from len(L) - 1 down
        for k in range(len(L) - 1, 1, -1):
            # common: the constituents on prefix[k] of alpha and of chosen[-1]
            gamma = (common & -common).bit_length() - 1
            A = ctx.meet(L[k - 1], L[k])
            over = masks(A, L[k])[chosen[-1]] & cols(prefix[k], A)[gamma]
            if not over:
                raise ChoiceExhausted(f"{where}: no character over gamma and under beta")
            eta = (over & -over).bit_length() - 1
            alpha_short = masks(prefix[k - 1], L[0])[a]
            shorts = masks(prefix[k - 1], L[k - 1])
            induced = cols(A, L[k - 1])[eta]
            while induced:  # the set bits mid, increasing
                low = induced & -induced
                mid = low.bit_length() - 1
                common = shorts[mid] & alpha_short
                if common:
                    break
                induced ^= low
            else:
                raise ChoiceExhausted(f"{where}: no constituent of the induced character fits")
            chosen.append(mid)
        chosen.append(a)
        chosen.reverse()
        whole, sid = ctx.whole, self._sid
        top = sid[whole.mask]
        last = (sid[L[0].mask], a)  # the last node kept, as (subgroup id, char id)
        nodes, directions = [PosetNode(*last)], []
        prev = cols(L[0], whole)[a]
        for k in range(1, len(L)):
            col = cols(L[k], whole)[chosen[k]]  # the constituents of chosen[k] induced to G
            both = prev & col
            if not both:
                raise NoConstituent(
                    f"{where}: no constituent of the induced character lies over beta"
                )
            for step, node in (
                ("up", (top, (both & -both).bit_length() - 1)),
                ("down", (sid[L[k].mask], chosen[k])),
            ):
                if node != last:
                    nodes.append(PosetNode(*node))
                    directions.append(step)
                    last = node
            prev = col
        return WitnessChain(tuple(nodes), tuple(directions))

    def _char_id(self, S: Subgroup, chi: ClassFunction) -> int:
        cid = self.ctx.char_index(S).get(chi.rows)
        if cid is None:
            raise InputError("character is not an irreducible of the subgroup")
        return cid


# -- spec operations ---------------------------------------------------------------


def build_poset(
    G: GroupTable, p: Optional[int], e: int, strategy: str = "maximal"
) -> CharacterPoset:
    return CharacterPoset(get_context(G), p, e, strategy)


def central_poset_map(alpha: ClassFunction, A: Subgroup) -> ClassFunction:
    """The unique linear beta on a nontrivial central A with
    alpha restricted to A equal to deg(alpha) * beta."""
    G = A.ambient
    ctx = get_context(G)
    if len(A.elems) == 1:
        raise InputError("the central map needs a nontrivial subgroup")
    if not A.is_subset_of(ctx.center):
        raise InputError("the central map needs a subgroup of Z(G)")
    if not A.is_subset_of(alpha.owner):
        raise InputError("the central subgroup must lie in the owner of alpha")
    return ctx.irr(A)[central_index(ctx.char_index(A), restrict(alpha, A).rows, alpha.degree)]


def central_index(lookup: dict, rows: tuple, d: int) -> int:
    """The index in lookup, the char_index of a central subgroup A, of the
    linear beta with rows = d * beta's rows, for rows the restriction to A
    of a character of degree d; NotMultipleOfLinear if there is none.

    The rows are divided by d as packed ints.  Dividing every digit divides
    the int, and an int quotient that is a row of a linear character, whose
    digits times d stay within the packing bound, is the digitwise quotient,
    since balanced digits below the bound are unique."""
    if d != 1:
        if any(x % d for x in rows):
            raise NotMultipleOfLinear(
                "restriction to the central subgroup is not deg * (a single value vector)"
            )
        rows = tuple(x // d for x in rows)
    idx = lookup.get(rows)
    if idx is None:
        raise NotMultipleOfLinear(
            "restriction to the central subgroup is not a multiple of one linear character"
        )
    return idx
