"""The subgroup-character poset of a finite p-group and its connectivity.

Nodes are pairs (H, chi) where H runs over the subgroups of order at least
p^(e+1) and chi over Irr(H); (K, psi) <= (H, chi) iff K <= H and psi is a
constituent of chi restricted to K.  Level e is level e+1 plus the layer
of subgroups of order p^(e+1), so one union-find pass over the edges held
by CharContext adds the layers from the top and keeps each level's
partition.  The default edge strategy only tests pairs where K is maximal in
H, which yields the same partition because any comparability factors
through a chain of index-p steps (each restriction step keeps a common
constituent).  The full strategy is kept as an oracle.

A node is an integer id: the characters of the poset's subgroups numbered
consecutively, subgroup by subgroup, from offsets[sid].  Union-find and the
central-map checks work on these ids alone; the PosetNode list (nodes) is
built on first access, for export, witness chains and build_nodes.

Witness chains make connectivity explicit: witness_direct joins two nodes
through a peak in Irr(G) over both, and witness_sequence joins the nodes it
chooses on a list of subgroups whose successive intersections carry a
common constituent.  Both work on character indices and the constituent
bitmasks of CharContext.constituent_masks, a view of the cached restriction
edges: by Frobenius reciprocity [alpha^G, omega] = [alpha, omega_H], so an
induced character's constituents are read off restrictions, and two
restrictions have a nonzero inner product exactly when their masks meet.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import accumulate
from typing import Optional, Sequence

from .characters import CharContext, ClassFunction, get_context, restrict
from .errors import (
    ChoiceExhausted,
    ComponentCoverageError,
    InputError,
    InvalidExponent,
    NoConstituent,
    NotAbelian,
    NotMultipleOfLinear,
    PreconditionFailed,
)
from .groups import GroupTable, Subgroup, intersect_all, require_p_group


class Ordering(Enum):
    LE = "a<=b"
    GE = "b<=a"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class PosetNode:
    subgroup_id: int
    char_id: int


@dataclass(frozen=True)
class ComponentPartition:
    node_to_component: tuple
    count: int


@dataclass(frozen=True)
class WitnessChain:
    """A path of comparable nodes; directions[i] says whether
    nodes[i] <= nodes[i+1] ('up') or nodes[i] >= nodes[i+1] ('down')."""

    nodes: tuple
    directions: tuple

    def __len__(self):
        return len(self.nodes)


def check_level(G: GroupTable, p: int, e: int) -> None:
    """Raise InvalidExponent unless e >= 0 and p^(e+1) <= |G|."""
    if e < 0:
        raise InvalidExponent(f"e = {e}: the level e must be >= 0")
    if p ** (e + 1) > G.order:
        raise InvalidExponent(f"p^(e+1) = {p ** (e + 1)} exceeds |G| = {G.order}")


class CharacterPoset:
    """Node set of the poset for one (G, p, e), with its edges (held by
    ctx.restriction_edges), components, and witness machinery."""

    def __init__(self, ctx: CharContext, p: int, e: int, strategy: str = "maximal"):
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
        self.subgroups = [S for S in ctx.lattice() if len(S.elems) >= self.min_order]
        self._sid = {S.elems: i for i, S in enumerate(self.subgroups)}
        self.offsets = list(accumulate((len(ctx.irr(S)) for S in self.subgroups), initial=0))
        self.node_count = self.offsets.pop()

    @cached_property
    def nodes(self) -> list:
        """One PosetNode per node id, built on first access."""
        irr = self.ctx.irr
        return [
            PosetNode(sid, cid)
            for sid, S in enumerate(self.subgroups)
            for cid in range(len(irr(S)))
        ]

    # -- node helpers -------------------------------------------------------

    def node_id(self, node: PosetNode) -> int:
        return self.offsets[node.subgroup_id] + node.char_id

    def subgroup_of(self, node: PosetNode) -> Subgroup:
        return self.subgroups[node.subgroup_id]

    def char_of(self, node: PosetNode) -> ClassFunction:
        return self.ctx.irr(self.subgroups[node.subgroup_id])[node.char_id]

    def locate(self, S: Subgroup, chi: ClassFunction) -> PosetNode:
        """The PosetNode for an irreducible character chi of S."""
        sid = self._sid.get(S.elems)
        if sid is None:
            raise PreconditionFailed(
                f"subgroup of order {len(S.elems)} is not in S_(p,e): "
                f"needs order >= {self.min_order}"
            )
        return PosetNode(sid, self._char_id(self.subgroups[sid], chi))

    # -- relation and edges --------------------------------------------------

    def related(self, a: PosetNode, b: PosetNode) -> Ordering:
        if a == b:
            return Ordering.EQUAL
        Sa = self.subgroups[a.subgroup_id]
        Sb = self.subgroups[b.subgroup_id]
        if Sa.elems == Sb.elems:
            return Ordering.INCOMPARABLE  # distinct irreducibles are orthogonal
        masks = self.ctx.constituent_masks
        if Sa.is_subset_of(Sb):
            if masks(Sa, Sb)[b.char_id] >> a.char_id & 1:
                return Ordering.LE
            return Ordering.INCOMPARABLE
        if Sb.is_subset_of(Sa):
            if masks(Sb, Sa)[a.char_id] >> b.char_id & 1:
                return Ordering.GE
            return Ordering.INCOMPARABLE
        return Ordering.INCOMPARABLE

    def _pairs(self) -> list:
        """(K, H, first id of K, first id of H) for the subgroup pairs whose
        restriction edges are the poset's, by lattice positions of H, then K."""
        if self.strategy == "maximal":
            pairs = [(K, H) for K, H in self.ctx.maximal_pairs() if K.elems in self._sid]
        else:
            subs = self.subgroups
            pairs = [
                (K, H)
                for h, H in enumerate(subs)
                for K in subs[:h]
                if len(K.elems) < len(H.elems) and K.is_subset_of(H)
            ]
        first = {S.elems: off for S, off in zip(self.subgroups, self.offsets)}
        return [(K, H, first[K.elems], first[H.elems]) for K, H in pairs]

    def edge_list(self) -> list:
        """Comparable node pairs (ids), per the strategy, listed for export."""
        return [
            (koff + i, hoff + j)
            for K, H, koff, hoff in self._pairs()
            for i, j in zip(*self.ctx.restriction_edges(K, H))
        ]

    # -- components ------------------------------------------------------------

    def components(self) -> ComponentPartition:
        """This level's partition, kept in ctx.partitions[strategy].

        On a miss, one union-find pass adds the subgroup layers from the
        largest order down to this level's.  Each higher level's nodes are a
        suffix of this poset's ids, so its partition is the snapshot after
        its layer, and every snapshot is kept."""
        levels = self.ctx.partitions.setdefault(self.strategy, {})
        if self.min_order in levels:
            return levels[self.min_order]
        parent = list(range(self.node_count))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            return x

        # The first id of each subgroup order, largest order first.
        starts = {len(S.elems): off for S, off in zip(self.subgroups[::-1], self.offsets[::-1])}
        layers: dict = {}
        for pair in self._pairs():
            layers.setdefault(len(pair[0].elems), []).append(pair)
        for order, start in starts.items():
            for K, H, koff, hoff in layers.get(order, ()):
                for i, j in zip(*self.ctx.restriction_edges(K, H)):
                    a, b = find(koff + i), find(hoff + j)
                    if a != b:  # the higher root stays, so upper layers keep theirs
                        parent[min(a, b)] = max(a, b)
            labels: dict = {}
            out = tuple(labels.setdefault(find(x), len(labels)) for x in range(start, len(parent)))
            levels[order] = ComponentPartition(node_to_component=out, count=len(labels))
        return levels[self.min_order]

    def component_representatives(self, partition: ComponentPartition, H: Subgroup) -> dict:
        """One node (H, chi) per component; every component must contain one."""
        sid = self._sid.get(H.elems)
        if sid is None:
            raise InputError(f"subgroup of order {len(H.elems)} is not in S_(p,e)")
        reps: dict = {}
        off = self.offsets[sid]
        for cid in range(len(self.ctx.irr(self.subgroups[sid]))):
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
        if len(chain.nodes) != len(chain.directions) + 1:
            return False
        for k, d in enumerate(chain.directions):
            rel = self.related(chain.nodes[k], chain.nodes[k + 1])
            if d == "up" and rel is not Ordering.LE:
                return False
            if d == "down" and rel is not Ordering.GE:
                return False
            if d not in ("up", "down"):
                return False
        return True

    def _chain(self, steps: Sequence) -> WitnessChain:
        """Assemble a chain from (direction_from_previous, node) data,
        merging consecutive duplicate nodes."""
        nodes = [steps[0][1]]
        directions = []
        for prev_dir, node in steps[1:]:
            if node == nodes[-1]:
                continue
            nodes.append(node)
            directions.append(prev_dir)
        return WitnessChain(nodes=tuple(nodes), directions=tuple(directions))

    def witness_direct(self, alpha: ClassFunction, beta: ClassFunction) -> WitnessChain:
        """Join (H, alpha) and (K, beta) through a peak omega in Irr(G) with
        (H, alpha) <= (G, omega) >= (K, beta).

        Requires a common constituent of the two restrictions to H n K.  By
        Frobenius reciprocity [alpha^G, omega] = [alpha, omega_H], so omega
        is the first irreducible of G whose constituent masks hold alpha on H
        and beta on K.  alpha and beta must be irreducibles of their
        subgroups, or InputError is raised before the precondition test."""
        ctx = self.ctx
        H = ctx.canonical(alpha.owner)
        K = ctx.canonical(beta.owner)
        start = self.locate(H, alpha)
        end = self.locate(K, beta)
        a, b = start.char_id, end.char_id
        if not self._common(intersect_all([H, K]), H, a, K, b):
            raise PreconditionFailed(
                "restrictions to the intersection share no constituent"
            )
        return self._chain([(None, start)] + self._peak_steps(H, a, K, b))

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
        character on L[k-1].  Consecutive chosen nodes are then joined by
        direct witnesses.  Every test is a constituent-mask operation (by
        Frobenius reciprocity, [eta^(L[k-1]), chi] = [eta, chi_A]), and each
        prefix intersection is computed once.  alpha and beta must be
        irreducibles of the endpoint subgroups, or InputError is raised
        before the precondition test."""
        ctx = self.ctx
        L = [ctx.canonical(S) for S in L]
        if not L:
            raise InputError("empty subgroup sequence")
        for S in L:
            if len(S.elems) < self.min_order:
                raise PreconditionFailed(
                    f"sequence member of order {len(S.elems)} is not in S_(p,e)"
                )
        if alpha.owner.elems != L[0].elems or beta.owner.elems != L[-1].elems:
            raise InputError("endpoint characters must live on the endpoint subgroups")
        a = self._char_id(L[0], alpha)
        b = self._char_id(L[-1], beta)
        prefix = [L[0]]  # prefix[k] = L[0] n ... n L[k]
        for S in L[1:]:
            prefix.append(intersect_all([prefix[-1], S]))
        common = self._common(prefix[-1], L[0], a, L[-1], b)
        if not common:
            raise PreconditionFailed(
                "restrictions to the full intersection share no constituent"
            )
        masks = ctx.constituent_masks
        chosen = [b]  # the character on L[k], for k from len(L) - 1 down
        for k in range(len(L) - 1, 1, -1):
            # common: the constituents on prefix[k] of alpha and of chosen[-1]
            gamma = (common & -common).bit_length() - 1
            A = intersect_all([L[k - 1], L[k]])
            under = masks(A, L[k])[chosen[-1]]
            eta = next(
                (h for h, m in enumerate(masks(prefix[k], A)) if under >> h & 1 and m >> gamma & 1),
                None,
            )
            if eta is None:
                raise ChoiceExhausted("no character over gamma and under beta")
            alpha_short = masks(prefix[k - 1], L[0])[a]
            for mid, (m, s) in enumerate(zip(masks(A, L[k - 1]), masks(prefix[k - 1], L[k - 1]))):
                if m >> eta & 1 and s & alpha_short:
                    common = s & alpha_short
                    break
            else:
                raise ChoiceExhausted("no constituent of the induced character fits")
            chosen.append(mid)
        chosen.append(a)
        chosen.reverse()
        steps = [(None, PosetNode(self._sid[L[0].elems], a))]
        for k in range(1, len(L)):
            steps += self._peak_steps(L[k - 1], chosen[k - 1], L[k], chosen[k])
        return self._chain(steps)

    def _char_id(self, S: Subgroup, chi: ClassFunction) -> int:
        cid = self.ctx.char_index(S).get(chi.rows)
        if cid is None:
            raise InputError("character is not an irreducible of the subgroup")
        return cid

    def _common(self, M: Subgroup, H: Subgroup, a: int, K: Subgroup, b: int) -> int:
        """The mask of the common constituents on M <= H n K of chi_a in
        Irr(H) and chi_b in Irr(K)."""
        masks = self.ctx.constituent_masks
        return masks(M, H)[a] & masks(M, K)[b]

    def _peak_steps(self, H: Subgroup, a: int, K: Subgroup, b: int) -> list:
        """The steps up from (H, a) to the first omega in Irr(G) over it and
        over (K, b), and down to (K, b)."""
        whole = self.ctx.whole
        masks = self.ctx.constituent_masks
        for w, (mh, mk) in enumerate(zip(masks(H, whole), masks(K, whole))):
            if mh >> a & 1 and mk >> b & 1:
                return [
                    ("up", PosetNode(self._sid[whole.elems], w)),
                    ("down", PosetNode(self._sid[K.elems], b)),
                ]
        raise NoConstituent("no constituent of the induced character lies over beta")


# -- spec operations ---------------------------------------------------------------


def build_poset(
    G: GroupTable, p: Optional[int], e: int, strategy: str = "maximal"
) -> CharacterPoset:
    ctx = get_context(G)
    return CharacterPoset(ctx, p if p is not None else require_p_group(G), e, strategy)


def build_nodes(G: GroupTable, p: Optional[int], e: int) -> tuple:
    """The subgroup list S_(p,e)(G) and the node list of the poset."""
    poset = build_poset(G, p, e)
    return poset.subgroups, poset.nodes


def components(
    G: GroupTable, p: Optional[int], e: int, strategy: str = "maximal"
) -> ComponentPartition:
    return build_poset(G, p, e, strategy).components()


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
    rows = restrict(alpha, A).rows
    d = alpha.degree
    if any(v % d for row in rows for v in row):
        raise NotMultipleOfLinear(
            "restriction to the central subgroup is not deg * (a single value vector)"
        )
    idx = ctx.char_index(A).get(tuple(tuple(v // d for v in row) for row in rows))
    if idx is None:
        raise NotMultipleOfLinear(
            "restriction to the central subgroup is not a multiple of one linear character"
        )
    return ctx.irr(A)[idx]


def abelian_component_count(A: GroupTable, f: int) -> int:
    """Component count of the poset of an abelian group of order p^(f+1) at
    level f: a single subgroup, no cross-character relations."""
    if not A.is_abelian():
        raise NotAbelian(f"{A.name} is not abelian")
    p = require_p_group(A)
    if A.order != p ** (f + 1):
        raise InvalidExponent(f"|A| = {A.order} is not p^(f+1) = {p ** (f + 1)}")
    return components(A, p, f).count
