"""End-to-end verification of the component-count bounds.

For a p-group G and level e, let I be the intersection of all subgroups of
order p^(e+1).  The checked facts are

    |I n Z(G)|  <=  #components of the poset  <=  |Irr(I)|

and: the poset is connected iff I is trivial.  When I n Z(G) is nontrivial
the run also exercises the central restriction map (well-defined, constant
on components, surjective onto Irr(I n Z(G))) plus the standalone component
count of that central subgroup's own poset, which is |Irr(I n Z(G))| read on
the parent context.  Failures raise: they signal an implementation bug, not
an expected outcome.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .characters import get_context
from .errors import (
    BoundViolation,
    CharposetError,
    CriterionViolation,
    InternalCheckError,
)
from .families import builtin
from .groups import (
    DEFAULT_ORDER_CAP,
    GroupTable,
    Subgroup,
    intersect_all,
    normalised_by,
    require_p_group,
    subgroups_of_order,
)
from .poset import CharacterPoset, central_index, check_level, level_range


@dataclass(frozen=True)
class TheoremReport:
    """One verified (group, e) pair.  timings is wall-clock metadata and is
    deliberately excluded from serialized output, which must be
    byte-reproducible."""

    group: str
    order: int
    p: int
    e: int
    I_order: int
    IZ_order: int
    irr_I: int
    components: int
    bounds_hold: bool
    connected_iff_I_trivial: bool
    timings: dict = field(compare=False, hash=False, default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.bounds_hold and self.connected_iff_I_trivial

    def to_dict(self) -> dict:
        return {
            "group": self.group,
            "order": self.order,
            "p": self.p,
            "e": self.e,
            "I_order": self.I_order,
            "IZ_order": self.IZ_order,
            "irr_I": self.irr_I,
            "components": self.components,
            "bounds_hold": self.bounds_hold,
            "connected_iff_I_trivial": self.connected_iff_I_trivial,
            "ok": self.ok,
        }


@dataclass
class SweepResult:
    """reports and the recorded errors entries; internal holds the entries
    whose exception was an InternalCheckError, flagged where it was caught."""

    reports: list
    errors: list
    internal: list = field(default_factory=list)


def compute_I(G: GroupTable, p: Optional[int], e: int) -> Subgroup:
    """Intersection of all subgroups of order p^(e+1); normal in G since the
    family is closed under conjugation, which is certified under the
    lattice's generating set of G."""
    p = require_p_group(G, p)
    check_level(G, p, e)
    ctx = get_context(G)
    subs = subgroups_of_order(G, p ** (e + 1))
    I = intersect_all(subs)
    if not normalised_by(I, ctx.generators):
        raise InternalCheckError(f"{G.name} e={e}: I is not normal in G")
    return I


def theorem_report(G: GroupTable, p: Optional[int], e: int) -> TheoremReport:
    """Compute I, Z(G), the poset partition, and check both bounds and the
    connectivity criterion; run the central-map cross-checks when they apply."""
    p = require_p_group(G, p)
    timings: dict = {}
    t0 = time.perf_counter()
    ctx = get_context(G)
    I = compute_I(G, p, e)
    IZ = intersect_all([I, ctx.center])
    irr_I = len(ctx.irr_rows(I))
    timings["structure"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    poset = CharacterPoset(ctx, p, e)
    partition = poset.components()
    timings["components"] = time.perf_counter() - t0

    count = partition.count
    bounds_hold = len(IZ.elems) <= count <= irr_I
    connected_iff = (count == 1) == (len(I.elems) == 1)
    report = TheoremReport(
        group=G.name,
        order=G.order,
        p=p,
        e=e,
        I_order=len(I.elems),
        IZ_order=len(IZ.elems),
        irr_I=irr_I,
        components=count,
        bounds_hold=bounds_hold,
        connected_iff_I_trivial=connected_iff,
        timings=timings,
    )
    if not bounds_hold:
        raise BoundViolation(
            f"{G.name} e={e}: |IZ|={len(IZ.elems)} count={count} |Irr(I)|={irr_I}"
        )
    if not connected_iff:
        raise CriterionViolation(
            f"{G.name} e={e}: count={count} but |I|={len(I.elems)}"
        )
    if len(IZ.elems) > 1:
        t0 = time.perf_counter()
        _central_suite(ctx, poset, partition, IZ)
        timings["central_map"] = time.perf_counter() - t0
    return report


def _central_suite(ctx, poset: CharacterPoset, partition, IZ: Subgroup) -> None:
    """Central map is constant on components and surjective onto Irr(IZ);
    the central subgroup's own poset has one component per character.

    The map is taken per subgroup S of the poset, on the rows of Irr(S)
    restricted to IZ by ctx._restricted_rows, which checks IZ <= S;
    central_index divides them by the degree and looks them up in
    char_index(IZ), as central_poset_map does for one node.  The images do
    not depend on e, so each S's tuple of them is computed once and kept in
    ctx.central_images under (IZ.mask, S.mask).  Each node is keyed by
    roots[peak], read off the partition subgroup by subgroup.  Constancy and
    surjectivity are read off one set of (root, image) pairs."""
    where = f"{poset.group.name} e={poset.e}"
    lookup = ctx.char_index(IZ)
    kept = ctx.central_images
    roots = partition.roots
    images = set()
    for S, peaks in zip(poset.subgroups, partition.peaks):
        key = (IZ.mask, S.mask)
        central = kept.get(key)
        if central is None:
            central = kept[key] = tuple(
                central_index(lookup, rows, d)
                for d, rows in zip(ctx.degrees(S), ctx._restricted_rows(IZ, S))
            )
        images.update(zip(map(roots.__getitem__, peaks), central))
    if len({c for c, _ in images}) != len(images):
        raise CriterionViolation(f"{where}: central map is not constant on a connected component")
    hit = len({idx for _, idx in images})
    if hit != len(IZ.elems):
        raise CriterionViolation(
            f"{where}: central map hits {hit} of {len(IZ.elems)} linear characters"
        )
    # At its top level the poset of IZ is the one subgroup IZ with no edges,
    # so its components are the characters of IZ.
    if len(ctx.irr_rows(IZ)) != len(IZ.elems):
        raise CriterionViolation(
            f"{where}: standalone central poset does not have one component per character"
        )


def valid_exponents(G: GroupTable, p: Optional[int] = None) -> list:
    return list(level_range(G, require_p_group(G, p)))


def sweep(
    specs: Sequence[str],
    es: Optional[Sequence[int]] = None,
    cap: int = DEFAULT_ORDER_CAP,
) -> SweepResult:
    """One report per (group, e) pair; individual failures are recorded and
    the sweep continues.  Reports come back sorted by (order, name, e)."""
    reports = []
    errors = []
    internal = []

    def record(spec: str, e: Optional[int], err: CharposetError) -> None:
        entry = {"spec": spec, "e": e, "kind": type(err).__name__, "message": str(err)}
        errors.append(entry)
        if isinstance(err, InternalCheckError):
            internal.append(entry)

    for spec in specs:
        try:
            G = builtin(spec, cap)
            get_context(G, order_cap=cap)
            p = require_p_group(G)
        except CharposetError as err:
            record(spec, None, err)
            continue
        levels = valid_exponents(G, p) if es is None else es
        for e in levels:
            try:
                reports.append(theorem_report(G, p, e))
            except CharposetError as err:
                record(spec, e, err)
        # G and its context refer to each other; break the cycle so the
        # context goes when the group does, not at a full collection.
        G.context = None
    reports.sort(key=lambda r: (r.order, r.group, r.e))
    return SweepResult(reports=reports, errors=errors, internal=internal)
