"""End-to-end verification of the component-count bounds.

For a p-group G and level e, let I be the intersection of all subgroups of
order p^(e+1).  The checked facts are

    |I n Z(G)|  <=  #components of the poset  <=  |Irr(I)|

and: the poset is connected iff I is trivial.  When I n Z(G) is nontrivial
the run also exercises the central restriction map (well-defined, constant
on components, surjective onto Irr(I n Z(G))) plus the standalone component
count of that central subgroup's own poset.  Failures raise: they signal an
implementation bug, not an expected outcome.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Optional, Sequence

from . import errors as error_kinds
from .characters import get_context
from .errors import (
    BoundViolation,
    CharposetError,
    CriterionViolation,
    InternalCheckError,
    NotMultipleOfLinear,
)
from .families import builtin
from .groups import (
    DEFAULT_ORDER_CAP,
    GroupTable,
    Subgroup,
    intersect_all,
    is_normal_in,
    require_p_group,
    subgroups_of_order,
)
from .poset import CharacterPoset, check_level


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


def _is_internal(kind: str) -> bool:
    """Whether an error kind names an InternalCheckError subclass."""
    cls = getattr(error_kinds, kind, None)
    return isinstance(cls, type) and issubclass(cls, InternalCheckError)


@dataclass
class SweepResult:
    reports: list
    errors: list

    @property
    def violations(self) -> list:
        return [r for r in self.reports if not r.ok] + [
            err for err in self.errors if _is_internal(err["kind"])
        ]


def compute_I(G: GroupTable, p: Optional[int], e: int) -> Subgroup:
    """Intersection of all subgroups of order p^(e+1); normal in G since the
    family is closed under conjugation."""
    p = require_p_group(G, p)
    check_level(G, p, e)
    ctx = get_context(G)
    subs = subgroups_of_order(G, p ** (e + 1), ctx.lattice())
    I = intersect_all(subs)
    if not is_normal_in(I, ctx.whole):
        raise InternalCheckError(f"{G.name} e={e}: I is not normal in G")
    return I


def theorem_report(
    G: GroupTable, p: Optional[int], e: int, strategy: str = "maximal"
) -> TheoremReport:
    """Compute I, Z(G), the poset partition, and check both bounds and the
    connectivity criterion; run the central-map cross-checks when they apply."""
    p = require_p_group(G, p)
    timings: dict = {}
    t0 = time.perf_counter()
    ctx = get_context(G)
    I = compute_I(G, p, e)
    IZ = intersect_all([I, ctx.center])
    irr_I = len(ctx.irr(I))
    timings["structure"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    poset = CharacterPoset(ctx, p, e, strategy)
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

    The map is taken per subgroup S of the poset, on rows: IZ's classes are
    mapped into S's once, one itemgetter picks each character's values on
    IZ (|IZ| > 1, so it returns a tuple), a nonlinear character's rows are
    divided by its degree, and the result is looked up in char_index(IZ),
    as central_poset_map does for one node.  The restriction edges that
    built the partition are never read.  Constancy and surjectivity are
    read off one set of (component, image) pairs."""
    lookup = ctx.char_index(IZ)
    comp = partition.node_to_component
    reps = ctx.classes(IZ).reps
    images = set()
    for S, off in zip(poset.subgroups, poset.offsets):
        class_of = ctx.classes(S).class_of
        at = [class_of[z] for z in reps]
        if min(at) < 0:
            raise InternalCheckError(f"I n Z(G) is not inside a subgroup of order {len(S.elems)}")
        pick = itemgetter(*at)
        for node, chi in enumerate(ctx.irr(S), off):
            rows = pick(chi.rows)
            d = chi.degree
            if d != 1:
                if any(v % d for row in rows for v in row):
                    raise NotMultipleOfLinear(
                        "restriction to the central subgroup is not deg * (a single value vector)"
                    )
                rows = tuple(tuple(v // d for v in row) for row in rows)
            idx = lookup.get(rows)
            if idx is None:
                raise NotMultipleOfLinear(
                    "restriction to the central subgroup is not a multiple of one linear character"
                )
            images.add((comp[node], idx))
    if len({c for c, _ in images}) != len(images):
        raise CriterionViolation("central map is not constant on a connected component")
    hit = len({idx for _, idx in images})
    if hit != len(IZ.elems):
        raise CriterionViolation(f"central map hits {hit} of {len(IZ.elems)} linear characters")
    # At its top level the poset of IZ is the one subgroup IZ with no edges,
    # so its components are the characters of IZ.
    if len(ctx.irr(IZ)) != len(IZ.elems):
        raise CriterionViolation(
            "standalone central poset does not have one component per character"
        )


def valid_exponents(G: GroupTable, p: Optional[int] = None) -> list:
    p = require_p_group(G, p)
    out = []
    e = 0
    while p ** (e + 1) <= G.order:
        out.append(e)
        e += 1
    return out


def sweep(
    specs: Sequence[str],
    es: Optional[Sequence[int]] = None,
    strategy: str = "maximal",
    cap: int = DEFAULT_ORDER_CAP,
) -> SweepResult:
    """One report per (group, e) pair; individual failures are recorded and
    the sweep continues.  Reports come back sorted by (order, name, e)."""
    reports = []
    errors = []
    for spec in specs:
        try:
            G = builtin(spec, cap)
            get_context(G, order_cap=cap)
            p = require_p_group(G)
        except CharposetError as err:
            errors.append(
                {"spec": spec, "e": None, "kind": type(err).__name__, "message": str(err)}
            )
            continue
        levels = valid_exponents(G, p) if es is None else es
        for e in levels:
            try:
                reports.append(theorem_report(G, p, e, strategy))
            except CharposetError as err:
                errors.append(
                    {"spec": spec, "e": e, "kind": type(err).__name__, "message": str(err)}
                )
    reports.sort(key=lambda r: (r.order, r.group, r.e))
    return SweepResult(reports=reports, errors=errors)
