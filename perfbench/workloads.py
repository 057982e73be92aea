"""The benchmark's workloads: seeded inputs, one timed pass, output checks.

Every workload is a closed loop with one client: one operation at a time in
one process.  An operation is one (group, e) report, one Irr table set or
one witness query.  A pass runs every operation of the workload once and
times only calls into charposet; the checks run after each operation or
after the pass, outside the timed regions.

Inputs reach charposet only as Cayley tables (through
``export.load_group_json``) and witness endpoint pairs.  For ``sweep``,
``irr_tables`` and ``reach``, seed 0 keeps the element labels of the
built-in families, which are the CLI's own inputs; any other seed shuffles
the element indices of every table.  ``witness`` keeps the built-in labels
(its endpoints are node ids of the stored reference pool) and the seed
picks the sample of endpoint pairs.
"""

from __future__ import annotations

import hashlib
import json
import random
import signal
import statistics
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

REFERENCE = Path(__file__).resolve().parent / "reference"

# `charposet sweep` defaults: p in {2,3,5}, |G| <= 64.
SWEEP_CATALOGS = ((2, 64), (3, 64), (5, 64))
# `irr --subgroups` runs over the nonabelian groups of these catalogs.
IRR_CATALOGS = ((2, 64), (3, 81), (5, 125))
# `verify --cap 256` at every e, beyond the sweep's orders.
REACH_SPECS = (
    "Dihedral(128)",
    "DirectProduct(Dihedral(16),Dihedral(8))",
    "Modular(3,5)",
    "DirectProduct(Extraspecial(3,+),ElemAbelian(3,2))",
)
REACH_CAP = 256
# `charposet witness` queries: (group, e) and the sample size per group.
WITNESS_CASES = (
    ("Extraspecial(3,+)", 0),
    ("DirectProduct(Dihedral(8),Cyclic(2,1))", 1),
    ("DirectProduct(Quaternion(8),Cyclic(2,2))", 2),
    ("Modular(3,4)", 1),
    ("Dihedral(64)", 3),
    ("DirectProduct(Dihedral(8),Dihedral(8))", 3),
)
WITNESS_SAMPLE = 200


# Host speed drifts by a quarter or more over minutes on a shared machine
# (the same witness pass took 7.3 s to 12.0 s within eight minutes on a
# 2-core Xeon host).  So a timer runs a fixed calibration kernel every
# TICK_S while the benchmark runs, and every timed step is divided by the
# median host slowness of the ticks that fell inside it (or of the last tick
# before it).  Times are reported in reference seconds: the seconds the step
# takes on a host where the kernel takes REFERENCE_KERNEL_S.  The ticks' own
# time is taken out of every step.
REFERENCE_KERNEL_S = 0.75e-3  # the kernel's median on that host
TICK_S = 0.1


def _kernel() -> int:
    """Fixed pure-Python work in the style of charposet's hot paths:
    tuple keys, dict stores and lookups, small-integer arithmetic."""
    d = {}
    t = 0
    for i in range(2000):
        d[(i, i & 7)] = i * i % 97
    for i in range(2000):
        t += d[(i, i & 7)]
    return t


class Clock:
    """Measures steps in reference seconds while active (a context manager
    that owns SIGALRM)."""

    def __init__(self):
        self.ticks: list = []  # host slowness at each tick
        self.busy = 0.0  # seconds spent ticking

    def __enter__(self) -> "Clock":
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, *_) -> None:
        # The faster of two kernel runs: the first may pay for caches the
        # interrupted step left cold.
        t0 = perf_counter()
        _kernel()
        t1 = perf_counter()
        _kernel()
        t2 = perf_counter()
        self.ticks.append(min(t1 - t0, t2 - t1) / REFERENCE_KERNEL_S)
        self.busy += perf_counter() - t0

    def start(self) -> tuple:
        return len(self.ticks), self.busy, perf_counter()

    def stop(self, mark: tuple) -> tuple:
        """(reference seconds, wall seconds, ticking seconds) since start();
        the first two exclude the ticks."""
        first, busy, t0 = mark
        ticking = self.busy - busy
        wall = perf_counter() - t0 - ticking
        during = self.ticks[first:] or self.ticks[-1:]
        return wall / statistics.median(during), wall, ticking


class NoTrace:
    """Stand-in for tracing.Tracer in untraced passes."""

    def begin(self, label: str) -> None:
        pass

    def end_op(self) -> None:
        pass


NO_TRACE = NoTrace()


@dataclass
class Op:
    """One timed operation.  ``seconds`` is in reference seconds, ``wall``
    as measured; ``error`` is the exception it raised, if any."""

    label: str
    seconds: float
    wall: float
    error: object = None


@dataclass
class Pass:
    tracer: object
    clock: Clock
    ops: list = field(default_factory=list)
    seconds: float = 0.0  # timed work only, in reference seconds: this is run_s
    wall: float = 0.0  # the same, as measured
    ticking: float = 0.0  # clock ticks inside the timed work
    digests: list = field(default_factory=list)  # sha256 of each output
    results: dict = field(default_factory=dict)  # what the checks read, by label
    errors: int = 0

    def timed(self, label, fn, op: bool = True):
        """Run fn() as one timed step; record an Op unless op is False.

        Exceptions are the benchmark's to count, not to stop on: the first
        ones are printed with their traceback and the step counts as failed.
        """
        self.tracer.begin(label)
        mark = self.clock.start()
        try:
            value, error = fn(), None
        except Exception as err:  # noqa: BLE001 - counted as a failed operation
            value, error = None, err
        seconds, wall, ticking = self.clock.stop(mark)
        self.tracer.end_op()
        if error is not None:
            self.errors += 1
            if self.errors <= 3:
                traceback.print_exception(error)
        self.seconds += seconds
        self.wall += wall
        self.ticking += ticking
        if op:
            self.ops.append(Op(label, seconds, wall, error))
        return value

    def failed(self, wrong: set) -> int:
        """Operations that raised or whose output the checks rejected."""
        return sum(1 for op in self.ops if op.error is not None or op.label in wrong)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class GroupInput:
    name: str
    data: dict  # what export.load_group_json receives
    levels: tuple  # every valid e


def _levels(n: int) -> tuple:
    """Every valid e for a group of prime-power order n = p^k: 0..k-1."""
    p = next(d for d in range(2, n + 1) if n % d == 0)
    k = 0
    while n > 1:
        n //= p
        k += 1
    return tuple(range(k))


def relabel(table: list, rng: random.Random) -> list:
    """The same group with element i renamed perm[i]."""
    n = len(table)
    perm = list(range(n))
    rng.shuffle(perm)
    out = [[0] * n for _ in range(n)]
    for a, row in enumerate(table):
        new_row = out[perm[a]]
        for b, c in enumerate(row):
            new_row[perm[b]] = perm[c]
    return out


def group_inputs(groups, seed: int) -> list:
    """Each group's Cayley table, relabelled unless the seed is 0."""
    rng = random.Random(seed)
    out = []
    for G in groups:
        table = [list(row) for row in G.table]
        if seed:
            table = relabel(table, rng)
        out.append(GroupInput(G.name, {"name": G.name, "cayley": table}, _levels(G.order)))
    return out


def catalog(cp, catalogs) -> list:
    return [spec for p, max_order in catalogs for spec in cp.families.builtin_catalog(p, max_order)]


# -- sweep and reach: verification reports -----------------------------------------


def _report_ops(cp, run: Pass, g: GroupInput, cap) -> list:
    """theorem_report at every e, as `charposet verify` runs it; building
    the group is part of the first report."""
    state = {}

    def load():
        G = cp.export.load_group_json(g.data, cap)
        cp.characters.get_context(G, order_cap=cap)
        state["G"] = G
        state["p"] = cp.groups.require_p_group(G)

    reports = []
    for e in g.levels:
        label = f"{g.name} e={e}"

        def report(e=e):
            if e == g.levels[0]:
                load()
            return cp.verify.theorem_report(state["G"], state["p"], e)

        r = run.timed(label, report)
        if r is not None:
            reports.append(r)
    return reports


def sweep_setup(cp, seed: int, reference):
    return group_inputs([cp.families.builtin(s) for s in catalog(cp, SWEEP_CATALOGS)], seed)


def sweep_pass(cp, inputs, run: Pass) -> Pass:
    cap = cp.groups.DEFAULT_ORDER_CAP
    reports = []
    for g in inputs:
        reports += _report_ops(cp, run, g, cap)

    def export():
        reports.sort(key=lambda r: (r.order, r.group, r.e))
        return cp.export.canonical_json(cp.export.reports_json(reports, [])) + "\n"

    text = run.timed("export", export, op=False)
    run.results["sweep"] = text
    run.digests.append(digest(text or ""))
    return run


def sweep_reference() -> str:
    return (REFERENCE / "sweep.json").read_text(encoding="utf-8")


def _mismatched_reports(text, expected: str) -> set:
    """Labels of the (group, e) reports that differ from the reference."""
    want = {f"{r['group']} e={r['e']}": r for r in json.loads(expected)["reports"]}
    try:
        got = {f"{r['group']} e={r['e']}": r for r in json.loads(text)["reports"]}
    except (TypeError, ValueError, KeyError):
        return set(want)
    return {label for label, r in want.items() if got.get(label) != r}


def sweep_check(inputs, run: Pass, expected: str) -> set:
    """The whole sweep JSON must equal the reference byte for byte."""
    text = run.results["sweep"]
    if text == expected:
        return set()
    return _mismatched_reports(text, expected) or {op.label for op in run.ops}


def reach_setup(cp, seed: int, reference):
    return group_inputs([cp.families.builtin(s, REACH_CAP) for s in REACH_SPECS], seed)


def reach_pass(cp, inputs, run: Pass) -> Pass:
    for g in inputs:
        reports = _report_ops(cp, run, g, REACH_CAP)

        def export():
            return cp.export.canonical_json(cp.export.reports_json(reports)) + "\n"

        text = run.timed(f"{g.name} export", export, op=False)
        run.results[g.name] = text
        run.digests.append(digest(text or ""))
    return run


def reach_reference() -> dict:
    return json.loads((REFERENCE / "reach.json").read_text(encoding="utf-8"))


def reach_check(inputs, run: Pass, reference: dict) -> set:
    """Each group's `verify --cap 256` JSON must equal the reference."""
    failed = set()
    for g in inputs:
        text = run.results[g.name]
        expected = reference[g.name]
        if text != expected:
            bad = _mismatched_reports(text, expected)
            failed |= bad or {f"{g.name} e={e}" for e in g.levels}
    return failed


# -- irr_tables: character tables of every subgroup ----------------------------------


def irr_setup(cp, seed: int, reference):
    groups = [cp.families.builtin(s) for s in catalog(cp, IRR_CATALOGS)]
    return group_inputs([G for G in groups if not G.is_abelian()], seed)


def irr_summary(text: str) -> list:
    """Label-invariant content of `irr --subgroups` output: per subgroup its
    order, class-size multiset and degree multiset, sorted."""
    data = json.loads(text)
    rows = [
        [t["order"], sorted(t["class_sizes"]), sorted(c["degree"] for c in t["characters"])]
        for t in data["tables"]
    ]
    return [data["order"], sorted(rows)]


def irr_pass(cp, inputs, run: Pass) -> Pass:
    for g in inputs:

        def tables():
            G = cp.export.load_group_json(g.data)
            return cp.export.canonical_json(cp.export.irr_json(G, True))

        text = run.timed(g.name, tables)
        if text is not None:
            run.results[g.name] = irr_summary(text)
            run.digests.append(digest(text))
    return run


def irr_reference() -> dict:
    return json.loads((REFERENCE / "irr_tables.json").read_text(encoding="utf-8"))


def irr_check(inputs, run: Pass, reference: dict) -> set:
    return {g.name for g in inputs if run.results.get(g.name) != reference[g.name]}


# -- witness: connectivity chains between sampled endpoints -------------------------


@dataclass
class WitnessCase:
    spec: str
    e: int
    poset: object
    partition: object
    pairs: list  # [node id, node id, expected outcome]


def witness_reference() -> dict:
    return json.loads((REFERENCE / "witness.json").read_text(encoding="utf-8"))


def witness_setup(cp, seed: int, reference, sample: int = WITNESS_SAMPLE) -> list:
    """Build each poset and its partition, then draw the seeded sample of
    endpoint pairs from the reference pool."""
    pools = {(c["group"], c["e"]): c["pairs"] for c in reference["cases"]}
    rng = random.Random(seed)

    def draw(pool):
        # Stratified by stored outcome, so every seed asks the same mix.
        strata: dict = {}
        for pair in pool:
            strata.setdefault(pair[2], []).append(pair)
        picks = []
        for outcome in sorted(strata):
            picks += rng.sample(strata[outcome], round(sample * len(strata[outcome]) / len(pool)))
        rng.shuffle(picks)
        return picks

    cases = []
    for spec, e in WITNESS_CASES:
        built = cp.families.builtin(spec)
        data = {"name": built.name, "cayley": [list(row) for row in built.table]}
        G = cp.export.load_group_json(data)
        poset = cp.poset.build_poset(G, None, e)
        partition = poset.components()
        cases.append(WitnessCase(spec, e, poset, partition, draw(pools[(spec, e)])))
    return cases


def witness_query(cp, poset, a: int, b: int):
    """One `charposet witness --endpoints` call: resolve both nodes, try the
    direct witness, fall back to the level sequence, validate the chain.
    Returns (outcome, chain, verified)."""
    A, B = poset.nodes[a], poset.nodes[b]
    H, K = poset.subgroup_of(A), poset.subgroup_of(B)
    alpha, beta = poset.char_of(A), poset.char_of(B)
    try:
        try:
            chain, outcome = poset.witness_direct(alpha, beta), "direct"
        except cp.errors.WitnessError:
            level = cp.groups.subgroups_of_order(
                poset.group, poset.p ** (poset.e + 1), poset.ctx.lattice()
            )
            chain, outcome = poset.witness_sequence([H] + level + [K], alpha, beta), "sequence"
    except cp.errors.WitnessError:
        return "precondition", None, None  # the CLI's exit code 4
    return outcome, chain, poset.validate_chain(chain)


def witness_pass(cp, inputs, run: Pass) -> Pass:
    for case in inputs:
        for a, b, _ in case.pairs:
            label = f"{case.spec} e={case.e} {a}:{b}"
            got = run.timed(label, lambda: witness_query(cp, case.poset, a, b))
            if got is None:
                continue
            outcome, chain, verified = got
            ids = [case.poset.node_id(n) for n in chain.nodes] if chain else []
            record = [outcome, ids, list(chain.directions) if chain else [], verified]
            run.results[label] = record
            run.digests.append(digest(json.dumps(record)))
    return run


def witness_check(inputs, run: Pass, reference) -> set:
    """Each outcome must equal the pool's stored outcome; each chain must
    validate, run from the first endpoint to the second, and stay inside
    one component of the partition."""
    failed = set()
    for case in inputs:
        comp = case.partition.node_to_component
        for a, b, expected in case.pairs:
            label = f"{case.spec} e={case.e} {a}:{b}"
            record = run.results.get(label)
            if record is None:
                failed.add(label)
                continue
            outcome, ids, directions, verified = record
            if outcome != expected:
                failed.add(label)
            elif outcome != "precondition" and not (
                verified is True
                and ids[0] == a
                and ids[-1] == b
                and len(ids) == len(directions) + 1
                and len({comp[i] for i in ids}) == 1
            ):
                failed.add(label)
    return failed


@dataclass(frozen=True)
class Workload:
    setup: object  # (cp, seed, reference) -> inputs
    run: object  # (cp, inputs, empty Pass) -> the filled Pass
    check: object  # (inputs, Pass, reference) -> labels of wrong outputs
    reference: object  # () -> stored reference


WORKLOADS = {
    "sweep": Workload(sweep_setup, sweep_pass, sweep_check, sweep_reference),
    "irr_tables": Workload(irr_setup, irr_pass, irr_check, irr_reference),
    "reach": Workload(reach_setup, reach_pass, reach_check, reach_reference),
    "witness": Workload(witness_setup, witness_pass, witness_check, witness_reference),
}
