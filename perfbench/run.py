"""Outside-in benchmark of charposet.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 10 --trace 0

Run from the root of a checkout; charposet is imported from its ``src``.
The run sets up the workload's inputs three times (set-up time is their
median), then runs whole passes until ``--seconds`` have elapsed, at least
one, and checks every output against the stored reference.

With ``--trace 0`` the last stdout line is the end-to-end metrics; with
``--trace 1`` the run adds one traced set-up and one traced pass and the
last line is the per-layer metrics.  The traced run also writes its five
slowest operations, the tracing overhead and the per-layer split to
``perfbench/out/``.  A human-readable summary goes to stderr.  The exit code
is 1 if any output was wrong, 2 if charposet or the references are missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
MODULES = ("characters", "cyclotomic", "errors", "export", "families", "groups", "poset", "verify")

END_TO_END = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
)

# Per-layer figures besides tracing.SPAN_NAMES and tracing.COUNTS.
OPERATION_FIGURES = (
    ("operation.p50_ms", "ms", "lower"),
    ("operation.tail_ms", "ms", "lower"),
)
TRACE_FIGURES = (
    ("trace.overhead_s", "s", "lower"),
    ("trace.accounted_share", "ratio", "higher"),
)


def per_layer_spec() -> list:
    """Every per-layer metric as (name, unit, better), in output order."""
    out = []
    for name in tracing.SPAN_NAMES:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    return out + list(tracing.COUNTS) + list(OPERATION_FIGURES) + list(TRACE_FIGURES)


def import_charposet() -> SimpleNamespace:
    """Import charposet afresh from the checkout, so each set-up pays it."""
    for name in [m for m in sys.modules if m == "charposet" or m.startswith("charposet.")]:
        del sys.modules[name]
    package = importlib.import_module("charposet")
    if Path(package.__file__).resolve().parent != SRC / "charposet":
        raise ImportError(f"charposet was imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"charposet.{m}") for m in MODULES})


def tail(values: list) -> tuple:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile); the largest value when there are fewer samples."""
    s = sorted(values)
    k = max(len(s) - 11, 0) if len(s) > 10 else len(s) - 1
    return s[k], 100.0 * (k + 1) / len(s)


def operation_latency(passes: list) -> tuple:
    """Median over passes of the per-operation p50 and tail latency, in ms,
    and the percentile the tail stands for."""
    p50 = statistics.median(statistics.median(op.seconds for op in p.ops) for p in passes)
    tails = [tail([op.seconds for op in p.ops]) for p in passes]
    return 1e3 * p50, 1e3 * statistics.median(t[0] for t in tails), tails[0][1]


def end_to_end_metrics(
    setups: list, passes: list, peak_rss_mb: float, attempted: int, failed: int
) -> dict:
    values = {
        "run_s": statistics.median(p.seconds for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "success_rate": (attempted - failed) / attempted,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer_metrics(summary: dict, counts, traced, passes: list) -> dict:
    """Self times and counts as recorded in the traced pass; operation
    latency from the untraced passes; the tracing overhead in reference
    seconds; the share of the traced pass's time its top-level spans cover."""
    values = {}
    for name in tracing.SPAN_NAMES:
        values[f"{name}.calls"] = summary["calls"].get(name, 0)
        values[f"{name}.self_s"] = summary["self_s"].get(name, 0.0)
    for name, _, _ in tracing.COUNTS:
        values[name] = counts.get(name, 0)
    values["characters.irr_yield"] = summary["irr_yield"]
    values["operation.p50_ms"], values["operation.tail_ms"], _ = operation_latency(passes)
    values["trace.overhead_s"] = traced.seconds - statistics.median(p.seconds for p in passes)
    # Clock ticks land inside spans, so they count on both sides.
    values["trace.accounted_share"] = summary["top_level_pass_s"] / (traced.wall + traced.ticking)
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer_spec()}


def slowest_ops(untraced, op_labels: list, summary: dict, k: int = 5) -> list:
    """The k slowest operations of the untraced pass, each with the traced
    pass's three largest self times inside it."""
    op_index = {label: i for i, label in enumerate(op_labels)}
    out = []
    for op in sorted(untraced.ops, key=lambda o: -o.seconds)[:k]:
        layers = summary["by_op"].get(op_index.get(op.label), {})
        top = sorted(layers.items(), key=lambda kv: -kv[1])[:3]
        out.append({"op": op.label, "seconds": op.seconds, "top_self_s": top})
    return out


def run(args) -> int:
    workload = workloads.WORKLOADS[args.workload]
    if not (SRC / "charposet" / "__init__.py").is_file():
        print(f"error: no charposet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        reference = workload.reference()
    except OSError as err:
        print(f"error: cannot read the stored reference: {err}", file=sys.stderr)
        return 2
    with workloads.Clock() as clock:
        return measure(args, workload, reference, clock)


def measure(args, workload, reference, clock) -> int:
    setups = []
    inputs = None
    for _ in range(SETUP_REPEATS):
        inputs = None
        mark = clock.start()
        cp = import_charposet()
        inputs = workload.setup(cp, args.seed, reference)
        setups.append(clock.stop(mark)[0])

    passes = []
    t0 = perf_counter()
    while not passes or perf_counter() - t0 < args.seconds:
        passes.append(workload.run(cp, inputs, workloads.Pass(workloads.NO_TRACE, clock)))
        if len(passes) == 1:
            # charposet never frees a CharContext (it holds the GroupTable
            # that keys its weak cache), so later passes only add to memory.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced = None
    if args.trace:
        inputs = None
        tracer = tracing.Tracer()
        tracer.install()
        try:
            mark = clock.start()
            inputs = workload.setup(cp, args.seed, reference)
            traced_setup_s = clock.stop(mark)[0]
            pass_begin = tracer.mark()
            traced = workload.run(cp, inputs, workloads.Pass(tracer, clock))
        finally:
            tracer.uninstall()
        passes_checked = passes + [traced]
    else:
        passes_checked = passes

    attempted = failed = 0
    for p in passes_checked:
        attempted += len(p.ops)
        failed += p.failed(workload.check(inputs, p, reference))
    if traced is not None and traced.digests != passes[-1].digests:
        print("traced and untraced outputs differ", file=sys.stderr)
        failed = max(failed, 1)
    correct = failed == 0

    untraced_run_s = statistics.median(p.seconds for p in passes)
    if args.trace:
        summary = tracer.summarize(pass_begin)
        metrics = per_layer_metrics(summary, tracer.counts, traced, passes)
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "untraced_run_s": untraced_run_s,
            "traced_run_s": traced.seconds,
            "traced_wall_s": traced.wall,
            "traced_setup_s": traced_setup_s,
            "overhead_s": traced.seconds - untraced_run_s,
            "accounted_share": metrics["trace.accounted_share"]["value"],
            "spans": tracer.mark(),
            "slowest": slowest_ops(passes[-1], tracer.ops, summary),
            "layers": {
                name: {"calls": summary["calls"][name], "self_s": summary["self_s"][name]}
                for name in sorted(summary["calls"], key=lambda n: -summary["self_s"][n])
            },
        }
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"trace written to {path}", file=sys.stderr)
        for row in report["slowest"]:
            print(f"slow: {row['op']}: {row['seconds']:.3f} s", file=sys.stderr)
        print(
            f"tracing overhead: {report['overhead_s']:.3f} s on {untraced_run_s:.3f} s;"
            f" layers account for {100 * report['accounted_share']:.1f}% of the traced pass",
            file=sys.stderr,
        )
    else:
        metrics = end_to_end_metrics(setups, passes, peak_rss_mb, attempted, failed)
    p50_ms, tail_ms, pct = operation_latency(passes)
    print(
        f"{len(passes)} untraced pass(es) of {len(passes[0].ops)} operations"
        f" ({passes[0].wall:.3f} s wall for the first); per operation: p50 {p50_ms:.4g} ms,"
        f" p{pct:.1f} {tail_ms:.4g} ms (the highest percentile with ten operations"
        f" beyond it); error_rate = {failed}/{attempted}",
        file=sys.stderr,
    )
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
