"""Quick self-test of the benchmark harness, on a slice of each workload.

    python3 perfbench/selftest.py

Checks three things and exits non-zero if one fails:
1. every metric named in BENCHMARK.json is emitted, with its unit, by the
   untraced (end-to-end) and traced (per-layer) metric builders;
2. a traced pass gives byte-identical outputs to an untraced pass;
3. a corrupted reference makes the output checks fail.
"""

from __future__ import annotations

import copy
import json
import sys

import run
import tracing
import workloads as W

SPEC = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())


def canonical(obj) -> str:
    """The CLI's JSON layout (export.canonical_json) plus its newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def sliced(cp, name: str):
    """(inputs, reference, corrupted inputs, corrupted reference) for a
    quick slice of the workload."""
    wl = W.WORKLOADS[name]
    reference = wl.reference()
    if name == "sweep":
        inputs = wl.setup(cp, 1, reference)[:8]
        names = {g.name for g in inputs}
        reports = [r for r in json.loads(reference)["reports"] if r["group"] in names]
        reference = canonical({"errors": [], "reports": reports})
        reports[-1]["components"] += 1
        return inputs, reference, inputs, canonical({"errors": [], "reports": reports})
    if name == "witness":
        # The pool's stored outcomes travel with the sampled inputs.
        inputs = wl.setup(cp, 1, reference, sample=10)
        bad = copy.deepcopy(reference)
        for pair in bad["cases"][0]["pairs"]:
            pair[2] = "direct" if pair[2] != "direct" else "sequence"
        return inputs, reference, wl.setup(cp, 1, bad, sample=10), bad
    inputs = wl.setup(cp, 1, reference)[:3 if name == "irr_tables" else 1]
    bad = copy.deepcopy(reference)
    first = inputs[0].name
    if name == "irr_tables":
        bad[first][1][0][0] += 1
    else:
        bad[first] = bad[first].replace('"ok": true', '"ok": false', 1)
    return inputs, reference, inputs, bad


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    cp = run.import_charposet()
    want_e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    problems = []
    for name, wl in W.WORKLOADS.items():
        inputs, reference, bad_inputs, bad_reference = sliced(cp, name)
        with W.Clock() as clock:
            plain = wl.run(cp, inputs, W.Pass(W.NO_TRACE, clock))
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = wl.run(cp, inputs, W.Pass(tracer, clock))
            finally:
                tracer.uninstall()

        for label, p in (("untraced", plain), ("traced", traced)):
            if p.failed(wl.check(inputs, p, reference)):
                problems.append(f"{name}: {label} pass fails its checks")
        if traced.digests != plain.digests or not plain.digests:
            problems.append(f"{name}: traced and untraced outputs differ")

        if not plain.failed(wl.check(bad_inputs, plain, bad_reference)):
            problems.append(f"{name}: a corrupted reference passes the checks")

        e2e = run.end_to_end_metrics([0.5], [plain], 100.0, len(plain.ops), 0)
        summary = tracer.summarize(0)
        layer = run.per_layer_metrics(summary, tracer.counts, traced, [plain])
        for got, want, kind in ((e2e, want_e2e, "end_to_end"), (layer, want_layer, "per_layer")):
            emitted = {k: m["unit"] for k, m in got.items()}
            if emitted != want:
                problems.append(f"{name}: {kind} metrics differ from BENCHMARK.json: "
                                f"{sorted(set(emitted.items()) ^ set(want.items()))}")
        print(f"{name}: {len(plain.ops)} operations, {tracer.mark()} spans", file=sys.stderr)

    for line in problems:
        print(f"FAIL {line}", file=sys.stderr)
    print("self-test", "failed" if problems else "passed", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
