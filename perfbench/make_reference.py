"""Regenerate the stored references in perfbench/reference/.

    python3 perfbench/make_reference.py

The references are charposet's own outputs at the built-in labels (seed 0),
so regenerate them only when a change is meant to alter those outputs.
The sweep reference is `charposet sweep` byte for byte, and each reach entry
is `charposet verify --cap 256 --group <spec>`.  The witness pool is a fixed
sample of endpoint pairs per poset with the outcome `charposet witness`
gives for each; runs draw their seeded samples from it.
"""

from __future__ import annotations

import json
import random
import sys

import workloads
from run import SRC, import_charposet

POOL_SIZE = 600
POOL_SEED = 20260217


def witness_pool(cp) -> dict:
    cases = []
    for spec, e in workloads.WITNESS_CASES:
        G = cp.families.builtin(spec)
        poset = cp.poset.build_poset(G, None, e)
        partition = poset.components()
        n = len(poset.nodes)
        rng = random.Random(f"{POOL_SEED}:{spec}:{e}")
        pairs = set()
        while len(pairs) < POOL_SIZE:
            pairs.add((rng.randrange(n), rng.randrange(n)))
        rows = []
        for a, b in sorted(pairs):
            outcome, chain, verified = workloads.witness_query(cp, poset, a, b)
            if outcome != "precondition" and verified is not True:
                raise SystemExit(f"{spec} e={e} {a}:{b}: chain does not validate")
            rows.append([a, b, outcome])
        cases.append({
            "group": spec,
            "e": e,
            "nodes": n,
            "components": partition.count,
            "pairs": rows,
        })
        print(f"witness pool: {spec} e={e}: {n} nodes", file=sys.stderr)
    return {"cases": cases}


def main() -> int:
    sys.path.insert(0, str(SRC))
    cp = import_charposet()
    ref = workloads.REFERENCE
    ref.mkdir(exist_ok=True)
    with workloads.Clock() as clock:

        def run(name):
            wl = workloads.WORKLOADS[name]
            return wl.run(cp, wl.setup(cp, 0, None), workloads.Pass(workloads.NO_TRACE, clock))

        (ref / "sweep.json").write_text(run("sweep").results["sweep"])
        reach = run("reach").results
        (ref / "reach.json").write_text(json.dumps(reach, indent=1, sort_keys=True) + "\n")
        irr = run("irr_tables").results
        (ref / "irr_tables.json").write_text(json.dumps(irr, sort_keys=True) + "\n")

    (ref / "witness.json").write_text(json.dumps(witness_pool(cp)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
