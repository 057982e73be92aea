"""Span recorder wrapped around charposet's layers for the traced run.

Each wrapped call records one span: its name, start, end, parent span and
the operation it belongs to.  Spans of one operation share the operation's
id.  They stay in flat arrays in memory until the run ends; only summaries
are computed from them.  Self time is a span's length minus the time its
child spans cover.

The wrappers come from this file alone: charposet is not modified.  The
modules import each other by name (``from .groups import center``), so a
function is replaced at every module attribute that holds it, and a method
is replaced on its class.
"""

from __future__ import annotations

import sys
import time
import weakref
from array import array
from collections import Counter, defaultdict

# module -> wrapped functions; "Class.method" names a method.
LAYERS = {
    "groups": (
        "center",
        "from_cayley",
        "quotient",
        "abelian_decomposition",
        "derived_subgroup",
        "conjugacy_classes",
        "all_subgroups",
    ),
    "characters": (
        "CharContext.linear",
        "CharContext.irr",
        "induce",
        "CharContext.inner_raw",
        "CharContext.restriction_edges",
        "CharContext.maximal_pairs",
        "restrict",
        "inner_product",
    ),
    "cyclotomic": ("exact_div_int",),
    "poset": (
        "CharacterPoset.edge_list",
        "CharacterPoset.components",
        "central_poset_map",
        "CharacterPoset.witness_direct",
        "CharacterPoset.witness_sequence",
        "CharacterPoset.validate_chain",
    ),
    "verify": ("theorem_report", "compute_I"),
    "export": ("load_group_json", "irr_json", "reports_json", "canonical_json"),
    "families": ("builtin",),
}

SPAN_NAMES = tuple(
    f"{module}.{attr.rsplit('.', 1)[-1]}" for module, attrs in LAYERS.items() for attr in attrs
)

# Work counts recorded at the same boundaries: (name, unit, better).
COUNTS = (
    ("groups.subgroups", "count", "lower"),
    ("characters.irr_yield", "ratio", "higher"),
    ("characters.restriction_edges.distinct", "count", "lower"),
    ("poset.nodes", "count", "lower"),
    ("poset.edges", "count", "lower"),
    ("poset.chain_links", "count", "lower"),
    ("export.bytes", "bytes", "lower"),
)

class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list = []
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack = [-1]
        self.ops: list = []
        self.current_op = -1
        self.counts: Counter = Counter()
        self.irr_sizes: dict = {}
        self._edge_keys: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._seen_posets: "weakref.WeakSet" = weakref.WeakSet()
        self._edges_counted: "weakref.WeakSet" = weakref.WeakSet()
        self._undo: list = []

    # -- operations ----------------------------------------------------------

    def begin(self, label: str) -> None:
        self.ops.append(label)
        self.current_op = len(self.ops) - 1

    def end_op(self) -> None:
        self.current_op = -1

    def mark(self) -> int:
        """Index of the next span, to split set-up spans from pass spans."""
        return len(self.start)

    # -- wrappers --------------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        nid = len(self.names)
        self.names.append(name)
        names, start, end, parent, opa, stack = (
            self.name_id, self.start, self.end, self.parent, self.op, self.stack,
        )
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            sid = len(start)
            names.append(nid)
            parent.append(stack[-1])
            opa.append(tracer.current_op)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if hook is not None:
                hook(sid, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every function in LAYERS at each binding site in charposet."""
        package = [
            mod for key, mod in list(sys.modules.items())
            if key == "charposet" or key.startswith("charposet.")
        ]
        hooks = {
            "groups.all_subgroups": self._count_subgroups,
            "characters.irr": self._record_irr,
            "characters.restriction_edges": self._count_edge_key,
            "poset.components": self._count_nodes,
            "poset.edge_list": self._count_edges,
            "poset.validate_chain": self._count_links,
            "export.canonical_json": self._count_bytes,
        }
        for module_name, attrs in LAYERS.items():
            module = sys.modules[f"charposet.{module_name}"]
            for attr in attrs:
                name = f"{module_name}.{attr.rsplit('.', 1)[-1]}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    orig = cls.__dict__[meth]
                    self._patch(cls, meth, self.wrap(name, orig, hooks.get(name)))
                    continue
                orig = getattr(module, attr)
                wrapped = self.wrap(name, orig, hooks.get(name))
                for mod in package:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, key, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- count hooks -------------------------------------------------------------

    def _count_subgroups(self, sid, args, result) -> None:
        self.counts["groups.subgroups"] += len(result)

    def _record_irr(self, sid, args, result) -> None:
        self.irr_sizes[sid] = len(result)

    def _count_edge_key(self, sid, args, result) -> None:
        ctx, K, H = args[:3]
        keys = self._edge_keys.setdefault(ctx, set())
        key = (K.elems, H.elems)
        if key not in keys:
            keys.add(key)
            self.counts["characters.restriction_edges.distinct"] += 1

    def _count_nodes(self, sid, args, result) -> None:
        poset = args[0]
        if poset not in self._seen_posets:
            self._seen_posets.add(poset)
            self.counts["poset.nodes"] += len(poset.nodes)

    def _count_edges(self, sid, args, result) -> None:
        poset = args[0]
        if poset not in self._edges_counted:
            self._edges_counted.add(poset)
            self.counts["poset.edges"] += len(result)

    def _count_links(self, sid, args, result) -> None:
        self.counts["poset.chain_links"] += len(args[1].directions)

    def _count_bytes(self, sid, args, result) -> None:
        # json.dumps escapes non-ASCII by default, so characters are bytes.
        self.counts["export.bytes"] += len(result)

    # -- summaries -------------------------------------------------------------------

    def summarize(self, pass_begin: int) -> dict:
        """Calls and self time per span name over every span, plus the
        pass's top-level time and per-operation self time by layer."""
        n = len(self.start)
        start, end, parent, name_id, opa = self.start, self.end, self.parent, self.name_id, self.op
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = Counter()
        self_s = defaultdict(float)
        by_op = defaultdict(lambda: defaultdict(float))
        top_level_pass = 0.0
        for i in range(n):
            name = self.names[name_id[i]]
            dur = end[i] - start[i]
            own = dur - child[i]
            calls[name] += 1
            self_s[name] += own
            if i >= pass_begin:
                by_op[opa[i]][name] += own
                if parent[i] < 0:
                    top_level_pass += dur
        return {
            "calls": calls,
            "self_s": self_s,
            "top_level_pass_s": top_level_pass,
            "by_op": by_op,
            "irr_yield": self._irr_yield(),
        }

    def _irr_yield(self) -> float:
        """Characters kept by Irr computations, divided by the induce calls
        made inside them."""
        irr_ids = {i for i, nm in enumerate(self.names) if nm == "characters.irr"}
        induce_ids = {i for i, nm in enumerate(self.names) if nm == "characters.induce"}
        induced_under = Counter()
        for i in range(len(self.start)):
            if self.name_id[i] not in induce_ids:
                continue
            p = self.parent[i]
            while p >= 0 and self.name_id[p] not in irr_ids:
                p = self.parent[p]
            if p >= 0:
                induced_under[p] += 1
        attempts = sum(induced_under.values())
        if not attempts:
            return 0.0
        kept = sum(self.irr_sizes.get(sid, 0) for sid in induced_under)
        return kept / attempts
