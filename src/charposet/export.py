"""Serialization: group files in, JSON/CSV/DOT artifacts out.

All JSON is emitted through canonical_json so identical inputs produce
byte-identical output (sorted keys, fixed separators, no volatile fields).
Its bytes are exactly those of json.dumps(obj, sort_keys=True, indent=2),
written into one list of fragments that is joined once: a list of plain
ints is one fragment, strings go through json's C escaper, and a dict or
list is written in place when first met at a depth; met there again, its
span of fragments is joined into its text, which is appended from then on.

irr_json shares at three levels: one value dict {"n", "coeffs"} per
distinct packed class value, unpacked once; one character dict {"degree",
"values"} per distinct row tuple; and one "characters" list per distinct
tuple of a table's rows.  Each kind sits at one depth of the document, so
the writer emits each distinct object once and looks it up after that.  The
document is read-only.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

from .characters import CharContext, get_context
from .cyclotomic import unpack
from .errors import InputError
from .groups import DEFAULT_ORDER_CAP, GroupTable, Subgroup, from_cayley, from_permutations
from .poset import CharacterPoset, ComponentPartition, WitnessChain
from .verify import TheoremReport


def canonical_json(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2), byte for byte.  Fragments
    go to one list, joined once, so the writer's peak memory (tracemalloc)
    is 1.2 to 1.4 times the text on the irr_json of D8x(C2)^3 and D16xD8."""
    out: list = []
    _append(obj, "\n", {}, out)
    return "".join(out)


def _append(obj, newline_indent: str, memo: dict, out: list) -> None:
    """Append the fragments of obj at the depth whose lines start with
    newline_indent to out.  memo[newline_indent] maps the id of each nonempty
    dict and list met at that depth to the range of out holding its fragments
    (a range, unlike a slice, escapes the garbage collector), then to their
    text once met there again; the caller's document keeps the ids valid."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif type(obj) is int:
        out.append(int.__repr__(obj))
    elif not isinstance(obj, (list, tuple, dict)):
        out.append(json.dumps(obj))  # None, bool, float, int subclasses; TypeError otherwise
    elif not obj:
        out.append("{}" if isinstance(obj, dict) else "[]")
    else:
        seen = memo.setdefault(newline_indent, {})
        known = seen.get(id(obj))
        if type(known) is range:  # met once at this depth: join its span
            known = seen[id(obj)] = "".join(out[known.start : known.stop])
        if known is not None:
            out.append(known)
            return
        start = len(out)
        inner = newline_indent + "  "
        sep = "," + inner
        opening, closing = "{}" if isinstance(obj, dict) else "[]"
        if isinstance(obj, dict):
            for k, v in sorted(obj.items()):
                out += (sep, encode_basestring_ascii(_json_key(k)), ": ")
                _append(v, inner, memo, out)
        elif set(map(type, obj)) == {int}:  # bools are excluded: [True] is [true]
            out += (sep, sep.join(map(int.__repr__, obj)))
        else:
            texts = memo.setdefault(inner, {})
            for v in obj:
                out.append(sep)
                if type(text := texts.get(id(v))) is str:  # joined at this depth: no call
                    out.append(text)
                else:
                    _append(v, inner, memo, out)
        out[start] = opening + inner  # in place of the first separator
        out.append(newline_indent + closing)
        seen[id(obj)] = range(start, len(out))


def _json_key(k) -> str:
    """A dict key as json writes it: str as is, float, bool, None and int
    converted, anything else a TypeError."""
    if isinstance(k, str):
        return k
    if isinstance(k, (int, float)) or k is None:  # json.dumps gives true, 1.5, NaN, null, 7
        return json.dumps(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


# -- group ingestion -----------------------------------------------------------


def load_group_json(data: dict, cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    if not isinstance(data, dict):
        raise InputError("group file must contain a JSON object")
    name = data.get("name", "G")
    if "cayley" in data:
        table = data["cayley"]
        if not isinstance(table, list):
            raise InputError("'cayley' must be a list of rows")
        if len(table) > cap:
            raise InputError(f"table order {len(table)} exceeds cap {cap}")
        return from_cayley(table, name=str(name))
    if "perm_gens" in data:
        gens = data["perm_gens"]
        degree = data.get("degree")
        if not isinstance(gens, list) or not gens:
            raise InputError("'perm_gens' must be a nonempty list of permutations")
        if degree is not None:
            if not isinstance(degree, int) or isinstance(degree, bool):
                raise InputError(f"'degree' must be an integer, got {degree!r}")
            for i, g in enumerate(gens):
                if isinstance(g, list) and len(g) != degree:
                    raise InputError(f"perm_gens[{i}] has length {len(g)}, expected degree {degree}")
        return from_permutations(gens, name=str(name), cap=cap)
    raise InputError("group file needs either 'cayley' or 'perm_gens'")


def load_group_file(path: str, cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise InputError(f"malformed JSON in {path}: {err}") from None
    return load_group_json(data, cap)


# -- character tables -----------------------------------------------------------


def char_table_dict(ctx: CharContext, S: Subgroup, shared: tuple) -> dict:
    """The table of S.  shared is (values, chars, tables), the objects met
    so far in one irr_json call: the value dict of each packed class value,
    the character dict of each row tuple (the identity value fixes the
    degree), and the characters list of each tuple of a table's rows."""
    values, chars, tables = shared
    if ctx.is_abelian(S):  # one class per element, in index order: no class array
        reps, sizes = S.elems, [1] * len(S.elems)
    else:
        cc = ctx.classes(S)
        reps, sizes = cc.reps, list(cc.sizes)
    G = ctx.group
    n, width, digits = ctx.conductor, ctx.width, ctx.digits

    def value_of(x: int) -> dict:
        v = values.get(x)
        if v is None:
            v = values[x] = {"n": n, "coeffs": list(unpack(x, width, digits))}
        return v

    def char_of(rows: tuple, degree: int) -> dict:
        c = chars.get(rows)
        if c is None:
            c = chars[rows] = {"degree": degree, "values": [value_of(x) for x in rows]}
        return c

    key = ctx.irr_rows(S)
    characters = tables.get(key)
    if characters is None:
        characters = tables[key] = list(map(char_of, key, ctx.degrees(S)))
    return {
        "order": len(S.elems),
        "elements": list(S.elems),
        "class_sizes": sizes,
        "class_rep_orders": [G.elem_order[r] for r in reps],
        "class_reps": list(reps),
        "characters": characters,
    }


def irr_json(G: GroupTable, include_subgroups: bool = False) -> dict:
    """The character tables of G, or of every subgroup.  Each class value is
    {"n": conductor, "coeffs": power-basis coordinates}.  Equal values,
    characters with equal rows and tables with equal rows share one object
    each, so treat the document as read-only."""
    ctx = get_context(G)
    if include_subgroups:
        subs = ctx.lattice()
    else:
        subs = [ctx.whole]
    shared: tuple = ({}, {}, {})
    return {
        "group": G.name,
        "order": G.order,
        "exponent": G.exponent,
        "tables": [char_table_dict(ctx, S, shared) for S in subs],
    }


# -- poset artifacts ---------------------------------------------------------------


def poset_json(poset: CharacterPoset, partition: ComponentPartition) -> dict:
    ctx = poset.ctx
    return {
        "group": poset.group.name,
        "p": poset.p,
        "e": poset.e,
        "strategy": poset.strategy,
        "subgroups": [
            {"id": i, "order": len(S.elems), "elements": list(S.elems)}
            for i, S in enumerate(poset.subgroups)
        ],
        "nodes": [
            {
                "id": poset.node_id(n),
                "subgroup": n.subgroup_id,
                "char": n.char_id,
                "degree": ctx.degrees(poset.subgroup_of(n))[n.char_id],
            }
            for n in poset.nodes
        ],
        "edges": [list(e) for e in poset.edge_list()],
        "components": {
            "count": partition.count,
            "node_to_component": list(partition.node_to_component),
        },
    }


_PALETTE = (
    "#e6194b", "#3cb44b", "#4363d8", "#f58231", "#911eb4", "#46f0f0",
    "#f032e6", "#bcf60c", "#fabebe", "#008080", "#e6beff", "#9a6324",
    "#fffac8", "#800000", "#aaffc3", "#808000", "#ffd8b1", "#000075",
)


def poset_dot(poset: CharacterPoset, partition: ComponentPartition) -> str:
    name = poset.group.name.replace("\\", "\\\\").replace('"', '\\"')
    lines = [
        f'graph "{name}_p{poset.p}_e{poset.e}" {{',
        "  node [style=filled];",
    ]
    for n in poset.nodes:
        nid = poset.node_id(n)
        comp = partition.node_to_component[nid]
        color = _PALETTE[comp % len(_PALETTE)]
        S = poset.subgroup_of(n)
        deg = poset.ctx.degrees(S)[n.char_id]
        label = f"H{n.subgroup_id}:χ{n.char_id} (|H|={len(S.elems)}, deg={deg})"
        lines.append(f'  n{nid} [label="{label}", fillcolor="{color}"];')
    for a, b in poset.edge_list():
        lines.append(f"  n{a} -- n{b};")
    lines.append("}")
    return "\n".join(lines)


def chain_json(poset: CharacterPoset, chain: WitnessChain, verified: bool) -> dict:
    return {
        "nodes": [
            {
                "subgroup": n.subgroup_id,
                "char": n.char_id,
                "subgroup_order": len(poset.subgroup_of(n).elems),
                "degree": poset.ctx.degrees(poset.subgroup_of(n))[n.char_id],
            }
            for n in chain.nodes
        ],
        "directions": list(chain.directions),
        "verified": verified,
    }


# -- verification reports -------------------------------------------------------------


def reports_json(reports: Sequence[TheoremReport], errors: Optional[Sequence[dict]] = None) -> dict:
    out = {"reports": [r.to_dict() for r in reports]}
    if errors is not None:
        out["errors"] = [dict(e) for e in errors]
    return out


CSV_HEADER = "group,p,e,I_order,IZ_order,irr_I,components,ok"


def _csv_field(text: str) -> str:
    """text as an RFC 4180 field: quoted, with quotes doubled, when it holds
    a comma, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def reports_csv(reports: Sequence[TheoremReport]) -> str:
    lines = [CSV_HEADER]
    for r in reports:
        lines.append(
            f"{_csv_field(r.group)},{r.p},{r.e},{r.I_order},{r.IZ_order},{r.irr_I},"
            f"{r.components},{str(r.ok).lower()}"
        )
    return "\n".join(lines)
