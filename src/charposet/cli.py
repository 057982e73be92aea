"""Command-line front end.

Subcommands: groups, irr, poset, witness, verify, sweep.  Groups come from a
family descriptor ("Quaternion(8)") or a JSON file ("@path/to/group.json").
Exit codes: 0 success, 2 input error, 3 domain precondition, 4 witness
precondition, 5 internal assertion.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from . import export
from .characters import get_context
from .errors import (
    CharposetError,
    DomainError,
    InputError,
    InternalCheckError,
    NotPGroup,
    WitnessError,
)
from .families import FAMILY_HELP, builtin, builtin_catalog
from .groups import DEFAULT_ORDER_CAP, GroupTable, is_prime, require_p_group, subgroups_of_order
from .poset import CharacterPoset, build_poset
from .verify import sweep as run_sweep
from .verify import theorem_report, valid_exponents

EXIT_OK = 0


def _default_cap() -> int:
    env = os.environ.get("CHARPOSET_CAP")
    if env:
        try:
            return int(env)
        except ValueError:
            raise InputError(f"CHARPOSET_CAP must be an integer, got {env!r}") from None
    return DEFAULT_ORDER_CAP


def _load_group(args: argparse.Namespace) -> GroupTable:
    """The --group spec or @file as a table, its context capped at --cap."""
    if args.group.startswith("@"):
        G = export.load_group_file(args.group[1:], args.cap)
    else:
        G = builtin(args.group, args.cap)
    get_context(G, order_cap=args.cap)
    return G


def _emit(text: str, out: Optional[str]) -> None:
    """Print text, or write it with a final newline to the path out; a path
    that cannot be written raises InputError."""
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
                fh.write("\n")
        except OSError as err:
            raise InputError(f"cannot write {out}: {err.strerror}") from None
    else:
        print(text)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="charposet", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    sub.add_parser("groups", help="list the built-in family catalog").set_defaults(run=cmd_groups)

    def common(p, fmt_choices, run):
        p.set_defaults(run=run)
        p.add_argument("--group", required=True, help="family spec or @file.json")
        p.add_argument("--cap", type=int, default=None, help="group order cap")
        p.add_argument("--format", dest="fmt", choices=fmt_choices, default=fmt_choices[0])
        p.add_argument("--out", default=None, help="write the artifact to this path")

    p_irr = sub.add_parser("irr", help="irreducible character table(s)")
    common(p_irr, ["json"], cmd_irr)
    p_irr.add_argument("--subgroups", action="store_true", help="tables for every subgroup")

    p_poset = sub.add_parser("poset", help="build the poset and count components")
    common(p_poset, ["json", "dot"], cmd_poset)
    p_poset.add_argument("--p", type=int, default=None)
    p_poset.add_argument("--e", type=int, required=True)
    p_poset.add_argument(
        "--strategy",
        choices=["maximal", "full"],
        default="maximal",
        help="picks only the edges --out lists: cover pairs or every containment",
    )

    p_wit = sub.add_parser("witness", help="connectivity witness chain between two nodes")
    common(p_wit, ["json"], cmd_witness)
    p_wit.add_argument("--p", type=int, default=None)
    p_wit.add_argument("--e", type=int, required=True)
    p_wit.add_argument(
        "--endpoints",
        required=True,
        help="two nodes as subgroupId:charId,subgroupId:charId (ids from the poset output)",
    )

    p_ver = sub.add_parser("verify", help="bound/criterion report for one group")
    common(p_ver, ["json", "csv"], cmd_verify)
    p_ver.add_argument("--p", type=int, default=None)
    p_ver.add_argument("--e", type=int, default=None, help="default: every valid e")

    p_sw = sub.add_parser("sweep", help="verify the whole built-in catalog")
    p_sw.set_defaults(run=cmd_sweep)
    p_sw.add_argument("--p", type=int, action="append", default=None, help="repeatable; default 2 3 5")
    p_sw.add_argument("--max-order", type=int, default=64)
    p_sw.add_argument("--cap", type=int, default=None)
    p_sw.add_argument("--format", dest="fmt", choices=["json", "csv"], default="json")
    p_sw.add_argument("--out", default=None)
    return top


def cmd_groups(args: argparse.Namespace) -> int:
    print("built-in families:")
    for spec, desc in FAMILY_HELP:
        print(f"  {spec:<28} {desc}")
    print()
    print("sweep catalog (p=2, order <= 64):")
    for spec in builtin_catalog(2, 64):
        print(f"  {spec}")
    return EXIT_OK


def cmd_irr(args: argparse.Namespace) -> int:
    G = _load_group(args)
    _emit(export.canonical_json(export.irr_json(G, args.subgroups)), args.out)
    return EXIT_OK


def cmd_poset(args: argparse.Namespace) -> int:
    G = _load_group(args)
    poset = build_poset(G, args.p, args.e, args.strategy)
    partition = poset.components()
    print(f"components: {partition.count}")
    if args.out:
        if args.fmt == "dot":
            _emit(export.poset_dot(poset, partition), args.out)
        else:
            _emit(export.canonical_json(export.poset_json(poset, partition)), args.out)
    return EXIT_OK


def _parse_endpoints(poset: CharacterPoset, text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError("--endpoints needs exactly two nodes: sid:cid,sid:cid")
    out = []
    for part in parts:
        bits = part.split(":")
        if len(bits) != 2:
            raise InputError(f"bad endpoint {part!r}, expected sid:cid")
        try:
            sid, cid = int(bits[0]), int(bits[1])
        except ValueError:
            raise InputError(f"bad endpoint {part!r}, expected integers") from None
        if not 0 <= sid < len(poset.subgroups):
            raise InputError(f"subgroup id {sid} out of range")
        S = poset.subgroups[sid]
        chars = poset.ctx.irr(S)
        if not 0 <= cid < len(chars):
            raise InputError(f"char id {cid} out of range for subgroup {sid}")
        out.append((S, chars[cid]))
    return out


def cmd_witness(args: argparse.Namespace) -> int:
    G = _load_group(args)
    poset = build_poset(G, args.p, args.e)
    (H, alpha), (K, beta) = _parse_endpoints(poset, args.endpoints)
    try:
        chain = poset.witness_direct(alpha, beta)
    except WitnessError:
        order = poset.p ** (poset.e + 1)
        level = subgroups_of_order(G, order)
        chain = poset.witness_sequence([H] + level + [K], alpha, beta)

    verified = poset.validate_chain(chain)
    pieces = []
    for i, node in enumerate(chain.nodes):
        S = poset.subgroup_of(node)
        deg = poset.ctx.degrees(S)[node.char_id]
        pieces.append(f"(H{node.subgroup_id}:chi{node.char_id} |H|={len(S.elems)} deg={deg})")
        if i < len(chain.directions):
            pieces.append(f"--{chain.directions[i]}-->")
    print(" ".join(pieces))
    print(f"links: {len(chain.directions)}, verified: {str(verified).lower()}")
    if args.out:
        _emit(export.canonical_json(export.chain_json(poset, chain, verified)), args.out)
    return EXIT_OK if verified else InternalCheckError.exit_code


def cmd_verify(args: argparse.Namespace) -> int:
    G = _load_group(args)
    p = require_p_group(G, args.p)
    levels = [args.e] if args.e is not None else valid_exponents(G, p)
    reports = [theorem_report(G, p, e) for e in levels]
    if args.fmt == "csv":
        _emit(export.reports_csv(reports), args.out)
    else:
        _emit(export.canonical_json(export.reports_json(reports)), args.out)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    specs = []
    for p in dict.fromkeys(args.p or (2, 3, 5)):
        if not is_prime(p):
            raise NotPGroup(f"p = {p} is not a prime")
        specs.extend(builtin_catalog(p, args.max_order))
    result = run_sweep(specs, cap=args.cap)
    if args.fmt == "csv":
        _emit(export.reports_csv(result.reports), args.out)
    else:
        _emit(export.canonical_json(export.reports_json(result.reports, result.errors)), args.out)
    if result.internal:
        return InternalCheckError.exit_code
    if result.errors:
        return DomainError.exit_code
    return EXIT_OK


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if hasattr(args, "cap") and args.cap is None:
            args.cap = _default_cap()
        return args.run(args)
    except CharposetError as err:
        print(f"{err.label}: {err}", file=sys.stderr)
        return err.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
