import ast
import csv
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from charposet.characters import CharContext
from charposet.cli import main
from charposet.errors import IncompleteIrr


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_groups_listing(capsys):
    code, out, _ = run(capsys, "groups")
    assert code == 0
    for name in ("Cyclic", "ElemAbelian", "Dihedral", "Quaternion",
                 "Semidihedral", "Modular", "Extraspecial", "AbelianProduct",
                 "DirectProduct"):
        assert name in out


def test_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_irr_q8(capsys):
    code, out, _ = run(capsys, "irr", "--group", "Quaternion(8)")
    assert code == 0
    doc = json.loads(out)
    assert doc["group"] == "Q8"
    degrees = [ch["degree"] for ch in doc["tables"][0]["characters"]]
    assert degrees == [1, 1, 1, 1, 2]


def test_irr_cyclic_linear(capsys):
    code, out, _ = run(capsys, "irr", "--group", "Cyclic(3,2)")
    assert code == 0
    doc = json.loads(out)
    chars = doc["tables"][0]["characters"]
    assert len(chars) == 9
    assert all(ch["degree"] == 1 for ch in chars)


def test_irr_subgroups_flag(capsys):
    code, out, _ = run(capsys, "irr", "--group", "Quaternion(8)", "--subgroups")
    doc = json.loads(out)
    assert len(doc["tables"]) == 6


def test_irr_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "irr", "--group", f"@{path}")
    assert code == 2
    assert "error" in err
    for doc in (
        {"cayley": [["a"]]},
        {"cayley": [1, 2]},
        {"perm_gens": [["a", 0]]},
        {"perm_gens": [1]},
        {"perm_gens": [1], "degree": 2},
        {"cayley": [[0.9]]},
        {"cayley": [[False, True], [True, False]]},
    ):
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, "irr", "--group", f"@{path}")
        assert code == 2, doc
        assert "error" in err


def test_irr_unknown_family(capsys):
    code, _, err = run(capsys, "irr", "--group", "Wat(7)")
    assert code == 2


def test_group_file_cayley(tmp_path, capsys):
    path = tmp_path / "c4.json"
    path.write_text(
        json.dumps({"name": "Z4", "cayley": [[(i + j) % 4 for j in range(4)] for i in range(4)]}),
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "poset", "--group", f"@{path}", "--e", "0")
    assert code == 0
    assert out.strip() == "components: 2"


def test_group_file_perm_gens(tmp_path, capsys):
    path = tmp_path / "d8.json"
    path.write_text(
        json.dumps({"name": "D8p", "degree": 4, "perm_gens": [[1, 2, 3, 0], [0, 3, 2, 1]]}),
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "poset", "--group", f"@{path}", "--e", "1")
    assert code == 0
    assert out.strip() == "components: 2"


def test_poset_counts(capsys):
    code, out, _ = run(capsys, "poset", "--group", "Quaternion(8)", "--e", "1")
    assert code == 0 and out.strip() == "components: 2"
    code, out, _ = run(capsys, "poset", "--group", "ElemAbelian(2,3)", "--e", "1")
    assert code == 0 and out.strip() == "components: 1"


def test_poset_bad_exponent(capsys):
    code, _, err = run(capsys, "poset", "--group", "Quaternion(8)", "--e", "5")
    assert code == 3
    code, out, err = run(capsys, "poset", "--group", "Quaternion(8)", "--e", "-1")
    assert code == 3 and out == ""
    assert "e = -1: the level e must be >= 0" in err


def _sl23_table():
    """SL(2,3): the 24 2x2 matrices over F_3 of determinant 1."""
    mats = [m for m in itertools.product(range(3), repeat=4) if (m[0] * m[3] - m[1] * m[2]) % 3 == 1]
    index = {m: i for i, m in enumerate(mats)}

    def mul(a, b):
        return (
            (a[0] * b[0] + a[1] * b[2]) % 3, (a[0] * b[1] + a[1] * b[3]) % 3,
            (a[2] * b[0] + a[3] * b[2]) % 3, (a[2] * b[1] + a[3] * b[3]) % 3,
        )

    return [[index[mul(a, b)] for b in mats] for a in mats]


# sha256 of `irr --group @file [--subgroups]` stdout for groups that are not
# p-groups, taken before Irr of p-groups moved to Clifford theory.
_NON_P_IRR_DIGESTS = {
    ("S3", ""): "ca5c3b28b6240eb82c4773471c065d3aa12ecbfc012632fb20cfa45a7b6246fd",
    ("S3", "--subgroups"): "392106f73189db5b7328a2516e85dbc4ac3141ae988b9ba5d428d39d591ed187",
    ("A4", ""): "0bd2ea68280ed393ee10aedc4262a060224fdbcb00d3d82f31ca947315b07e67",
    ("A4", "--subgroups"): "7fbc00a1091136574ed245b93a156f9d5d85837cb65bfb96a5ecdd305d6665c9",
}


def test_irr_of_groups_that_are_not_p_groups(tmp_path, capsys):
    """S3 and A4 are M-groups: the monomial search completes them.  SL(2,3)
    is not: its degree-2 characters are induced from no linear character,
    which is a limit of the method (exit 3), not a failed invariant."""
    files = {
        "S3": {"name": "S3", "degree": 3, "perm_gens": [[1, 0, 2], [1, 2, 0]]},
        "A4": {"name": "A4", "degree": 4, "perm_gens": [[1, 2, 0, 3], [1, 0, 3, 2]]},
        "SL23": {"name": "SL(2,3)", "cayley": _sl23_table()},
    }
    for name, doc in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    for (name, flag), want in _NON_P_IRR_DIGESTS.items():
        code, out, err = run(capsys, "irr", "--group", f"@{tmp_path / name}.json", *flag.split())
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == want, (name, flag)
    code, out, err = run(capsys, "irr", "--group", f"@{tmp_path / 'SL23'}.json")
    assert code == 3 and out == ""
    assert "order 24 of SL(2,3) is not an M-group" in err


def test_irr_lattice_cap_and_abelian_bypass(capsys):
    """A nonabelian Irr needs the lattice, so its cap still applies; an
    abelian group's Irr never builds the lattice."""
    code, out, err = run(
        capsys, "irr", "--group", "DirectProduct(ElemAbelian(2,5),Dihedral(8))", "--cap", "512"
    )
    assert code == 3 and out == ""
    assert "more than 20000 subgroups" in err
    code, out, err = run(capsys, "irr", "--group", "ElemAbelian(2,7)")
    assert code == 0, err
    assert len(json.loads(out)["tables"][0]["characters"]) == 128


def test_poset_non_p_group_file(tmp_path, capsys):
    path = tmp_path / "s3.json"
    path.write_text(
        json.dumps({"name": "S3", "degree": 3, "perm_gens": [[1, 0, 2], [1, 2, 0]]}),
        encoding="utf-8",
    )
    code, _, err = run(capsys, "poset", "--group", f"@{path}", "--e", "0")
    assert code == 3


def test_poset_artifacts(tmp_path, capsys):
    out_json = tmp_path / "poset.json"
    code, _, _ = run(
        capsys, "poset", "--group", "Quaternion(8)", "--e", "1",
        "--format", "json", "--out", str(out_json),
    )
    assert code == 0
    doc = json.loads(out_json.read_text(encoding="utf-8"))
    assert doc["components"]["count"] == 2
    assert len(doc["nodes"]) == 17

    out_dot = tmp_path / "poset.dot"
    code, _, _ = run(
        capsys, "poset", "--group", "Quaternion(8)", "--e", "1",
        "--format", "dot", "--out", str(out_dot),
    )
    assert code == 0
    text = out_dot.read_text(encoding="utf-8")
    assert text.startswith("graph") and "--" in text


def test_witness_same_component(capsys):
    code, out, _ = run(
        capsys, "witness", "--group", "Quaternion(8)", "--e", "1",
        "--endpoints", "0:0,1:2",
    )
    assert code == 0
    assert "verified: true" in out


def test_witness_cross_component(capsys):
    code, _, err = run(
        capsys, "witness", "--group", "Quaternion(8)", "--e", "1",
        "--endpoints", "0:1,1:2",
    )
    assert code == 4


def test_witness_identical_endpoints(capsys):
    code, out, _ = run(
        capsys, "witness", "--group", "Cyclic(2,2)", "--e", "1",
        "--endpoints", "0:3,0:3",
    )
    assert code == 0
    assert "links: 0" in out


def test_witness_bad_endpoints(capsys):
    code, _, err = run(
        capsys, "witness", "--group", "Quaternion(8)", "--e", "1",
        "--endpoints", "0:0",
    )
    assert code == 2
    code, _, err = run(
        capsys, "witness", "--group", "Quaternion(8)", "--e", "1",
        "--endpoints", "9:0,0:0",
    )
    assert code == 2


def test_witness_artifact(tmp_path, capsys):
    out = tmp_path / "chain.json"
    code, _, _ = run(
        capsys, "witness", "--group", "Quaternion(8)", "--e", "1",
        "--endpoints", "0:0,1:2", "--out", str(out),
    )
    assert code == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["verified"] is True


# sha256 of canonical_json(chain_json(poset, chain, verified)), the text that
# `charposet witness --out` writes before its final newline, with the number
# of links.  Eight of the twelve chains come from the sequence fallback,
# seven of them with more than 6 links.
_WITNESS_DIGESTS = [
    ("Quaternion(8)", "1", "1:0,0:2", 2,
     "76e308293c1ce335158de06daffe59c8210c3a974a0e5054cba446b86846ac72"),
    ("Quaternion(8)", "1", "3:3,3:2", 6,
     "2598cc6b39e6fd0e947594fcb4b38e2eb5f13703623d805eb81cdbb9939cde2d"),
    ("Quaternion(8)", "1", "3:3,0:0", 7,
     "f656fddffe4237fbd25ce3393083c84e0aba4529d184ca02da1d896088965b45"),
    ("DirectProduct(Dihedral(8),Dihedral(8))", "3", "11:9,52:8", 2,
     "62577d62c80419939cee835f0f27ec047f285e30c4a64386a7187995d65c49ab"),
    ("DirectProduct(Dihedral(8),Dihedral(8))", "3", "75:1,72:3", 136,
     "49068229ced2ce46d105f564ea3ea8d4f4727bf0599f18716ca04bff82179ff3"),
    ("DirectProduct(Dihedral(8),Dihedral(8))", "3", "82:8,76:3", 135,
     "e29891872dba7bfccf918156050adc5f8b1833dcb44794da2438a00909349a58"),
    ("Dihedral(64)", "3", "3:2,0:15", 2,
     "d1d97c3df5cbc1dee9ad93648884af0032b23f12f8b079910c150ee3424948e7"),
    ("Dihedral(64)", "3", "8:10,8:4", 10,
     "04253d73980ee37403e7ad2f301f02ecec199becfea4cd6d47a07079a5cb02f2"),
    ("Dihedral(64)", "3", "5:2,5:21", 12,
     "8233618f4eb038746d32ab03fc73e953c6794a2d6a49c7d450446fc46e126a8f"),
    ("Modular(3,4)", "1", "3:7,8:1", 1,
     "0f305cffcc890a029a9f030d36bd200ed27acc4d8aa119bd78195b0d1718a8b0"),
    ("Modular(3,4)", "1", "1:7,5:2", 10,
     "e80f9ea311c05afd232bc3ac93d2eb8ffbb16d6174d9f458bf68217ebebfe178"),
    ("Modular(3,4)", "1", "7:13,6:5", 10,
     "3e374c774836db6ccbbd4803a657c5b88ab32c91b326ed98d39a0057dca94338"),
]


def test_witness_artifacts_are_pinned(tmp_path, capsys):
    """Node ids, peaks and directions of the chains `charposet witness`
    writes, through both the direct witness and the sequence fallback."""
    out = tmp_path / "chain.json"
    for spec, e, endpoints, links, want in _WITNESS_DIGESTS:
        code, stdout, _ = run(
            capsys, "witness", "--group", spec, "--e", e,
            "--endpoints", endpoints, "--out", str(out),
        )
        assert code == 0, (spec, endpoints)
        assert f"links: {links}, verified: true" in stdout, (spec, endpoints)
        text = out.read_text(encoding="utf-8")
        assert text.endswith("\n")
        assert hashlib.sha256(text[:-1].encode()).hexdigest() == want, (spec, endpoints)


def test_verify_single(capsys):
    code, out, _ = run(capsys, "verify", "--group", "Dihedral(8)", "--e", "1")
    assert code == 0
    doc = json.loads(out)
    row = doc["reports"][0]
    assert row == {
        "group": "D8", "order": 8, "p": 2, "e": 1,
        "I_order": 2, "IZ_order": 2, "irr_I": 2, "components": 2,
        "bounds_hold": True, "connected_iff_I_trivial": True, "ok": True,
    }


def test_verify_all_levels_csv(capsys):
    code, out, _ = run(capsys, "verify", "--group", "Quaternion(8)", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "group,p,e,I_order,IZ_order,irr_I,components,ok"
    assert len(lines) == 4  # e = 0, 1, 2
    assert all(line.endswith("true") for line in lines[1:])


def test_verify_non_p_group_file(tmp_path, capsys):
    path = tmp_path / "s3.json"
    path.write_text(
        json.dumps({"name": "S3", "degree": 3, "perm_gens": [[1, 0, 2], [1, 2, 0]]}),
        encoding="utf-8",
    )
    code, _, _ = run(capsys, "verify", "--group", f"@{path}")
    assert code == 3


def test_group_names_are_escaped_in_dot_and_csv(tmp_path, capsys):
    z4 = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    dot_group, csv_group = tmp_path / "dot.json", tmp_path / "csv.json"
    dot_group.write_text(json.dumps({"name": 'Z4 "odd" \\', "cayley": z4}), encoding="utf-8")
    csv_group.write_text(json.dumps({"name": 'Z4,"odd"', "cayley": z4}), encoding="utf-8")

    out_dot = tmp_path / "poset.dot"
    code, _, _ = run(
        capsys, "poset", "--group", f"@{dot_group}", "--e", "0",
        "--format", "dot", "--out", str(out_dot),
    )
    assert code == 0
    header = out_dot.read_text(encoding="utf-8").splitlines()[0]
    assert header == 'graph "Z4 \\"odd\\" \\\\_p2_e0" {'

    code, out, _ = run(capsys, "verify", "--group", f"@{csv_group}", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == "group,p,e,I_order,IZ_order,irr_I,components,ok".split(",")
    assert len(rows) == 3  # e = 0, 1
    assert all(len(row) == 8 and row[0] == 'Z4,"odd"' for row in rows[1:])


def test_sweep_small_and_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(
            capsys, "sweep", "--p", "2", "--max-order", "8", "--out", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text(encoding="utf-8"))
    assert doc["errors"] == []
    assert all(r["ok"] for r in doc["reports"])


def test_sweep_internal_check_failure_exits_5(monkeypatch, capsys):
    """An internal-check failure recorded by the sweep exits 5, as verify
    does for the same failure, and the errors entries keep their kind."""

    def broken(self, K, H):
        raise IncompleteIrr("restriction edges withheld")

    monkeypatch.setattr(CharContext, "_clifford_edges", broken)
    code, out, _ = run(capsys, "sweep", "--p", "2", "--max-order", "8")
    assert code == 5
    doc = json.loads(out)
    assert len(doc["reports"]) == 8 and all(r["ok"] for r in doc["reports"])
    assert doc["errors"] and {err["kind"] for err in doc["errors"]} == {"IncompleteIrr"}
    code, _, err = run(capsys, "verify", "--group", "Quaternion(8)")
    assert code == 5 and "internal check failed" in err


def test_sweep_csv(capsys):
    code, out, _ = run(capsys, "sweep", "--p", "5", "--max-order", "25", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("group,p,e")
    assert len(lines) == 6  # C5 (1) + C25 (2) + C5xC5 (2) reports


def test_cap_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CHARPOSET_CAP", "not-an-int")
    code, _, err = run(capsys, "irr", "--group", "Cyclic(2,1)")
    assert code == 2
    monkeypatch.setenv("CHARPOSET_CAP", "16")
    code, _, _ = run(capsys, "irr", "--group", "Cyclic(2,2)")
    assert code == 0
    code, _, err = run(capsys, "irr", "--group", "Cyclic(2,5)")
    assert code == 2  # order 32 above the env cap
    code, _, err = run(capsys, "verify", "--group", "Cyclic(2,1)", "--cap", "0")
    assert code == 2  # an explicit cap of 0 is applied, not dropped
    monkeypatch.setenv("CHARPOSET_CAP", "x")
    code, _, _ = run(capsys, "verify", "--group", "Cyclic(2,1)", "--cap", "4")
    assert code == 0  # the variable is not read when --cap is given


def test_sweep_under_python_O_matches_in_process(capsys):
    """Stripping asserts (python -O) must not change the sweep output."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = ["sweep", "--p", "2", "--max-order", "16"]
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "charposet.cli", *argv],
        capture_output=True, text=True, env=env, check=False, timeout=300,
    )
    code, out, _ = run(capsys, *argv)
    assert proc.returncode == code == 0, proc.stderr
    assert proc.stdout == out


@pytest.mark.slow
@pytest.mark.parametrize("spec, levels", [("AbelianProduct(4,2,2,2,2,2)", 7), ("ElemAbelian(3,5)", 5)])
def test_verify_cap_256_on_the_heaviest_abelian_lattices(capsys, spec, levels):
    """(C2)^5xC4 and (C3)^5, the slowest and largest in memory of the
    order-128 and order-243 catalog groups under verify --cap 256, verify
    at every e."""
    code, out, err = run(capsys, "verify", "--group", spec, "--cap", "256")
    assert code == 0, err
    reports = json.loads(out)["reports"]
    assert len(reports) == levels and all(r["ok"] for r in reports)


def test_verify_cap_reaches_the_central_count(capsys):
    code, out, err = run(capsys, "verify", "--group", "Cyclic(3,5)", "--cap", "256")
    assert code == 0, err
    reports = json.loads(out)["reports"]
    assert len(reports) == 5 and all(r["ok"] for r in reports)


def test_verify_lattice_cap_exits_3(capsys):
    """(C2)^7 is within the order cap but has 29,212 subgroups, above the
    lattice cap: LatticeTooLarge is a domain error."""
    code, out, err = run(capsys, "verify", "--group", "ElemAbelian(2,7)")
    assert code == 3
    assert out == ""
    assert "more than 20000 subgroups" in err


def test_no_assert_statements_in_src():
    """Invariants must hold under python -O, so src/ raises instead of asserting."""
    src = Path(__file__).resolve().parents[1] / "src" / "charposet"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_class_function_input_checks_under_python_O():
    script = (
        "from charposet import families\n"
        "from charposet.characters import ClassFunction, get_context\n"
        "from charposet.errors import InputError\n"
        "ctx = get_context(families.builtin('Cyclic(2,2)'))\n"
        "W = ctx.whole\n"
        "for call in (lambda: ctx.irr(W)[1].value_at(-1),\n"
        "             lambda: ClassFunction(W, ctx.classes(W), [1, 1, 1, 1])):\n"
        "    try:\n"
        "        call()\n"
        "    except InputError:\n"
        "        continue\n"
        "    raise SystemExit('no InputError')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, check=False, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
