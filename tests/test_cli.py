import ast
import csv
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from charposet import characters, cli, verify
from charposet.characters import CharContext
from charposet.cli import main
from charposet.errors import (
    CharposetError,
    DomainError,
    IncompleteIrr,
    InputError,
    InternalCheckError,
    WitnessError,
)
from charposet.export import canonical_json, irr_json, load_group_json
from charposet.families import builtin
from charposet.groups import subgroups_of_order
from charposet.poset import CharacterPoset, WitnessChain, build_poset

from conftest import run_script
from test_export import _IRR_DIGESTS


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
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "25109938ad316e575ae2e7e382d6529bec94a05acc56177ef6b7527b3ace28dc"
    )


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


def test_irr_subgroups_out_file_is_the_canonical_text_and_a_newline(tmp_path, capsys):
    spec = "DirectProduct(Dihedral(8),Dihedral(8))"
    path = tmp_path / "irr.json"
    code, out, _ = run(capsys, "irr", "--group", spec, "--subgroups", "--out", str(path))
    assert code == 0 and out == ""
    data = path.read_bytes()
    assert data == (canonical_json(irr_json(builtin(spec), True)) + "\n").encode()
    assert hashlib.sha256(data[:-1]).hexdigest() == _IRR_DIGESTS[spec]


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
    for data, needle in (
        (b'{"name": "\xff", "cayley": [[0]]}', "malformed JSON"),
        (json.dumps({"perm_gens": [[1, 0]], "degree": "2"}).encode(), "'degree' must be an integer"),
    ):
        path.write_bytes(data)
        code, _, err = run(capsys, "irr", "--group", f"@{path}")
        assert code == 2, data
        assert err.startswith("error:") and needle in err, data


def test_out_path_that_cannot_be_written_exits_2(tmp_path, capsys):
    """--out into a missing directory, or onto a directory, is an input
    error (exit 2) that names the path, not a traceback."""
    missing = tmp_path / "missing" / "x.json"
    code, _, err = run(capsys, "irr", "--group", "Cyclic(2,1)", "--out", str(missing))
    assert code == 2
    assert err.startswith("error: cannot write") and str(missing) in err
    code, _, err = run(capsys, "verify", "--group", "Cyclic(2,1)", "--out", str(tmp_path))
    assert code == 2
    assert err.startswith("error: cannot write") and str(tmp_path) in err


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


@pytest.mark.parametrize("e, code", [(2, 0), (3, 3), (20000, 3), (10**9, 3)])
def test_verify_level_at_or_above_the_top_exits_3(capsys, e, code):
    """A level is checked on exponents, so one far above the top is named
    as text (p^(e+1) = 2^20001), never evaluated."""
    got, _, err = run(capsys, "verify", "--group", "Dihedral(8)", "--e", str(e))
    assert got == code
    if code:
        assert err == f"error: p^(e+1) = 2^{e + 1} exceeds |G| = 8\n"


@pytest.mark.parametrize("flags", ["--p 0", "--p 1", "--p 4", "--p -3", "--p 1 --e 0"])
def test_trivial_group_with_a_p_that_is_not_prime_exits_3(flags):
    """Run in a subprocess with a timeout: a p of 0 or 1 once made the
    level loop run without end."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "charposet.cli", "verify", "--group", "Cyclic(2,0)", *flags.split()],
        capture_output=True, text=True, env=env, check=False, timeout=60,
    )
    p = flags.split()[1]
    assert (proc.returncode, proc.stdout) == (3, ""), proc.stderr
    assert proc.stderr == f"error: p = {p} is not a prime\n"


def test_trivial_group_tests_a_large_p_fast_and_exactly(capsys):
    """The prime of the trivial group is tested by Miller-Rabin, not trial
    division: the least prime above 10^16 exits 0 at once; 561 (a Carmichael
    number) and 3215031751 (a strong pseudoprime to the bases 2, 3, 5 and 7)
    exit 3; a p from the bound where the test is proven on exits 3 and names
    the bound."""
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--group", "Cyclic(2,0)", "--p", "10000000000000061")
    assert (code, err) == (0, "") and time.perf_counter() - start < 0.5
    for p in (561, 3215031751):
        code, out, err = run(capsys, "verify", "--group", "Cyclic(2,0)", "--p", str(p))
        assert (code, out, err) == (3, "", f"error: p = {p} is not a prime\n")
    bound = "3317044064679887385961981"
    code, out, err = run(capsys, "verify", "--group", "Cyclic(2,0)", "--p", bound)
    assert (code, out) == (3, "") and f"is not below {bound}" in err


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
# p-groups: S3 and A4 taken before Irr of p-groups moved to Clifford theory,
# S4 (whose subgroups include S3, D8 and A4) before the monomial search
# returned rows through the shared completeness check.
_NON_P_IRR_DIGESTS = {
    ("S3", ""): "ca5c3b28b6240eb82c4773471c065d3aa12ecbfc012632fb20cfa45a7b6246fd",
    ("S3", "--subgroups"): "392106f73189db5b7328a2516e85dbc4ac3141ae988b9ba5d428d39d591ed187",
    ("A4", ""): "0bd2ea68280ed393ee10aedc4262a060224fdbcb00d3d82f31ca947315b07e67",
    ("A4", "--subgroups"): "7fbc00a1091136574ed245b93a156f9d5d85837cb65bfb96a5ecdd305d6665c9",
    ("S4", ""): "c3df042e5d1c997b25a745f9aaefd6a892360dd746c8cb2b22be75394ad7244a",
    ("S4", "--subgroups"): "efab329ec03ba34c974165354830412ab6bdacb4a9441e6b97677a84ce554dbc",
}


def test_irr_of_groups_that_are_not_p_groups(tmp_path, capsys):
    """S3, A4 and S4 are M-groups: the monomial search completes them.  SL(2,3)
    is not: its degree-2 characters are induced from no linear character,
    which is a limit of the method (exit 3), not a failed invariant."""
    files = {
        "S3": {"name": "S3", "degree": 3, "perm_gens": [[1, 0, 2], [1, 2, 0]]},
        "A4": {"name": "A4", "degree": 4, "perm_gens": [[1, 2, 0, 3], [1, 0, 3, 2]]},
        "S4": {"name": "S4", "degree": 4, "perm_gens": [[1, 2, 3, 0], [1, 0, 2, 3]]},
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
    assert "Q8 e=1: " in err, err  # the message names the group and the level


def test_witness_identical_endpoints(capsys):
    code, out, _ = run(
        capsys, "witness", "--group", "Cyclic(2,2)", "--e", "1",
        "--endpoints", "0:3,0:3",
    )
    assert code == 0
    assert "links: 0" in out


def test_witness_with_swapped_directions_is_not_verified(monkeypatch, capsys):
    """A chain whose links point the wrong way fails validate_chain: the
    witness command prints verified: false and exits 5."""
    direct = CharacterPoset.witness_direct

    def swapped(self, alpha, beta):
        chain = direct(self, alpha, beta)
        flip = {"up": "down", "down": "up"}
        return WitnessChain(chain.nodes, tuple(flip[d] for d in chain.directions))

    monkeypatch.setattr(CharacterPoset, "witness_direct", swapped)
    code, out, _ = run(
        capsys, "witness", "--group", "Quaternion(8)", "--e", "1",
        "--endpoints", "0:0,3:0",
    )
    assert code == 5
    assert "verified: false" in out


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


_WITNESS_POOL = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "witness.json"


def test_witness_pool_chains_are_pinned():
    """Every endpoint pair of the benchmark's witness pool, asked as one
    `charposet witness` query (the direct witness, else the level
    sequence), in file order: the outcome, node ids, directions and
    verdict of each pair hash to a pinned sha256.  A precondition pair
    records no nodes, no directions and no verdict."""
    digest = hashlib.sha256()
    for case in json.loads(_WITNESS_POOL.read_text(encoding="utf-8"))["cases"]:
        built = builtin(case["group"])
        G = load_group_json({"name": built.name, "cayley": [list(row) for row in built.table]})
        poset = build_poset(G, None, case["e"])
        poset.components()
        level = subgroups_of_order(G, poset.p ** (poset.e + 1))
        for a, b, _ in case["pairs"]:
            A, B = poset.nodes[a], poset.nodes[b]
            alpha, beta = poset.char_of(A), poset.char_of(B)
            try:
                try:
                    chain, outcome = poset.witness_direct(alpha, beta), "direct"
                except WitnessError:
                    L = [poset.subgroup_of(A)] + level + [poset.subgroup_of(B)]
                    chain, outcome = poset.witness_sequence(L, alpha, beta), "sequence"
            except WitnessError:
                record = ["precondition", [], [], None]
            else:
                ids = [poset.node_id(n) for n in chain.nodes]
                record = [outcome, ids, list(chain.directions), poset.validate_chain(chain)]
            digest.update(json.dumps(record).encode())
    assert digest.hexdigest() == "e2b71c76f13be6223d3b2509d7a739da27b03cb734b6d1250f184556be8c7ba7"


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


def test_sweep_bytes_do_not_depend_on_the_hash_seed():
    """Two sweeps in one interpreter share its string hashes, so they cannot
    show an output that follows set or dict order of hashed keys.  Two
    processes under PYTHONHASHSEED 0 and 1 must print the same bytes."""
    outs = []
    for seed in ("0", "1"):
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
            PYTHONHASHSEED=seed,
        )
        proc = subprocess.run(
            [sys.executable, "-m", "charposet.cli", "sweep", "--p", "2", "--max-order", "16"],
            capture_output=True, env=env, check=False, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1] and json.loads(outs[0])["reports"]


def test_sweep_internal_check_failure_exits_5(monkeypatch, capsys):
    """An internal-check failure recorded by the sweep exits 5, as verify
    does for the same failure, and the errors entries keep their kind.  The
    decomposition front raises, and the fibre pass withholds the masks it
    computes with Irr, so every cover pair reaches the failure."""

    def broken(self, K, H):
        raise IncompleteIrr("restriction edges withheld")

    fibre_irr = characters._fibre_irr

    def withheld(ctx, S, U):
        rows = fibre_irr(ctx, S, U)
        ctx._edges.pop((S.mask, U.mask), None)
        return rows

    monkeypatch.setattr(CharContext, "_restriction_masks", broken)
    monkeypatch.setattr(characters, "_fibre_irr", withheld)
    code, out, _ = run(capsys, "sweep", "--p", "2", "--max-order", "8")
    assert code == 5
    doc = json.loads(out)
    assert len(doc["reports"]) == 8 and all(r["ok"] for r in doc["reports"])
    assert doc["errors"] and {err["kind"] for err in doc["errors"]} == {"IncompleteIrr"}
    code, _, err = run(capsys, "verify", "--group", "Quaternion(8)")
    assert code == 5 and "internal check failed" in err


class LocalInput(InputError):
    pass


class LocalDomain(DomainError):
    pass


class LocalWitness(WitnessError):
    pass


class LocalCheck(InternalCheckError):
    """An internal check defined outside charposet.errors."""


class LocalError(CharposetError):
    pass


def test_sweep_flags_an_internal_check_defined_outside_errors(monkeypatch, capsys):
    """A recorded InternalCheckError exits 5 by its class, wherever the class
    is defined, and its errors entry keeps its kind."""
    real = verify.theorem_report

    def failing(G, p, e):
        if e == 0:
            raise LocalCheck(f"{G.name} e=0: local check")
        return real(G, p, e)

    monkeypatch.setattr(verify, "theorem_report", failing)
    code, out, _ = run(capsys, "sweep", "--p", "2", "--max-order", "8")
    assert code == 5
    doc = json.loads(out)
    assert doc["reports"] and all(r["e"] > 0 and r["ok"] for r in doc["reports"])
    assert doc["errors"] and all(
        err["kind"] == "LocalCheck" and err["e"] == 0 for err in doc["errors"]
    )


@pytest.mark.parametrize(
    "cls, want, prefix",
    [
        (InputError, 2, "error"),
        (DomainError, 3, "error"),
        (WitnessError, 4, "witness precondition failed"),
        (InternalCheckError, 5, "internal check failed"),
        (CharposetError, 2, "error"),
        (LocalInput, 2, "error"),
        (LocalDomain, 3, "error"),
        (LocalWitness, 4, "witness precondition failed"),
        (LocalCheck, 5, "internal check failed"),
        (LocalError, 2, "error"),
    ],
)
def test_exit_code_and_stderr_label_of_each_bucket(monkeypatch, capsys, cls, want, prefix):
    """main maps an error raised by any command to its bucket's exit code and
    stderr line, for the bucket classes and for subclasses defined here."""

    def stub(args):
        raise cls("stub failure")

    monkeypatch.setattr(cli, "cmd_groups", stub)
    assert run(capsys, "groups") == (want, "", f"{prefix}: stub failure\n")


@pytest.mark.parametrize("p", ["0", "1", "4"])
def test_sweep_with_a_p_that_is_not_prime_exits_3(capsys, p):
    """A --p that is not prime is a domain error in sweep, as in verify and
    poset, not an unknown family."""
    assert run(capsys, "sweep", "--p", p) == (3, "", f"error: p = {p} is not a prime\n")


def test_sweep_takes_each_repeated_prime_once(capsys):
    once = run(capsys, "sweep", "--p", "2", "--max-order", "4")
    assert once[0] == 0 and len(json.loads(once[1])["reports"]) == 5
    assert run(capsys, "sweep", "--p", "2", "--p", "2", "--max-order", "4") == once


def test_input_errors_exit_3_in_a_sweep_and_2_in_verify(capsys):
    """A sweep exits 3 when some group could not be verified, whatever the
    bucket of its error; verify exits with the bucket's own code."""
    code, out, _ = run(capsys, "sweep", "--p", "2", "--max-order", "16", "--cap", "8")
    assert code == 3
    doc = json.loads(out)
    assert len(doc["reports"]) == 20 and all(r["ok"] for r in doc["reports"])
    assert len(doc["errors"]) == 11
    assert {err["kind"] for err in doc["errors"]} == {"OrderCapExceeded"}
    code, out, err = run(capsys, "verify", "--group", "Dihedral(16)", "--cap", "8")
    assert (code, out, err) == (2, "", "error: order 16 exceeds cap 8\n")


_TWO_3000_DIGIT_ORDERS = ("1" + "0" * 2999, "3" * 3000)


@pytest.mark.parametrize(
    "spec,shown",
    [
        ("Cyclic(2,14300)", "2^14300"),
        ("Cyclic(3,100000)", "3^100000"),
        ("Modular(3,100000)", "3^100000"),
        ("ElemAbelian(2,1000000)", "2^1000000"),
        ("ElemAbelian(2,50000000)", "2^50000000"),
        ("AbelianProduct(%s,%s)" % _TWO_3000_DIGIT_ORDERS, "%s*%s" % _TWO_3000_DIGIT_ORDERS),
    ],
)
def test_a_spec_far_over_the_cap_exits_2_at_once(spec, shown, capsys):
    """The order of a family spec is checked against the cap before it, its
    table, a list of its factors or its name is formed.  One past Python's
    4300-digit int-to-str limit is shown as the product of its factors."""
    start = time.perf_counter()
    code, out, err = run(capsys, "irr", "--group", spec, "--cap", "128")
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", f"error: order {shown} exceeds cap 128\n")


def test_an_order_over_the_cap_prints_while_it_can(capsys):
    """2^n with 4300 digits prints in full, as it did; 2^(n+1) has 4301
    digits and prints as 2^(n+1).  Under a lowered int-to-str limit the
    formula shows too."""
    n = (10**4300).bit_length() - 1
    code, _, err = run(capsys, "irr", "--group", f"Cyclic(2,{n})", "--cap", "128")
    assert (code, err) == (2, f"error: order {2**n} exceeds cap 128\n")
    code, _, err = run(capsys, "irr", "--group", f"Cyclic(2,{n + 1})", "--cap", "128")
    assert (code, err) == (2, f"error: order 2^{n + 1} exceeds cap 128\n")
    code, _, err = run(capsys, "irr", "--group", "Cyclic(2,14000)", "--cap", "128")
    assert (code, err) == (2, f"error: order {2**14000} exceeds cap 128\n")
    assert len(str(2**14000)) == 4215
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(1000)
    try:
        code, _, err = run(capsys, "irr", "--group", "Cyclic(2,4000)", "--cap", "128")
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, err) == (2, "error: order 2^4000 exceeds cap 128\n")


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
def test_default_sweep_output_is_pinned(tmp_path, capsys, monkeypatch):
    """The default catalog sweep (p in 2, 3, 5, order <= 64) writes the same
    bytes as before."""
    monkeypatch.delenv("CHARPOSET_CAP", raising=False)
    out = tmp_path / "sweep.json"
    code, _, err = run(capsys, "sweep", "--out", str(out))
    assert code == 0, err
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "3a978b16ba1cb307f3318ddbfa5283359bc162fc489f4b36b75b93fc1085f5f2"
    )


@pytest.mark.parametrize("command", [["verify", "--group", "Cyclic(2,2)"], ["sweep"]])
def test_verify_and_sweep_take_no_strategy(command):
    """The partition does not depend on the edge strategy, so only poset
    takes --strategy."""
    with pytest.raises(SystemExit) as exc:
        main(command + ["--strategy", "full"])
    assert exc.value.code == 2


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
        for path in sorted(src.rglob("*.py"))
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
    proc = run_script(["-O"], script)
    assert proc.returncode == 0, proc.stderr
