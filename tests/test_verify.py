import gc
import weakref
from collections import Counter
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charposet import characters
from charposet import families as fam
from charposet import groups as gr
from charposet import verify
from charposet.characters import get_context
from charposet.errors import CriterionViolation, InvalidExponent, NotPGroup
from charposet.poset import CharacterPoset, ComponentPartition, build_poset
from charposet.verify import (
    compute_I,
    sweep,
    theorem_report,
    valid_exponents,
)

from conftest import relabelled, relabelling, run_script


def test_compute_I_cyclic(c16):
    for e in range(4):
        I = compute_I(c16, 2, e)
        assert len(I) == 2 ** (e + 1)


def test_compute_I_q8(q8):
    I = compute_I(q8, 2, 1)
    assert I.elems == gr.center(gr.whole_group(q8)).elems


def test_compute_I_elem_abelian(e222):
    assert len(compute_I(e222, 2, 1)) == 1


def test_compute_I_whole_group(q8):
    assert len(compute_I(q8, 2, 2)) == 8  # only subgroup of order 8 is G


def test_compute_I_invalid_exponent(q8):
    with pytest.raises(InvalidExponent):
        compute_I(q8, 2, 3)
    # A negative level is named as such, not as p^(e+1) > |G|.
    for call in (lambda: compute_I(q8, 2, -1), lambda: CharacterPoset(get_context(q8), 2, -1)):
        with pytest.raises(InvalidExponent, match=r"e = -1: the level e must be >= 0"):
            call()


def test_valid_exponents(q8, c16):
    assert valid_exponents(q8) == [0, 1, 2]
    assert valid_exponents(c16) == [0, 1, 2, 3]
    assert valid_exponents(fam.builtin("Cyclic(2,0)"), 2) == []


def test_theorem_report_d8(d8):
    r = theorem_report(d8, None, 1)
    assert (r.I_order, r.IZ_order, r.irr_I, r.components) == (2, 2, 2, 2)
    assert r.bounds_hold and r.connected_iff_I_trivial and r.ok
    assert r.group == "D8" and r.p == 2 and r.e == 1
    assert set(r.timings) >= {"structure", "components"}


def test_theorem_report_connected(e222):
    r = theorem_report(e222, None, 1)
    assert r.I_order == 1 and r.components == 1


def test_theorem_report_c16_bounds_coincide(c16):
    r = theorem_report(c16, None, 2)
    assert r.IZ_order == r.irr_I == r.components == 8


def test_theorem_report_rejects_non_p_group():
    S3 = gr.from_permutations([(1, 0, 2), (1, 2, 0)], name="S3")
    with pytest.raises(NotPGroup):
        theorem_report(S3, None, 0)


def test_report_serialization_excludes_timings(d8):
    r = theorem_report(d8, None, 1)
    d = r.to_dict()
    assert "timings" not in d
    assert d["ok"] is True


def test_sweep_empty():
    res = sweep([])
    assert res.reports == [] and res.errors == []


def test_sweep_small():
    res = sweep(["Quaternion(8)", "Dihedral(8)", "Cyclic(2,2)"])
    assert len(res.reports) == 3 + 3 + 2
    assert not res.errors
    assert not res.internal and all(r.ok for r in res.reports)
    keys = [(r.order, r.group, r.e) for r in res.reports]
    assert keys == sorted(keys)


def test_sweep_continues_past_bad_spec():
    res = sweep(["Cyclic(2,1)", "Bogus(1)", "Dihedral(8)"])
    assert len(res.errors) == 1
    assert res.errors[0]["kind"] == "UnknownFamily"
    assert len(res.reports) == 1 + 3


def test_sweep_explicit_levels():
    res = sweep(["Quaternion(8)"], es=[1])
    assert len(res.reports) == 1
    assert res.reports[0].e == 1


def test_sweep_cap_reaches_the_context():
    res = sweep(["Modular(3,5)"], es=[4], cap=256)
    assert not res.errors
    assert len(res.reports) == 1 and res.reports[0].ok


def test_sweep_frees_each_context_without_a_collection(monkeypatch):
    """With the cyclic collector off, every group's CharContext is gone once
    sweep returns: G and its context refer to each other until the group's
    last report, and no longer."""
    made = []

    def spy(G, order_cap=None):
        ctx = get_context(G, order_cap)
        made.append(weakref.ref(ctx))
        return ctx

    monkeypatch.setattr(verify, "get_context", spy)
    gc.collect()
    gc.disable()
    try:
        res = sweep(["Quaternion(8)", "Bogus(1)", "Dihedral(16)"], es=[0, 9])
        assert len(res.reports) == 2 and len(res.errors) == 3
        assert made and all(ref() is None for ref in made)
    finally:
        gc.enable()


def test_a_lattice_over_the_cap_is_enumerated_once(monkeypatch):
    """(C2)^7 has more subgroups than the lattice cap.  Its context keeps
    the failure, so the sweep's seven levels give seven identical
    LatticeTooLarge errors from one enumeration."""
    calls = []

    def spy(G, *args):
        calls.append(G.name)
        return gr.all_subgroups(G, *args)

    monkeypatch.setattr(characters, "all_subgroups", spy)
    res = sweep(["ElemAbelian(2,7)"], cap=256)
    assert len(calls) == 1
    assert res.reports == []
    assert res.errors == [
        {
            "spec": "ElemAbelian(2,7)",
            "e": e,
            "kind": "LatticeTooLarge",
            "message": f"more than {gr.DEFAULT_LATTICE_CAP} subgroups",
        }
        for e in range(7)
    ]


def test_levels_are_suffixes_of_the_lattice():
    """Each level's subgroups are the lattice's from a bisected start, in
    lattice order, and the subgroup index is built only when read."""
    ctx = get_context(fam.builtin("DirectProduct(Dihedral(8),Cyclic(2,1))"))
    lattice = ctx.lattice()
    for e in valid_exponents(ctx.group):
        poset = CharacterPoset(ctx, 2, e)
        assert poset.subgroups == [S for S in lattice if len(S.elems) >= 2 ** (e + 1)]
        assert "_sid" not in poset.__dict__
        poset.components()
        assert "_sid" not in poset.__dict__
        assert all(poset._sid[S.mask] == i for i, S in enumerate(poset.subgroups))


def _reports(G):
    """theorem_report at every e, without the group name."""
    out = []
    for e in valid_exponents(G):
        row = theorem_report(G, None, e).to_dict()
        del row["group"]
        out.append(row)
    return out


def _degrees(G):
    """The sorted Irr degree multisets of I and of G at every e."""
    ctx = get_context(G)
    whole = sorted(ch.degree for ch in ctx.irr(ctx.whole))
    return [
        (sorted(ch.degree for ch in ctx.irr(compute_I(G, None, e))), whole)
        for e in valid_exponents(G)
    ]


def _component_sizes(G):
    """The sorted multiset of component sizes at every e."""
    return [
        sorted(Counter(build_poset(G, None, e).components().node_to_component).values())
        for e in valid_exponents(G)
    ]


def test_reports_survive_relabelling_and_isomorphism():
    specs = fam.builtin_catalog(2, 32) + fam.builtin_catalog(3, 27) + fam.builtin_catalog(5, 25)
    specs += ["Modular(3,4)", "Extraspecial(5,+)", "Semidihedral(64)",
              "DirectProduct(Dihedral(8),Dihedral(8))", "DirectProduct(Quaternion(8),Dihedral(8))"]
    for spec in specs:
        G = fam.builtin(spec)
        expected = _reports(G)
        degrees = _degrees(G)
        sizes = _component_sizes(G)
        for seed in (1, 2):
            H = relabelled(G, seed)
            perm = relabelling(G.order, seed)
            for e in valid_exponents(G):
                image = tuple(sorted(perm[x] for x in compute_I(G, None, e).elems))
                assert compute_I(H, None, e).elems == image, (spec, seed, e)
            assert _reports(H) == expected, (spec, seed)
            assert _degrees(H) == degrees, (spec, seed)
            assert _component_sizes(H) == sizes, (spec, seed)
    d8_perm = gr.from_permutations([(1, 2, 3, 0), (0, 3, 2, 1)], name="D8p")
    c4c2_perm = gr.from_permutations([(1, 2, 3, 0, 4, 5), (0, 1, 2, 3, 5, 4)], name="C4xC2p")
    pairs = [
        (fam.builtin("DirectProduct(Dihedral(8),Cyclic(2,1))"),
         fam.builtin("DirectProduct(Cyclic(2,1),Dihedral(8))")),
        (fam.builtin("AbelianProduct(4,2)"), fam.builtin("DirectProduct(Cyclic(2,2),Cyclic(2,1))")),
        (fam.builtin("AbelianProduct(4,2)"), fam.builtin("DirectProduct(Cyclic(2,1),Cyclic(2,2))")),
        (d8_perm, fam.builtin("Dihedral(8)")),
        (c4c2_perm, fam.builtin("AbelianProduct(4,2)")),
        (fam.builtin("DirectProduct(Quaternion(8),Cyclic(2,1))"),
         fam.builtin("DirectProduct(Cyclic(2,1),Quaternion(8))")),
        (fam.builtin("DirectProduct(Extraspecial(3,+),Cyclic(3,1))"),
         fam.builtin("DirectProduct(Cyclic(3,1),Extraspecial(3,+))")),
    ]
    for A, B in pairs:
        assert _reports(A) == _reports(B), (A.name, B.name)
        assert _degrees(A) == _degrees(B), (A.name, B.name)
        assert _component_sizes(A) == _component_sizes(B), (A.name, B.name)


_SMALL_CATALOG = fam.builtin_catalog(2, 32) + fam.builtin_catalog(3, 27) + fam.builtin_catalog(5, 25)


@cache
def _unrelabelled(spec):
    G = fam.builtin(spec)
    return _reports(G), _component_sizes(G)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(spec=st.sampled_from(_SMALL_CATALOG), seed=st.integers(0, 2**32 - 1))
def test_partition_does_not_depend_on_the_upward_cover_choice(spec, seed):
    """Relabelling moves lattice positions, and so which cover of each
    subgroup the union-find pass reads; the reports and the component
    sizes at every e stay those of the unrelabelled group."""
    G = relabelled(fam.builtin(spec), seed)
    assert (_reports(G), _component_sizes(G)) == _unrelabelled(spec)


def test_sweep_cap_reaches_the_central_count():
    """Where I n Z(G) = G has order above the default cap, the standalone
    central count still runs under the sweep's cap."""
    res = sweep(["Cyclic(3,5)", "AbelianProduct(27,9)"], cap=256)
    assert res.errors == []
    assert len(res.reports) == 10 and all(r.ok for r in res.reports)


def test_central_suite_rejects_a_partition_merging_two_central_images(c4):
    """C4 at e = 0: I = I n Z(G) = C2 and the true partition has the two
    components of the two characters of C2.  A partition that merges them
    puts two central images in one component."""
    ctx = get_context(c4)
    poset = CharacterPoset(ctx, 2, 0)
    IZ = compute_I(c4, 2, 0)
    partition = poset.components()
    assert len(IZ.elems) == partition.count == 2
    verify._central_suite(ctx, poset, partition, IZ)
    merged = ComponentPartition(1, (0,) * len(partition.roots), partition.peaks)
    with pytest.raises(CriterionViolation, match="not constant"):
        verify._central_suite(ctx, poset, merged, IZ)


_NOT_NORMAL_I = """
import sys
from charposet import cli, families, verify
from charposet import groups as gr
from charposet.errors import InternalCheckError

def not_normal(subs):
    G = subs[0].ambient
    whole = gr.whole_group(G)
    return next(S for S in gr.all_subgroups(G) if not gr.is_normal_in(S, whole))

verify.intersect_all = not_normal
try:
    verify.compute_I(families.builtin("Dihedral(8)"), 2, 0)
except InternalCheckError as err:
    print(err)
else:
    sys.exit("compute_I took a subgroup that is not normal")
sys.exit(0 if cli.main(["verify", "--group", "Dihedral(8)"]) == 5 else "verify did not exit 5")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
def test_compute_I_rejects_an_intersection_that_is_not_normal(flags):
    """An intersection replaced by a non-normal subgroup of D8 fails the
    normality certificate under G's generators: InternalCheckError, and
    verify exits 5, under plain Python and under python -O."""
    proc = run_script(flags, _NOT_NORMAL_I)
    assert proc.returncode == 0, proc.stderr
    assert "I is not normal in G" in proc.stdout
    assert "internal check failed" in proc.stderr


_CENTRAL_ELSEWHERE = """
import sys
from charposet import cli, families, verify
from charposet.characters import get_context
from charposet.errors import InternalCheckError

intersect = verify.intersect_all

def elsewhere(subs):
    # I n Z(G) swapped for another subgroup of its order: in C4 x C2 at
    # e = 1 that is an order-2 subgroup outside the cyclic subgroup <(1, 0)>.
    out = intersect(subs)
    ctx = get_context(out.ambient)
    if subs[-1] is not ctx.center:
        return out
    return next(S for S in ctx.lattice() if len(S.elems) == len(out.elems) and S != out)

verify.intersect_all = elsewhere
G = families.builtin("AbelianProduct(4,2)")
try:
    verify.theorem_report(G, 2, 1)
except InternalCheckError as err:
    print(err)
else:
    sys.exit("the central suite took a subgroup outside a poset subgroup")
code = cli.main(["verify", "--group", "AbelianProduct(4,2)", "--e", "1"])
sys.exit(0 if code == 5 else "verify did not exit 5")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
def test_a_central_subgroup_outside_a_poset_subgroup_exits_5(flags):
    """The central suite restricts through _restricted_rows, which checks
    containment: with I n Z(G) swapped for a subgroup outside a member of
    the poset, it raises InternalCheckError, and verify exits 5, under plain
    Python and under python -O."""
    proc = run_script(flags, _CENTRAL_ELSEWHERE)
    assert proc.returncode == 0, proc.stderr
    assert "K of order 2 is not inside H of order 4" in proc.stdout
    assert "internal check failed" in proc.stderr


_COUNT_TOO_HIGH = """
import sys
from charposet import cli
from charposet.poset import CharacterPoset, ComponentPartition

components = CharacterPoset.components

def inflated(self):
    part = components(self)
    return ComponentPartition(part.count + 5, part.roots, part.peaks)

CharacterPoset.components = inflated
sys.exit(cli.main(["verify", "--group", "Dihedral(8)", "--e", "1"]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
def test_a_count_outside_the_bounds_exits_5(flags):
    """A component count above |Irr(I)| raises BoundViolation, and verify
    exits 5, under plain Python and under python -O."""
    proc = run_script(flags, _COUNT_TOO_HIGH)
    assert proc.returncode == 5, proc.stderr
    assert proc.stderr == "internal check failed: D8 e=1: |IZ|=2 count=7 |Irr(I)|=2\n"


_CENTRAL_MAP_MISSES = """
import sys
from charposet import cli, verify

verify.central_index = lambda lookup, rows, d: 0
sys.exit(cli.main(["verify", "--group", "Quaternion(8)", "--e", "0"]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
def test_a_central_map_that_misses_a_linear_character_exits_5(flags):
    """Q8 at e = 0: I = I n Z(G) = Z(Q8) of order 2.  A central map that
    sends every node to the first linear character is constant on
    components but hits 1 of the 2, so the suite's surjectivity check
    raises CriterionViolation, and verify exits 5, under plain Python and
    under python -O."""
    proc = run_script(flags, _CENTRAL_MAP_MISSES)
    assert proc.returncode == 5, proc.stderr
    assert proc.stderr == (
        "internal check failed: Q8 e=0: central map hits 1 of 2 linear characters\n"
    )


def test_theorem_report_leaves_the_node_list_unbuilt(monkeypatch):
    """Union-find and the central suite work on node ids; no PosetNode is
    built for a report, including one that runs the central suite."""
    made = []

    class Spy(CharacterPoset):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(verify, "CharacterPoset", Spy)
    G = fam.builtin("Quaternion(8)")
    for e in valid_exponents(G):
        report = theorem_report(G, 2, e)
        assert report.ok and report.IZ_order > 1
    assert len(made) == 3
    assert all("nodes" not in poset.__dict__ for poset in made)
