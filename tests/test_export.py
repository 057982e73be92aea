import enum
import hashlib
import json
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charposet import families
from charposet.characters import get_context
from charposet.export import canonical_json, irr_json

from conftest import cyc_to_json, relabelled


def stdlib(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def outcome(write, obj):
    """What write gives for obj: its text, or the class of what it raised."""
    try:
        return write(obj)
    except Exception as err:  # noqa: BLE001 - the class is the outcome
        return type(err)


scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
)
any_keys = st.none() | st.booleans() | st.integers() | st.floats() | st.text()


def nested_sharing(c):
    """A shared list holding a shared object, as irr_json's characters lists
    hold character dicts that hold value dicts: value thrice in row, row
    twice at one depth and once more below."""
    value = {"v": c}
    row = [value, value, value]
    return [row, row, [row, [value]]]


def containers(children):
    return (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.lists(st.integers(), max_size=8)
        | st.dictionaries(st.text(), children, max_size=5)
        | st.dictionaries(st.integers(), children, max_size=5)
        | st.dictionaries(any_keys, children, max_size=3)
        # one object at two depths and twice at one depth
        | children.map(lambda c: [c, [c], {"a": c, "b": c}])
        # one object four times at one depth
        | children.map(lambda c: [c, c, c, c])
        | children.map(nested_sharing)
    )


documents = st.recursive(scalars, containers, max_leaves=40)


@pytest.mark.slow
@settings(max_examples=400, deadline=None)
@given(documents)
def test_canonical_json_matches_stdlib(doc):
    assert outcome(canonical_json, doc) == outcome(stdlib, doc)


class Small(enum.IntEnum):
    TWO = 2


_SHARED_LIST = [1, [2, 3]]
_SHARED_DICT = {"n": 4, "coeffs": [1, 0]}
_SPANNED = {"k": [1, 2]}


@pytest.mark.parametrize(
    "doc",
    [
        {"top": _SHARED_LIST, "deep": {"inner": _SHARED_LIST}},
        [_SHARED_DICT, _SHARED_DICT, {"again": [_SHARED_DICT]}],
        # met at depth 2, then at depth 1, then at 2 again: its span at depth 2 is joined
        [[_SPANNED], _SPANNED, [_SPANNED], [[_SPANNED]]],
        [True, 1],
        [1, False, None],
        [Small.TWO, 1],
        {"a": (1, 2)},
        (1, (2, 3), []),
        {1: "x", 2: "y"},
        [{None: 0}, {False: 0, 1.5: 2, 3: 3}],
        {"nan": [math.nan, math.inf, -math.inf, -0.0, 1e300]},
        ["é☃\x00\x1f\"\\", "\U0001f600"],
        {},
        [],
        [[]],
        [{}],
        {"a": {}, "b": [], "c": [{}, []]},
        "plain",
        7,
        None,
    ],
)
def test_canonical_json_explicit_cases(doc):
    assert canonical_json(doc) == stdlib(doc)


@pytest.mark.parametrize("doc", [{1: 0, "a": 1}, {(1,): 0}, [set()], object(), {"a": [b"x"]}])
def test_canonical_json_raises_like_stdlib(doc):
    with pytest.raises(TypeError):
        stdlib(doc)
    with pytest.raises(TypeError):
        canonical_json(doc)


def test_canonical_json_peaks_below_twice_its_output():
    """The writer holds one list of fragments and joins it once: its peak
    memory on the irr document of D8x(C2)^3 (about 10 MB of text) stays
    under twice the text, where a writer returning the text of every
    container holds one copy per level of nesting."""
    doc = irr_json(families.builtin("DirectProduct(Dihedral(8),ElemAbelian(2,3))"), True)
    tracemalloc.start()
    try:
        text = canonical_json(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * len(text), (peak, len(text))


# sha256 of canonical_json(irr_json(G, True)), as written by json.dumps(...,
# sort_keys=True, indent=2) from CycInt values before the writer and the row
# route replaced them.
_IRR_DIGESTS = {
    "Quaternion(8)": "4842380e5ed5c359898f0ec0631a3a74e0ee43eca6450ebccdc8f92c36b53ae8",
    "DirectProduct(Dihedral(8),Cyclic(2,1))": "745cb66b474f2c075210a6db36ebe5d4a69dbaaa70f14ccfacd7ed88d3943edf",
    "Modular(3,4)": "c47af97f87fa42a6221b6a826815372077687ff10a3549bbda17086ccae5ffaf",
    "Extraspecial(5,+)": "e1ade4196873e6e8e534f10054063f47ef6c43b3947665c5b7c3687aa2f4a515",
    "DirectProduct(Dihedral(8),Dihedral(8))": "b89e43c46162b6a35b1b2610777b0c4d5ddc4dfdcfe0c2d4eee5d493c2e58fb2",
    "DirectProduct(Dihedral(8),Cyclic(2,1))-shuffled3": "cb6ff872ab601c7464e34ff4d552b119ada939765152b3ba5ccf866f32d5e800",
}


def test_irr_artifacts_are_pinned():
    for key, want in _IRR_DIGESTS.items():
        spec, _, seed = key.partition("-shuffled")
        G = families.builtin(spec)
        if seed:
            G = relabelled(G, int(seed))
        doc = irr_json(G, True)
        text = canonical_json(doc)
        assert text == stdlib(doc), key
        assert hashlib.sha256(text.encode()).hexdigest() == want, key

        ctx = get_context(G)
        via_cycint = [
            [{"degree": ch.degree, "values": [cyc_to_json(v) for v in ch.values]} for ch in ctx.irr(S)]
            for S in ctx.lattice()
        ]
        assert [t["characters"] for t in doc["tables"]] == via_cycint, key


def test_irr_json_shares_one_object_per_distinct_row_and_table():
    G = families.builtin("DirectProduct(Dihedral(8),Dihedral(8))")
    ctx = get_context(G)
    doc = irr_json(G, True)
    tables = doc["tables"]
    keys = [tuple(ch.rows for ch in ctx.irr(S)) for S in ctx.lattice()]
    chars = [c for t in tables for c in t["characters"]]
    rows = {r for key in keys for r in key}
    assert len({id(c) for c in chars}) == len(rows) < len(chars)
    values = [v for c in chars for v in c["values"]]
    assert len({id(v) for v in values}) == len({x for r in rows for x in r})
    characters_of = {}
    for t, key in zip(tables, keys):
        assert characters_of.setdefault(key, t["characters"]) is t["characters"]
    assert len(characters_of) < len(tables)
    assert canonical_json(doc) == stdlib(doc)


# sha256 of canonical_json(irr_json(G)) for the whole groups of the widest
# conductors in reach, 64 and 81, where a class value has 32 and 54
# power-basis coordinates; taken from tuple-of-coordinates rows, before
# class values were packed into one int each.
_WIDE_IRR_DIGESTS = {
    ("Dihedral(128)", 128): "c7c90a945415d90e480f7ad4fe5167e496e31335e5609d6fc39ee0d69fbb3840",
    ("Modular(3,5)", 256): "5a684d06952a8e89786c418c77587fbd184e598844d3a0370d16387affb5e9bf",
}


@pytest.mark.parametrize("spec, cap", list(_WIDE_IRR_DIGESTS))
def test_irr_of_the_widest_conductors_is_pinned(spec, cap):
    G = families.builtin(spec, cap)
    get_context(G, order_cap=cap)
    assert G.exponent in (64, 81)
    doc = irr_json(G)
    text = canonical_json(doc)
    assert hashlib.sha256(text.encode()).hexdigest() == _WIDE_IRR_DIGESTS[spec, cap], spec
    via_cycint = [
        {"degree": ch.degree, "values": [cyc_to_json(v) for v in ch.values]}
        for ch in get_context(G).irr(get_context(G).whole)
    ]
    assert doc["tables"][0]["characters"] == via_cycint, spec
