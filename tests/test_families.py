import hashlib
import json

import pytest

from charposet import families as fam
from charposet import groups as gr
from charposet.errors import InternalCheckError, OrderCapExceeded, UnknownFamily


def test_cyclic_c8():
    G = fam.builtin("Cyclic(2,3)")
    assert G.order == 8 and G.exponent == 8 and G.name == "C8"


def test_quaternion_unique_involution():
    for order in (8, 16, 32):
        G = fam.quaternion(order)
        assert sum(1 for o in G.elem_order if o == 2) == 1


def test_dihedral_involutions():
    for order in (8, 16, 32):
        G = fam.dihedral(order)
        # m/2 reflections plus the central rotation
        assert sum(1 for o in G.elem_order if o == 2) == order // 2 + 1


def test_dihedral_4_is_klein():
    G = fam.dihedral(4)
    assert G.order == 4 and G.exponent == 2


def test_semidihedral():
    G = fam.semidihedral(16)
    assert G.order == 16 and G.exponent == 8
    Z = gr.center(gr.whole_group(G))
    assert len(Z) == 2


def test_modular():
    G = fam.modular(2, 4)
    assert G.order == 16 and G.exponent == 8
    Z = gr.center(gr.whole_group(G))
    assert len(Z) == 4  # modular groups have a large center


def test_extraspecial_heisenberg():
    G = fam.builtin("Extraspecial(3,+)")
    assert G.order == 27 and G.exponent == 3
    W = gr.whole_group(G)
    Z = gr.center(W)
    D = gr.derived_subgroup(W)
    assert len(Z) == 3 and Z.elems == D.elems


def test_extraspecial_minus():
    G = fam.builtin("Extraspecial(3,-)")
    assert G.order == 27 and G.exponent == 9
    assert len(gr.center(gr.whole_group(G))) == 3


def test_extraspecial_two_groups():
    assert fam.extraspecial(2, "+").table == fam.dihedral(8).table
    assert fam.extraspecial(2, "-").table == fam.quaternion(8).table


def test_each_extraspecial_table_is_validated_once(monkeypatch):
    """Extraspecial(2,+-) and Extraspecial(p,-) are built under their ES
    names by the metacyclic builder, so from_cayley (with Light's test) runs
    once per group, not once more to rename a D8, Q8 or Modular(p,3)."""
    names = []
    from_cayley = fam.from_cayley

    def spy(table, name):
        names.append(name)
        return from_cayley(table, name)

    monkeypatch.setattr(fam, "from_cayley", spy)
    for p in (2, 3, 5):
        for sign in "+-":
            assert fam.extraspecial(p, sign).name == f"ES{p}{sign}"
    assert names == ["ES2+", "ES2-", "ES3+", "ES3-", "ES5+", "ES5-"]


def test_abelian_product_names_and_orders():
    G = fam.builtin("AbelianProduct(4,2)")
    assert G.order == 8 and G.exponent == 4 and G.name == "C4xC2"


def test_direct_product():
    G = fam.builtin("DirectProduct(Quaternion(8),Cyclic(2,1))")
    assert G.order == 16
    assert len(gr.center(gr.whole_group(G))) == 4
    nested = fam.builtin("DirectProduct(DirectProduct(Cyclic(2,1),Cyclic(2,1)),Cyclic(2,1))")
    assert nested.order == 8 and nested.exponent == 2


def test_unknown_family_errors():
    for bad in [
        "Nope(2)",
        "Cyclic(4,2)",  # not prime
        "Cyclic(2)",
        "Dihedral(12)",
        "Dihedral(2)",
        "Quaternion(4)",
        "Semidihedral(8)",
        "Modular(2,2)",
        "Extraspecial(4,+)",
        "Extraspecial(3,*)",
        "AbelianProduct()",
        "Cyclic(2,x)",
        "noparens",
        "DirectProduct(Cyclic(2,1))",
        "DirectProduct(Cyclic(2,1),Nope(2))",
        "Cyclic(2,1,1)",
        "AbelianProduct(4,x)",
        "Extraspecial(x,+)",
        "Extraspecial(3)",
        "Cyclic(2,(1)",
    ]:
        with pytest.raises(UnknownFamily):
            fam.builtin(bad)


def test_order_cap():
    with pytest.raises(OrderCapExceeded):
        fam.builtin("Quaternion(256)")
    assert fam.builtin("Quaternion(256)", cap=256).order == 256


@pytest.mark.parametrize("p,cap", [(2, 64), (3, 81), (5, 25)])
def test_catalog_round_trips(p, cap):
    specs = fam.builtin_catalog(p, cap)
    assert specs
    seen = set()
    for spec in specs:
        G = fam.builtin(spec)
        assert G.order <= cap
        assert gr.require_p_group(G) == p
        assert G.name not in seen  # catalog entries are distinct groups
        seen.add(G.name)


def test_catalog_orders_covered():
    specs = fam.builtin_catalog(2, 64)
    orders = {fam.builtin(s).order for s in specs}
    assert orders == {2, 4, 8, 16, 32, 64}


def test_catalog_tables_are_pinned():
    """Every catalog group of order <= 256 keeps its name and its table,
    entry for entry: the element encoding is part of every exported id."""
    digest = hashlib.sha256()
    count = 0
    for p, max_order in ((2, 128), (3, 243), (5, 125)):
        for spec in fam.builtin_catalog(p, max_order):
            G = fam.builtin(spec, 256)
            digest.update(json.dumps([spec, G.name, G.table]).encode() + b"\n")
            count += 1
    assert count == 133
    assert digest.hexdigest() == (
        "67307ed6e7715513ce8a7daea758152705c0e1247974743ce8d61e6f5a5cd6a8"
    )


def test_a_twist_of_the_wrong_order_is_checked():
    """<r, s | r^4, s^2, s r s^-1 = r^2>: 2 is no unit mod 4, so no power
    of it is 1 and the twist check of the metacyclic builder raises."""
    with pytest.raises(InternalCheckError, match="twist 2 has no order dividing 2 mod 4"):
        fam._two_generator_metacyclic(4, 2, 2, 0, "bad", 128)
