"""charposet: exact character theory of small p-groups and connectivity of
their subgroup-character posets.

Nodes of the poset are pairs (H, chi) with |H| >= p^(e+1) and chi in Irr(H);
(K, psi) <= (H, chi) iff K <= H and psi occurs in chi restricted to K.  The
package computes the poset's connected components exactly, constructs
explicit connectivity witness chains, and verifies
|I n Z(G)| <= #components <= |Irr(I)| together with
"connected iff I is trivial", where I is the intersection of all subgroups
of order p^(e+1).
"""

from .cyclotomic import CycInt, as_integer, conjugate, exact_div_int, zeta_pow
from .errors import CharposetError
from .families import builtin, builtin_catalog
from .groups import (
    AbelianDecomp,
    ConjClasses,
    GroupTable,
    Subgroup,
    abelian_decomposition,
    all_subgroups,
    center,
    conjugacy_classes,
    derived_subgroup,
    double_cosets,
    from_cayley,
    from_permutations,
    intersect_all,
    quotient,
    subgroups_of_order,
    whole_group,
)
from .characters import (
    ClassFunction,
    conjugate_character,
    decompose,
    frobenius_check,
    get_context,
    induce,
    inner_product,
    irr,
    linear_characters,
    mackey_check,
    restrict,
)
from .poset import (
    CharacterPoset,
    ComponentPartition,
    PosetNode,
    WitnessChain,
    build_poset,
    central_poset_map,
)
from .verify import TheoremReport, compute_I, sweep, theorem_report

__version__ = "0.1.0"

__all__ = [
    "AbelianDecomp",
    "CharacterPoset",
    "CharposetError",
    "ClassFunction",
    "ComponentPartition",
    "ConjClasses",
    "CycInt",
    "GroupTable",
    "PosetNode",
    "Subgroup",
    "TheoremReport",
    "WitnessChain",
    "abelian_decomposition",
    "all_subgroups",
    "as_integer",
    "build_poset",
    "builtin",
    "builtin_catalog",
    "center",
    "central_poset_map",
    "compute_I",
    "conjugacy_classes",
    "conjugate",
    "conjugate_character",
    "decompose",
    "derived_subgroup",
    "double_cosets",
    "exact_div_int",
    "frobenius_check",
    "from_cayley",
    "from_permutations",
    "get_context",
    "induce",
    "inner_product",
    "intersect_all",
    "irr",
    "linear_characters",
    "mackey_check",
    "quotient",
    "restrict",
    "subgroups_of_order",
    "sweep",
    "theorem_report",
    "whole_group",
    "zeta_pow",
]
