"""Computational toolkit for finite skew braces.

Groups live on indexed Cayley tables; braces carry two group operations on
one carrier, either table-backed or formula-backed on a product of
prime-field vector spaces. On top of that: every classical series (left,
right, mixed-index, socle, annihilator, lower central), ideal machinery with
the commutator of ideals, nilpotency classification with the comparison
theorems as executable checks, exhaustive enumeration, and a CLI.
"""

from .braces import (
    DEFAULT_SEED,
    SkewBrace,
    TableBrace,
    build_almost_trivial,
    build_from_radical_ring,
    build_trivial,
    check_identities,
    validate_brace,
)
from .catalog import (
    brace_from_spec,
    make_bc_brace,
    make_counterexample_F,
    make_pq_brace,
    spec_of_tables,
)
from .classify import (
    NilpotencyProfile,
    check_cube_right_nilpotency,
    check_equivalence_theorems,
    check_fitting_theorem,
    check_inclusion,
    check_inclusion_sweep,
    enumerate_ideals,
    fitting_ideal,
    is_rel_ann_nilpotent,
    nilpotency_profile,
    verify_counterexample_F,
)
from .enumeration import automorphism_group, enumerate_braces
from .formula import BCBrace, materialize_table_brace, validate_formula_brace
from .groups import (
    ElementSet,
    GroupTable,
    SeriesChain,
    builtin_group,
    center,
    check_group_central_inclusion,
    commutator_set,
    cyclic,
    dihedral,
    direct_product,
    is_normal,
    lower_central_series,
    quaternion8,
    quotient_group,
    subgroup_closure,
    symmetric,
    upper_central_series,
    validate_group,
)
from .series import (
    annihilator,
    annihilator_series,
    gamma_prime_series,
    gamma_series,
    left_series,
    relative_gamma_series,
    right_series,
    smoktunowicz_series,
    socle,
    socle_series,
    socle_quotient_tower,
)
from .substructures import (
    coset_agreement,
    huq_commutator,
    ideal_closure,
    is_ideal,
    is_left_ideal,
    is_subbrace,
    quotient_brace,
    star_subgroup,
)

__all__ = [name for name in dir() if not name.startswith("_")]
