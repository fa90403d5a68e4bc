"""Workbench for computing with finite algebras, prevarieties generated by
them, and the associated free constructions: canonical free algebras and
coproducts in SP(Y), compatibility and independence testing, normal forms
for two tag varieties, shortlex Knuth-Bendix completion, and amalgamated
free products of finite groups."""

from .algcore import (
    AlgebraError,
    App,
    Budget,
    BudgetExceededError,
    Congruence,
    FiniteAlgebra,
    Homomorphism,
    Signature,
    Var,
    all_congruences,
    congruence_generated,
    cyclic_unary,
    direct_product,
    disjoint_union,
    empty_algebra,
    eval_term,
    generated_subalgebra,
    is_subdirectly_irreducible,
    quotient,
    trivial_algebra,
)
from .homsearch import (
    MembershipError,
    find_homomorphisms,
    in_sp,
    sp_embedding,
)
from .prevariety import (
    CoproductResult,
    PrevarietyCtx,
    QuasiIdentity,
    chain_independence,
    check_amalgamation_bounded,
    constants_si_census,
    coproduct,
    free_algebra,
    has_trivial_subalgebra,
    is_comfortable,
    is_compatible,
    is_coproduct,
    is_independent,
    is_p_subdirectly_irreducible,
    minimum_compatible_cover,
    parse_quasi_identity,
    quasi_identity_holds,
    sp,
    subfamily_independence_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
