"""Exact toolkit for multiplicative actions of finite integer matrix groups.

Given a finite subgroup G of GL_n(Z) acting on the Laurent polynomial ring
F_p[X_1^{+-1}, ..., X_n^{+-1}] by permuting monomials, the package computes
fixed and moved sublattices, subgroup structure, mod-p group cohomology,
realizable stabilizers, and renders a certified Cohen-Macaulay verdict for
the invariant ring.
"""

from .action import (
    IsotropyReport,
    height_ir,
    isotropy_subgroups,
    mu_action,
    stabilizer,
)
from .classify import (
    ClassifyOptions,
    InconsistentRulesError,
    Verdict,
    applicable_rules,
    classify,
    verify_certificate,
)
from .cohomology import (
    INFINITY,
    FpResolution,
    MuValue,
    h_dim,
    mu_p,
    mu_p_formula,
    resolution,
)
from .corpus import CorpusEntry, classification_cases, corpus_entry, corpus_group, corpus_names
from .errors import BoundExceededError, NonUnimodularError
from .intlinalg import (
    Sublattice,
    det,
    fixed_lattice,
    hnf_columns,
    identity_matrix,
    intmat,
    kernel_basis,
    moved_lattice,
    quotient_invariants,
    rank,
    snf,
    unimodular_inverse,
)
from .laurent import (
    BallDecomposition,
    LaurentPoly,
    act,
    check_g1_decomposition,
    invariant_dim_in_ball,
    is_invariant,
    orbit_sum,
)
from .matgroup import (
    ElementProfile,
    MatGroup,
    element_profiles,
    generate,
    is_fixed_point_free,
    op_core,
    subgroup_conjugacy_classes,
    subgroup_structure,
    subgroups,
    sylow,
    trivial_group,
)

__version__ = "0.1.0"

__all__ = [
    "BallDecomposition", "BoundExceededError", "ClassifyOptions", "CorpusEntry",
    "ElementProfile", "FpResolution", "INFINITY",
    "InconsistentRulesError", "IsotropyReport", "LaurentPoly", "MatGroup",
    "MuValue", "NonUnimodularError", "Sublattice", "Verdict", "act",
    "applicable_rules", "classification_cases", "classify",
    "check_g1_decomposition", "corpus_entry", "corpus_group", "corpus_names",
    "det", "element_profiles", "fixed_lattice", "generate", "h_dim", "height_ir",
    "hnf_columns", "identity_matrix", "intmat",
    "invariant_dim_in_ball", "is_fixed_point_free", "is_invariant",
    "isotropy_subgroups", "kernel_basis", "moved_lattice", "mu_action", "mu_p",
    "mu_p_formula", "op_core", "orbit_sum", "quotient_invariants", "rank",
    "resolution", "snf", "stabilizer", "subgroup_conjugacy_classes",
    "subgroup_structure", "subgroups", "sylow",
    "trivial_group", "unimodular_inverse", "verify_certificate",
]
