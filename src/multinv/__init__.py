"""Exact toolkit for multiplicative actions of finite integer matrix groups.

Given a finite subgroup G of GL_n(Z) acting on the Laurent polynomial ring
F_p[X_1^{+-1}, ..., X_n^{+-1}] by permuting monomials, the package computes
fixed and moved sublattices, subgroup structure, mod-p group cohomology,
realizable stabilizers, and renders a certified Cohen-Macaulay verdict for
the invariant ring.
"""

from .action import (
    IsotropyReport,
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
    cohomology_table,
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
    identity_matrix,
    intmat,
    moved_lattice,
    quotient_invariants,
    snf,
    unimodular_inverse,
)
from .laurent import BallDecomposition, check_g1_decomposition
from .matgroup import (
    MatGroup,
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
    "FpResolution", "INFINITY", "InconsistentRulesError", "IsotropyReport", "MatGroup",
    "MuValue", "NonUnimodularError", "Sublattice", "Verdict", "applicable_rules",
    "classification_cases", "classify", "check_g1_decomposition", "cohomology_table",
    "corpus_entry", "corpus_group", "corpus_names", "det", "fixed_lattice", "generate",
    "identity_matrix", "intmat", "is_fixed_point_free", "isotropy_subgroups",
    "moved_lattice", "mu_action", "mu_p", "mu_p_formula", "op_core",
    "quotient_invariants", "resolution", "snf", "stabilizer",
    "subgroup_conjugacy_classes", "subgroup_structure", "subgroups", "sylow",
    "trivial_group", "unimodular_inverse", "verify_certificate",
]
