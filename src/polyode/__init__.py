"""Exact tools for polynomial solutions of second-order linear ODEs with
polynomial coefficients: criteria, constructions, parameter constraints,
Heun-family adapters, case studies, and certified real-root isolation."""

from .aim import (
    AimState,
    NotSecondOrderError,
    aim_delta,
    aim_init,
    aim_iterate,
    aim_test_polynomial,
    default_iteration_cap,
)
from .applications import (
    BadDegreeError,
    CoulombProblem,
    DegenerateParametersError,
    HyperSolution,
    chhajlany_analyze,
    chhajlany_spec,
    coulomb_alpha,
    coulomb_constraint,
    coulomb_constraint_for_k,
    coulomb_constraint_in_k,
    coulomb_energy,
    coulomb_equation,
    coulomb_spec,
    davidson_eigenvalue,
    davidson_spec,
    hyper_build,
    hyper_equation_spec,
    hyper_verify,
    krylov_robnik_analyze,
    krylov_robnik_spec,
)
from .criteria import (
    AmbiguousNullspaceError,
    CriterionMatrix,
    DegenerateDenominatorError,
    EquationSpec,
    NoNullspaceError,
    PolySolution,
    build_criterion_matrix,
    classical_polynomials,
    classical_recurrence_step,
    classical_seed,
    classical_tau,
    construct_solution,
    degree_condition,
    degree_condition_effective,
    delta_determinant,
    embed_classical,
    verify_solution,
)
from .exactalg import (
    NEG_INFINITY,
    NotDivisibleError,
    UPoly,
    as_rational,
    banded_minors,
    bareiss_determinant,
    poly_gcd,
    squarefree_part,
)
from .heun import (
    FuchsianViolationError,
    biconfluent_to_spec,
    confluent_to_spec,
    general_to_spec,
)
from .solve import (
    NotIsolatingError,
    RootReport,
    ZeroPolynomialError,
    analyze_roots,
    isolate_real_roots,
    rational_roots,
    refine_root,
    sturm_chain,
)

__version__ = "0.1.0"
