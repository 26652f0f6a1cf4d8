"""Solvable two-variable discrete-time dynamical systems.

Step maps, closed-form initial-value solvers, and a numerical verification
harness for the families of algebraically solvable two-variable recursions
built on polynomial zero/coefficient bridges.
"""

from .errors import (
    ConfigError,
    NonIntegerExponentError,
    NumericError,
    NumericOverflowError,
    QRMismatchError,
    SingularChangeError,
    SolvmapsError,
    ZeroToNegativePowerError,
)
from .numeric import (
    DEDUPE_TOL,
    DEFAULT_TOL,
    MINUS,
    PLUS,
    SIGNS,
    Powers,
    Sign,
    Tolerance,
    approx_eq,
    cpow,
    pair_eq_unordered,
    sqrt_branch,
)
from .polybridge import (
    DistinctZeroPair,
    MonicCubic,
    ZeroPair,
    cubic_from_zeros,
    cubic_zeros_branch,
    quad_from_zeros,
    quad_zeros,
    y3_from_y12,
)
from .solver import (
    BranchEntry,
    BranchSolution,
    solve_conjugated,
    solve_cubic_family,
    solve_generalized,
    solve_quadratic_family,
    solve_sqrt_cubic,
    solve_sqrt_quadratic,
    solve_y,
)
from .stepmaps import (
    CubicFamilyParams,
    GeneralizedParams,
    K1CoeffTable,
    LinearChange,
    QuadraticFamilyParams,
    conda_residual,
    double_step_cubic,
    k1_coeff_table,
    step_conjugated,
    step_cubic_family,
    step_generalized,
    step_quadratic_family,
    step_sqrt_cubic,
    step_sqrt_quadratic,
    yz_forward,
    yz_invert,
)
from .verify import (
    SUITE_NAMES,
    VerifyReport,
    enumerate_sign_orbits,
    run_verify,
)
from .ysystem import (
    OrbitPowers,
    YParams,
    YState,
    u_exponent,
    y_closed,
    y_closed_special,
    y_iterate,
    y_step,
)

__version__ = "0.1.0"
