"""Difference operators of Koornwinder-van Diejen type, their deformations,
eigenfunctions, kernel functions, and a numerical certification engine.

The package is organised bottom-up:

* :mod:`vandiejen.sfun` - the four building-block functions (rational,
  trigonometric, hyperbolic, elliptic) with their lattice data.
* :mod:`vandiejen.gamma` - the matching gamma-type functions solving the
  first-order difference equation whose coefficient is ``s``.
* :mod:`vandiejen.operators` - coefficient functions, the conjugated
  operator action, exact summation identities, and closed-form constants.
* :mod:`vandiejen.eigenfunctions` - square-root branch tracking, joint
  eigenfunctions, ground states, and kernel functions.
* :mod:`vandiejen.verify` - residual computations, admissible-point
  sampling, negative controls, and machine-readable reports.
* :mod:`vandiejen.cli` - the ``vandiejen`` command-line front end.
"""

from .sfun import (
    CaseKind,
    CaseParams,
    ConvergenceError,
    DomainError,
    PoleProximityError,
)
from .verify import (
    ResidualReport,
    SampleResult,
    run_identity,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "CaseKind",
    "CaseParams",
    "DomainError",
    "PoleProximityError",
    "ConvergenceError",
    "ResidualReport",
    "SampleResult",
    "run_identity",
    "run_suite",
    "__version__",
]
