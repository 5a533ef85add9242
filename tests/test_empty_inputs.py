"""Every evaluator maps an empty array to an empty array of its own dtype,
on every case, in float64 and under ``precision_dps``."""

import numpy as np
import pytest

from vandiejen.gamma import functional_residual, gamma_G, gamma_G1, gamma_ratio_shift
from vandiejen.sfun import (
    CaseKind,
    CaseParams,
    TruncationPolicy,
    duplication_residual,
    lattice_distance,
    quasi_factor,
    require_regular,
    s_eval,
    theta_eval,
    theta_product,
)

FLOAT = TruncationPolicy()
MP = TruncationPolicy(precision_dps=20)
EMPTY = np.array([], dtype=np.complex128)

CASE_EVALUATORS = {
    "s_eval": (lambda case, x, policy: s_eval(case, x, policy), np.complex128),
    "gamma_G": (lambda case, x, policy: gamma_G(case, 0.8, x, policy), np.complex128),
    "gamma_G/-alpha": (lambda case, x, policy: gamma_G(case, -0.8, x, policy), np.complex128),
    "gamma_G1": (lambda case, x, policy: gamma_G1(case, 0.8, x, policy), np.complex128),
    "functional_residual": (lambda case, x, policy: functional_residual(case, 0.8, x, policy),
                            np.float64),
    "gamma_ratio_shift/up": (lambda case, x, policy: gamma_ratio_shift(case, 0.8, x, 2, policy),
                             np.complex128),
    "gamma_ratio_shift/down": (lambda case, x, policy: gamma_ratio_shift(case, 0.8, x, -2, policy),
                               np.complex128),
    "quasi_factor": (lambda case, x, policy: quasi_factor(case, x, case.rho, policy),
                     np.complex128),
    "lattice_distance": (lambda case, x, policy: lattice_distance(case, x), np.float64),
    "duplication_residual": (lambda case, x, policy: duplication_residual(case, x, policy),
                             np.float64),
}


@pytest.mark.parametrize("policy", [FLOAT, MP], ids=["float", "mp"])
@pytest.mark.parametrize("name", sorted(CASE_EVALUATORS))
@pytest.mark.parametrize("label", ["I", "II", "III", "IV"])
def test_case_evaluators_map_an_empty_array_to_an_empty_array(label, name, policy):
    case = CaseParams(CaseKind.from_label(label), r=1.1, a=1.8)
    evaluate, dtype = CASE_EVALUATORS[name]
    out = evaluate(case, EMPTY, policy)
    assert isinstance(out, np.ndarray)
    assert out.shape == (0,) and out.dtype == dtype


@pytest.mark.parametrize("label", ["I", "II", "III", "IV"])
def test_an_empty_array_is_regular(label):
    require_regular(CaseParams(CaseKind.from_label(label), r=1.1, a=1.8), EMPTY)


@pytest.mark.parametrize("policy", [FLOAT, MP], ids=["float", "mp"])
@pytest.mark.parametrize("theta", [theta_eval, theta_product])
@pytest.mark.parametrize("shape", [(0,), (0, 3)])
def test_theta_maps_an_empty_array_to_an_empty_array(theta, shape, policy):
    out = theta(np.zeros(shape, dtype=np.complex128), q=0.3, policy=policy)
    assert out.shape == shape and out.dtype == np.complex128
