"""Gamma function: difference equation, reflection, continuation, oracles."""

import math

import pytest

import oracles
from vandiejen.gamma import (
    functional_eq_constant,
    gamma_G,
    gamma_G1,
    gamma_ratio_shift,
)
from vandiejen.sfun import TARGET_REL_ERR, CaseKind, CaseParams, DomainError, s_eval

R, A = 1.1, 1.8


def make(label):
    return CaseParams(CaseKind.from_label(label), r=R, a=A)


CASE_LABELS = ("I", "II", "III", "IV")
ALPHAS = (0.8, 1.15)
POINTS = (0.3 + 0.1j, 0.7 - 0.08j, 1.1 + 0.05j, 0.45)


def test_constant_closed_forms():
    assert functional_eq_constant(make("I"), 0.7) == pytest.approx(1.0 / (1j * 0.7))
    assert functional_eq_constant(make("II"), 0.9) == pytest.approx(-2j * R)
    assert functional_eq_constant(make("III"), 0.9) == pytest.approx(-2j * math.pi / A)
    case = CaseParams(CaseKind.TRIGONOMETRIC, r=1.0)
    assert functional_eq_constant(case, 0.5) == pytest.approx(-2j)


def test_constant_elliptic_frozen_and_oracle():
    case = CaseParams(CaseKind.ELLIPTIC, r=1.0, a=2.0)
    c = functional_eq_constant(case, 0.7)
    assert c == pytest.approx(oracles.FE_CONSTANT_ELLIPTIC_R1_A2, rel=1e-12)
    assert c == pytest.approx(oracles.fe_constant_elliptic_oracle(), rel=1e-12)


def test_constant_sign_under_alpha_flip():
    for label in CASE_LABELS:
        case = make(label)
        assert functional_eq_constant(case, -0.9) == pytest.approx(
            -functional_eq_constant(case, 0.9), rel=1e-13)


def _uncached_constant(case, alpha):
    """The constant as computed before the elliptic product was cached."""
    alpha = complex(alpha)
    if alpha.real < 0:
        return -_uncached_constant(case, -alpha)
    if case.kind is CaseKind.RATIONAL:
        return 1.0 / (1j * alpha)
    if case.kind is CaseKind.TRIGONOMETRIC:
        return -2j * case.r
    if case.kind is CaseKind.HYPERBOLIC:
        return -2j * math.pi / case.a
    r, a = case.r, case.a
    count = max(2, int(math.ceil(-math.log(TARGET_REL_ERR) / (2 * r * a))) + 2)
    prod = 1.0
    for n in range(1, count + 1):
        prod *= 1.0 - math.exp(-2 * r * n * a)
    return -1j * case.r / prod


@pytest.mark.parametrize("case", [make(label) for label in CASE_LABELS]
                         + [CaseParams(CaseKind.ELLIPTIC, r=0.7, a=1.3)])
def test_constant_equals_the_uncached_formula(case):
    for alpha in (0.7, -0.7, 1.15 + 0.2j, -0.3 + 0.1j):
        # the second call takes the elliptic product from the cache
        for _ in range(2):
            assert functional_eq_constant(case, alpha) == _uncached_constant(case, alpha)


def _fe_residual(case, alpha, x):
    """Defect of ``G(x + i alpha/2) = c s(x) G(x - i alpha/2)`` over the
    larger of the two sides."""
    lhs = gamma_G(case, alpha, x + 0.5j * alpha)
    rhs = functional_eq_constant(case, alpha) * s_eval(case, x) * gamma_G(case, alpha, x - 0.5j * alpha)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs))


@pytest.mark.parametrize("label", CASE_LABELS)
def test_functional_equation(label):
    case = make(label)
    tol = 1e-9 if label == "IV" else 1e-10
    for alpha in ALPHAS:
        for x in POINTS:
            assert _fe_residual(case, alpha, x) < tol


@pytest.mark.parametrize("label", CASE_LABELS)
def test_functional_equation_negative_alpha(label):
    case = make(label)
    for x in POINTS[:2]:
        assert _fe_residual(case, -0.9, x) < 1e-9


@pytest.mark.parametrize("label", CASE_LABELS)
def test_reflection_is_exact(label):
    # continuation is defined through the reflection rule, so the identity
    # holds bit for bit, not merely to rounding
    case = make(label)
    for alpha in (0.8, 1.3):
        for x in POINTS:
            left = complex(gamma_G(case, -alpha, x))
            right = complex(gamma_G(case, alpha, -x))
            assert left == right


def test_rational_matches_euler_gamma():
    case = make("I")
    for alpha in ALPHAS:
        for x in POINTS:
            ours = complex(gamma_G1(case, alpha, x))
            ref = oracles.g1_rational_oracle(alpha, x)
            assert ours == pytest.approx(ref, rel=1e-12)


def test_trigonometric_matches_product_oracle():
    case = make("II")
    for alpha in ALPHAS:
        for x in POINTS:
            ours = complex(gamma_G1(case, alpha, x))
            ref = oracles.g1_trigonometric_oracle(alpha, x, r=R)
            assert ours == pytest.approx(ref, rel=1e-11)


def test_hyperbolic_matches_quadrature_oracle():
    case = make("III")
    for alpha, x in ((0.9, 0.3 + 0.1j), (1.2, 0.8 - 0.05j), (0.8, 0.45)):
        ours = complex(gamma_G1(case, alpha, x))
        ref = oracles.g1_hyperbolic_oracle(alpha, x, a=A)
        assert ours == pytest.approx(ref, rel=1e-11)


def test_hyperbolic_frozen_value():
    case = CaseParams(CaseKind.HYPERBOLIC, a=math.pi)
    got = complex(gamma_G1(case, 1.0, 0.2))
    assert got == pytest.approx(complex(oracles.G1_HYPERBOLIC_API_AL1_X02), rel=1e-12)


def test_elliptic_matches_double_product_oracle():
    case = CaseParams(CaseKind.ELLIPTIC, r=1.0, a=2.0)
    for alpha, x in ((0.7, 0.3 + 0.1j), (1.1, 0.6 - 0.15j)):
        ours = complex(gamma_G1(case, alpha, x))
        ref = oracles.g1_elliptic_oracle(alpha, x, r=1.0, a=2.0)
        assert ours == pytest.approx(ref, rel=1e-12)


def test_elliptic_frozen_value():
    case = CaseParams(CaseKind.ELLIPTIC, r=1.0, a=2.0)
    got = complex(gamma_G1(case, 0.7, 0.3 + 0.1j))
    assert got == pytest.approx(complex(oracles.G1_ELLIPTIC_R1_A2_AL07), rel=1e-12)


@pytest.mark.parametrize("label", CASE_LABELS)
def test_ratio_shift_matches_direct_quotient(label):
    case = make(label)
    alpha = 0.85
    z = 0.4 + 0.05j
    for steps in (1, 2, -1, -3):
        ratio = complex(gamma_ratio_shift(case, alpha, z, steps))
        direct = complex(gamma_G(case, alpha, z + steps * 1j * alpha)) / complex(
            gamma_G(case, alpha, z))
        assert ratio == pytest.approx(direct, rel=1e-9)


def test_ratio_shift_zero_steps_is_one():
    assert complex(gamma_ratio_shift(make("II"), 0.8, 0.3, 0)) == 1.0


def test_purely_imaginary_alpha_rejected():
    with pytest.raises(DomainError):
        gamma_G(make("II"), 1j, 0.3)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, complex(0.7, math.nan)])
def test_alpha_that_is_not_finite_is_rejected(alpha):
    with pytest.raises(DomainError, match="alpha must be finite"):
        gamma_G(make("II"), alpha, 0.3)


def test_functional_equation_ties_constant_to_s():
    # the quotient G(x+ia/2)/G(x-ia/2) reproduces c * s(x) for fresh points,
    # pinning the sign convention of the constant
    case = make("III")
    alpha = 1.05
    x = 0.52 + 0.07j
    up = complex(gamma_G(case, alpha, x + 0.5j * alpha))
    dn = complex(gamma_G(case, alpha, x - 0.5j * alpha))
    c = functional_eq_constant(case, alpha)
    assert up / dn == pytest.approx(c * complex(s_eval(case, x)), rel=1e-10)
