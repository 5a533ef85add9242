"""An mpmath argument takes the mpmath route: s, theta and G come back as
mpmath numbers at the working precision.  At 30 digits they agree with
40-digit references built here from mpmath's own functions (jtheta, gamma,
qp, quad) to 1e-25 relative.  Rounded to complex128 they agree with the
float route to its target relative error, and their error falls with the
working precision: the term counts follow mpmath.eps, not that target."""

import mpmath as mp
import pytest

from vandiejen.gamma import gamma_G, gamma_G1
from vandiejen.sfun import (TARGET_REL_ERR, CaseKind, CaseParams, ConvergenceError, s_eval,
                            theta_eval, theta_product)

CASES = {label: CaseParams(CaseKind.from_label(label), r=1.1, a=1.8)
         for label in ("I", "II", "III", "IV")}
CASES["IV/r=1,a=2"] = CaseParams(CaseKind.ELLIPTIC, r=1.0, a=2.0)
# (alpha, x): each hyperbolic point takes one cosh step (up or down) before
# its integral, and sits where the unstepped integral of the reference
# still decays at rate 0.68 or better
POINTS = ((0.8, 0.37 + 0.11j), (0.8, 0.5 + 1.5j), (-0.9 - 0.2j, 0.37 + 0.11j),
          (-0.9 - 0.2j, -1.2 + 0.1j))
REL = 1e-25


def _rel(got, ref):
    assert isinstance(got, mp.mpc)
    with mp.workdps(40):
        return abs(got - ref) / abs(ref)


def _s_ref(case, x):
    r, a = mp.mpf(case.r), mp.mpf(case.a)
    kind = case.kind
    if kind is CaseKind.RATIONAL:
        return x
    if kind is CaseKind.TRIGONOMETRIC:
        return mp.sin(r * x) / r
    if kind is CaseKind.HYPERBOLIC:
        return a / mp.pi * mp.sinh(mp.pi * x / a)
    return mp.exp(r * a / 4) * mp.jtheta(1, r * x, mp.exp(-r * a)) / r


def _g_ref(case, alpha, x):
    """G(x; alpha) through G(x; alpha) = G_1(-x; -alpha) and a form of G_1
    that the package does not use."""
    if mp.re(alpha) < 0:
        alpha, x = -alpha, -x
    r, a = mp.mpf(case.r), mp.mpf(case.a)
    kind = case.kind
    pref = mp.exp(-r * x * x / (2 * alpha))
    if kind is CaseKind.RATIONAL:
        return mp.gamma(mp.mpf(1) / 2 + x / (1j * alpha))
    if kind is CaseKind.TRIGONOMETRIC:
        return pref / mp.qp(mp.exp(-r * alpha + 2j * r * x), mp.exp(-2 * r * alpha))
    w = x - 1j * a / 2
    if kind is CaseKind.HYPERBOLIC:
        # the integral at w itself, with no cosh steps; Gauss-Legendre
        # nodes near 0, where the integrand cancels, get 30 extra digits
        def f(y):
            return (mp.sin(2 * w * y) / (2 * mp.sinh(a * y) * mp.sinh(alpha * y))
                    - w / (a * alpha * y)) / y

        with mp.extradps(30):
            head = mp.quad(f, [0, mp.mpf(1) / 8], method="gauss-legendre")
        return mp.exp(1j * (head + mp.quad(f, [mp.mpf(1) / 8, 1, 5, 20, mp.inf])))
    # the double product as q-Pochhammer symbols along the alpha axis
    t = mp.exp(-r * alpha)
    prod, n = mp.mpf(1), 1
    while True:
        p_n = mp.exp(-r * a * (2 * n - 1)) * t
        prod *= mp.qp(p_n * mp.exp(-2j * r * w), t * t) / mp.qp(p_n * mp.exp(2j * r * w), t * t)
        if abs(p_n) < mp.eps ** 2:
            return pref * prod
        n += 1


@pytest.mark.parametrize("label", sorted(CASES))
def test_s_and_gamma_at_30_digits(label):
    case = CASES[label]
    for alpha, x in POINTS:
        with mp.workdps(40):
            s_ref, g_ref = _s_ref(case, mp.mpc(x)), _g_ref(case, mp.mpmathify(alpha), mp.mpc(x))
        with mp.workdps(30):
            s_val, g_val = s_eval(case, mp.mpc(x)), gamma_G(case, alpha, mp.mpc(x))
        assert _rel(s_val, s_ref) < REL
        assert _rel(g_val, g_ref) < REL


@pytest.mark.parametrize("nome", [dict(q=0.3), dict(q=mp.exp(-1.98)), dict(tau=0.2 + 0.8j)])
@pytest.mark.parametrize("theta", [theta_eval, theta_product])
def test_theta_at_30_digits(theta, nome):
    for _, x in POINTS:
        with mp.workdps(40):
            q = mp.mpmathify(nome["q"]) if "q" in nome else mp.expjpi(nome["tau"])
            ref = mp.jtheta(1, mp.mpc(x), q)
        with mp.workdps(30):
            value = theta(mp.mpc(x), **nome)
        assert _rel(value, ref) < REL


# evaluators of (case, alpha, x); gamma_G1 only where Re(alpha) > 0
EVALUATORS = {
    "s_eval": lambda case, alpha, x: s_eval(case, x),
    "gamma_G": lambda case, alpha, x: gamma_G(case, alpha, x),
    "gamma_G/-alpha": lambda case, alpha, x: gamma_G(case, -alpha, x),
    "gamma_G1": lambda case, alpha, x: gamma_G1(case, abs(alpha.real) + 1j * alpha.imag, x),
}
NOMES = [dict(q=0.3), dict(q=mp.exp(-1.98)), dict(tau=0.2 + 0.8j)]
NOME_IDS = ["q=0.3", "q=exp(-1.98)", "tau"]


def _float_nome(nome):
    return {k: float(v) if isinstance(v, mp.mpf) else v for k, v in nome.items()}


@pytest.mark.parametrize("name", sorted(EVALUATORS))
@pytest.mark.parametrize("label", sorted(CASES))
def test_the_mpmath_route_rounds_to_the_float_route(label, name):
    case, evaluate = CASES[label], EVALUATORS[name]
    for alpha, x in POINTS:
        alpha = complex(alpha)
        with mp.workdps(30):
            value = evaluate(case, alpha, mp.mpc(x))
        assert isinstance(value, mp.mpc)
        ref = evaluate(case, alpha, x)
        assert abs(complex(value) - ref) / abs(ref) < TARGET_REL_ERR


@pytest.mark.parametrize("nome", NOMES, ids=NOME_IDS)
@pytest.mark.parametrize("theta", [theta_eval, theta_product])
def test_theta_mpmath_route_rounds_to_the_float_route(theta, nome):
    for _, x in POINTS:
        with mp.workdps(30):
            value = theta(mp.mpc(x), **nome)
        ref = theta(x, **_float_nome(nome))
        assert abs(complex(value) - ref) / abs(ref) < TARGET_REL_ERR


@pytest.mark.parametrize("dps", [15, 25, 40])
@pytest.mark.parametrize("label", sorted(CASES))
def test_s_and_gamma_follow_the_working_precision(label, dps):
    # against the references 10 digits higher; one point per sign of alpha
    case = CASES[label]
    for alpha, x in POINTS[1:3]:
        with mp.workdps(dps + 10):
            ref = _s_ref(case, mp.mpc(x)), _g_ref(case, mp.mpmathify(alpha), mp.mpc(x))
        with mp.workdps(dps):
            got = s_eval(case, mp.mpc(x)), gamma_G(case, alpha, mp.mpc(x))
        with mp.workdps(dps + 10):
            for g, r in zip(got, ref):
                assert abs(g - r) / abs(r) < mp.mpf(10) ** (3 - dps)


@pytest.mark.parametrize("dps", [15, 25, 40])
@pytest.mark.parametrize("theta", [theta_eval, theta_product])
def test_theta_follows_the_working_precision(theta, dps):
    # product_terms still caps the product: at q = 0.3 and 50 digits it
    # needs 48 factors, above the default 40
    cap = {"product_terms": 80} if theta is theta_product else {}
    for nome in NOMES:
        for _, x in POINTS:
            with mp.workdps(dps + 10):
                q = mp.mpmathify(nome["q"]) if "q" in nome else mp.expjpi(nome["tau"])
                ref = mp.jtheta(1, mp.mpc(x), q)
            with mp.workdps(dps):
                got = theta(mp.mpc(x), **cap, **nome)
            with mp.workdps(dps + 10):
                assert abs(got - ref) / abs(ref) < mp.mpf(10) ** (3 - dps)


@pytest.mark.parametrize("z", [0.3 + 0.1j, mp.mpc(0.3, 0.1)])
def test_a_capped_theta_product_names_the_flag_and_the_key(z):
    # both routes tell a command-line user what to raise
    with pytest.raises(ConvergenceError, match="--trunc-terms flag, config key trunc_terms"):
        theta_product(z, q=0.3, product_terms=1)
