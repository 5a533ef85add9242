"""An mpmath argument takes the mpmath route: s, theta and G come back as
mpmath numbers at the working precision.  At 30 digits they agree with
40-digit references built here from mpmath's own functions (jtheta, gamma,
qp, quad) to 1e-25 relative.  Rounded to complex128 they agree with the
float route to its target relative error, and their error falls with the
working precision: the term counts follow mpmath.eps, not that target.

The theta, trigonometric, hyperbolic and elliptic routes run the float
route's code in mpmath, so the package holds no second algorithm to check
them against; the references here are: jtheta, the trigonometric product as
a q-Pochhammer symbol, the hyperbolic integral by mpmath.quad at the point
itself and the hyperbolic equation in the shift i a, the elliptic double
product as q-Pochhammer symbols, both functional equations of the elliptic
gamma function with theta functions from qp, and the float route itself
where the old double product refused."""

import mpmath as mp
import numpy as np
import pytest

from test_gamma_paths import ALPHAS, _step_edges
from vandiejen import operators
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


@pytest.mark.parametrize("nome", [dict(q=0.3), dict(q=mp.exp(-1.98)),
                                  dict(q=mp.expjpi(0.2 + 0.8j))])
@pytest.mark.parametrize("theta", [theta_eval, theta_product])
def test_theta_at_30_digits(theta, nome):
    for _, x in POINTS:
        with mp.workdps(40):
            ref = mp.jtheta(1, mp.mpc(x), mp.mpmathify(nome["q"]))
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
# the last nome is exp(i pi tau) at the modular parameter tau = 0.2 + 0.8i
NOMES = [dict(q=0.3), dict(q=mp.exp(-1.98)), dict(q=mp.expjpi(0.2 + 0.8j))]
NOME_IDS = ["q=0.3", "q=exp(-1.98)", "tau"]


def _float_nome(nome):
    return {k: complex(v) if isinstance(v, mp.mpc) else float(v) if isinstance(v, mp.mpf) else v
            for k, v in nome.items()}


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
                ref = mp.jtheta(1, mp.mpc(x), mp.mpmathify(nome["q"]))
            with mp.workdps(dps):
                got = theta(mp.mpc(x), **cap, **nome)
            with mp.workdps(dps + 10):
                assert abs(got - ref) / abs(ref) < mp.mpf(10) ** (3 - dps)


@pytest.mark.parametrize("z", [0.3 + 0.1j, mp.mpc(0.3, 0.1)])
def test_a_capped_theta_product_names_the_flag_and_the_key(z):
    # both routes tell a command-line user what to raise
    with pytest.raises(ConvergenceError, match="--trunc-terms flag, config key trunc_terms"):
        theta_product(z, q=0.3, product_terms=1)


def test_weight_prefactors_take_s_at_the_argument_rounded_to_complex():
    # mpmath lam and beta reach the coefficients in mpmath, but the
    # prefactors s(i lam m beta), s(i beta) and the summation's right side
    # are float s values at the argument rounded to complex
    case = CASES["IV"]
    s = case.s_scalar
    g = tuple(0.37 + 0.05 * k for k in range(8))
    lam, beta = mp.mpf("1.45"), mp.mpf("0.31")
    x, xt, masses = (0.41 + 0.07j, 0.6 - 0.2j), (0.2 + 0.1j,), (1.0, -lam)
    with mp.workdps(30):
        got = operators.conjugated_operator(case, g, lam, beta, masses, None).weights(x)[2][0]
        want = operators.coeff_V_shift(case, g, lam, beta, masses, None, x, 1, 1)
        assert got == s(complex(1j * lam * masses[1] * beta)) * want
        got = operators.vd_operator(case, g, lam, beta, (0, 1)).weights(x)[0][0]
        assert got == s(complex(1j * lam * beta)) * operators.vd_V_pm(case, g, lam, beta, x, 0, 1)
        weights = operators.def_operator(case, g, lam, beta, (0, 1), (2,)).weights((*x, *xt))
        want = operators.def_V_pm(case, g, lam, beta, x, xt, 0, 1)
        assert weights[0][0] == s(complex(1j * lam * beta)) * want
        want = operators.def_Vt_pm(case, g, lam, beta, x, xt, 0, 1)
        assert weights[4][0] == -s(complex(1j * beta)) * want
        assert all(isinstance(w, mp.mpc) for w, _ in weights)
        p = operators.SummationParams(X=(0.3 + 0.1j,), m=(1.0,), gamma=mp.mpc("0.2", "0.4"),
                                      a=(0.1,), c=(0.1, 0.2, 0.3, 0.4), d=(0.5, 0.6, 0.7, 0.8),
                                      n=tuple(0.05 * k for k in range(8)))
        rhs = operators.summation_rhs(case, p)
        assert type(rhs) is complex and rhs == s(complex(2 * p.gamma + sum(p.n)))


def _fe_defects(r, a, alpha, x):
    """The relative defects of Gamma(T z) = theta(z; P) Gamma(z) and
    Gamma(P z) = theta(z; T) Gamma(z), P = exp(-2 r a), T = exp(-2 r alpha),
    with Gamma from the route at the working precision and theta(z; p) =
    (z; p) (p/z; p) from qp 10 digits higher.  At z = exp(2 i r x - r alpha)
    the primitive is G_1(x) = exp(-r x^2 / (2 alpha)) Gamma(z), and T z, P z
    are z at x + i alpha, x + i a."""
    case = CaseParams(CaseKind.ELLIPTIC, r=r, a=a)
    shifted = {shift: mp.mpc(x) + 1j * mp.mpf(shift) for shift in (0, alpha, a)}
    g = {shift: gamma_G1(case, alpha, y) for shift, y in shifted.items()}
    with mp.extradps(10):
        rr, al = mp.mpf(r), mp.mpf(alpha)

        def big_gamma(shift):
            y = shifted[shift]
            return g[shift] * mp.exp(rr * y * y / (2 * al))

        z = mp.exp(2j * rr * shifted[0] - rr * al)
        defects = []
        for shift, nome in ((alpha, mp.exp(-2 * rr * a)), (a, mp.exp(-2 * rr * al))):
            ref = mp.qp(z, nome) * mp.qp(nome / z, nome) * big_gamma(0)
            defects.append(abs(big_gamma(shift) - ref) / abs(ref))
        return defects


# (r, a, alpha, x): the blocks window, seeded as in test_gamma_paths, and
# alpha = 0.1 at r = 0.7, where the double product needs over 500 factors
# per axis at 30 digits.  At a = 0.3 = 3 alpha, P is
# T^3, so z, T z and P z walk to one annulus point and the equations test
# the theta steps alone; at a = 0.35 P z ends elsewhere, and they test the
# series too
_BLOCKS = np.random.default_rng(23)
FE_POINTS = [(1.0, 2.0, 0.45, complex(x, y)) for x, y in
             zip(_BLOCKS.uniform(0.1, 1.1, 3), _BLOCKS.uniform(-0.45, 0.45, 3))]
FE_POINTS += [(0.7, 0.3, 0.1, 0.3 + 0.1j), (0.7, 0.35, 0.1, -0.5 + 0.6j)]


@pytest.mark.parametrize("r,a,alpha,x", FE_POINTS)
def test_elliptic_functional_equations_at_30_digits(r, a, alpha, x):
    with mp.workdps(30):
        assert max(_fe_defects(r, a, alpha, x)) < REL


def test_the_route_evaluates_where_the_double_product_refused():
    # r = 0.7, a = 0.3, alpha = 0.1: the float route takes it, and a double
    # product capped at 400 factors per axis refuses it
    case = CaseParams(CaseKind.ELLIPTIC, r=0.7, a=0.3)
    with mp.workdps(30):
        value = gamma_G(case, 0.1, mp.mpc(0.3 + 0.1j))
    ref = gamma_G(case, 0.1, 0.3 + 0.1j)
    assert isinstance(value, mp.mpc)
    assert abs(complex(value) - ref) / abs(ref) < 1e-14


def test_elliptic_step_edges_against_the_qp_reference():
    # a seeded subset of the points on both sides of every theta step change
    case = CASES["IV"]
    rng = np.random.default_rng(29)
    for alpha in ALPHAS:
        for x in rng.choice(_step_edges(complex(alpha)), 3, replace=False):
            with mp.workdps(40):
                ref = _g_ref(case, mp.mpmathify(alpha), mp.mpc(x))
            with mp.workdps(30):
                assert _rel(gamma_G(case, alpha, mp.mpc(x)), ref) < REL


def _ia_defect(case, alpha, x):
    """The relative defect of G(x + i a/2) / G(x - i a/2) = 2 cosh(pi (x -
    i a/2) / alpha), the hyperbolic equation in the shift i a, at the
    working precision.  The route's cosh steps build in the equation in
    i alpha, not this one."""
    a, alpha = mp.mpf(case.a), mp.mpf(alpha)
    ratio = gamma_G(case, alpha, x + 0.5j * a) / gamma_G(case, alpha, x - 0.5j * a)
    rhs = 2 * mp.cosh(mp.pi * (x - 0.5j * a) / alpha)
    return abs(ratio - rhs) / abs(rhs)


def test_the_hyperbolic_equation_in_i_a_at_30_digits():
    # 0.3 + 0.1i pins the orientation: 2 cosh(pi (x + i a/2) / alpha) or
    # 2 cosh(pi x / alpha) is off by O(1).  At 30 + 0.5i sin(2 w y)
    # oscillates fast
    case = CaseParams(CaseKind.HYPERBOLIC, a=1.8)
    with mp.workdps(30):
        assert _ia_defect(case, 0.8, mp.mpc(0.3, 0.1)) < REL
        assert _ia_defect(case, 0.8, mp.mpc(30, 0.5)) < REL


def test_the_hyperbolic_limits_follow_the_working_precision():
    # at a = 0.5, alpha = 0.8 the float route refuses 0.3 + 0.64i (cutoff
    # 67.2 above 40); at 30 digits the cutoff and its limit both grow by
    # (5 - log eps) / (5 - log 1e-13), and the route refuses it too, naming
    # both.  The points the float route takes agree with the reference
    case = CaseParams(CaseKind.HYPERBOLIC, a=0.5)
    with mp.workdps(30):
        with pytest.raises(ConvergenceError) as err:
            gamma_G(case, 0.8, mp.mpc(0.3, 0.64))
    assert str(err.value) == "hyperbolic integral needs cutoff 145.6, above the fixed limit 86.6799"
    for x in (0.3 + 0.3j, 1.1 + 0.35j):
        with mp.workdps(40):
            ref = _g_ref(case, mp.mpf(0.8), mp.mpc(x))
        with mp.workdps(30):
            assert _rel(gamma_G(case, 0.8, mp.mpc(x)), ref) < REL


@pytest.mark.parametrize("a,alpha,x", [(1.8, 0.8, 30 + 0.5j), (2.0, 0.45, 15 + 0.9j),
                                       (2.0, 0.45, 30 + 0.5j)])
def test_the_hyperbolic_route_keeps_its_digits_at_far_points(a, alpha, x):
    # the node sum and the cubic cancel from about |w0| pi^2 m / (6 a alpha),
    # 380 to 620 here, down to the integral: without guard bits the 30-digit value
    # is 1e-28 off the 45-digit one
    case = CaseParams(CaseKind.HYPERBOLIC, a=a)
    with mp.workdps(45):
        ref = gamma_G(case, mp.mpf(alpha), mp.mpc(x))
    with mp.workdps(30):
        value = gamma_G(case, mp.mpf(alpha), mp.mpc(x))
    with mp.workdps(45):
        assert abs(value - ref) / abs(ref) < mp.mpf(10) ** -30


@pytest.mark.parametrize("label", ["II", "III", "IV"])
def test_gamma_beyond_the_float64_epsilon(label):
    # at 330 digits mpmath.eps is below the smallest float64; the term
    # counts take its log.  II against the qp reference, III by its
    # equation in i a (27800 nodes a side, below the limits 878 for the
    # cutoff and 927,780 nodes), IV by its two functional equations (the
    # reference's double product is slow there)
    x = mp.mpc(0.3 + 0.1j)
    with mp.workdps(330):
        if label == "II":
            case = CaseParams(CaseKind.TRIGONOMETRIC, r=1.0, a=2.0)
            value = gamma_G(case, 1.5, x)
            with mp.workdps(340):
                defects = [abs(value - _g_ref(case, mp.mpf(1.5), x)) / abs(value)]
        elif label == "III":
            defects = [_ia_defect(CaseParams(CaseKind.HYPERBOLIC, a=1.8), 0.8, x)]
        else:
            defects = _fe_defects(1.0, 2.0, 1.5, x)
        assert max(defects) < mp.mpf(10) ** -327


def test_s_and_theta_beyond_the_float64_epsilon():
    # the theta count table at log eps ~ -760: a float64 target would stop
    # the series near 1e-13
    x = mp.mpc(0.3 + 0.1j)
    case = CASES["IV"]
    with mp.workdps(330):
        values = (s_eval(case, x), theta_eval(x, q=0.3))
        with mp.workdps(340):
            refs = (_s_ref(case, x), mp.jtheta(1, x, mp.mpf(0.3)))
            for value, ref in zip(values, refs):
                assert abs(value - ref) / abs(ref) < mp.mpf(10) ** -327
