"""Gamma-type functions paired with each building-block regime.

For every case the function ``G(x; alpha)`` solves the first-order
difference equation

    G(x + i alpha / 2) / G(x - i alpha / 2) = c * s(x)

with a case constant ``c`` depending on ``alpha`` and the case scales.
Solutions are unique only up to ``i alpha``-periodic multipliers, so the
package pins one concrete solution per case:

* rational:       Euler's gamma, ``G_1(x) = Gamma(1/2 + x / (i alpha))``,
                  by the Lanczos approximation (:func:`_euler_gamma`)
* trigonometric:  a q-shifted factorial with a Gaussian prefactor
* hyperbolic:     the exponential of a principal-value style integral
* elliptic:       the elliptic gamma function with a Gaussian prefactor

The primitives ``G_1`` are defined for ``Re(alpha) > 0``.  They extend to
``Re(alpha) < 0`` through ``G(x; alpha) = G_1(-x; -alpha)``, which flips
the sign of the difference-equation constant: for ``Re(alpha) < 0`` the
constant is ``-c(-alpha)``.  :func:`functional_eq_constant` returns the
correct signed constant for either half-plane.

The hyperbolic evaluator never integrates close to the edge of its
convergence strip.  It first walks the argument toward the real axis with
exact ``2 cosh`` functional-equation steps, integrates where the tail
decays at rate ``Re(a)`` or better, and multiplies the steps back in.  The
integrand, even and analytic in a strip about the real axis, is summed by
the trapezoidal rule, whose error falls geometrically with the step; in
float64 the points of one cached node table are numpy rows, each summed
alone, so a scalar and the same point in any array give the same bits.

The elliptic gamma function ``Gamma(z; P, T)`` is a double product over
the nomes ``P = exp(-2 r a)`` and ``T = exp(-2 r alpha)``.  The float64
evaluator walks ``z`` into the annulus ``|PT| < |z| < 1`` instead, with
exact steps ``Gamma(q z) = theta(z; p) Gamma(z)`` in the nome ``q`` nearer
1, until ``log|z|`` is within half a step of the centre ``log|PT| / 2``;
there ``log Gamma`` is a power series in ``z`` and ``PT / z`` whose ratio is
at most ``|p|^(1/2)``, so a point costs a few dozen terms instead of the
product's full rectangle.  A scalar and a one-point array run one ``cmath``
loop; several points run the same arithmetic in numpy, each with its own
walk, and take the series length of the call, so they agree with their
scalars to rounding.

In float64 the term counts aim at :data:`~vandiejen.sfun.TARGET_REL_ERR`
(the elliptic series, the theta products and the hyperbolic step at 1e-16,
below rounding), and a hyperbolic integral that needs an upper limit beyond
40 or more than 2000 nodes fails.  An mpmath argument ``x`` gives an mpmath
value at the working precision ``mpmath.mp.dps``: the trigonometric,
hyperbolic and elliptic cases run the float algorithms in mpmath and the
rational case is ``mpmath.gamma``, with term counts, cutoff, trapezoidal
step and the hyperbolic limits from the log of the working epsilon.  The
independent references (the double product, mpmath's ``qp`` and
``jtheta``, and numerical integration) live in the tests.
"""

from __future__ import annotations

import cmath
import math
import sys
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .sfun import (
    TARGET_REL_ERR,
    CaseKind,
    CaseParams,
    ConvergenceError,
    DomainError,
    _DeferredModule,
    _LOG_TARGET,
    _SCALAR_TYPES,
    _as_complex_array,
    _is_mp,
    _restore,
    s_eval,
)

mpmath = _DeferredModule("mpmath")

__all__ = [
    "gamma_G1",
    "gamma_G",
    "functional_eq_constant",
    "gamma_ratio_shift",
]

_PRODUCT_HARD_CAP = 200_000
# the float elliptic log series and theta products stop below float64
# rounding, a multiplication per term; a point takes at most the cap of
# series terms, of theta steps and of hyperbolic nodes
_ELLIPTIC_LOG_TOL = math.log(1e-16)
_CAP = 2000
# the hyperbolic integral: the largest upper limit of its sine part in
# float64, and the log of the float64 epsilon, which sets the trapezoidal
# rule's step and scales both limits at other precisions
_HYPERBOLIC_CUTOFF = 40.0
_LOG_EPS = math.log(sys.float_info.epsilon)


def _require_alpha(alpha: complex, positive: bool = True) -> complex:
    alpha = complex(alpha)
    if not cmath.isfinite(alpha):
        raise DomainError(f"alpha must be finite, got {alpha}")
    if alpha.real == 0:
        raise DomainError("alpha must have nonzero real part")
    if positive and alpha.real < 0:
        raise DomainError("this primitive needs Re(alpha) > 0; use gamma_G instead")
    return alpha


def _geometric_terms(step: float, start: float, growth: float, log_tol: float) -> int:
    """Number of terms so that exp(start - step*(2n-1) + growth) < exp(log_tol).

    ``step`` is the per-index decay exponent, ``growth`` a worst-case
    argument-dependent amplification, both in natural-log units.
    """
    if step <= 0:
        raise DomainError("non-decaying product; check parameter signs")
    count = _geometric_count(step, start, growth, log_tol)
    if count > _PRODUCT_HARD_CAP:
        raise ConvergenceError(
            f"product needs {count} factors to reach tol={math.exp(log_tol):g}; "
            "parameters are too close to a degenerate limit"
        )
    return count


def _geometric_count(step: float, start: float, growth: float, log_tol: float) -> int:
    """The count of :func:`_geometric_terms` without its checks."""
    needed = (growth + start - log_tol) / step
    return max(2, int(math.ceil((needed + 1) / 2)) + 1)


# ---------------------------------------------------------------------------
# Euler's gamma function
# ---------------------------------------------------------------------------

# The Lanczos approximation (C. Lanczos, SIAM J. Numer. Anal. B 1 (1964) 86)
# with Godfrey's g = 607/128 and 15 coefficients c_k: Gamma(w + 1) =
# sqrt(2 pi) (c_0 + sum_k c_k / (w + k)) t^(w + 1/2) exp(-t), t = w + g + 1/2.
# The table holds sqrt(2 pi) c_k.
_LANCZOS_T = 607 / 128 + 0.5
_LANCZOS = tuple(math.sqrt(2 * math.pi) * c for c in (
    0.99999999999999709182, 57.156235665862923517, -59.597960355475491248,
    14.136097974741747174, -0.49191381609762019978, 0.33994649984811888699e-4,
    0.46523628927048575665e-4, -0.98374475304879564677e-4, 0.15808870322491248884e-3,
    -0.21026444172410488319e-3, 0.21743961811521264320e-3, -0.16431810653676389022e-3,
    0.84418223983852743293e-4, -0.26190838401581408670e-4, 0.36899182659531622704e-5))
_LANCZOS_TERMS = tuple(enumerate(_LANCZOS[1:], 1))
# the terms as two (term, 1) columns, which broadcast against the points
_LANCZOS_K, _LANCZOS_C = np.array(_LANCZOS_TERMS).T[:, :, None]
_LOG_PI = math.log(math.pi)


def _euler_gamma(z: complex) -> complex:
    """Euler's gamma function at one complex point, with ``cmath``: the
    Lanczos approximation at ``w = z - 1`` on ``Re z >= 1/2``, and below
    it the reflection ``Gamma(z) = pi / (sin(pi z) Gamma(1 - z))`` at ``w =
    -z``, with ``sin(pi z)`` taken at ``z`` less its nearest integer so that
    a pole is an exact zero.  The approximation errs by about 1e-15
    relative; the power ``t^(w + 1/2)`` adds Gamma's own condition number,
    about ``|z log z|`` epsilons, a few 1e-14 at ``|z|`` near 40 (a rational
    tracker path at ``|alpha|`` near 0.06).  At a pole, where the value
    overflows, and below ``Re z = 1/2`` where ``sin(pi z) Gamma(1 - z)``
    overflows (``|Im z|`` beyond about 225, ``Re z`` below about -170),
    this raises; :func:`_euler_gamma_array` returns inf or nan at a pole
    or an overflowing value, and takes the reflection in logs at the
    rest."""
    if z.real < 0.5:
        n = round(z.real)
        s = cmath.sin(math.pi * (z - n))
        d = (-s if n % 2 else s) * _lanczos(-z)
        if not cmath.isfinite(d):
            raise OverflowError("sin(pi z) Gamma(1 - z) overflows")
        return math.pi / d
    return _lanczos(z - 1)


def _lanczos(w: complex) -> complex:
    """``Gamma(w + 1)`` for ``Re w >= -1/2``."""
    series = _LANCZOS[0]
    for k, c in _LANCZOS_TERMS:
        series += c / (w + k)
    t = w + _LANCZOS_T
    return series * cmath.exp((w + 0.5) * cmath.log(t) - t)


def _euler_gamma_array(z: np.ndarray) -> np.ndarray:
    """:func:`_euler_gamma` at every point of a complex array of any shape,
    with numpy, and inf or nan without a warning at a pole or an
    overflowing value.  Where the scalar's ``sin(pi z) Gamma(1 - z)``
    overflows although Gamma is a float, the reflection is one ``exp`` of
    a sum of logs, with ``u = z - n`` and, for ``Im u >= 0``, ``log sin(pi
    u) = -i pi u + log((1 - exp(2 i pi u)) / (-2i))`` (mirrored below the
    axis), in which only the first term grows with ``|Im u|``.  numpy's
    complex arithmetic rounds otherwise than Python's, so a point may
    differ from its scalar by a rounding."""
    shape, z = z.shape, z.ravel()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        reflect = z.real < 0.5
        w = np.where(reflect, -z, z - 1)
        series = _LANCZOS[0] + np.add.reduce(_LANCZOS_C / (w + _LANCZOS_K))
        t = w + _LANCZOS_T
        power = (w + 0.5) * np.log(t) - t
        value = series * np.exp(power)
        n = np.rint(z.real)
        odd = (n.astype(np.int64) & 1).astype(bool)
        s = np.sin(np.pi * (z - n))
        np.negative(s, out=s, where=odd)
        d = s * value
        np.divide(np.pi, d, out=value, where=reflect)
        # d is 0 only at a pole: Gamma(1 - z) underflows only where sin(pi z)
        # overflows
        lost = reflect & ~np.isfinite(d)
        if lost.any():
            u = z[lost] - n[lost]
            sign = np.where(u.imag < 0, -1.0, 1.0)
            log_sin = -1j * np.pi * sign * u + np.log(np.expm1(2j * np.pi * sign * u) / (2j * sign))
            g = np.exp(_LOG_PI - log_sin - np.log(series[lost]) - power[lost])
            value[lost] = np.where(odd[lost], -g, g)
    return value.reshape(shape)


# ---------------------------------------------------------------------------
# case primitives (Re(alpha) > 0)
# ---------------------------------------------------------------------------


def _g1_trigonometric(case: CaseParams, alpha: complex, x: np.ndarray) -> np.ndarray:
    """The trigonometric primitive ``exp(-r x^2 / (2 alpha)) / prod_n (1 -
    u_n exp(2 i r x))`` over the nome powers of :func:`_trig_table`.  Each
    point takes the factor count of its own ``|Im x|``, the scalar's, and
    multiplies its factors in the order of ``n``, so its value does not
    depend on the other points of the call.  The factors of all points are
    one (terms, points) temporary up to the call's largest count; from the
    smallest count on, a point's factors beyond its own count (below its
    :func:`_trig_threshold`) are set to 1, which multiplies exactly."""
    r, step = case.r, case.r * alpha.real
    flat = x.ravel()
    im = np.abs(flat.imag)
    # the call's largest and smallest counts, as the scalar takes them:
    # its cap and its errors
    im_max = float(np.maximum.reduce(im, initial=0.0))
    count = _geometric_terms(step, 0.0, 2 * r * im_max, _LOG_TARGET)
    low = _geometric_terms(step, 0.0, 2 * r * float(np.minimum.reduce(im, initial=im_max)),
                           _LOG_TARGET)
    e = np.exp(2j * r * flat)
    factors = _trig_array(r, alpha, count)[:, None] * e[None, :]
    np.subtract(1.0, factors, out=factors)
    for n in range(low, count):
        factors[n][im < _trig_threshold(r, step, n)] = 1.0
    prod = np.prod(factors, axis=0)
    pref = np.exp(-r * flat ** 2 / (2 * alpha))
    return (pref / prod).reshape(x.shape)


@lru_cache(maxsize=256)
def _trig_threshold(r: float, step: float, n: int) -> float:
    """The least ``|Im x|`` at which the trigonometric scalar takes more than
    ``n`` factors.  Its count, :func:`_geometric_count` of ``step`` and
    ``2 r |Im x|``, never falls as ``|Im x|`` grows, so a point takes
    factor ``n + 1`` exactly when its ``|Im x|`` is at least this float,
    found by bisection over the floats."""
    def more(im: float) -> bool:
        return _geometric_count(step, 0.0, 2 * r * im, _LOG_TARGET) > n

    lo, hi = 0.0, 1.0
    if more(lo):
        return lo
    while not more(hi):
        lo, hi = hi, 2 * hi
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (lo, mid) if more(mid) else (mid, hi)
    return hi


@lru_cache(maxsize=64)
def _trig_table(r: float, alpha: complex, count: int) -> tuple[complex, ...]:
    """``u_n = exp(-r alpha (2n-1))`` for ``n = 1..count``, the nome powers
    of the trigonometric product, shared by the scalar and array paths."""
    return tuple(cmath.exp(-r * alpha * (2 * n - 1)) for n in range(1, count + 1))


@lru_cache(maxsize=64)
def _trig_array(r: float, alpha: complex, count: int) -> np.ndarray:
    """:func:`_trig_table` as a read-only array, for the array path."""
    u = np.array(_trig_table(r, alpha, count))
    u.flags.writeable = False
    return u


def _g1_trigonometric_scalar(r, alpha, x, table, exp):
    """The trigonometric primitive at one point over the nome powers ``table``,
    in the number type of ``exp`` (``cmath.exp`` or ``mpmath.exp``): the
    array path's arithmetic without numpy's per-call cost."""
    e = exp(2j * r * x)
    prod = 1.0 + 0j
    for u in table:
        prod *= 1.0 - u * e
    return exp(-r * x * x / (2 * alpha)) / prod


def _hyperbolic_GR(a: float, alpha: complex, ws: list[complex]) -> list[complex]:
    """The hyperbolic integral primitive at the points ``ws`` in float64, by
    the plans of :func:`_trapezoid_plan`, continued by cosh steps."""
    steps = []
    for w in ws:
        k, w0, m, nodes = _trapezoid_plan(a, alpha, w, _LOG_TARGET, _LOG_EPS)
        steps.append((k, w0, (m, nodes // 8)))
    bases = _hyperbolic_float(a, alpha, steps)
    return [_cosh_steps(base, w, k, alpha, a, cmath.cosh, math.pi)
            for w, (k, _, _), base in zip(ws, steps, bases)]


def _trapezoid_plan(a, alpha, w, log_tol: float, log_eps: float):
    """The trapezoidal rule at ``w`` for a backend of epsilon ``exp(log_eps)``:
    the cosh step count ``k``, the stepped point ``w0 = w + i k alpha``, the
    step ``h = 1/m`` and the node count, a multiple of 8.  ``a``, ``alpha``
    and ``w`` may be mpmath numbers; the counts are float arithmetic.

    ``w0`` has ``|Im w0| <= Re alpha / 2``, so the integrand decays at rate
    ``Re(a + alpha) - 2 |Im w0|  >=  Re(a)``, below ``exp(log_tol)`` past the
    cutoff.  It is even and analytic for ``|Im y| < d = pi min(1/a, Re alpha
    / |alpha|^2)``, inside the zeros of ``sinh(a y) sinh(alpha y)``.  There
    the trapezoidal rule with step ``h`` errs by at most ``2 M / (exp(2 pi
    eta / h) - 1)``, ``eta < d``, with ``M`` the integral of ``|f|`` along
    ``Im y = eta`` (Trefethen and Weideman, SIAM Rev. 56 (2014) 385, Thm.
    5.1), and ``sin(2 w y)`` puts ``exp(2 |Re w| eta)`` into ``M``.  So a
    point takes ``m = ceil((E + 2 |Re w0| eta) / (2 pi eta))`` at ``eta =
    0.8 d``, ``E = ceil(-log_eps)`` (37 in float64), and nodes in panels of 8
    up to the cutoff.

    The limits grow with the work, from 40 and 2000 in float64: the cutoff
    limit by ``s = (5 - log_tol) / (5 - log TARGET_REL_ERR)``, as the cutoff
    grows, so a point fails for its cutoff at every precision or at none;
    the node cap by ``s`` times ``log_eps / log(float64 eps)``, as ``m``
    grows.  At 30 digits they are 86.7 and 8501, at 330 digits 878 and
    927,780.
    """
    depth = 5.0 - log_tol
    scale = depth / (5.0 - _LOG_TARGET)
    k = -int(round(float(w.imag / alpha.real)))
    w0 = w + 1j * k * alpha
    y_cut = float(depth / (a + alpha.real - 2 * abs(w0.imag)))
    if y_cut > _HYPERBOLIC_CUTOFF * scale:
        raise ConvergenceError(f"hyperbolic integral needs cutoff {y_cut:.1f}, above the "
                               f"fixed limit {_HYPERBOLIC_CUTOFF * scale:g}")
    eta = 0.8 * math.pi * min(1 / float(a), float(alpha.real) / abs(complex(alpha)) ** 2)
    m = math.ceil((math.ceil(-log_eps) + 2 * abs(float(w0.real)) * eta) / (2 * math.pi * eta))
    nodes = 8 * math.ceil(max(y_cut, 8.0) * m / 8)
    _within_cap(nodes, "hyperbolic integral", "nodes",
                "Re alpha / |alpha|^2 is too small or |Re x| too large",
                int(_CAP * scale * log_eps / _LOG_EPS))
    return k, w0, m, nodes


def _cosh_steps(base, w, k: int, alpha, a, cosh, pi):
    """``G_R(w)`` from ``base = G_R(w + i k alpha)``: the ``k`` functional-
    equation steps multiplied back in, in the number type of ``cosh``."""
    corr = 1.0 + 0j
    if k > 0:
        # G_R(w) = G_R(w + i k alpha) / prod_{j=0}^{k-1} 2 cosh(pi (w + i alpha/2 + i j alpha)/a)
        for j in range(k):
            corr *= 2 * cosh(pi * (w + 1j * alpha / 2 + 1j * j * alpha) / a)
        return base / corr
    if k < 0:
        for j in range(1, -k + 1):
            corr *= 2 * cosh(pi * (w - 1j * alpha / 2 - 1j * (j - 1) * alpha) / a)
        return base * corr
    return base


def _hyperbolic_mp(a, alpha, w, log_tol: float):
    """``G_R(w)`` at one mpmath point: the float path's rule at the working
    epsilon ``exp(log_tol)``, that is the plan of :func:`_trapezoid_plan`,
    the sum of ``c_k sin(2 w0 k h)`` over its nodes with the weights of
    :func:`_hyperbolic_table`, and the cubic of :func:`_trapezoid_cubic`,
    all in mpmath.

    The node sum and the cubic's ``-w0 pi^2 m / (6 a alpha)`` cancel from
    that size down to the integral, so the rule runs with as many guard
    bits as that size has, ``ceil(log2(|w0| pi^2 m / (6 a |alpha|)))`` (none
    below 1), and its value is rounded to the working precision.  The same
    bits cover the exponential and the cosh steps, whose arguments grow
    like ``pi |w| / a``, below that size."""
    k, w0, m, nodes = _trapezoid_plan(a, alpha, w, log_tol, log_tol)
    size = float(abs(w0)) * math.pi ** 2 * m / (6 * float(a) * abs(complex(alpha)))
    with mpmath.extraprec(math.ceil(math.log2(size)) if size > 1 else 0):
        h = mpmath.mpf(1) / m
        # i c_j sin(2 w0 y) at y = j h is (u^j - v^j) / (j (1 - p^j)(1 - q^j)),
        # with u, v = exp(-(a + alpha -+ 2 i w0) h), p = exp(-2 a h) and
        # q = exp(-2 alpha h): four geometric sequences instead of a sine and
        # two sinh per node
        u, v = mpmath.exp(-(a + alpha - 2j * w0) * h), mpmath.exp(-(a + alpha + 2j * w0) * h)
        p, q = mpmath.exp(-2 * a * h), mpmath.exp(-2 * alpha * h)
        un = vn = pn = qn = mpmath.mpf(1)
        total = 0
        for j in range(1, nodes + 1):
            un, vn, pn, qn = un * u, vn * v, pn * p, qn * q
            total += (un - vn) / (j * (1 - pn) * (1 - qn))
        c1, c3 = _trapezoid_cubic(a, alpha, m, mpmath.pi)
        base = mpmath.exp(total + 1j * w0 * (c1 + c3 * w0 * w0))
        value = _cosh_steps(base, w, k, alpha, a, mpmath.cosh, mpmath.pi)
    return +value


def _hyperbolic_float(a: float, alpha: complex, steps: list[tuple]) -> list[complex]:
    """``exp(i * integral)`` at each stepped point ``(k, w0, (m, panels))`` in
    float64.  The points of one cached table (:func:`_hyperbolic_table`) form
    a group, a column of rows, each summed alone, so a point's bits do not
    depend on the call; a lone point is a group of one row."""
    if len(steps) == 1:
        return _hyperbolic_rows(a, alpha, steps[0][2], [steps[0][1]])
    groups: dict[tuple[int, int], list[int]] = {}
    for idx, (_, _, key) in enumerate(steps):
        groups.setdefault(key, []).append(idx)
    out = [0j] * len(steps)
    for key, rows in groups.items():
        for i, v in zip(rows, _hyperbolic_rows(a, alpha, key, [steps[i][1] for i in rows])):
            out[i] = v
    return out


def _hyperbolic_rows(a: float, alpha: complex, key: tuple[int, int], ws: list[complex]):
    """``exp(i * integral)`` at the points ``ws`` of one group ``key = (m, panels)``:
    ``sum_k c_k sin(2 w k h)`` plus a cubic in ``w``.  At ``y = (8 p + j + 1) h``,
    ``sin(2 w y)`` splits into ``exp(+-2 i w 8 p h)`` and ``exp(+-2 i w (j + 1) h)``,
    and the sum is a bilinear form in the two."""
    phases, coef, c1, c3 = _hyperbolic_table(a, alpha, *key)
    panels = key[1]
    e = np.exp(np.multiply.outer(ws, phases))
    sums = ((e[:, :, None, :panels] @ coef)[:, :, 0] * e[:, :, panels:]).sum(axis=(1, 2))
    return [cmath.exp(1j * (s + w * (c1 + c3 * w * w))) for s, w in zip(sums.tolist(), ws)]


@lru_cache(maxsize=64)
def _hyperbolic_table(a: float, alpha: complex, m: int, panels: int):
    """The point-free parts of the trapezoidal rule with step ``h = 1/m`` on
    the ``8 panels`` nodes ``y = (8 p + j + 1) h``, read-only: the phases,
    ``+-2 i`` times the panel starts ``8 p h`` and the offsets ``(j + 1) h``;
    the weights ``c = h / (2 sinh(a y) sinh(alpha y) y)`` times ``+-1/2i``;
    and the coefficients of ``w`` and ``w^3`` in ``-w pi^2 / (6 a alpha h)``,
    ``h`` times ``-w / (a alpha y^2)`` summed over the nodes, and
    ``-h w (4 w^2 + a^2 + alpha^2) / (12 a alpha)``, the node ``y = 0`` at
    half weight."""
    k = np.arange(1, 8 * panels + 1)
    y = k.astype(np.longdouble) / m
    # c / 2i in extended precision where the platform has it, rounded once:
    # the first nodes' c sin(2 w y) and the sum over w / (a alpha y^2) cancel
    half = 1 / (4j * k * np.sinh(a * y) * np.sinh(np.clongdouble(alpha) * y))
    half = half.astype(complex).reshape(panels, 8)
    parts = np.concatenate([8 * np.arange(panels), np.arange(1, 9)]) / m
    phases, coef = np.array([2j * parts, -2j * parts]), np.array([half, -half])
    phases.flags.writeable = coef.flags.writeable = False
    return (phases, coef, *_trapezoid_cubic(a, alpha, m, math.pi))


def _trapezoid_cubic(a, alpha, m: int, pi):
    """``c1, c3`` of :func:`_hyperbolic_table` in the number type of ``pi``."""
    c1 = -(pi**2 * m / 6 + (a * a + alpha * alpha) / (12 * m)) / (a * alpha)
    return c1, -1 / (3 * a * alpha * m)


def _g1_hyperbolic(case: CaseParams, alpha: complex, x: np.ndarray) -> np.ndarray:
    vals = _hyperbolic_GR(case.a, alpha, [v - 0.5j * case.a for v in x.ravel().tolist()])
    return np.array(vals, dtype=np.complex128).reshape(x.shape)


class _EllipticTables(NamedTuple):
    """The point-free parts of the elliptic primitive for one ``(r, a, alpha)``,
    with ``P = exp(-2 r a)`` and ``T = exp(-2 r alpha)``: the walk steps by
    the nome ``q`` nearer 1 and its theta functions take the other, ``p``.
    The term counts read only the float fields; the others are numbers of
    the backend."""
    log_q: complex
    log_p: complex
    p: complex
    log_pq: complex
    log_q_re: float                # Re log q and Re log p as floats
    log_p_re: float
    centre: float                  # log|pq| / 2, the middle of the annulus
    series_log_tol: float          # log(rho^K) below this ends the log series
    theta_log_tol: float           # log|p^J v| below this ends a theta product
    coef: tuple[complex, ...]      # 1 / (n (1 - P^n) (1 - T^n)), n = 1, 2, ...


@lru_cache(maxsize=64)
def _elliptic_tables(r: float, a: float, alpha: complex) -> _EllipticTables:
    """The float64 :class:`_EllipticTables`, cached: tails below 1e-16."""
    return _elliptic_tables_at(r, a, alpha, _ELLIPTIC_LOG_TOL, cmath.exp)


def _elliptic_tables_at(r, a, alpha, log_tol: float, exp) -> _EllipticTables:
    """:class:`_EllipticTables` with tails below ``exp(log_tol)`` and with
    ``r, a, alpha`` and ``exp`` of one backend, and as many series
    coefficients as the farthest point of the annulus, ``rho = |p|^(1/2)``,
    needs; raises :class:`ConvergenceError` beyond :data:`_CAP`."""
    log_P, log_T = -2 * r * a + 0j, -2 * r * alpha
    log_q, log_p = (log_P, log_T) if log_P.real > log_T.real else (log_T, log_P)
    log_q_re, log_p_re = float(log_q.real), float(log_p.real)
    abs_p, abs_q = math.exp(log_p_re), math.exp(log_q_re)
    # |coef_n| <= 1 / ((1 - |p|)(1 - |q|)), so the series' tail after K terms
    # is at most 2 rho^(K+1) / ((1 - |p|)(1 - |q|)(1 - rho)) with rho <= |p|^(1/2)
    series_log_tol = log_tol + math.log((1 - abs_p) * (1 - abs_q) * (1 - math.sqrt(abs_p)) / 2)
    count = math.ceil(series_log_tol / (log_p_re / 2))
    _within_cap(count, "elliptic gamma", "log series terms", "both nomes are too close to 1")
    P, T = exp(log_P).real, exp(log_T)
    coef = tuple(1 / (n * (1 - P**n) * (1 - T**n)) for n in range(1, count + 1))
    return _EllipticTables(log_q, log_p, exp(log_p), log_P + log_T, log_q_re, log_p_re,
                           (log_p_re + log_q_re) / 2, series_log_tol,
                           log_tol + math.log(1 - abs_p), coef)


def _within_cap(count: int, who: str, what: str, why: str, cap: int = _CAP) -> None:
    if count > cap:
        raise ConvergenceError(f"{who} needs {count} {what}, above the cap {cap}; {why}")


def _elliptic_counts(t: _EllipticTables, off: float, lo: float, hi: float) -> tuple[int, int]:
    """Series terms and theta factors for walked points ``y`` with ``log|y|``
    at most ``off`` from the centre, and walks whose ``log|v|`` lie in
    ``[lo, hi]``: the series ratio is ``rho = max(|y|, |pq/y|)``, and a
    theta product's terms are ``p^n v`` and ``p^(n+1) / v``."""
    terms = min(len(t.coef), math.ceil(t.series_log_tol / (t.centre + off)))
    far = max(hi, t.log_p_re - lo)
    return terms, max(1, math.ceil((t.theta_log_tol - far) / t.log_p_re))


def _g1_elliptic_scalar(r, alpha, x, t: _EllipticTables, exp):
    """The elliptic primitive at one point, in the number type of ``exp``
    (``cmath.exp`` or ``mpmath.exp``) and of ``t``; the step, term and factor
    counts are float arithmetic on both.  The array path of
    :func:`_g1_elliptic` does the same arithmetic on numpy arrays."""
    lz = 2j * r * x - r * alpha
    lz_re = float(lz.real)
    k = round((lz_re - t.centre) / -t.log_q_re)
    _within_cap(abs(k), "elliptic gamma", "theta steps", "the point is too far from the annulus")
    ly = lz + k * t.log_q
    ly_re = float(ly.real)
    terms, factors = _elliptic_counts(t, abs(ly_re - t.centre),
                                      min(lz_re, ly_re), max(lz_re, ly_re))
    y, u = exp(ly), exp(t.log_pq - ly)
    sy = su = 0j
    for c in t.coef[terms - 1::-1]:
        sy = (sy + c) * y
        su = (su + c) * u
    value = exp(sy - su - r * x * x / (2 * alpha))
    walk, p = 1 + 0j, t.p
    for j in (range(k) if k > 0 else range(-1, k - 1, -1)):
        tv = exp(lz + j * t.log_q)
        sv, theta = p / tv, 1 + 0j
        for _ in range(factors):
            theta *= (1 - tv) * (1 - sv)
            tv *= p
            sv *= p
        walk *= theta
    return value / walk if k > 0 else value * walk


def _g1_elliptic(case: CaseParams, alpha: complex, x: np.ndarray) -> np.ndarray:
    """The elliptic primitive ``exp(-r x^2 / (2 alpha)) Gamma(z; P, T)`` at
    ``z = exp(2 i r x - r alpha)``.  Each point takes its own walk of ``k``
    theta steps, ``Gamma(z) = Gamma(q^k z) / prod_{0 <= j < k} theta(q^j z; p)``
    (for ``k < 0`` the ``theta(q^j z; p)``, ``k <= j < 0``, multiply), to
    ``y = q^k z`` within half a step of the annulus centre, where
    ``log Gamma(y) = sum_n coef_n (y^n - (pq/y)^n)`` converges at ratio at
    most ``|p|^(1/2)``.  One point runs the ``cmath`` loop of
    :func:`_g1_elliptic_scalar`; several points share the series length
    and the theta factor count of the call."""
    r = case.r
    t = _elliptic_tables(r, case.a, alpha)
    flat = x.ravel()
    if flat.size == 1:
        try:
            value = _g1_elliptic_scalar(r, alpha, complex(flat[0]), t, cmath.exp)
            return np.array([value]).reshape(x.shape)
        except (ArithmeticError, ValueError):
            pass  # cmath raises where numpy returns inf or nan
    if flat.size == 0:
        return np.empty(x.shape, dtype=np.complex128)
    lz = 2j * r * flat - r * alpha
    k = np.rint((lz.real - t.centre) / -t.log_q.real)
    steps = int(np.max(np.abs(k)))
    _within_cap(steps, "elliptic gamma", "theta steps", "the point is too far from the annulus")
    ly = lz + k * t.log_q
    ends = np.stack([lz.real, ly.real])
    terms, factors = _elliptic_counts(t, float(np.max(np.abs(ly.real - t.centre))),
                                      float(np.min(ends)), float(np.max(ends)))
    yu = np.exp(np.stack([ly, t.log_pq - ly]))
    acc = np.zeros_like(yu)
    for c in t.coef[terms - 1::-1]:
        acc += c
        acc *= yu
    value = np.exp(acc[0] - acc[1] - r * flat * flat / (2 * alpha))
    up, down = np.ones_like(flat), np.ones_like(flat)
    for j in range(steps):
        # step j of the points with more than j steps: the theta at q^j z
        # divides, the one at q^(-j-1) z multiplies; the others stay at z
        tv = np.exp(lz + np.where(k > j, j, np.where(k < -j, -j - 1, 0)) * t.log_q)
        sv, theta = t.p / tv, np.ones_like(tv)
        for _ in range(factors):
            theta *= (1 - tv) * (1 - sv)
            tv *= t.p
            sv *= t.p
        down *= np.where(k > j, theta, 1)
        up *= np.where(k < -j, theta, 1)
    return (value * up / down).reshape(x.shape)


# ---------------------------------------------------------------------------
# public interface
# ---------------------------------------------------------------------------


def _g1_mp(case: CaseParams, alpha, x):
    """The primitive at one mpmath point ``x`` (``alpha`` an mpmath number)
    at the working precision, with term counts for the log of its epsilon:
    the float scalar code of the trigonometric and elliptic cases with
    ``mpmath.exp`` and nome powers or tables built, uncached, at that
    epsilon, the float trapezoidal plan of the hyperbolic integral summed in
    mpmath (:func:`_hyperbolic_mp`), and ``mpmath.gamma`` for the rational
    case.  The independent references are in the tests."""
    log_tol = float(mpmath.log(mpmath.eps))
    r, a = mpmath.mpf(case.r), mpmath.mpf(case.a)
    kind = case.kind
    if kind is CaseKind.RATIONAL:
        return mpmath.gamma(0.5 + x / (1j * alpha))
    if kind is CaseKind.TRIGONOMETRIC:
        count = _geometric_terms(float(r * alpha.real), 0.0, float(2 * r * abs(x.imag)), log_tol)
        table = [mpmath.exp(-r * alpha * (2 * n - 1)) for n in range(1, count + 1)]
        return _g1_trigonometric_scalar(r, alpha, x, table, mpmath.exp)
    if kind is CaseKind.HYPERBOLIC:
        return _hyperbolic_mp(a, alpha, x - 0.5j * a, log_tol)
    t = _elliptic_tables_at(r, a, alpha, log_tol, mpmath.exp)
    return _g1_elliptic_scalar(r, alpha, x, t, mpmath.exp)


def gamma_G1(case: CaseParams, alpha, x):
    """The primitive solution on the half-plane ``Re(alpha) > 0``: there it
    is :func:`gamma_G`, scalar routes included.  An mpmath ``x`` gives an
    mpmath value (see :func:`_g1_mp`)."""
    _require_alpha(alpha, positive=True)
    if _is_mp(x):
        return _g1_mp(case, mpmath.mpmathify(alpha), x)
    return gamma_G(case, alpha, x)


def _g1_array(case: CaseParams, alpha: complex, x):
    """The primitive at ``Re(alpha) > 0`` on numpy's path: the array path
    of each case, which also takes the scalars the routes of
    :func:`gamma_G` pass on."""
    xx, scalar = _as_complex_array(x)
    kind = case.kind
    if kind is CaseKind.RATIONAL:
        vals = _euler_gamma_array(0.5 + xx / (1j * alpha))
    elif kind is CaseKind.TRIGONOMETRIC:
        vals = _g1_trigonometric(case, alpha, xx)
    elif kind is CaseKind.HYPERBOLIC:
        vals = _g1_hyperbolic(case, alpha, xx)
    else:
        vals = _g1_elliptic(case, alpha, xx)
    return _restore(np.asarray(vals, dtype=np.complex128), scalar)


def gamma_G(case: CaseParams, alpha, x):
    """Gamma function continued to both half-planes ``Re(alpha) != 0``.

    For ``Re(alpha) < 0`` this is ``gamma_G1(case, -alpha, -x)``, so the
    reflection rule ``G(x; -alpha) == G(-x; alpha)`` holds identically.
    A rational, trigonometric or elliptic scalar is evaluated with ``cmath``
    (the rational one by :func:`_euler_gamma`) and a hyperbolic one as a
    group of one row; everything else, and a scalar where ``cmath`` raises
    (a pole of Euler's gamma, an overflow of the value or of the
    reflection's factors), goes through the array path of each case.  An
    mpmath ``x`` is evaluated in mpmath at the working precision by the
    same algorithms (see :func:`_g1_mp`) and gives an mpmath value; its
    term counts, cutoff, trapezoidal step and hyperbolic limits follow that
    precision, not :data:`~vandiejen.sfun.TARGET_REL_ERR`.  The independent references for
    both routes are in the tests.
    """
    # the checks of _require_alpha inline for a float or complex alpha; a
    # float takes ``+ 0j``, the same complex at a fifth of complex()'s cost
    if type(alpha) is float and 0.0 < abs(alpha) < math.inf:
        checked = alpha + 0j
    elif type(alpha) is complex and alpha.real and cmath.isfinite(alpha):
        checked = alpha
    else:
        checked = _require_alpha(alpha, positive=False)
    if not isinstance(x, _SCALAR_TYPES):
        if _is_mp(x):
            return gamma_G1(case, -alpha, -x) if checked.real < 0 else gamma_G1(case, alpha, x)
        if checked.real < 0:
            return _g1_array(case, -checked, -np.asarray(x, dtype=np.complex128))
        return _g1_array(case, checked, x)
    alpha = checked
    z = x if type(x) is complex else complex(x)
    if alpha.real < 0:
        alpha, z = -alpha, -z
    kind = case.kind
    if kind is CaseKind.RATIONAL:
        try:
            return _euler_gamma(0.5 + z / (1j * alpha))
        except (ArithmeticError, ValueError):
            pass  # a pole, or cmath raising where numpy returns inf or nan
    elif kind is CaseKind.TRIGONOMETRIC:
        r = case.r
        count = _geometric_terms(r * alpha.real, 0.0, 2 * r * abs(z.imag), _LOG_TARGET)
        try:
            return _g1_trigonometric_scalar(r, alpha, z, _trig_table(r, alpha, count), cmath.exp)
        except (ArithmeticError, ValueError):
            pass
    elif kind is CaseKind.HYPERBOLIC:
        return _hyperbolic_GR(case.a, alpha, [z - 0.5j * case.a])[0]
    else:
        tables = _elliptic_tables(case.r, case.a, alpha)
        try:
            return _g1_elliptic_scalar(case.r, alpha, z, tables, cmath.exp)
        except (ArithmeticError, ValueError):
            pass
    return _g1_array(case, alpha, z)


def functional_eq_constant(case: CaseParams, alpha) -> complex:
    """Signed constant ``c`` with ``G(x + i a/2) = c s(x) G(x - i a/2)``.

    On ``Re(alpha) > 0`` this is the primitive's constant; on
    ``Re(alpha) < 0`` the continuation flips it to ``-c(-alpha)``.
    """
    alpha = _require_alpha(alpha, positive=False)
    if alpha.real < 0:
        return -functional_eq_constant(case, -alpha)
    kind = case.kind
    if kind is CaseKind.RATIONAL:
        return 1.0 / (1j * alpha)
    if kind is CaseKind.TRIGONOMETRIC:
        return -2j * case.r
    if kind is CaseKind.HYPERBOLIC:
        return -2j * math.pi / case.a
    # elliptic: -i r / prod_{n>=1} (1 - exp(-2 r n a))
    return -1j * case.r / _elliptic_constant_product(case.r, case.a)


@lru_cache(maxsize=64)
def _elliptic_constant_product(r: float, a: float) -> float:
    """``prod_{n>=1} (1 - exp(-2 r n a))`` to relative error :data:`TARGET_REL_ERR`."""
    count = max(2, int(math.ceil(-math.log(TARGET_REL_ERR) / (2 * r * a))) + 2)
    if count > _PRODUCT_HARD_CAP:
        raise ConvergenceError("elliptic constant product does not converge")
    prod = 1.0
    for n in range(1, count + 1):
        prod *= 1.0 - math.exp(-2 * r * n * a)
    return prod


def gamma_ratio_shift(case: CaseParams, alpha, z, steps: int):
    """Exact ratio ``G(z + steps * i alpha) / G(z)`` via the difference equation.

    Each unit step up multiplies by ``c * s(z + i alpha/2 + j i alpha)``;
    steps down divide by the matching factors.  No gamma evaluation takes
    place, so this is cheap, branch-free, and exact up to the accuracy of
    ``s`` itself.  ``steps`` may be any integer, and ``z`` may be an array.
    """
    alpha = _require_alpha(alpha, positive=False)
    zz, scalar = _as_complex_array(z)
    c = functional_eq_constant(case, alpha)
    out = _step_ratio(lambda w: np.atleast_1d(s_eval(case, w)), c, alpha, zz, steps,
                      np.ones_like(zz))
    return _restore(out, scalar)


def _step_ratio(s, c: complex, alpha: complex, z, steps: int, out):
    """``out`` times ``G(z + steps * i alpha) / G(z)``, with ``s`` the
    building block and ``c`` the signed constant of the difference
    equation: each unit step up multiplies by ``c * s(z + i alpha/2 + j i alpha)``,
    each step down divides by the matching factor."""
    if steps > 0:
        for j in range(steps):
            out = out * (c * s(z + 0.5j * alpha + 1j * j * alpha))
    elif steps < 0:
        for j in range(1, -steps + 1):
            out = out / (c * s(z - 0.5j * alpha - 1j * (j - 1) * alpha))
    return out
