"""Gamma-type functions paired with each building-block regime.

For every case the function ``G(x; alpha)`` solves the first-order
difference equation

    G(x + i alpha / 2) / G(x - i alpha / 2) = c * s(x)

with a case constant ``c`` depending on ``alpha`` and the case scales.
Solutions are unique only up to ``i alpha``-periodic multipliers, so the
package pins one concrete solution per case:

* rational:       Euler's gamma, ``G_1(x) = Gamma(1/2 + x / (i alpha))``
* trigonometric:  a q-shifted factorial with a Gaussian prefactor
* hyperbolic:     the exponential of a principal-value style integral
* elliptic:       a double q-product with a Gaussian prefactor

The primitives ``G_1`` are defined for ``Re(alpha) > 0``.  They extend to
``Re(alpha) < 0`` through ``G(x; alpha) = G_1(-x; -alpha)``, which flips
the sign of the difference-equation constant: for ``Re(alpha) < 0`` the
constant is ``-c(-alpha)``.  :func:`functional_eq_constant` returns the
correct signed constant for either half-plane.

The hyperbolic evaluator never integrates close to the edge of its
convergence strip.  It first walks the argument toward the real axis with
exact ``2 cosh`` functional-equation steps, integrates where the tail
decays at rate ``Re(a)`` or better, and multiplies the steps back in.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from .sfun import (
    DEFAULT_POLICY,
    CaseKind,
    CaseParams,
    ConvergenceError,
    DomainError,
    TruncationPolicy,
    _DeferredModule,
    _SCALAR_TYPES,
    _as_complex_array,
    _restore,
    s_eval,
)

mpmath = _DeferredModule("mpmath")
scipy_special = _DeferredModule("scipy.special")

__all__ = [
    "gamma_G1",
    "gamma_G",
    "functional_eq_constant",
    "functional_residual",
    "gamma_ratio_shift",
]

_PRODUCT_HARD_CAP = 200_000
_DOUBLE_PRODUCT_CAP = 400


def _require_alpha(alpha: complex, positive: bool = True) -> complex:
    alpha = complex(alpha)
    if alpha.real == 0:
        raise DomainError("alpha must have nonzero real part")
    if positive and alpha.real < 0:
        raise DomainError("this primitive needs Re(alpha) > 0; use gamma_G instead")
    return alpha


def _geometric_terms(step: float, start: float, growth: float, tol: float) -> int:
    """Number of terms so that exp(start - step*(2n-1) + growth) < tol.

    ``step`` is the per-index decay exponent, ``growth`` a worst-case
    argument-dependent amplification, both in natural-log units.
    """
    if step <= 0:
        raise DomainError("non-decaying product; check parameter signs")
    needed = (growth + start - math.log(tol)) / step
    count = max(2, int(math.ceil((needed + 1) / 2)) + 1)
    if count > _PRODUCT_HARD_CAP:
        raise ConvergenceError(
            f"product needs {count} factors to reach tol={tol:g}; "
            "parameters are too close to a degenerate limit"
        )
    return count


# ---------------------------------------------------------------------------
# case primitives (Re(alpha) > 0)
# ---------------------------------------------------------------------------


def _g1_rational(alpha: complex, x: np.ndarray, policy: TruncationPolicy) -> np.ndarray:
    if policy.precision_dps is not None:
        with mpmath.workdps(policy.precision_dps):
            vals = [
                complex(mpmath.gamma(mpmath.mpf("0.5") + mpmath.mpc(complex(v)) / (1j * alpha)))
                for v in x.ravel()
            ]
        return np.array(vals).reshape(x.shape)
    return scipy_special.gamma(0.5 + x / (1j * alpha))


def _g1_trigonometric(case: CaseParams, alpha: complex, x: np.ndarray, policy: TruncationPolicy) -> np.ndarray:
    r = case.r
    tol = policy.target_rel_err
    im_max = float(np.max(np.abs(x.imag)))
    count = _geometric_terms(r * alpha.real, 0.0, 2 * r * im_max, tol)

    if policy.precision_dps is not None:
        with mpmath.workdps(policy.precision_dps):
            out = []
            for v in x.ravel():
                xm = mpmath.mpc(complex(v))
                prod = mpmath.mpc(1)
                for n in range(1, count + 1):
                    prod *= 1 - mpmath.e ** (-r * alpha * (2 * n - 1) + 2j * r * xm)
                pref = mpmath.e ** (-r * xm**2 / (2 * alpha))
                out.append(complex(pref / prod))
        return np.array(out).reshape(x.shape)

    # factors 1 - u_n exp(2 i r x), broadcast (terms, points)
    u = np.array(_trig_table(r, alpha, count))
    e = np.exp(2j * r * x.ravel())
    prod = np.prod(1.0 - u[:, None] * e[None, :], axis=0)
    pref = np.exp(-r * x.ravel() ** 2 / (2 * alpha))
    return (pref / prod).reshape(x.shape)


@lru_cache(maxsize=64)
def _trig_table(r: float, alpha: complex, count: int) -> tuple[complex, ...]:
    """``u_n = exp(-r alpha (2n-1))`` for ``n = 1..count``, the nome powers
    of the trigonometric product, shared by the scalar and array paths."""
    return tuple(cmath.exp(-r * alpha * (2 * n - 1)) for n in range(1, count + 1))


def _g1_trigonometric_scalar(r: float, alpha: complex, x: complex, count: int) -> complex:
    """The trigonometric primitive at one point in ``cmath``: the array
    path's arithmetic without numpy's per-call cost."""
    e = cmath.exp(2j * r * x)
    prod = 1.0 + 0j
    for u in _trig_table(r, alpha, count):
        prod *= 1.0 - u * e
    return cmath.exp(-r * x * x / (2 * alpha)) / prod


@lru_cache(maxsize=8)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _hyperbolic_integrand(w: complex, a: float, alpha: complex, y: np.ndarray) -> np.ndarray:
    return (np.sin(2 * w * y) / (2 * np.sinh(a * y) * np.sinh(alpha * y)) - w / (a * alpha * y)) / y


def _hyperbolic_head(w, a, alpha, y0, order: int):
    """Integral of the regularised integrand over ``[0, y0]`` by series.

    Near the origin the integrand is a ratio of even power series divided
    by ``y^2``; direct evaluation there loses all digits to cancellation,
    so the first stretch is integrated term by term instead.  Works with
    either complex floats or mpmath numbers, following the argument types.
    """
    one = w / w if w != 0 else 1.0
    w2 = 4 * w * w
    aa = a * a
    bb = alpha * alpha

    def inv_odd_factorial(k):
        out = one
        for i in range(2, 2 * k + 2):
            out = out / i
        return out

    num = [one] + [(-1) ** k * w2**k * inv_odd_factorial(k) for k in range(1, order + 1)]
    den = []
    for k in range(order + 1):
        acc = 0 * one
        for j in range(k + 1):
            acc = acc + aa**j * inv_odd_factorial(j) * bb ** (k - j) * inv_odd_factorial(k - j)
        den.append(acc)
    quot = [one]
    for k in range(1, order + 1):
        acc = num[k]
        for j in range(1, k + 1):
            acc = acc - den[j] * quot[k - j]
        quot.append(acc)
    total = 0 * one
    for k in range(order, 0, -1):
        total = total + quot[k] * y0 ** (2 * k - 1) / (2 * k - 1)
    return (w / (a * alpha)) * total


def _hyperbolic_GR(case: CaseParams, alpha: complex, w: complex, policy: TruncationPolicy) -> complex:
    """The hyperbolic integral primitive, continued by cosh steps.

    Returns ``exp(i * integral)`` where the integral runs over the log-scaled
    integrand built from ``sin(2 w y)``; before integrating, ``w`` is moved
    by multiples of ``i alpha`` until its imaginary part is small so the
    integral tail decays at rate ``Re(a + alpha) - 2 |Im w|  >=  Re(a)``.
    """
    a = case.a
    # step count toward the real axis
    k = -int(round(w.imag / alpha.real))
    w0 = w + 1j * k * alpha

    margin = a + alpha.real - 2 * abs(w0.imag)
    tol = policy.target_rel_err
    y_cut = (-math.log(tol) + 5.0) / margin
    if y_cut > policy.quadrature_cutoff:
        raise ConvergenceError(
            f"hyperbolic integral needs cutoff {y_cut:.1f} > "
            f"quadrature_cutoff={policy.quadrature_cutoff:g}; raise the policy cutoff"
        )
    y_cut = max(y_cut, 8.0)

    if policy.precision_dps is not None:
        with mpmath.workdps(policy.precision_dps):
            wm = mpmath.mpc(complex(w0))
            am = mpmath.mpf(a)
            alm = mpmath.mpc(complex(alpha))

            def h(y):
                return (
                    mpmath.sin(2 * wm * y) / (2 * mpmath.sinh(am * y) * mpmath.sinh(alm * y))
                    - wm / (am * alm * y)
                ) / y

            y0m = mpmath.mpf("1e-3")
            order = int(math.ceil((policy.precision_dps + 8) / 6)) + 2
            head_mp = _hyperbolic_head(wm, am, alm, y0m, order)
            integral = head_mp + mpmath.quad(h, [y0m, 1, 5, y_cut, mpmath.inf])
            base = complex(mpmath.e ** (1j * integral))
    else:
        y0 = 1e-3
        head = _hyperbolic_head(complex(w0), complex(a), complex(alpha), y0, 3)

        n_panels = max(
            int(math.ceil(policy.quadrature_points / 16)),
            int(math.ceil(y_cut * (1.0 + abs(2 * w0)) / 8.0)),
        )
        nodes, weights = _leggauss(16)
        edges = np.linspace(y0, y_cut, n_panels + 1)
        mids = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1:] - edges[:-1])
        ys = (mids[:, None] + half[:, None] * nodes[None, :]).ravel()
        ws = (half[:, None] * weights[None, :]).ravel()
        body = np.sum(ws * _hyperbolic_integrand(w0, a, alpha, ys))

        tail = -w0 / (a * alpha * y_cut)
        base = cmath.exp(1j * (head + body + tail))

    # multiply the functional-equation steps back in
    if k > 0:
        # G_R(w) = G_R(w + i k alpha) / prod_{j=0}^{k-1} 2 cosh(pi (w + i alpha/2 + i j alpha)/a)
        corr = 1.0 + 0j
        for j in range(k):
            corr *= 2 * cmath.cosh(math.pi * (w + 1j * alpha / 2 + 1j * j * alpha) / a)
        return base / corr
    if k < 0:
        corr = 1.0 + 0j
        for j in range(1, -k + 1):
            corr *= 2 * cmath.cosh(math.pi * (w - 1j * alpha / 2 - 1j * (j - 1) * alpha) / a)
        return base * corr
    return base


def _g1_hyperbolic(case: CaseParams, alpha: complex, x: np.ndarray, policy: TruncationPolicy) -> np.ndarray:
    out = np.empty(x.shape, dtype=np.complex128)
    flat = x.ravel()
    res = out.ravel()
    for idx, v in enumerate(flat):
        res[idx] = _hyperbolic_GR(case, alpha, complex(v) - 0.5j * case.a, policy)
    return out


def _g1_elliptic(case: CaseParams, alpha: complex, x: np.ndarray, policy: TruncationPolicy) -> np.ndarray:
    r, a = case.r, case.a
    tol = policy.target_rel_err
    w = x - 0.5j * a
    im_max = float(np.max(np.abs(w.imag)))
    growth = 2 * r * im_max

    log_p = -r * a
    log_t = -r * alpha.real
    n_count = _count_double(log_p, log_t, growth, tol)
    m_count = _count_double(log_t, log_p, growth, tol)

    if policy.precision_dps is not None:
        with mpmath.workdps(policy.precision_dps):
            out = []
            for v in x.ravel():
                wm = mpmath.mpc(complex(v)) - 0.5j * a
                prod = mpmath.mpc(1)
                for n in range(1, n_count + 1):
                    for m in range(1, m_count + 1):
                        u = mpmath.e ** (-r * a * (2 * n - 1) - r * alpha * (2 * m - 1))
                        prod *= (1 - u * mpmath.e ** (-2j * r * wm)) / (1 - u * mpmath.e ** (2j * r * wm))
                pref = mpmath.e ** (-r * mpmath.mpc(complex(v)) ** 2 / (2 * alpha))
                out.append(complex(pref * prod))
        return np.array(out).reshape(x.shape)

    n = np.arange(1, n_count + 1)
    m = np.arange(1, m_count + 1)
    log_u = (-r * a * (2 * n - 1))[:, None] + (-r * alpha * (2 * m - 1))[None, :]
    u = np.exp(log_u).ravel()  # (n_count * m_count,)
    e_minus = np.exp(-2j * r * w.ravel())
    e_plus = np.exp(2j * r * w.ravel())
    num = 1.0 - u[:, None] * e_minus[None, :]
    den = 1.0 - u[:, None] * e_plus[None, :]
    prod = np.prod(num / den, axis=0)
    pref = np.exp(-r * x.ravel() ** 2 / (2 * alpha))
    return (pref * prod).reshape(x.shape)


def _count_double(step_log: float, other_log: float, growth: float, tol: float) -> int:
    """Terms along one axis of the double product, partner index at 1."""
    needed = (growth - math.log(tol) + other_log) / (-step_log)
    count = max(2, int(math.ceil((needed + 1) / 2)) + 1)
    if count > _DOUBLE_PRODUCT_CAP:
        raise ConvergenceError(
            f"elliptic gamma product needs {count} factors per axis; "
            "nome too close to 1"
        )
    return count


# ---------------------------------------------------------------------------
# public interface
# ---------------------------------------------------------------------------


def gamma_G1(case: CaseParams, alpha, x, policy: TruncationPolicy = DEFAULT_POLICY):
    """The primitive solution on the half-plane ``Re(alpha) > 0``."""
    alpha = _require_alpha(alpha, positive=True)
    xx, scalar = _as_complex_array(x)
    kind = case.kind
    if kind is CaseKind.RATIONAL:
        vals = _g1_rational(alpha, xx, policy)
    elif kind is CaseKind.TRIGONOMETRIC:
        vals = _g1_trigonometric(case, alpha, xx, policy)
    elif kind is CaseKind.HYPERBOLIC:
        vals = _g1_hyperbolic(case, alpha, xx, policy)
    else:
        vals = _g1_elliptic(case, alpha, xx, policy)
    return _restore(np.asarray(vals, dtype=np.complex128), scalar)


def gamma_G(case: CaseParams, alpha, x, policy: TruncationPolicy = DEFAULT_POLICY):
    """Gamma function continued to both half-planes ``Re(alpha) != 0``.

    For ``Re(alpha) < 0`` this is ``gamma_G1(case, -alpha, -x)``, so the
    reflection rule ``G(x; -alpha) == G(-x; alpha)`` holds identically.
    A rational or trigonometric scalar is evaluated with ``cmath`` (unless
    ``policy.precision_dps`` is set); everything else, and a scalar where
    ``cmath`` overflows, goes through the array path of :func:`gamma_G1`.
    """
    alpha = _require_alpha(alpha, positive=False)
    scalar = isinstance(x, _SCALAR_TYPES)
    if alpha.real < 0:
        alpha = -alpha
        x = -complex(x) if scalar else -np.asarray(x, dtype=np.complex128)
    if scalar and policy.precision_dps is None:
        z = complex(x)
        if case.kind is CaseKind.RATIONAL:
            return complex(scipy_special.gamma(0.5 + z / (1j * alpha)))
        if case.kind is CaseKind.TRIGONOMETRIC:
            r = case.r
            count = _geometric_terms(r * alpha.real, 0.0, 2 * r * abs(z.imag), policy.target_rel_err)
            try:
                return _g1_trigonometric_scalar(r, alpha, z, count)
            except (ArithmeticError, ValueError):
                pass  # cmath raises where numpy returns inf or nan
    return gamma_G1(case, alpha, x, policy)


def functional_eq_constant(case: CaseParams, alpha, policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Signed constant ``c`` with ``G(x + i a/2) = c s(x) G(x - i a/2)``.

    On ``Re(alpha) > 0`` this is the primitive's constant; on
    ``Re(alpha) < 0`` the continuation flips it to ``-c(-alpha)``.
    """
    alpha = _require_alpha(alpha, positive=False)
    if alpha.real < 0:
        return -functional_eq_constant(case, -alpha, policy)
    kind = case.kind
    if kind is CaseKind.RATIONAL:
        return 1.0 / (1j * alpha)
    if kind is CaseKind.TRIGONOMETRIC:
        return -2j * case.r
    if kind is CaseKind.HYPERBOLIC:
        return -2j * math.pi / case.a
    # elliptic: -i r / prod_{n>=1} (1 - exp(-2 r n a))
    return -1j * case.r / _elliptic_constant_product(case.r, case.a, policy.target_rel_err)


@lru_cache(maxsize=64)
def _elliptic_constant_product(r: float, a: float, tol: float) -> float:
    """``prod_{n>=1} (1 - exp(-2 r n a))`` to relative error ``tol``."""
    count = max(2, int(math.ceil(-math.log(tol) / (2 * r * a))) + 2)
    if count > _PRODUCT_HARD_CAP:
        raise ConvergenceError("elliptic constant product does not converge")
    prod = 1.0
    for n in range(1, count + 1):
        prod *= 1.0 - math.exp(-2 * r * n * a)
    return prod


def functional_residual(case: CaseParams, alpha, x, policy: TruncationPolicy = DEFAULT_POLICY):
    """Relative defect of the difference equation at ``x``.

    Computes ``|G(x + i a/2) - c s(x) G(x - i a/2)|`` divided by the larger
    of the two sides.  Zero (to rounding) certifies that the evaluator, the
    building block and the constant are mutually consistent at ``x``.
    """
    alpha = _require_alpha(alpha, positive=False)
    xx, scalar = _as_complex_array(x)
    up = np.atleast_1d(gamma_G(case, alpha, xx + 0.5j * alpha, policy))
    dn = np.atleast_1d(gamma_G(case, alpha, xx - 0.5j * alpha, policy))
    c = functional_eq_constant(case, alpha, policy)
    lhs = up
    rhs = c * np.atleast_1d(s_eval(case, xx, policy)) * dn
    scale = np.maximum(np.abs(lhs), np.abs(rhs))
    resid = np.abs(lhs - rhs) / np.where(scale > 0, scale, 1.0)
    return float(resid[0]) if scalar else resid


def gamma_ratio_shift(case: CaseParams, alpha, z, steps: int, policy: TruncationPolicy = DEFAULT_POLICY):
    """Exact ratio ``G(z + steps * i alpha) / G(z)`` via the difference equation.

    Each unit step up multiplies by ``c * s(z + i alpha/2 + j i alpha)``;
    steps down divide by the matching factors.  No gamma evaluation takes
    place, so this is cheap, branch-free, and exact up to the accuracy of
    ``s`` itself.  ``steps`` may be any integer, and ``z`` may be an array.
    """
    alpha = _require_alpha(alpha, positive=False)
    zz, scalar = _as_complex_array(z)
    c = functional_eq_constant(case, alpha, policy)
    out = _step_ratio(lambda w: np.atleast_1d(s_eval(case, w, policy)), c, alpha, zz, steps,
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
