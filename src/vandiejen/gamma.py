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
decays at rate ``Re(a)`` or better, and multiplies the steps back in.  In
float64 the points of one cached quadrature grid are numpy rows, each summed
alone, so a scalar and the same point in any array give the same bits.

In float64 the term counts aim at :data:`~vandiejen.sfun.TARGET_REL_ERR`,
and a hyperbolic integral that needs an upper limit beyond 40 fails.
An mpmath argument ``x`` takes the same formulas in mpmath at the working
precision ``mpmath.mp.dps`` and gives an mpmath value; its product term
counts and its hyperbolic cutoff follow that precision.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from .sfun import (
    TARGET_REL_ERR,
    CaseKind,
    CaseParams,
    ConvergenceError,
    DomainError,
    _DeferredModule,
    _SCALAR_TYPES,
    _as_complex_array,
    _is_mp,
    _restore,
    s_eval,
)

mpmath = _DeferredModule("mpmath")
scipy_special = _DeferredModule("scipy.special")

__all__ = [
    "gamma_G1",
    "gamma_G",
    "functional_eq_constant",
    "gamma_ratio_shift",
]

_PRODUCT_HARD_CAP = 200_000
_DOUBLE_PRODUCT_CAP = 400
# the hyperbolic integral: Gauss-Legendre panels of 16 nodes, at least this
# many, and the largest upper limit before the analytic tail correction
_MIN_PANELS = 13
_QUADRATURE_CUTOFF = 40.0
# the float head series covers [0, y0] of the hyperbolic integral
_HEAD_Y0 = 1e-3


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


def _g1_trigonometric(case: CaseParams, alpha: complex, x: np.ndarray) -> np.ndarray:
    r = case.r
    im_max = float(np.max(np.abs(x.imag), initial=0.0))
    count = _geometric_terms(r * alpha.real, 0.0, 2 * r * im_max, TARGET_REL_ERR)
    # factors 1 - u_n exp(2 i r x), broadcast (terms, points) into one
    # temporary
    e = np.exp(2j * r * x.ravel())
    factors = _trig_array(r, alpha, count)[:, None] * e[None, :]
    prod = np.prod(np.subtract(1.0, factors, out=factors), axis=0)
    pref = np.exp(-r * x.ravel() ** 2 / (2 * alpha))
    return (pref / prod).reshape(x.shape)


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
    """Gauss-Legendre nodes and weights on ``[-1, 1]``, read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _head_coefficients(a, alpha, y0, order: int, one) -> list:
    """``c[0..order]`` in the number type of ``one``, with ``w * sum_j c[j]
    (4 w^2)^j`` the integral of the regularised integrand over ``[0, y0]``.

    Near the origin the integrand is a ratio of even power series divided
    by ``y^2``; direct evaluation there loses all digits to cancellation,
    so the first stretch is integrated term by term: the ratio's ``y^(2k)``
    term ``quot[k]`` is a polynomial of degree ``k`` in ``4 w^2``."""
    inv = [one]
    for k in range(1, order + 1):
        inv.append(inv[-1] / (2 * k) / (2 * k + 1))
    aa, bb = a * a, alpha * alpha
    den = [sum((aa**j * inv[j] * bb ** (k - j) * inv[k - j] for j in range(k + 1)), 0 * one)
           for k in range(order + 1)]
    quot, coef = [[one]], [0 * one] * (order + 1)
    for k in range(1, order + 1):
        acc = [0 * one] * k + [(-1) ** k * inv[k]]
        for j in range(1, k + 1):
            for i, c in enumerate(quot[k - j]):
                acc[i] = acc[i] - den[j] * c
        quot.append(acc)
        scale = y0 ** (2 * k - 1) / (2 * k - 1) / (a * alpha)
        coef = [c + q * scale for c, q in zip(coef, acc + [0 * one] * (order - k))]
    return coef


def _hyperbolic_head(w, coef):
    """The head series at ``w``, a complex, an array or an mpmath number."""
    w2 = 4 * w * w
    total = coef[-1]
    for c in coef[-2::-1]:
        total = total * w2 + c
    return w * total


def _hyperbolic_GR(a: float, alpha: complex, ws: list[complex]) -> list[complex]:
    """The hyperbolic integral primitive at the points ``ws``, continued by cosh steps.

    Returns ``exp(i * integral)`` where the integral runs over the log-scaled
    integrand built from ``sin(2 w y)``; before integrating, ``w`` is moved
    by multiples of ``i alpha`` until its imaginary part is small so the
    integral tail decays at rate ``Re(a + alpha) - 2 |Im w|  >=  Re(a)``.
    """
    steps = []
    for w in ws:
        k, w0, y_cut = _toward_the_axis(a, alpha, w, TARGET_REL_ERR)
        if y_cut > _QUADRATURE_CUTOFF:
            raise ConvergenceError(
                f"hyperbolic integral needs cutoff {y_cut:.1f}, above the "
                f"fixed limit {_QUADRATURE_CUTOFF:g}"
            )
        steps.append((k, w0, max(y_cut, 8.0)))
    bases = _hyperbolic_float(a, alpha, steps)
    return [_cosh_steps(base, w, k, alpha, a, cmath.cosh, math.pi)
            for w, (k, _, _), base in zip(ws, steps, bases)]


def _toward_the_axis(a, alpha, w, tol: float):
    """The step count ``k`` toward the real axis, ``w0 = w + i k alpha``, and
    the cutoff past which the integrand at ``w0`` has decayed below ``tol``."""
    k = -int(round(float(w.imag / alpha.real)))
    w0 = w + 1j * k * alpha
    margin = a + alpha.real - 2 * abs(w0.imag)
    return k, w0, (-math.log(tol) + 5.0) / margin


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


def _hyperbolic_mp(a, alpha, w, tol: float):
    """``G_R(w)`` at one mpmath point: stepped toward the real axis as in
    :func:`_hyperbolic_GR`, then integrated by ``mpmath.quad`` to infinity
    with the head series, at the working precision."""
    k, w0, y_cut = _toward_the_axis(a, alpha, w, tol)

    def h(y):
        return (mpmath.sin(2 * w0 * y) / (2 * mpmath.sinh(a * y) * mpmath.sinh(alpha * y))
                - w0 / (a * alpha * y)) / y

    y0 = mpmath.mpf("1e-3")
    order = int(math.ceil((mpmath.mp.dps + 8) / 6)) + 2
    head = _hyperbolic_head(w0, _head_coefficients(a, alpha, y0, order, mpmath.mpc(1)))
    base = mpmath.exp(1j * (head + mpmath.quad(h, [y0, 1, 5, max(y_cut, 8), mpmath.inf])))
    return _cosh_steps(base, w, k, alpha, a, mpmath.cosh, mpmath.pi)


def _hyperbolic_float(a: float, alpha: complex, steps: list[tuple]) -> list[complex]:
    """``exp(i * integral)`` at each stepped point ``(k, w0, y_cut)`` in float64.

    The points of one cached grid (:func:`_hyperbolic_grid`) form a group, a
    column of rows.  The first panel is summed node by node; on the others
    ``sin(2 w (c + h x))`` splits into ``exp(+-2 i w c)`` and ``exp(+-2 i w h x)``,
    and their sum is a bilinear form in the two.  Each row is summed alone,
    so a point's bits do not depend on the call."""
    groups: dict[tuple[int, int], list[int]] = {}
    for idx, (_, w0, y_cut) in enumerate(steps):
        y_grid = math.ceil(y_cut)
        n_panels = max(_MIN_PANELS, math.ceil(y_grid * (1.0 + abs(2 * w0)) / 8.0))
        groups.setdefault((y_grid, n_panels), []).append(idx)
    out = [0j] * len(steps)
    for key, rows in groups.items():
        z_first, d_first, e_first, mids, offsets, d_rest, poly = _hyperbolic_grid(a, alpha, *key)
        w = np.array([steps[i][1] for i in rows])
        col = w[:, None]
        first = (d_first * np.sin(col * z_first) - col * e_first).sum(axis=-1)
        phase = col[:, :, None] * np.array([[2j], [-2j]])
        pm = ((np.exp(phase * mids) @ d_rest) * np.exp(phase * offsets)).sum(axis=-1)
        total = _hyperbolic_head(w, poly) + first + (pm[:, 0] - pm[:, 1]) / 2j
        for i, v in zip(rows, np.exp(1j * total).tolist()):
            out[i] = v
    return out


@lru_cache(maxsize=64)
def _hyperbolic_grid(a: float, alpha: complex, y_grid: int, n_panels: int):
    """The point-free parts of the float integral, read-only: ``n_panels``
    panels of 16 Gauss-Legendre nodes ``y = c + h x`` on ``[y0, y_grid]``,
    where with the weights ``g`` the integrand is ``D sin(2 w y) - w E``,
    ``D = g / (2 sinh(a y) sinh(alpha y) y)`` and ``E = g / (a alpha y^2)``.
    Returns the first panel's ``2 y``, ``D`` and ``E``; the other panels'
    centres ``c``, offsets ``h x`` and ``D``; and the coefficients of the
    polynomial in ``w``: the head series less ``w`` times the other panels'
    ``E`` and the tail ``1 / (a alpha y_grid)``."""
    nodes, weights = _leggauss(16)
    h = (y_grid - _HEAD_Y0) / (2 * n_panels)
    mids = _HEAD_Y0 + h * (2 * np.arange(n_panels) + 1)
    offsets = h * nodes
    y = mids[:, None] + offsets
    # D and E in extended precision where the platform has it, rounded once:
    # the first panel's D sin(2 w y) and w E cancel, node by node
    g, yl = h * weights, y.astype(np.longdouble)
    d = (g / (2 * np.sinh(a * yl) * np.sinh(np.clongdouble(alpha) * yl) * yl)).astype(complex)
    e = (g / (np.clongdouble(a * alpha) * yl * yl)).astype(complex)
    poly = _head_coefficients(a, alpha, _HEAD_Y0, 3, 1 + 0j)
    poly[0] -= complex(e[1:].sum()) + 1 / (a * alpha * y_grid)
    tables = (2 * y[0], d[0], e[0], mids[1:], offsets, d[1:])
    for t in tables:
        t.flags.writeable = False
    return tables + (tuple(poly),)


def _g1_hyperbolic(case: CaseParams, alpha: complex, x: np.ndarray) -> np.ndarray:
    vals = _hyperbolic_GR(case.a, alpha, [v - 0.5j * case.a for v in x.ravel().tolist()])
    return np.array(vals, dtype=np.complex128).reshape(x.shape)


def _g1_elliptic(case: CaseParams, alpha: complex, x: np.ndarray) -> np.ndarray:
    r, a = case.r, case.a
    w = x - 0.5j * a
    im_max = float(np.max(np.abs(w.imag), initial=0.0))
    growth = 2 * r * im_max

    log_p = -r * a
    log_t = -r * alpha.real
    n_count = _count_double(log_p, log_t, growth, TARGET_REL_ERR)
    m_count = _count_double(log_t, log_p, growth, TARGET_REL_ERR)
    u = _elliptic_table(r, a, alpha, n_count, m_count)
    e_minus = np.exp(-2j * r * w.ravel())
    e_plus = np.exp(2j * r * w.ravel())
    num = 1.0 - u[:, None] * e_minus[None, :]
    den = 1.0 - u[:, None] * e_plus[None, :]
    prod = np.prod(num / den, axis=0)
    pref = np.exp(-r * x.ravel() ** 2 / (2 * alpha))
    return (pref * prod).reshape(x.shape)


@lru_cache(maxsize=16)
def _elliptic_table(r: float, a: float, alpha: complex, n_count: int, m_count: int) -> np.ndarray:
    """The nome powers ``exp(-r a (2n-1) - r alpha (2m-1))``, n-major, read-only."""
    n = np.arange(1, n_count + 1)
    m = np.arange(1, m_count + 1)
    log_u = (-r * a * (2 * n - 1))[:, None] + (-r * alpha * (2 * m - 1))[None, :]
    u = np.exp(log_u).ravel()
    u.flags.writeable = False
    return u


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


def _g1_mp(case: CaseParams, alpha, x):
    """The primitive at one mpmath point ``x`` (``alpha`` an mpmath number)
    at the working precision: the array path's formulas, with term counts
    for the working precision's epsilon (a float, so up to about 300
    digits)."""
    tol = float(mpmath.eps)
    r, a = mpmath.mpf(case.r), mpmath.mpf(case.a)
    kind = case.kind
    if kind is CaseKind.RATIONAL:
        return mpmath.gamma(0.5 + x / (1j * alpha))
    if kind is CaseKind.TRIGONOMETRIC:
        count = _geometric_terms(float(r * alpha.real), 0.0, float(2 * r * abs(x.imag)), tol)
        e = mpmath.exp(2j * r * x)
        prod = 1
        for n in range(1, count + 1):
            prod *= 1 - mpmath.exp(-r * alpha * (2 * n - 1)) * e
        return mpmath.exp(-r * x * x / (2 * alpha)) / prod
    w = x - 0.5j * a
    if kind is CaseKind.HYPERBOLIC:
        return _hyperbolic_mp(a, alpha, w, tol)
    log_p, log_t = float(-r * a), float(-r * alpha.real)
    growth = float(2 * r * abs(w.imag))
    n_count = _count_double(log_p, log_t, growth, tol)
    m_count = _count_double(log_t, log_p, growth, tol)
    e_minus, e_plus = mpmath.exp(-2j * r * w), mpmath.exp(2j * r * w)
    prod = 1
    for n in range(1, n_count + 1):
        for m in range(1, m_count + 1):
            u = mpmath.exp(-r * a * (2 * n - 1) - r * alpha * (2 * m - 1))
            prod *= (1 - u * e_minus) / (1 - u * e_plus)
    return mpmath.exp(-r * x * x / (2 * alpha)) * prod


def gamma_G1(case: CaseParams, alpha, x):
    """The primitive solution on the half-plane ``Re(alpha) > 0``; an
    mpmath ``x`` gives an mpmath value (see :func:`_g1_mp`)."""
    if _is_mp(x):
        _require_alpha(alpha, positive=True)
        return _g1_mp(case, mpmath.mpmathify(alpha), x)
    alpha = _require_alpha(alpha, positive=True)
    xx, scalar = _as_complex_array(x)
    kind = case.kind
    if kind is CaseKind.RATIONAL:
        vals = scipy_special.gamma(0.5 + xx / (1j * alpha))
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
    A rational or trigonometric scalar is evaluated with ``cmath`` and a
    hyperbolic one as a group of one row; everything else, and a scalar
    where ``cmath`` overflows, goes through the array path of
    :func:`gamma_G1`.  An mpmath ``x`` is evaluated in mpmath at the
    working precision and gives an mpmath value; its term counts and
    cutoff follow that precision, not :data:`~vandiejen.sfun.TARGET_REL_ERR`.
    """
    checked = _require_alpha(alpha, positive=False)
    scalar = isinstance(x, _SCALAR_TYPES)
    if not scalar and _is_mp(x):
        return gamma_G1(case, -alpha, -x) if checked.real < 0 else gamma_G1(case, alpha, x)
    alpha = checked
    if alpha.real < 0:
        alpha = -alpha
        x = -complex(x) if scalar else -np.asarray(x, dtype=np.complex128)
    if scalar:
        z = complex(x)
        if case.kind is CaseKind.RATIONAL:
            return complex(scipy_special.gamma(0.5 + z / (1j * alpha)))
        if case.kind is CaseKind.TRIGONOMETRIC:
            r = case.r
            count = _geometric_terms(r * alpha.real, 0.0, 2 * r * abs(z.imag), TARGET_REL_ERR)
            try:
                return _g1_trigonometric_scalar(r, alpha, z, count)
            except (ArithmeticError, ValueError):
                pass  # cmath raises where numpy returns inf or nan
        if case.kind is CaseKind.HYPERBOLIC:
            return _hyperbolic_GR(case.a, alpha, [z - 0.5j * case.a])[0]
    return gamma_G1(case, alpha, x)


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
