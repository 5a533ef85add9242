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
float64 the points of one call share numpy node blocks, one row per point,
so a scalar and the same point in any array give the same bits.

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
# rows of one hyperbolic node block: keeps its temporaries well under 1 MB
_NODE_BLOCK_POINTS = 64
# the hyperbolic integral: Gauss-Legendre panels of 16 nodes, at least this
# many, and the largest upper limit before the analytic tail correction
_MIN_PANELS = 13
_QUADRATURE_CUTOFF = 40.0


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
    return np.polynomial.legendre.leggauss(n)


def _hyperbolic_integrand(w: complex, a: float, alpha: complex, y: np.ndarray) -> np.ndarray:
    return (np.sin(2 * w * y) / (2 * np.sinh(a * y) * np.sinh(alpha * y)) - w / (a * alpha * y)) / y


def _head_table(a, alpha, order: int, one):
    """The coordinate-free part of the head series for ``k = 0..order``:
    the inverse odd factorials ``1/(2k+1)!`` and ``den[k]``, the series of
    ``sinh(a y) sinh(alpha y) / (a alpha y^2)``, in the number type of ``one``."""
    inv = [one]
    for k in range(1, order + 1):
        inv.append(inv[-1] / (2 * k) / (2 * k + 1))
    aa, bb = a * a, alpha * alpha
    den = []
    for k in range(order + 1):
        acc = 0 * one
        for j in range(k + 1):
            acc = acc + aa**j * inv[j] * bb ** (k - j) * inv[k - j]
        den.append(acc)
    return inv, den


@lru_cache(maxsize=64)
def _head_table_float(a: complex, alpha: complex, order: int):
    return _head_table(a, alpha, order, 1 + 0j)


def _hyperbolic_head(w, a, alpha, y0, table):
    """Integral of the regularised integrand over ``[0, y0]`` by series.

    Near the origin the integrand is a ratio of even power series divided
    by ``y^2``; direct evaluation there loses all digits to cancellation,
    so the first stretch is integrated term by term instead.  Works with
    either complex floats or mpmath numbers, following the argument types.
    """
    inv, den = table
    one = inv[0]
    w2 = 4 * w * w
    num = [one] + [(-1) ** k * w2**k * inv[k] for k in range(1, len(inv))]
    quot = [one]
    for k in range(1, len(inv)):
        acc = num[k]
        for j in range(1, k + 1):
            acc = acc - den[j] * quot[k - j]
        quot.append(acc)
    total = 0 * one
    for k in range(len(inv) - 1, 0, -1):
        total = total + quot[k] * y0 ** (2 * k - 1) / (2 * k - 1)
    return (w / (a * alpha)) * total


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
    head = _hyperbolic_head(w0, a, alpha, y0, _head_table(a, alpha, order, mpmath.mpc(1)))
    base = mpmath.exp(1j * (head + mpmath.quad(h, [y0, 1, 5, max(y_cut, 8), mpmath.inf])))
    return _cosh_steps(base, w, k, alpha, a, mpmath.cosh, mpmath.pi)


def _hyperbolic_float(a: float, alpha: complex, steps: list[tuple]) -> list[complex]:
    """``exp(i * integral)`` at each stepped point ``(k, w0, y_cut)`` in float64:
    points with one panel count share node blocks, each row summed alone."""
    y0 = 1e-3
    blocks: dict[int, list[int]] = {}
    for idx, (_, w0, y_cut) in enumerate(steps):
        n_panels = max(_MIN_PANELS, int(math.ceil(y_cut * (1.0 + abs(2 * w0)) / 8.0)))
        blocks.setdefault(n_panels, []).append(idx)
    nodes, weights = _leggauss(16)
    body: dict[int, complex] = {}
    for n_panels, idxs in blocks.items():
        for start in range(0, len(idxs), _NODE_BLOCK_POINTS):
            rows = idxs[start:start + _NODE_BLOCK_POINTS]
            # np.linspace(y0, y_cut, n_panels + 1) per row in linspace's own
            # arithmetic (the same bits) without its per-call overhead
            y_cut = np.array([steps[i][2] for i in rows])
            edges = np.arange(n_panels + 1) * ((y_cut - y0) / n_panels)[:, None] + y0
            edges[:, -1] = y_cut
            mids = 0.5 * (edges[:, 1:] + edges[:, :-1])
            half = 0.5 * (edges[:, 1:] - edges[:, :-1])[:, :, None]
            ys = (mids[:, :, None] + half * nodes).reshape(len(rows), -1)
            ws = (half * weights).reshape(len(rows), -1)
            w0 = np.array([steps[i][1] for i in rows])[:, None]
            body.update(zip(rows, (ws * _hyperbolic_integrand(w0, a, alpha, ys)).sum(axis=-1).tolist()))
    table = _head_table_float(complex(a), complex(alpha), 3)
    out = []
    for idx, (_, w0, y_cut) in enumerate(steps):
        head = _hyperbolic_head(w0, complex(a), complex(alpha), y0, table)
        tail = -w0 / (a * alpha * y_cut)
        out.append(cmath.exp(1j * (head + body[idx] + tail)))
    return out


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
    hyperbolic one as a one-row node block; everything else, and a scalar
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
