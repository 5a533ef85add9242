"""Joint eigenfunctions, ground states, kernel functions, branch tracking.

The eigenfunction attached to a mass assignment is a product of
single-coordinate blocks and pair blocks, most of which carry square
roots of gamma-function ratios.  Square roots force a branch choice, and
this module deals with that in two complementary ways.

*Squared route.*  Products of gamma and building-block factors are
represented symbolically as :class:`GFactor` / :class:`SFactor` lists in
which every exponent is an integer, so no branch choice is needed.  The
squared modulus of a ground state or kernel function, and in particular
its exact multiplicative shift ratios (via the gamma difference
equation), are available through :func:`factor_value` and
:func:`factor_ratio`.  The verification engine uses these for the
branch-free residual checks.

*Continued route.*  For checking the conjugation identity between the
square-root form of the operator and its plain form, square roots are
continued analytically along straight-line paths from a fixed base point
(:class:`BranchTracker`).  This pins a concrete sheet for every factor
and makes sign bookkeeping falsifiable: deliberately flipping one sheet
(`set_fault`) must blow up the residual.  :class:`ConjugatedTerms` holds
the shift terms of a square-root-form operator conjugated by a function F,
for the conjugation identity (F the eigenfunction, see
:func:`conjugation_terms`) and the direct kernel checks (F the kernel)
alike: their continued roots, the gauge calibration at the base point and
the coherence check at other points.

The module also provides the explicit factor builders for the ground
states and the three kernel types (gamma cross kernel, building-block
cross kernel, and the four-block deformed kernel), plus the deformed
trigonometric power sums used by the polynomial-invariance checks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache
from typing import Callable, Sequence

import numpy as np

from .gamma import _step_ratio, functional_eq_constant, gamma_G
from .operators import (MassTag, Operator, ShiftBlock, _batched, _coefficient_memo, _moved,
                        conjugated_operator, d_param, dual_couplings, reflected_couplings)
from .sfun import CaseParams, DomainError, PoleProximityError, s_eval

__all__ = [
    "BranchError",
    "BranchTracker",
    "GFactor",
    "SFactor",
    "factor_value",
    "factor_ratio",
    "groundstate_sq_factors",
    "deformed_groundstate_sq_factors",
    "cauchy_kernel_factors",
    "dual_cauchy_kernel_factors",
    "deformed_kernel_cross_factors",
    "pair_kind",
    "phi_factor_specs",
    "eigenfunction_value",
    "pathwise",
    "ConjugatedTerms",
    "conjugation_terms",
    "psi_single",
    "psi_single_sq",
    "phi_pair",
    "groundstate_psi",
    "deformed_groundstate_value",
    "kernel_cauchy_value",
    "kernel_dual_cauchy_value",
    "kernel_deformed_value",
    "power_sum_weight",
    "deformed_power_sum",
    "quasi_invariance_defect",
]


class BranchError(RuntimeError):
    """Analytic continuation of a square root could not be completed."""


# ---------------------------------------------------------------------------
# symbolic factor lists (integer powers only, hence branch-free)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GFactor:
    """One gamma factor ``G(sum_i c_i Z_i + offset; alpha) ** power``.

    ``coeffs`` maps coordinate index to an integer coefficient.  Integer
    coefficients are required so that coordinate shifts by multiples of
    ``alpha`` stay inside the difference equation.
    """

    coeffs: tuple[tuple[int, int], ...]
    offset: complex
    alpha: complex
    power: int = 1

    def argument(self, Z: Sequence[complex]) -> complex:
        return sum(c * Z[i] for i, c in self.coeffs) + self.offset


@dataclass(frozen=True)
class SFactor:
    """One building-block factor ``s(sum_i c_i Z_i + offset) ** power``."""

    coeffs: tuple[tuple[int, int], ...]
    offset: complex
    power: int = 1

    def argument(self, Z: Sequence[complex]) -> complex:
        return sum(c * Z[i] for i, c in self.coeffs) + self.offset


Factor = GFactor | SFactor


def factor_value(
    case: CaseParams,
    factors: Sequence[Factor],
    Z: Sequence[complex],
) -> complex:
    """Evaluate the product of all factors at the point ``Z``."""
    out = 1.0 + 0j
    for f in factors:
        arg = f.argument(Z)
        if isinstance(f, GFactor):
            base = complex(gamma_G(case, f.alpha, arg))
        else:
            base = complex(s_eval(case, arg))
        out *= base**f.power
    return out


def factor_ratio(
    case: CaseParams,
    factors: Sequence[Factor],
    Z: Sequence[complex],
    var: int,
    delta: complex,
) -> complex:
    """Exact ratio ``product(Z + delta e_var) / product(Z)``.

    Gamma factors are reduced through the difference equation (the rule
    of :func:`~vandiejen.gamma.gamma_ratio_shift`), which requires
    ``coeff * delta`` to be an integer multiple of ``i alpha``;
    building-block factors are evaluated directly.  The result involves
    no gamma evaluations and no square roots, and takes its ``s`` values
    as a coefficient does (see :func:`~vandiejen.operators._batched`).
    """
    plan = []
    for f in factors:
        c = dict(f.coeffs).get(var, 0)
        if c == 0:
            continue
        arg = f.argument(Z)
        if isinstance(f, GFactor):
            steps_exact = c * delta / (1j * f.alpha)
            steps = round(steps_exact.real)
            if abs(steps_exact - steps) > 1e-9:
                raise DomainError(
                    f"shift {delta} times coefficient {c} is not an integer "
                    f"multiple of i*alpha = {1j * f.alpha}"
                )
            alpha = complex(f.alpha)
            plan.append((f.power, arg, steps, alpha, functional_eq_constant(case, alpha)))
        else:
            plan.append((f.power, arg, c * delta, None, None))

    def formula(s):
        out = 1.0 + 0j
        for power, arg, step, alpha, const in plan:
            if alpha is None:
                ratio = s(arg + step) / s(arg)
            else:
                ratio = _step_ratio(s, const, alpha, arg, step, 1.0 + 0j)
            out *= ratio**power
        return out

    return _batched(case, formula)


def groundstate_sq_factors(
    case: CaseParams,
    g: Sequence[float],
    lam: float,
    beta: float,
    variables: Sequence[int],
) -> list[Factor]:
    """Squared ground state of the all-unit-mass operator on the given
    coordinate slots: per coordinate a doubled-argument block over the
    coupling blocks, per pair four sign combinations of a two-gamma ratio.
    """
    factors: list[Factor] = []
    b2 = 0.5j * beta
    for i in variables:
        factors.append(GFactor(((i, 2),), b2, beta, 1))
        factors.append(GFactor(((i, -2),), b2, beta, 1))
        for g_nu in g:
            factors.append(GFactor(((i, 1),), b2 - 1j * g_nu * beta, beta, -1))
            factors.append(GFactor(((i, -1),), b2 - 1j * g_nu * beta, beta, -1))
    idx = list(variables)
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            for e1 in (1, -1):
                for e2 in (1, -1):
                    pair = ((idx[a], e1), (idx[b], e2))
                    factors.append(GFactor(pair, b2, beta, 1))
                    factors.append(GFactor(pair, b2 - 1j * lam * beta, beta, -1))
    return factors


def deformed_groundstate_sq_factors(
    case: CaseParams,
    g: Sequence[float],
    lam: float,
    beta: float,
    x_vars: Sequence[int],
    xt_vars: Sequence[int],
) -> list[Factor]:
    """Squared two-species ground state: an all-unit block on the plain
    coordinates, the dual block (:func:`~vandiejen.operators.dual_couplings`,
    swapped parameters) on the deformed coordinates, divided by the paired
    cross denominators."""
    g_dual = dual_couplings(g, lam)
    factors = groundstate_sq_factors(case, g, lam, beta, x_vars)
    factors += groundstate_sq_factors(case, g_dual, 1.0 / lam, lam * beta, xt_vars)
    u = 0.5j * (lam - 1) * beta
    for i in x_vars:
        for k in xt_vars:
            for delta in (1, -1):
                pair = ((i, 1), (k, delta))
                factors.append(SFactor(pair, u, -1))
                factors.append(SFactor(pair, -u, -1))
    return factors


def cauchy_kernel_factors(
    lam: float,
    beta: float,
    x_vars: Sequence[int],
    y_vars: Sequence[int],
    alpha: complex | None = None,
    offset: complex | None = None,
    power: int = 1,
) -> list[Factor]:
    """Gamma cross kernel ``prod G(e x_j + e' y_k + offset; alpha)``.

    Defaults reproduce the plain-coordinate pairing (offset
    ``-i lam beta / 2`` at step ``beta``); the deformed-coordinate pairing
    passes ``offset=-i beta/2, alpha=lam*beta``.
    """
    if alpha is None:
        alpha = beta
    if offset is None:
        offset = -0.5j * lam * beta
    out: list[Factor] = []
    for j in x_vars:
        for k in y_vars:
            for e1 in (1, -1):
                for e2 in (1, -1):
                    out.append(GFactor(((j, e1), (k, e2)), offset, alpha, power))
    return out


def dual_cauchy_kernel_factors(
    x_vars: Sequence[int],
    y_vars: Sequence[int],
    power: int = 1,
) -> list[Factor]:
    """Building-block cross kernel ``prod s(x_j + delta y_k)``."""
    out: list[Factor] = []
    for j in x_vars:
        for k in y_vars:
            for delta in (1, -1):
                out.append(SFactor(((j, 1), (k, delta)), 0j, power))
    return out


def deformed_kernel_cross_factors(
    lam: float,
    beta: float,
    x_vars: Sequence[int],
    xt_vars: Sequence[int],
    y_vars: Sequence[int],
    yt_vars: Sequence[int],
) -> list[Factor]:
    """Cross factors of the four-block kernel: gamma cross kernels on the
    plain pair ``(x, y)`` and on the deformed pair ``(xt, yt)``, then
    building-block cross kernels on ``(x, yt)`` and ``(xt, y)``."""
    out = cauchy_kernel_factors(lam, beta, x_vars, y_vars)
    out += cauchy_kernel_factors(lam, beta, xt_vars, yt_vars, alpha=lam * beta, offset=-0.5j * beta)
    out += dual_cauchy_kernel_factors(x_vars, yt_vars)
    out += dual_cauchy_kernel_factors(xt_vars, y_vars)
    return out


# ---------------------------------------------------------------------------
# analytic continuation of square roots
# ---------------------------------------------------------------------------


class BranchTracker:
    """Continues square roots along straight paths from one base point.

    Every tracked factor is identified by a hashable key, and a key names
    one factor: its root at the base point and its roots at every target.
    The first evaluation of a key fixes the principal square root at the
    base point, once per key; later evaluations walk from the base to the
    requested target, choosing at each step the root closest to the
    previous value and bisecting the step whenever the choice is
    ambiguous.  The squares along a path come from one array call of the
    factor, and one walk, :meth:`_walk`, decides every step.  Results are
    cached per (key, target), and the coordinate arrays of each target's
    path are built once and shared by every key.

    Continuation pins each root only up to one global sign per factor.
    ``set_gauge`` flips that sign coherently (at every point at once);
    the conjugation check calibrates gauges at the single base point and
    the identity then has no freedom left anywhere else.

    ``set_fault`` deliberately flips the sheet of one factor at targets
    selected by a predicate, which is an incoherent change.  Verification
    uses this to demonstrate that the residuals are sensitive to sheet
    errors.
    """

    def __init__(
        self,
        base_point: Sequence[complex],
        path_steps: int = 48,
        max_depth: int = 14,
        rel_floor: float = 1e-12,
    ) -> None:
        self.base = tuple(complex(v) for v in base_point)
        self.path_steps = path_steps
        self.max_depth = max_depth
        self.rel_floor = rel_floor
        self._cache: dict = {}
        self._base_roots: dict = {}
        self._paths: dict = {}
        self._gauge: dict = {}
        self._fault_key = None
        self._fault_pred: Callable[[tuple], bool] | None = None

    def set_gauge(self, key, sign: int) -> None:
        if sign not in (1, -1):
            raise ValueError("gauge sign must be +1 or -1")
        self._gauge[key] = sign

    def set_fault(self, key, predicate: Callable[[tuple], bool]) -> None:
        self._fault_key = key
        self._fault_pred = predicate

    def clear_fault(self) -> None:
        self._fault_key = None
        self._fault_pred = None

    def sqrt_at(self, key, fn: Callable[[Sequence[complex]], complex], target) -> complex:
        """Continued root of ``fn`` at ``target``.  ``fn`` takes one point
        (a tuple of complex coordinates) or a whole path (a tuple of
        equal-length read-only coordinate arrays) and returns a value or
        an array to match.  ``key`` names the factor: ``fn`` is called at
        the base point only on the key's first continuation, and never for
        a (key, target) already continued."""
        target = tuple(complex(v) for v in target)
        cache_key = (key, target)
        value = self._cache.get(cache_key)
        if value is None:
            value = self._continue(key, fn, target)
            self._cache[cache_key] = value
        value *= self._gauge.get(key, 1)
        if self._fault_key == key and self._fault_pred is not None and self._fault_pred(target):
            return -value
        return value

    def _continue(self, key, fn, target: tuple) -> complex:
        prev = self._base_roots.get(key)
        if prev is None:
            w0 = complex(fn(self.base))
            if w0 == 0:
                raise BranchError("square-root argument vanishes at the base point")
            prev = self._base_roots[key] = cmath.sqrt(w0)
        if target == self.base:
            return prev
        ts = [k / self.path_steps for k in range(1, self.path_steps + 1)]
        values = self._path_values(fn, target, ts)
        if values is None:
            values = self._point_values(fn, target, ts)
        return self._walk(fn, target, 0.0, prev, ts, values, 0)

    def _path_values(self, fn, target: tuple, ts: list) -> list[complex] | None:
        """``fn`` on all points ``ts`` in one call, as the list of squares
        for :meth:`_walk`.  Each coordinate is one array built element by
        element (the floats of :meth:`_point_values`), once per target and
        read-only, so every key continued to ``target`` shares it.  None
        when the walk must go point by point: the call raised (a numpy
        division by zero, overflow or invalid operation included), or gave
        a value that is not finite, or not one value per point."""
        try:
            path = self._paths.get(target)
            if path is None:
                path = self._paths[target] = tuple(
                    np.array([b + t * (z - b) for t in ts]) for b, z in zip(self.base, target))
                for coordinate in path:
                    coordinate.flags.writeable = False
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                values = np.asarray(fn(path), dtype=np.complex128)
        except Exception:
            # nothing is swallowed: the point-by-point walk calls fn again
            # and meets any real failure at the step where it occurs
            return None
        if values.shape != (len(ts),) or not np.isfinite(values).all():
            return None
        return values.tolist()

    def _point_values(self, fn, target: tuple, ts: list):
        """``fn`` at each point of ``ts``, called only when the walk reaches
        that point."""
        return (complex(fn(tuple(b + t * (z - b) for b, z in zip(self.base, target))))
                for t in ts)

    def _walk(self, fn, target, t_prev: float, prev: complex, ts: list, values,
              depth: int) -> complex:
        """Continue the root ``prev`` at ``t_prev`` through the squares
        ``values`` at ``ts``, taking at each step the root nearest the
        previous one.  An ambiguous step is bisected with scalar calls of
        ``fn``, at most ``max_depth`` times."""
        rel_floor = self.rel_floor
        for t, w_sq in zip(ts, values):
            abs_prev = abs(prev)
            scale = abs_prev ** 2 + abs(w_sq)
            if abs(w_sq) < rel_floor * scale:
                raise BranchError("square-root argument passes too close to zero along the path")
            root = cmath.sqrt(w_sq)
            d_plus = abs(root - prev)
            d_minus = abs(root + prev)
            # ambiguous step: the two sheets are not clearly separated
            if min(d_plus, d_minus) > 0.5 * max(abs(root), abs_prev):
                if depth >= self.max_depth:
                    raise BranchError(f"cannot separate square-root sheets near t={t:.6f}")
                halves = [0.5 * (t_prev + t), t]
                prev = self._walk(fn, target, t_prev, prev, halves,
                                  self._point_values(fn, target, halves), depth + 1)
            else:
                prev = root if d_plus <= d_minus else -root
            t_prev = t
        return prev


def pathwise(coeff: Callable[[Sequence[complex]], complex]) -> Callable:
    """``coeff`` of one point as a :meth:`BranchTracker.sqrt_at` factor.

    On a path, ``coeff`` runs once on the coordinate arrays of all points
    but the last, its ``s`` values from one array call per array argument.
    These values agree with point by point to rounding and only choose the
    sheets; the target is evaluated alone, so its root is the same, bit for
    bit."""

    def fn(P):
        if not isinstance(P[0], np.ndarray):
            return coeff(P)
        with _coefficient_memo(on=False):
            inner = coeff(tuple(c[:-1] for c in P))
        return np.append(inner, coeff(tuple(complex(c[-1]) for c in P)))

    return fn


# ---------------------------------------------------------------------------
# eigenfunction for a general mass assignment
# ---------------------------------------------------------------------------


def pair_kind(tag_j: MassTag, tag_k: MassTag) -> str:
    """Relation of the second mass to the first within the four-element
    mass set: ``same`` (equal), ``opposite`` (negated: the same unit-ness),
    ``dual`` (equal to ``+1/(lam * m)``: the same sign), or ``antidual``
    (``-1/(lam * m)``: neither)."""
    if tag_j is tag_k:
        return "same"
    if tag_j.is_unit == tag_k.is_unit:
        return "opposite"
    if (tag_j.value_for(1.0) > 0) == (tag_k.value_for(1.0) > 0):
        return "dual"
    return "antidual"


def _pair_factor(case: CaseParams, lam: float, beta: float, tag_j: MassTag,
                 tag_k: MassTag) -> tuple[str, Callable]:
    """The pair block of masses ``tag_j`` and ``tag_k``, by their
    :func:`pair_kind`, as its mode (see :func:`phi_factor_specs`) and its
    factor, a function of the combined argument ``x``.

    Same species take the square root of a gamma ratio, opposite species a
    plain gamma value, the dual relation ``sqrt(s(x))`` and the antidual
    relation a reciprocal square root."""
    kind = pair_kind(tag_j, tag_k)
    m = tag_j.value_for(lam)
    alpha = beta / m
    if kind == "same":

        def w_same(x):
            arg = x + 0.5j * beta / m
            num = gamma_G(case, alpha, arg)
            den = gamma_G(case, alpha, arg - 1j * lam * m * beta)
            return num / den

        return "sqrt", w_same
    if kind == "opposite":
        return "direct", lambda x: gamma_G(case, alpha, x - 0.5j * lam * m * beta)
    if kind == "dual":
        return "sqrt", lambda x: s_eval(case, x)
    return "invsqrt", lambda x: s_eval(case, x - 0.5j * lam * m * beta + 0.5j * beta / m)


def phi_factor_specs(
    case: CaseParams,
    g: Sequence[float],
    lam: float,
    beta: float,
    tags: Sequence[MassTag],
) -> list[tuple]:
    """Factor plan for the eigenfunction of a general mass assignment.

    Returns a list of ``(key, mode, fn)`` entries where ``fn`` maps a
    coordinate tuple to a complex value and ``mode`` says how the value
    enters the product: ``sqrt`` (continued square root), ``direct``
    (as is), or ``invsqrt`` (reciprocal square root).
    """
    n = len(tags)
    specs: list[tuple] = []

    for j in range(n):

        def w_single(Z, j=j):
            return psi_single_sq(case, g, lam, beta, Z[j], tags[j])

        specs.append((("single", j), "sqrt", w_single))

    for j in range(n):
        for k in range(j + 1, n):
            mode, factor = _pair_factor(case, lam, beta, tags[j], tags[k])
            for e1 in (1, -1):
                for e2 in (1, -1):
                    specs.append((("pair", j, k, e1, e2), mode,
                                  lambda Z, j=j, k=k, e1=e1, e2=e2, f=factor:
                                  f(e1 * Z[j] + e2 * Z[k])))
    return specs


def eigenfunction_value(
    specs: Sequence[tuple],
    tracker: BranchTracker,
    Z: Sequence[complex],
) -> complex:
    """Evaluate the eigenfunction at ``Z`` with all square roots continued
    from the tracker's base point."""
    out = 1.0 + 0j
    for key, mode, fn in specs:
        if mode == "direct":
            out *= complex(fn(Z))
        elif mode == "sqrt":
            out *= tracker.sqrt_at(key, fn, Z)
        else:
            out /= tracker.sqrt_at(key, fn, Z)
    return out


class ConjugatedTerms:
    """The square-root form of an operator ``op``, conjugated by ``F``.

    The term of block ``b``, index ``j`` and sign ``sign`` pairs the
    continued root of ``b.coeff(., j, sign)`` at ``P`` with that of
    ``b.coeff(., j, -sign)`` at ``P`` moved by ``sign * b.step`` in slot
    ``b.slots[j]``.  The roots are tracked as ``(b.label, slot, +-1)``.
    Times ``F(shifted) / F(P)`` the term equals ``ref(P, b, j, sign)`` up to
    a sign that is constant in space: one tracker gauge per factor, so one
    per slot, since the factor ``(b.label, slot, 1)`` enters the terms of
    both directions.  :meth:`calibrate` pins that gauge at the tracker's
    base and :meth:`coherent` checks the terms at another point.

    ``F`` is evaluated once per point and kept.  That is safe under a
    sheet fault (:meth:`BranchTracker.set_fault`) on a coefficient root,
    keyed by its block's label: ``F`` continues its own roots under other
    keys, so a value kept from before the fault is its value after it.
    """

    def __init__(
        self,
        tracker: BranchTracker,
        op: Operator,
        F: Callable[[Sequence[complex]], complex],
        ref: Callable[[Sequence[complex], ShiftBlock, int, int], complex],
    ) -> None:
        self.tracker = tracker
        self.op = op
        self.F = cache(F)
        self.ref = ref
        self.terms = tuple((b, j, sign) for b in op.blocks
                           for j in range(len(b.slots)) for sign in (1, -1))

    def roots(self, P: tuple, b: ShiftBlock, j: int, sign: int) -> tuple:
        """The term's two continued roots and its shifted point."""
        slot = b.slots[j]
        shifted = _moved(P, slot, P[slot] + sign * b.step)
        here = self.tracker.sqrt_at((b.label, slot, sign),
                                    pathwise(lambda Q: b.coeff(Q, j, sign)), P)
        there = self.tracker.sqrt_at((b.label, slot, -sign),
                                     pathwise(lambda Q: b.coeff(Q, j, -sign)), shifted)
        return here, there, shifted

    def weights(self, P: Sequence[complex]) -> list[tuple[complex, tuple]]:
        """The square-root form at ``P`` as ``(weight, point)`` pairs, as
        :meth:`Operator.weights` gives the plain one: per term the
        prefactor times both continued roots, at the shifted point; then
        ``(V_0, P)``.  With the eigenfunction as ``F``, on ``F * fn`` over
        ``F(P)`` it is ``op.weights`` on ``fn``."""
        P = tuple(complex(v) for v in P)
        weights = []
        for b, pref in zip(self.op.blocks, self.op.prefactors()):
            for j in range(len(b.slots)):
                for sign in (1, -1):
                    here, there, shifted = self.roots(P, b, j, sign)
                    weights.append((pref * here * there, shifted))
        weights.append((self.op.v0(P), P))
        return weights

    def _ratio(self, P: tuple, FP: complex, b: ShiftBlock, j: int, sign: int) -> complex:
        here, there, shifted = self.roots(P, b, j, sign)
        ref = self.ref(P, b, j, sign) * FP
        if abs(ref) < 1e-100:
            raise BranchError("reference coefficient vanishes")
        return here * there * self.F(shifted) / ref

    def calibrate(self) -> None:
        """Fix the gauges at the tracker's base: the up term's ratio must be
        within 0.1 of a sign, which the gauge of its root at the base makes
        +1, and then the down term's ratio must be within 0.1 of +1.
        Raises :class:`BranchError` otherwise."""
        base = self.tracker.base
        F0 = self.F(base)

        def to_sign(ratio: complex, where: str) -> int:
            if abs(ratio - 1) < 0.1:
                return 1
            if abs(ratio + 1) < 0.1:
                return -1
            raise BranchError(f"gauge ratio {ratio:.6f} at {where} is not a sign")

        for b in self.op.blocks:
            for j, slot in enumerate(b.slots):
                if to_sign(self._ratio(base, F0, b, j, 1), f"coordinate {slot}, up shift") < 0:
                    self.tracker.set_gauge((b.label, slot, 1), -1)
                if to_sign(self._ratio(base, F0, b, j, -1), f"coordinate {slot}, down shift") < 0:
                    raise BranchError(
                        f"shift directions of coordinate {slot} need opposite gauges"
                    )

    def coherent(self, P: tuple) -> bool:
        """Whether every term at ``P`` is within 0.2 of its reference.  A
        point whose continuation path crossed a cut fails here, so it can
        be rejected rather than mis-summed."""
        try:
            FP = self.F(P)
            for b, j, sign in self.terms:
                if abs(self._ratio(P, FP, b, j, sign) - 1) > 0.2:
                    return False
        except (BranchError, PoleProximityError):
            return False
        return True


def conjugation_terms(
    case: CaseParams,
    g: Sequence[float],
    lam: float,
    beta: float,
    tags: Sequence[MassTag],
    specs: Sequence[tuple],
    tracker: BranchTracker,
) -> ConjugatedTerms:
    """The square-root form of the operator of mass assignment ``tags``,
    conjugated by its eigenfunction (``specs``): one block per coordinate,
    with its own plain shift coefficient as the reference."""
    op = conjugated_operator(case, g, lam, beta, tuple(t.value_for(lam) for t in tags), tags)
    return ConjugatedTerms(tracker, op, lambda P: eigenfunction_value(specs, tracker, P),
                           lambda P, b, j, s: b.coeff(P, j, s))


# ---------------------------------------------------------------------------
# named evaluators: single blocks, pair blocks, ground states, kernels
# ---------------------------------------------------------------------------


def psi_single(
    case: CaseParams,
    g: Sequence[float],
    lam: float,
    beta: float,
    x: complex,
    tag: MassTag,
    tracker: BranchTracker,
) -> complex:
    """Single-coordinate block: square root of a doubled-argument gamma
    pair over the coupling gamma products, with the coupling offsets
    depending on the mass species.  The tracker's base must be a 1-tuple.
    """

    def w(Z):
        return psi_single_sq(case, g, lam, beta, Z[0], tag)

    return tracker.sqrt_at(("psi", tag.value), w, (x,))


def psi_single_sq(
    case: CaseParams,
    g: Sequence[float],
    lam: float,
    beta: float,
    x: complex,
    tag: MassTag,
) -> complex:
    """The defining product under the square root of :func:`psi_single`,
    at one point ``x`` or at an array of points."""
    m = tag.value_for(lam)
    alpha = beta / m
    half = 0.5j * beta / m
    num = gamma_G(case, alpha, 2 * x + half)
    num *= gamma_G(case, alpha, -2 * x + half)
    den = 1.0 + 0j
    for g_nu in g:
        off = half - 1j * d_param(g_nu, m, lam, tag) * beta
        den *= gamma_G(case, alpha, x + off)
        den *= gamma_G(case, alpha, -x + off)
    return num / den


def phi_pair(
    case: CaseParams,
    lam: float,
    beta: float,
    x: complex,
    tag_j: MassTag,
    tag_k: MassTag,
    tracker: BranchTracker,
) -> complex:
    """Pair block at combined argument ``x``, by species relation (see
    :func:`_pair_factor`).  The tracker's base must be a 1-tuple for the
    rooted kinds.
    """
    mode, factor = _pair_factor(case, lam, beta, tag_j, tag_k)
    if mode == "direct":
        return complex(factor(x))
    root = tracker.sqrt_at(("phi", tag_j.value, tag_k.value), lambda Z: factor(Z[0]), (x,))
    return root if mode == "sqrt" else 1.0 / root


def groundstate_psi(
    case: CaseParams,
    g: Sequence[float],
    lam: float,
    beta: float,
    Z: Sequence[complex],
    variables: Sequence[int],
    tracker: BranchTracker,
    key_prefix: str = "gs",
) -> complex:
    """All-unit-mass ground state on the given coordinate slots of ``Z``.

    Written against the explicit unit-mass display rather than through
    :func:`phi_factor_specs`, so the two implementations cross-check each
    other.
    """
    b2 = 0.5j * beta
    out = 1.0 + 0j
    for i in variables:

        def w_single(P, i=i):
            v = P[i]
            num = gamma_G(case, beta, 2 * v + b2)
            num *= gamma_G(case, beta, -2 * v + b2)
            den = 1.0 + 0j
            for g_nu in g:
                den *= gamma_G(case, beta, v + b2 - 1j * g_nu * beta)
                den *= gamma_G(case, beta, -v + b2 - 1j * g_nu * beta)
            return num / den

        out *= tracker.sqrt_at((key_prefix, "single", i), w_single, Z)
    idx = list(variables)
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            for e1 in (1, -1):
                for e2 in (1, -1):

                    def w_pair(P, j=idx[a], k=idx[b], e1=e1, e2=e2):
                        arg = e1 * P[j] + e2 * P[k] + b2
                        num = gamma_G(case, beta, arg)
                        den = gamma_G(case, beta, arg - 1j * lam * beta)
                        return num / den

                    out *= tracker.sqrt_at(
                        (key_prefix, "pair", idx[a], idx[b], e1, e2), w_pair, Z
                    )
    return out


def deformed_groundstate_value(
    case: CaseParams,
    g: Sequence[float],
    lam: float,
    beta: float,
    Z: Sequence[complex],
    x_vars: Sequence[int],
    xt_vars: Sequence[int],
    tracker: BranchTracker,
    key_prefix: str = "dgs",
) -> complex:
    """Two-species ground state: plain block times dual block over the
    square-rooted cross product."""
    g_dual = dual_couplings(g, lam)
    out = groundstate_psi(case, g, lam, beta, Z, x_vars, tracker, key_prefix=key_prefix + "-x")
    out *= groundstate_psi(case, g_dual, 1.0 / lam, lam * beta, Z, xt_vars,
                           tracker, key_prefix=key_prefix + "-t")
    u = 0.5j * (lam - 1) * beta
    for i in x_vars:
        for k in xt_vars:
            for delta in (1, -1):

                def w_cross(P, i=i, k=k, delta=delta):
                    arg = P[i] + delta * P[k]
                    return s_eval(case, arg + u) * s_eval(case, arg - u)

                out /= tracker.sqrt_at(
                    (key_prefix, "cross", i, k, delta), w_cross, Z
                )
    return out


def kernel_cauchy_value(
    case: CaseParams,
    g: Sequence[float],
    lam: float,
    beta: float,
    Z: Sequence[complex],
    x_vars: Sequence[int],
    y_vars: Sequence[int],
    tracker: BranchTracker,
) -> complex:
    """Gamma cross kernel joining a plain block at coupling ``g`` and one
    at the :func:`~vandiejen.operators.reflected_couplings`."""
    g_ref = reflected_couplings(g, lam)
    out = groundstate_psi(case, g, lam, beta, Z, x_vars, tracker, key_prefix="kc-x")
    out *= groundstate_psi(case, g_ref, lam, beta, Z, y_vars, tracker, key_prefix="kc-y")
    cross = cauchy_kernel_factors(lam, beta, x_vars, y_vars)
    return out * factor_value(case, cross, Z)


def kernel_dual_cauchy_value(
    case: CaseParams,
    g: Sequence[float],
    lam: float,
    beta: float,
    Z: Sequence[complex],
    x_vars: Sequence[int],
    yt_vars: Sequence[int],
    tracker: BranchTracker,
) -> complex:
    """Building-block cross kernel joining a plain block and a block with
    scaled parameters ``(g/lam, 1/lam, lam*beta)``."""
    g_scaled = tuple(v / lam for v in g)
    out = groundstate_psi(case, g, lam, beta, Z, x_vars, tracker, key_prefix="kd-x")
    out *= groundstate_psi(case, g_scaled, 1.0 / lam, lam * beta, Z, yt_vars,
                           tracker, key_prefix="kd-t")
    cross = dual_cauchy_kernel_factors(x_vars, yt_vars)
    return out * factor_value(case, cross, Z)


def kernel_deformed_value(
    case: CaseParams,
    g: Sequence[float],
    lam: float,
    beta: float,
    Z: Sequence[complex],
    x_vars: Sequence[int],
    xt_vars: Sequence[int],
    y_vars: Sequence[int],
    yt_vars: Sequence[int],
    tracker: BranchTracker,
) -> complex:
    """Four-block kernel: two two-species ground states joined by two
    gamma cross kernels and two building-block cross kernels."""
    g_ref = reflected_couplings(g, lam)
    out = deformed_groundstate_value(case, g, lam, beta, Z, x_vars, xt_vars,
                                     tracker, key_prefix="kf-a")
    out *= deformed_groundstate_value(case, g_ref, lam, beta, Z, y_vars, yt_vars,
                                      tracker, key_prefix="kf-b")
    cross = deformed_kernel_cross_factors(lam, beta, x_vars, xt_vars, y_vars, yt_vars)
    return out * factor_value(case, cross, Z)


# ---------------------------------------------------------------------------
# deformed trigonometric power sums
# ---------------------------------------------------------------------------


def power_sum_weight(r: float, lam: float, beta: float, n: int) -> float:
    """Relative weight of the deformed coordinates in the n-th power sum.

    The sign is forced by the hyperplane condition: shifting a plain and
    a deformed coordinate in lockstep by half steps must annihilate the
    generator on the coincidence hyperplane, which requires
    ``-sinh(r n beta) / sinh(r n lam beta)``.
    """
    return -math.sinh(r * n * beta) / math.sinh(r * n * lam * beta)


def deformed_power_sum(
    r: float,
    lam: float,
    beta: float,
    n: int,
    x: Sequence[complex],
    xt: Sequence[complex],
    weight: float | None = None,
) -> complex:
    """The n-th deformed power sum in exponential coordinates."""
    if weight is None:
        weight = power_sum_weight(r, lam, beta, n)
    total = 0j
    for v in x:
        total += cmath.exp(2j * r * n * v) + cmath.exp(-2j * r * n * v)
    for v in xt:
        total += weight * (cmath.exp(2j * r * n * v) + cmath.exp(-2j * r * n * v))
    return total


def quasi_invariance_defect(
    r: float,
    lam: float,
    beta: float,
    p_fn: Callable[[Sequence[complex], Sequence[complex]], complex],
    t: complex,
    j: int,
    k: int,
    x: Sequence[complex],
    xt: Sequence[complex],
) -> complex:
    """Hyperplane defect of ``p_fn`` at ``x_j = xt_k = t``.

    Both coordinates are moved to the coincidence point, then shifted in
    lockstep by ``+-(i beta/2, i lam beta/2)``; the difference of the two
    shifted values must vanish for quasi-invariant polynomials.
    """
    x_up = list(x)
    xt_up = list(xt)
    x_dn = list(x)
    xt_dn = list(xt)
    x_up[j] = t + 0.5j * beta
    xt_up[k] = t + 0.5j * lam * beta
    x_dn[j] = t - 0.5j * beta
    xt_dn[k] = t - 0.5j * lam * beta
    return p_fn(tuple(x_up), tuple(xt_up)) - p_fn(tuple(x_dn), tuple(xt_dn))
