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
(`set_fault`) must blow up the residual.  :func:`continued_root` takes
the root of a squared factor list block by block.  :class:`ConjugatedTerms`
holds the shift terms of a square-root-form operator conjugated by a
function F, for the conjugation identity (F the eigenfunction, see
:func:`conjugation_terms`) and the direct kernel checks (F the kernel)
alike: their continued roots, the gauge calibration at the base point and
the coherence check at other points.

One builder, :func:`eigenfunction_factors`, gives the eigenfunction of
every mass assignment as a squared list and a direct list; the ground
states of the display identities and the kernel functions are the
eigenfunctions of their mass assignments.  The module also provides the
deformed trigonometric power sums used by the polynomial-invariance checks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .gamma import _step_ratio, functional_eq_constant, gamma_G
from .operators import (MassTag, Operator, ShiftBlock, _batched, _coefficient_memo, _moved,
                        conjugated_operator, d_param)
from .sfun import CaseParams, DomainError, PoleProximityError, s_eval

__all__ = [
    "BranchError",
    "BranchTracker",
    "GFactor",
    "SFactor",
    "factor_value",
    "factor_ratio",
    "pair_kind",
    "eigenfunction_factors",
    "continued_root",
    "pathwise",
    "ConjugatedTerms",
    "conjugation_terms",
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


def _base(case: CaseParams, f: Factor, Z):
    """The gamma or building-block value of ``f`` at ``Z``, before its
    power: at one point, or on the coordinate arrays of a path."""
    arg = f.argument(Z)
    return gamma_G(case, f.alpha, arg) if isinstance(f, GFactor) else s_eval(case, arg)


def factor_value(
    case: CaseParams,
    factors: Sequence[Factor],
    Z: Sequence[complex],
) -> complex:
    """Evaluate the product of all factors at the point ``Z``."""
    out = 1.0 + 0j
    for f in factors:
        out *= complex(_base(case, f, Z))**f.power
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
    factor, and one walk, :meth:`_walk`, decides every step: the leading
    steps that pass its tests by a margin on arrays, the rest one at a
    time, with the same roots and bisections as a walk that takes every
    step alone.  Results are cached per (key, target), and the coordinate
    arrays of each target's path are built once and shared by every key.

    Continuation pins each root only up to one global sign per factor.
    ``set_gauge`` flips that sign coherently (at every point at once);
    the conjugation check calibrates gauges at the single base point and
    the identity then has no freedom left anywhere else.

    ``set_fault`` deliberately flips the sheet of one factor at targets
    selected by a predicate, which is an incoherent change.  Verification
    uses this to demonstrate that the residuals are sensitive to sheet
    errors.
    """

    #: the points of a path, the bisections of one ambiguous step, and the
    #: floor of a square's modulus relative to it plus the previous root's
    #: modulus squared
    path_steps = 48
    max_depth = 14
    rel_floor = 1e-12

    def __init__(self, base_point: Sequence[complex]) -> None:
        self.base = tuple(complex(v) for v in base_point)
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

    def _path_values(self, fn, target: tuple, ts: list) -> np.ndarray | None:
        """``fn`` on all points ``ts`` in one call, as the array of squares
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
        return values

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
        ``fn``, at most ``max_depth`` times.  When ``values`` is the array
        of a path call, :meth:`_clear_steps` decides its leading clear steps
        on arrays, and the steps from the first other one on are taken one
        by one."""
        if isinstance(values, np.ndarray):
            clear, prev = self._clear_steps(prev, values)
            if clear == len(ts):
                return prev
            t_prev = ts[clear - 1] if clear else t_prev
            ts, values = ts[clear:], values[clear:].tolist()
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

    def _clear_steps(self, prev: complex, values: np.ndarray) -> tuple[int, complex]:
        """The number of leading steps of the path squares ``values``, from
        the root ``prev``, that pass the floor and ambiguity tests of
        :meth:`_walk` by a margin, and the root after them.  The margin, twice
        the floor and 0.49 for 0.5, absorbs the last bits in which numpy's
        ``abs`` and ``sqrt`` differ from ``cmath``'s, so those steps take the
        roots the step-by-step walk takes.  At such a step the nearest root
        is the principal one times the sign of ``Re(root_k conj(root_{k-1}))``
        (between principal roots), and the root after them is that sign's
        product times ``cmath.sqrt`` of the last one's square.  A value whose
        modulus, squared or summed is not finite fails the tests."""
        roots = np.empty(len(values) + 1, dtype=np.complex128)
        roots[0] = prev
        with np.errstate(all="ignore"):
            np.sqrt(values, out=roots[1:])
            mod2 = np.abs(roots)
            mod2 *= mod2
            dot = (roots[1:] * roots[:-1].conj()).real
            here, before = mod2[1:], mod2[:-1]
            scale = here + before
            # |w| against the floor, and min(|root -+ prev|)^2 = scale - 2 |dot|
            clear = (here > 2 * self.rel_floor * scale) & (
                scale - 2 * np.abs(dot) <= 0.49 ** 2 * np.maximum(here, before))
        steps = len(values) if clear.all() else int(clear.argmin())
        if steps == 0:
            return 0, prev
        root = cmath.sqrt(values[steps - 1])
        return steps, -root if np.count_nonzero(dot[:steps] < 0) % 2 else root


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


def eigenfunction_factors(
    case: CaseParams,
    g: Sequence[float],
    lam: float,
    beta: float,
    tags: Sequence[MassTag],
) -> tuple[list[Factor], list[Factor]]:
    """The eigenfunction of the mass assignment ``tags`` as two factor
    lists ``(sq, direct)``: up to a constant factor it is
    ``continued_root(case, sq, Z, tracker) * factor_value(case, direct, Z)``.

    With ``m`` the mass of coordinate ``j``, step ``alpha = beta / m`` and
    ``half = i beta / (2m)``, coordinate ``j`` squares to a doubled-argument
    gamma pair over the coupling gammas, whose offsets depend on the mass
    species.  A pair ``j < k`` enters by its :func:`pair_kind`: same, per
    sign combination a two-gamma ratio in ``sq``; opposite, per sign
    combination one gamma in ``direct``; dual, ``s(x_j +- x_k)`` in
    ``direct``; antidual, per ``+-`` the block
    ``1 / (s(x_j +- x_k + u) s(x_j +- x_k - u))`` in ``sq``, with
    ``u = half - i lam m beta / 2``.  The dual and antidual forms are the
    roots of the four sign combinations, as ``s`` is odd.
    """
    sq: list[Factor] = []
    direct: list[Factor] = []
    for j, tag in enumerate(tags):
        m = tag.value_for(lam)
        alpha, half = beta / m, 0.5j * beta / m
        sq.append(GFactor(((j, 2),), half, alpha))
        sq.append(GFactor(((j, -2),), half, alpha))
        for g_nu in g:
            off = half - 1j * d_param(g_nu, m, lam, tag) * beta
            sq.append(GFactor(((j, 1),), off, alpha, -1))
            sq.append(GFactor(((j, -1),), off, alpha, -1))
    for j, k in combinations(range(len(tags)), 2):
        kind = pair_kind(tags[j], tags[k])
        m = tags[j].value_for(lam)
        alpha, half, shift = beta / m, 0.5j * beta / m, 0.5j * lam * m * beta
        forms = [((j, e1), (k, e2)) for e1 in (1, -1) for e2 in (1, -1)]
        if kind == "same":
            sq += [GFactor(form, off, alpha, power) for form in forms
                   for off, power in ((half, 1), (half - 1j * lam * m * beta, -1))]
        elif kind == "opposite":
            direct += [GFactor(form, -shift, alpha) for form in forms]
        elif kind == "dual":
            direct += [SFactor(((j, 1), (k, delta)), 0j) for delta in (1, -1)]
        else:
            u = half - shift
            sq += [SFactor(((j, 1), (k, delta)), off, -1) for delta in (1, -1) for off in (u, -u)]
    return sq, direct


def _side(values, powers):
    """``values`` to ``powers``, multiplied in list order."""
    out = 1.0 + 0j
    for v, p in zip(values, powers):
        out *= v ** p
    return out


@lru_cache(maxsize=512)
def _block_value(case: CaseParams, block: tuple[Factor, ...]):
    """The value of one block of :func:`continued_root`, a function of a
    point or of the coordinate arrays of a path: its positive-power factors
    over its negative-power ones, or the negative-power ones alone.  A point
    takes one call per factor.  A path stacks every factor's arguments into
    one (factors, points) array, the block's integer coefficient matrix
    over the coordinates it reads times those coordinates stacked, plus the
    offsets, and calls ``gamma_G`` once per ``alpha`` and ``s_eval`` once
    for the ``SFactor`` rows; the rows then multiply as a point's values
    do."""
    num = [f for f in block if f.power > 0]
    factors, split = num + [f for f in block if f.power < 0], len(num)
    powers = [abs(f.power) for f in factors]
    slots = sorted({i for f in factors for i, _ in f.coeffs})
    matrix = np.zeros((len(factors), len(slots)), dtype=np.complex128)
    calls: dict = {}
    for row, f in enumerate(factors):
        for i, c in f.coeffs:
            matrix[row, slots.index(i)] = c
        calls.setdefault(f.alpha if isinstance(f, GFactor) else None, []).append(row)
    offsets = np.array([[f.offset] for f in factors], dtype=np.complex128)
    # a power of 1 leaves a row as it is
    exponents = np.array(powers)[:, None] if any(p != 1 for p in powers) else None

    def value(P):
        if isinstance(P[0], np.ndarray):
            args = matrix @ np.array([P[i] for i in slots]) + offsets
            values = np.empty_like(args)
            for alpha, rows in calls.items():
                values[rows] = (s_eval(case, args[rows]) if alpha is None
                                else gamma_G(case, alpha, args[rows]))
            if exponents is not None:
                values **= exponents
            num = np.multiply.reduce(values[:split])
            den = np.multiply.reduce(values[split:])
        else:
            values = [_base(case, f, P) for f in factors]
            num = _side(values[:split], powers[:split])
            den = _side(values[split:], powers[split:])
        return num / den if split else den

    return value


def continued_root(
    case: CaseParams,
    factors: Sequence[Factor],
    Z: Sequence[complex],
    tracker: BranchTracker,
) -> complex:
    """Square root of the product of ``factors`` at ``Z``, continued by
    ``tracker`` one block at a time.

    A block is every factor of one coordinate, or every factor of one
    linear form in two coordinates: a ground state's single, pair and
    cross groups.  Its value is its positive-power factors over its
    negative-power ones; a block with only negative powers divides by the
    root of its inverse.  On a path the block is one array call per
    ``alpha`` over all its factors (see :func:`_block_value`).  The tracker
    keys a block by its factors, so one tracker continues several lists,
    and a block they share once.
    """
    blocks: dict = {}
    for f in factors:
        blocks.setdefault(f.coeffs[0][0] if len(f.coeffs) == 1 else f.coeffs, []).append(f)
    out = 1.0 + 0j
    for block in blocks.values():
        block = tuple(block)
        root = tracker.sqrt_at(block, _block_value(case, block), Z)
        out = out * root if any(f.power > 0 for f in block) else out / root
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
    factors: tuple[Sequence[Factor], Sequence[Factor]],
    tracker: BranchTracker,
) -> ConjugatedTerms:
    """The square-root form of the operator of mass assignment ``tags``,
    conjugated by its eigenfunction, given as the ``(sq, direct)`` lists
    of :func:`eigenfunction_factors`: one block per coordinate, with its
    own plain shift coefficient as the reference."""
    op = conjugated_operator(case, g, lam, beta, tuple(t.value_for(lam) for t in tags), tags)
    sq, direct = factors
    return ConjugatedTerms(
        tracker, op, lambda P: continued_root(case, sq, P, tracker) * factor_value(case, direct, P),
        lambda P, b, j, s: b.coeff(P, j, s))


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
