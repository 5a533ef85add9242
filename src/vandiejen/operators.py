"""Difference-operator coefficients, exact summation identities, constants.

The central object is a difference operator acting on functions of
``n_p`` complex coordinates ``X_1 .. X_{n_p}``, each coordinate carrying a
mass parameter from the four-element set ``{1, -1, -1/lam, +1/lam}``.
A term of the operator shifts one coordinate by ``-eps * i * beta / m_J``
and multiplies by a coefficient built entirely from the building-block
function ``s``:

* :func:`coeff_V_shift` - the shift-term coefficient attached to
  coordinate ``J`` and sign ``eps``;
* :func:`coeff_V0` - the zeroth (non-shifting) coefficient;
* :class:`Operator` - an operator's shift blocks and zeroth coefficient,
  laid out once by :func:`conjugated_operator`, :func:`vd_operator` or
  :func:`def_operator`; :meth:`Operator.weights` gives it at one point as
  ``(weight, shifted point)`` pairs, which do not depend on the function;
* :func:`weighted_terms` - the terms of an operator given by its weights
  acting on a callable; their sum is the action.

Together these realise the operator in its *plain* (conjugated) form, the
form in which the constant function is an eigenfunction.  The square-root
(self-adjoint looking) form lives in :mod:`vandiejen.eigenfunctions`
because it needs branch tracking.

Alongside the generic coefficients, the module re-implements, directly
from their specialised closed forms, the coefficients of the unreduced
operator for all-unit masses and for the two-species deformation.  These
duplicate code paths are deliberate: agreement between the generic route
and the specialised route is one of the verification targets, so they
must never be collapsed into one implementation.

Each coefficient is written as a formula in a function ``s`` (see
:func:`_batched`), which runs once with the case's scalar ``s``.  Its
values are the same, bit for bit, as those of an array
:func:`~vandiejen.sfun.s_eval` call.  Handed arrays of coordinates (a
branch-tracker path), a coefficient runs once for all points.

The terms of the exact summation identity (:func:`summation_terms`) are
implemented for free complex parameters.

Unless stated otherwise, functions take raw numeric parameters (coupling
vector ``g``, scalars ``lam`` and ``beta``, mass values, coordinates) so
they stay usable for structural experiments; the typed containers
:class:`CouplingSet` and :class:`Configuration` add validation on top for
the verification engine and the CLI.
"""

from __future__ import annotations

import cmath
import enum
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from . import sfun
from .sfun import CaseKind, CaseParams, DomainError

__all__ = [
    "MassTag",
    "CouplingSet",
    "Configuration",
    "SummationParams",
    "d_param",
    "coeff_V_shift",
    "coeff_V0",
    "ShiftBlock",
    "Operator",
    "conjugated_operator",
    "vd_operator",
    "def_operator",
    "operator_terms",
    "weighted_terms",
    "source_constant",
    "c0_constant",
    "eigen_constant",
    "balance_solve",
    "reflected_couplings",
    "dual_couplings",
    "vd_V_pm",
    "vd_V0",
    "def_V_pm",
    "def_Vt_pm",
    "def_V0",
    "summation_shift_term",
    "summation_boundary_term",
    "summation_rhs",
    "summation_terms",
]


class MassTag(enum.Enum):
    """Admissible mass species, stored symbolically so that the numeric
    value can follow the coupling parameter ``lam``."""

    PLUS_ONE = "1"
    MINUS_ONE = "-1"
    PLUS_INV = "1/lam"
    MINUS_INV = "-1/lam"

    @classmethod
    def parse(cls, token: str | "MassTag") -> "MassTag":
        if isinstance(token, cls):
            return token
        text = str(token).strip().lower().replace(" ", "")
        aliases = {
            "1": cls.PLUS_ONE,
            "+1": cls.PLUS_ONE,
            "p1": cls.PLUS_ONE,
            "-1": cls.MINUS_ONE,
            "m1": cls.MINUS_ONE,
            "1/lam": cls.PLUS_INV,
            "+1/lam": cls.PLUS_INV,
            "1/lambda": cls.PLUS_INV,
            "+1/lambda": cls.PLUS_INV,
            "1/l": cls.PLUS_INV,
            "p_inv_l": cls.PLUS_INV,
            "pil": cls.PLUS_INV,
            "-1/lam": cls.MINUS_INV,
            "-1/lambda": cls.MINUS_INV,
            "-1/l": cls.MINUS_INV,
            "m_inv_l": cls.MINUS_INV,
            "mil": cls.MINUS_INV,
        }
        if text not in aliases:
            raise DomainError(
                f"unknown mass token {token!r}; expected one of 1, -1, 1/lambda, -1/lambda"
            )
        return aliases[text]

    def value_for(self, lam: float) -> float:
        if self is MassTag.PLUS_ONE:
            return 1.0
        if self is MassTag.MINUS_ONE:
            return -1.0
        if self is MassTag.PLUS_INV:
            return 1.0 / lam
        return -1.0 / lam

    @property
    def is_unit(self) -> bool:
        return self in (MassTag.PLUS_ONE, MassTag.MINUS_ONE)


@dataclass(frozen=True)
class CouplingSet:
    """Coupling vector plus the two global parameters.

    ``g`` has one entry per independent half-period pair: 2 entries in the
    rational case, 4 in the trigonometric and hyperbolic cases, 8 in the
    elliptic case.  ``lam`` is the relative-mass parameter (positive, not
    equal to 1 when the ground-state constant is needed) and ``beta`` the
    positive step length.
    """

    g: tuple[float, ...]
    lam: float
    beta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "g", tuple(float(v) for v in self.g))
        if not all(map(math.isfinite, self.g)):
            raise DomainError(f"couplings must be finite, got {self.g}")
        if not 0 < self.lam < math.inf:
            raise DomainError(f"lam must be positive and finite, got {self.lam}")
        if not 0 < self.beta < math.inf:
            raise DomainError(f"beta must be positive and finite, got {self.beta}")

    def validate_for(self, case: CaseParams) -> None:
        expected = 2 * (case.rho + 1)
        if len(self.g) != expected:
            raise DomainError(
                f"case {case.kind.label} needs {expected} couplings, got {len(self.g)}"
            )


def reflected_couplings(g: Sequence[float], lam: float) -> tuple[float, ...]:
    """The reflection ``g_nu -> (lam + 1)/2 - g_nu``: the couplings of the
    opposite-species block of a kernel function."""
    return tuple((lam + 1) / 2 - v for v in g)


def dual_couplings(g: Sequence[float], lam: float) -> tuple[float, ...]:
    """The duality ``g_nu -> (lam + 1 - 2 g_nu) / (2 lam)``: the couplings
    of the deformed coordinates, seen with parameters ``1/lam`` and
    ``lam * beta``."""
    return tuple((lam + 1 - 2 * v) / (2 * lam) for v in g)


@dataclass(frozen=True)
class Configuration:
    """A case, couplings, and a mass assignment, validated together."""

    case: CaseParams
    coupling: CouplingSet
    masses: tuple[MassTag, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "masses", tuple(MassTag.parse(t) for t in self.masses)
        )
        self.coupling.validate_for(self.case)
        if not self.masses:
            raise DomainError("at least one coordinate is required")

    @property
    def size(self) -> int:
        return len(self.masses)

    @property
    def mass_values(self) -> tuple[float, ...]:
        return tuple(t.value_for(self.coupling.lam) for t in self.masses)


# ---------------------------------------------------------------------------
# scalar building blocks
# ---------------------------------------------------------------------------


# key -> value of the keyed ``_batched`` calls of one run, and under
# ("s", case) the remembering ``s`` of an elliptic case (see _run_s)
_MEMO: ContextVar[dict | None] = ContextVar("_MEMO", default=None)


@contextmanager
def _coefficient_memo(on: bool = True):
    """A fresh memo inside the block (none with ``on=False``), dropped at its end."""
    token = _MEMO.set({} if on else None)
    try:
        yield
    finally:
        _MEMO.reset(token)


def _batched(
    case: CaseParams,
    formula: Callable[[Callable[[complex], complex]], complex],
    key: tuple | None = None,
):
    """``formula(s)``, run once with the case's scalar ``s``
    (:attr:`~vandiejen.sfun.CaseParams.s_scalar`), whose value equals the
    array value bit for bit.

    A ``key`` names every input of ``formula``.  Within the memo of one
    :func:`~vandiejen.verify.run_identity` call, a key already held
    returns its value at once; otherwise the formula runs and its value is
    committed.  A key that holds an mpmath number skips the memo: it equals
    the float key of the same value, and its value keeps its precision.  On
    case IV the formula takes ``s`` from :func:`_run_s`, which remembers
    values within the memo.

    An argument may also be an array (a path): it takes its own
    :func:`~vandiejen.sfun.s_eval` array call.  Path calls run with the
    memo off (see :func:`_coefficient_memo`).
    """
    memo = _MEMO.get()
    if memo is None:
        return formula(case.s_scalar)
    if key is not None and (types := sfun._mp_types()) and _holds(key, types):
        key = None
    if key is not None and (held := memo.get(key)) is not None:
        return held
    out = formula(_run_s(memo, case))
    if key is not None:
        memo[key] = out
    return out


def _holds(key: tuple, types: tuple) -> bool:
    """Whether ``key``, or a tuple in it, holds a value of one of ``types``."""
    return any(isinstance(v, types) or type(v) is tuple and _holds(v, types) for v in key)


def _run_s(memo: dict, case: CaseParams) -> Callable[[complex], complex]:
    """The ``s`` of ``case`` for formulas run within ``memo``.

    On cases I-III that is the scalar ``s``.  On case IV a scalar theta
    series costs microseconds, and a run asks for many arguments more than
    once, so the ``s`` kept in the memo remembers the value of each complex
    argument, and dies with the memo.

    The float theta series is odd bit for bit (see
    :func:`~vandiejen.sfun._theta_series`), so an argument with both parts
    nonzero shares one entry with its negation: the entry of the one with
    ``Re > 0``, which holds the negated value when the other came first.  A
    miss evaluates ``s`` at the argument asked for, so an error and its
    message are that argument's, and nothing is committed.  An argument
    with a zero part is not folded and is keyed by the signs of its parts
    too: ``-0.0 == 0.0`` would hand ``s(-0.0 + yi)`` the value of
    ``s(0.0 + yi)``, and there the series is odd only up to the sign of a
    zero.  mpmath numbers and arrays pass through.
    """
    if case.kind is not CaseKind.ELLIPTIC:
        return case.s_scalar
    remembering = memo.get(("s", case))
    if remembering is None:
        s, values = case.s_scalar, {}

        def remembering(z):
            if type(z) is not complex:
                return s(z)
            re, im = z.real, z.imag
            if re and im:
                flip = re < 0
                key = -z if flip else z
            else:
                flip, key = False, (z, math.copysign(1.0, re), math.copysign(1.0, im))
            value = values.get(key)
            if value is None:
                value = s(z)
                values[key] = -value if flip else value
                return value
            return -value if flip else value

        memo[("s", case)] = remembering
    return remembering


def _moved(P: Sequence[complex], j: int, z: complex) -> tuple[complex, ...]:
    """The point ``P`` with its coordinate ``j`` replaced by ``z``."""
    return (*P[:j], z, *P[j + 1:])


def _pick(P: Sequence[complex], slots: Sequence[int]) -> tuple[complex, ...]:
    """The coordinates ``P[slots]``."""
    return tuple(P[v] for v in slots)


def d_param(g: float, mass: float, lam: float, tag: MassTag | None = None) -> complex:
    """Coupling shift ``d(g, m)``: ``g`` for the species ``{1, +1/lam}``
    and ``g - (lam + 1)/2`` for ``{-1, -1/lam}``.

    When ``tag`` is given the species is read off symbolically; otherwise
    the sign of the numeric mass decides, which is equivalent for the four
    admissible values.
    """
    if tag is not None:
        positive = tag in (MassTag.PLUS_ONE, MassTag.PLUS_INV)
    else:
        positive = mass > 0
    return g if positive else g - (lam + 1) / 2


def _f_pm(s, sign, x, m_j, m_k, lam, beta) -> complex:
    """Pair interaction factor between coordinates of masses ``m_j, m_k``.

    ``sign`` is the shift direction label (+1 or -1).  The factor is a
    ratio of two ``s`` values whose offsets depend on both masses::

        f_sign(x) = s(x - sign*i*(t + lam*m_k*beta)) / s(x - sign*i*t),
        t = (m_j - m_k)(lam*m_j*m_k - 1) * beta / (4*m_j*m_k)
    """
    t = (m_j - m_k) * (lam * m_j * m_k - 1) * beta / (4 * m_j * m_k)
    num = s(x - sign * 1j * t - sign * 1j * lam * m_k * beta)
    den = s(x - sign * 1j * t)
    return num / den


def _half_period_product(s, case: CaseParams) -> complex:
    """The constant ``prod_{nu=1}^{rho} s(omega_nu / 2)`` (empty => 1)."""
    out = 1.0 + 0j
    for w in case.omega[1:]:
        out *= s(w / 2)
    return out


def _nu_blocks(case: CaseParams, g: Sequence[float], lam: float,
               beta: float) -> tuple[list[tuple[complex, complex, complex]], complex]:
    """The coordinate-free blocks of every ``V_0``: per ``omega_nu`` the product
    ``prod_{mu != nu} s((omega_nu - omega_mu)/2)`` and the coupling blocks at
    ``i beta / 2`` and ``i lam beta / 2``; then the half-period product."""
    omega = case.omega

    def block(s, w_nu, half, gap):
        out = 1.0 + 0j
        for g_mu in g:
            out *= s(w_nu / 2 + half - 1j * g_mu * beta)
        for w in omega:
            out /= s((w_nu - w + gap) / 2)
        return out

    def formula(s):
        per_nu = []
        for nu, w_nu in enumerate(omega):
            denom = 1.0 + 0j
            for mu, w in enumerate(omega):
                if mu != nu:
                    denom *= s((w_nu - w) / 2)
            per_nu.append((denom, block(s, w_nu, 0.5j * beta, 1j * (1 - lam) * beta),
                           block(s, w_nu, 0.5j * lam * beta, 1j * (lam - 1) * beta)))
        return per_nu, _half_period_product(s, case)

    return _batched(case, formula, ("nu_blocks", case, tuple(g), lam, beta))


def _exp_weights(case: CaseParams, g, lam: float, beta: float, mass_part=0) -> list[complex]:
    """Per half-period ``exp(-r xi_nu e beta)`` (1 where ``xi_nu = 0``) with
    the weight ``e = mass_part + sum(g) - (rho + 1)(lam + 1)/2``."""
    e_weight = mass_part + sum(g) - (case.rho + 1) * (lam + 1) / 2
    return [cmath.exp(-case.r * xi * e_weight * beta) if xi else 1.0 for xi in case.xi]


# ---------------------------------------------------------------------------
# generic operator coefficients
# ---------------------------------------------------------------------------


def coeff_V_shift(
    case: CaseParams,
    g: Sequence[float],
    lam: float,
    beta: float,
    masses: Sequence[complex],
    tags: Sequence[MassTag] | None,
    X: Sequence[complex],
    j: int,
    sign: int,
) -> complex:
    """Shift-term coefficient for coordinate ``j`` and direction ``sign``.

    Product of the one-coordinate block (couplings over the doubled
    denominator) and the pair factors against every other coordinate::

        prod_nu s(sign*X_j - i d(g_nu, m_j) beta)
        / ( s(2 sign X_j) s(2 sign X_j - i beta / m_j) )
        * prod_{k != j} prod_{delta} f_sign(X_j + delta X_k; m_j, m_k)

    ``tags`` may be None when the masses are free complex numbers (exact
    identity testing); the coupling shift then follows ``Re(m) > 0``.
    """
    m_j = masses[j]
    x_j = X[j]
    tag = tags[j] if tags is not None else None
    d = [d_param(g_nu, m_j.real if isinstance(m_j, complex) else m_j, lam, tag) for g_nu in g]

    def formula(s):
        out = 1.0 + 0j
        for d_nu in d:
            out *= s(sign * x_j - 1j * d_nu * beta)
        out /= s(2 * sign * x_j)
        out /= s(2 * sign * x_j - 1j * beta / m_j)
        for k, x_k in enumerate(X):
            if k == j:
                continue
            for delta in (1, -1):
                out *= _f_pm(s, sign, x_j + delta * x_k, m_j, masses[k], lam, beta)
        return out

    key = ("V_shift", case, tuple(g), lam, beta, tuple(masses),
           None if tags is None else tuple(tags), tuple(X), j, sign)
    return _batched(case, formula, key)


def coeff_V0(
    case: CaseParams,
    g: Sequence[float],
    lam: float,
    beta: float,
    masses: Sequence[complex],
    X: Sequence[complex],
) -> complex:
    """Non-shifting coefficient of the conjugated operator.

    A sum over the half-periods ``omega_nu`` (``nu = 0 .. rho``).  Each
    summand carries an exponential weight (trivial outside the elliptic
    case), a constant coupling block, and one ``s``-quotient per coordinate
    and reflection sign; two such groups appear, distinguished by whether
    the coupling block is taken at ``i beta / 2`` or ``i lam beta / 2``
    and by the per-coordinate offsets.
    """
    expos = _exp_weights(case, g, lam, beta, 2 * lam * sum(masses))

    def x_block(s, w_nu, e):
        # e = -1 with the coupling block at i beta / 2, +1 at i lam beta / 2
        out = 1.0 + 0j
        for m_j, x_j in zip(masses, X):
            shift = 0.25j * (lam * (m_j + e) + 1 / m_j - e) * beta
            for delta in (1, -1):
                base = delta * x_j + w_nu / 2 + shift
                out *= s(base - 1j * lam * m_j * beta) / s(base)
        return out

    def formula(s):
        per_nu, pref = _nu_blocks(case, g, lam, beta)
        total = 0j
        for w_nu, expo, (denom_nu, g_block1, g_block2) in zip(case.omega, expos, per_nu):
            total += expo / denom_nu * (g_block1 * x_block(s, w_nu, -1)
                                        + g_block2 * x_block(s, w_nu, 1))
        return -0.25 * pref * pref * total

    key = ("V0", case, tuple(g), lam, beta, tuple(masses), tuple(X))
    return _batched(case, formula, key)


# ---------------------------------------------------------------------------
# an operator on coordinate slots, and its three builders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShiftBlock:
    """The shift terms of one species of an operator.

    ``coeff(P, j, sign)`` is the shift coefficient of ``P[slots[j]]`` moving
    by ``sign * step``, and its term carries the prefactor ``sign * s(arg)``
    for ``pref = (sign, arg)``, the float ``s`` at ``arg`` rounded to complex.
    A shift of sign ``sign`` in a combined operator (see :class:`Operator`)
    is the block's of sign ``orient * sign``.
    """

    label: str
    slots: Sequence[int]
    coeff: Callable[[Sequence[complex], int, int], complex]
    step: complex
    pref: tuple[int, complex]
    orient: int = 1

    def prefactor(self, s: Callable[[complex], complex]) -> complex:
        sign, arg = self.pref
        value = s(complex(arg))
        return value if sign > 0 else -value


@dataclass(frozen=True)
class Operator:
    """An operator on coordinate slots: its shift blocks and its zeroth
    coefficient ``v0(P)``.  ``a + b`` is the sum of two operators; ``a - b``
    their difference as a kernel function sees it, ``b`` acting on the
    species of opposite mass sign: its prefactors change sign and its
    blocks' ``orient`` flips."""

    case: CaseParams
    blocks: tuple[ShiftBlock, ...]
    v0: Callable[[Sequence[complex]], complex]

    def __add__(self, other: "Operator") -> "Operator":
        return Operator(self.case, self.blocks + other.blocks, lambda P: self.v0(P) + other.v0(P))

    def __sub__(self, other: "Operator") -> "Operator":
        flipped = tuple(replace(b, pref=(-b.pref[0], b.pref[1]), orient=-b.orient)
                        for b in other.blocks)
        return Operator(self.case, self.blocks + flipped, lambda P: self.v0(P) - other.v0(P))

    def prefactors(self) -> list[complex]:
        """Each block's prefactor, from the run's ``s`` (:func:`_run_s`)
        when a memo is open, as the coefficients take it, and from the
        case's scalar ``s`` otherwise."""
        memo = _MEMO.get()
        s = self.case.s_scalar if memo is None else _run_s(memo, self.case)
        return [b.prefactor(s) for b in self.blocks]

    def weights(self, P: Sequence[complex]) -> list[tuple[complex, tuple]]:
        """The operator at ``P`` as ``(weight, point)`` pairs: per block,
        slot and sign ``+1, -1`` the prefactor times the shift coefficient,
        at ``P`` moved by ``sign * step``; then ``(V_0, P)``.  Its action on
        ``fn`` is the sum of ``weight * fn(point)``, for every ``fn``."""
        P = tuple(complex(v) for v in P)
        weights = []
        for b, pref in zip(self.blocks, self.prefactors()):
            for j, slot in enumerate(b.slots):
                for sign in (1, -1):
                    weights.append((pref * b.coeff(P, j, sign),
                                    _moved(P, slot, P[slot] + sign * b.step)))
        weights.append((self.v0(P), P))
        return weights


def conjugated_operator(case: CaseParams, g: Sequence[float], lam: float, beta: float,
                        masses: Sequence[complex], tags: Sequence[MassTag] | None) -> Operator:
    """The conjugated operator of ``masses``: per coordinate a block
    ``coeff`` of :func:`coeff_V_shift`, step ``-i beta / m_j``, prefactor
    ``s(i lam m_j beta)``; and :func:`coeff_V0`."""

    def coeff(j):
        return lambda P, _, sign: coeff_V_shift(case, g, lam, beta, masses, tags, P, j, sign)

    blocks = tuple(ShiftBlock("coeff", (j,), coeff(j), -1j * beta / m_j,
                              (1, 1j * lam * m_j * beta)) for j, m_j in enumerate(masses))
    return Operator(case, blocks, lambda P: coeff_V0(case, g, lam, beta, masses, P))


def vd_operator(case: CaseParams, g: Sequence[float], lam: float, beta: float,
                slots: Sequence[int], label: str = "x", scaled: bool = False) -> Operator:
    """The all-unit-mass operator on ``P[slots]``: a block of :func:`vd_V_pm`,
    step ``-i beta``, prefactor ``s(i lam beta)``; and :func:`vd_V0`.
    ``scaled`` gives that of masses ``+1/lam``: the same at couplings
    ``g / lam``, ``1 / lam`` and ``lam * beta``, prefactor ``s(i beta)``."""
    pref_arg = 1j * lam * beta
    if scaled:
        g, lam, beta, pref_arg = tuple(v / lam for v in g), 1.0 / lam, lam * beta, 1j * beta

    def coeff(P, j, sign):
        return vd_V_pm(case, g, lam, beta, _pick(P, slots), j, sign)

    block = ShiftBlock(label, slots, coeff, -1j * beta, (1, pref_arg))
    return Operator(case, (block,), lambda P: vd_V0(case, g, lam, beta, _pick(P, slots)))


def def_operator(case: CaseParams, g: Sequence[float], lam: float, beta: float,
                 x: Sequence[int], xt: Sequence[int],
                 labels: tuple[str, str] = ("x", "t")) -> Operator:
    """The two-species operator on the undeformed ``P[x]`` and the deformed
    ``P[xt]``: a block of :func:`def_V_pm`, step ``-i beta``, prefactor
    ``s(i lam beta)``; a block of :func:`def_Vt_pm`, step ``+i lam beta``,
    prefactor ``-s(i beta)``; and :func:`def_V0`."""

    def on(coeff):
        return lambda P, j, sign: coeff(case, g, lam, beta, _pick(P, x), _pick(P, xt), j, sign)

    return Operator(case, (
        ShiftBlock(labels[0], x, on(def_V_pm), -1j * beta, (1, 1j * lam * beta)),
        ShiftBlock(labels[1], xt, on(def_Vt_pm), 1j * lam * beta, (-1, 1j * beta)),
    ), lambda P: def_V0(case, g, lam, beta, _pick(P, x), _pick(P, xt)))


def operator_terms(
    case: CaseParams,
    g: Sequence[float],
    lam: float,
    beta: float,
    masses: Sequence[complex],
    tags: Sequence[MassTag] | None,
    X: Sequence[complex],
    fn: Callable[[Sequence[complex]], complex],
) -> list[complex]:
    """All terms of the conjugated operator applied to ``fn`` at ``X``.

    Returns ``2 * n_p`` shift terms followed by the zeroth term; the sum of
    the list is the operator action.  Exposing the list (rather than only
    the sum) lets callers normalise residuals by the largest term.
    """
    return weighted_terms(conjugated_operator(case, g, lam, beta, masses, tags).weights(X), fn)


def weighted_terms(weights: Sequence[tuple[complex, tuple]], fn: Callable) -> list[complex]:
    """The terms ``weight * fn(point)`` of an operator given by its
    ``(weight, point)`` pairs; their sum, ``sum(..., start=0j)``, is the
    operator's action on ``fn``."""
    return [w * fn(Q) for w, Q in weights]


# ---------------------------------------------------------------------------
# closed-form constants
# ---------------------------------------------------------------------------


def source_constant(
    case: CaseParams,
    g: Sequence[float],
    lam: float,
    beta: float,
    mass_values: Sequence[complex],
) -> complex:
    """Eigenvalue of the conjugated operator on the constant function.

    ``(1/4) [prod_{nu>=1} s(omega_nu/2)]^2 *
    s( i beta [2 lam sum(m) + sum(g) - (rho+1)(lam+1)/2] - sum(omega) )``.
    """
    rho = case.rho
    arg = 1j * beta * (
        2 * lam * sum(mass_values) + sum(g) - (rho + 1) * (lam + 1) / 2
    ) - case.period_sum

    def formula(s):
        pref = _half_period_product(s, case)
        return 0.25 * pref * pref * s(arg)

    return _batched(case, formula)


def c0_constant(
    case: CaseParams,
    g: Sequence[float],
    lam: float,
    beta: float,
) -> complex:
    """Additive constant relating the unreduced operator to the conjugated
    one (mass-independent; diverges as ``lam -> 1``)."""
    expos = _exp_weights(case, g, lam, beta)

    def formula(s):
        per_nu, pref = _nu_blocks(case, g, lam, beta)
        total = 0j
        for expo, (denom, _, block) in zip(expos, per_nu):
            total += expo * block / denom
        return 0.25 * pref * pref * total

    return _batched(case, formula)


def eigen_constant(
    case: CaseParams,
    g: Sequence[float],
    lam: float,
    beta: float,
    mass_values: Sequence[float],
) -> complex:
    """Eigenvalue of the unreduced (ground-state form) operator: the
    additive constant plus the conjugated eigenvalue."""
    return c0_constant(case, g, lam, beta) + source_constant(case, g, lam, beta, mass_values)


_BALANCE_VARIANTS = {
    "source": lambda lam, N=0, Nt=0, M=0, Mt=0, msum=0.0: 2 * lam * msum - 2 * (lam + 1),
    "eigen-plain": lambda lam, N=0, Nt=0, M=0, Mt=0, msum=0.0: 2 * lam * (N - 1) - 2,
    "kernel-cauchy": lambda lam, N=0, Nt=0, M=0, Mt=0, msum=0.0: 2 * lam * (N - M - 1) - 2,
    "kernel-dual": lambda lam, N=0, Nt=0, M=0, Mt=0, msum=0.0: 2 * lam * (N - 1) + 2 * (Mt - 1),
    "deformed-groundstate": lambda lam, N=0, Nt=0, M=0, Mt=0, msum=0.0: 2 * lam * (N - 1) - 2 * (Nt + 1),
    "deformed-constant": lambda lam, N=0, Nt=0, M=0, Mt=0, msum=0.0: 2 * lam * (N - 1) - 2 * (Nt + 1),
    "kernel-deformed": lambda lam, N=0, Nt=0, M=0, Mt=0, msum=0.0: 2 * lam * (N - M - 1) - 2 * (Nt - Mt + 1),
}


def balance_solve(
    variant: str,
    lam: float,
    g: Sequence[float],
    N: int = 0,
    Nt: int = 0,
    M: int = 0,
    Mt: int = 0,
    mass_sum: float = 0.0,
) -> tuple[float, ...]:
    """Adjust the last coupling so the elliptic constraint of ``variant`` holds.

    ``variant`` names the identity whose constraint is wanted (``source``
    for a free mass multiset, or one of the specialised identities); the
    particle counts (or ``mass_sum`` for the source form) select the
    constraint, and the last coupling is replaced so that the constraint
    value ``<offset> + sum(g)`` vanishes.  Returns the new coupling tuple.
    """
    if variant not in _BALANCE_VARIANTS:
        raise DomainError(
            f"unknown balancing variant {variant!r}; choose from {sorted(_BALANCE_VARIANTS)}"
        )
    offset = _BALANCE_VARIANTS[variant](lam, N=N, Nt=Nt, M=M, Mt=Mt, msum=mass_sum)
    g = [float(v) for v in g]
    g[-1] = -offset - sum(g[:-1])
    return tuple(g)


# ---------------------------------------------------------------------------
# specialised coefficients: all-unit masses
# ---------------------------------------------------------------------------


def vd_V_pm(
    case: CaseParams,
    g: Sequence[float],
    lam: float,
    beta: float,
    x: Sequence[complex],
    j: int,
    sign: int,
) -> complex:
    """Shift coefficient of the all-unit-mass operator, from its own
    closed form (independent of :func:`coeff_V_shift`)."""
    return _batched(case, lambda s: _vd_V_pm(s, g, lam, beta, x, j, sign))


def _vd_V_pm(s, g, lam, beta, x, j, sign) -> complex:
    x_j = x[j]
    out = 1.0 + 0j
    for g_nu in g:
        out *= s(sign * x_j - 1j * g_nu * beta)
    out /= s(2 * sign * x_j)
    out /= s(2 * sign * x_j - 1j * beta)
    for k, x_k in enumerate(x):
        if k == j:
            continue
        for delta in (1, -1):
            base = x_j + delta * x_k
            out *= s(base - sign * 1j * lam * beta) / s(base)
    return out


def vd_V0(
    case: CaseParams,
    g: Sequence[float],
    lam: float,
    beta: float,
    x: Sequence[complex],
) -> complex:
    """Zeroth coefficient of the all-unit-mass operator (closed form)."""
    return _unit_V0(case, g, lam, beta, x, None)


# ---------------------------------------------------------------------------
# specialised coefficients: two-species deformation
# ---------------------------------------------------------------------------


def def_V_pm(
    case: CaseParams,
    g: Sequence[float],
    lam: float,
    beta: float,
    x: Sequence[complex],
    xt: Sequence[complex],
    j: int,
    sign: int,
) -> complex:
    """Shift coefficient on an undeformed coordinate of the two-species
    operator: the all-unit-mass block times the cross factors."""
    x_j = x[j]

    def formula(s):
        out = _vd_V_pm(s, g, lam, beta, x, j, sign)
        for xt_k in xt:
            for delta in (1, -1):
                base = x_j + delta * xt_k
                num = s(base - sign * 0.5j * (lam - 1) * beta)
                den = s(base - sign * 0.5j * (lam + 1) * beta)
                out *= num / den
        return out

    return _batched(case, formula)


def def_Vt_pm(
    case: CaseParams,
    g: Sequence[float],
    lam: float,
    beta: float,
    x: Sequence[complex],
    xt: Sequence[complex],
    k: int,
    sign: int,
) -> complex:
    """Shift coefficient on a deformed coordinate of the two-species
    operator, written directly from its closed form."""
    xt_k = xt[k]

    def formula(s):
        out = 1.0 + 0j
        for g_dual in reflected_couplings(g, lam):
            out *= s(sign * xt_k + 1j * g_dual * beta)
        out /= s(2 * sign * xt_k)
        out /= s(2 * sign * xt_k + 1j * lam * beta)
        for k2, xt_k2 in enumerate(xt):
            if k2 == k:
                continue
            for delta in (1, -1):
                base = xt_k + delta * xt_k2
                out *= s(base + sign * 1j * beta) / s(base)
        for x_j in x:
            for delta in (1, -1):
                base = xt_k + delta * x_j
                num = s(base - sign * 0.5j * (lam - 1) * beta)
                den = s(base + sign * 0.5j * (lam + 1) * beta)
                out *= num / den
        return out

    return _batched(case, formula)


def def_V0(
    case: CaseParams,
    g: Sequence[float],
    lam: float,
    beta: float,
    x: Sequence[complex],
    xt: Sequence[complex],
) -> complex:
    """Zeroth coefficient of the two-species operator (closed form)."""
    return _unit_V0(case, g, lam, beta, x, xt)


def _unit_V0(case, g, lam, beta, x, xt) -> complex:
    """The closed-form ``V_0`` with unit masses on ``x``, times the factor
    of the deformed coordinates ``xt`` unless ``xt`` is None."""
    expos = _exp_weights(case, g, lam, beta, 2 * lam * len(x) - 2 * len(xt or ()))
    x = tuple(complex(v) for v in x)
    xt = None if xt is None else tuple(complex(v) for v in xt)

    def formula(s):
        per_nu, pref = _nu_blocks(case, g, lam, beta)
        total = 0j
        for w_nu, expo, (denom, block, _) in zip(case.omega, expos, per_nu):
            xblock = 1.0 + 0j
            for x_j in x:
                for delta in (1, -1):
                    base = delta * x_j + w_nu / 2 + 0.5j * beta
                    xblock *= s(base - 1j * lam * beta) / s(base)
            term = expo * block * xblock
            if xt is not None:
                tblock = 1.0 + 0j
                for xt_k in xt:
                    for delta in (1, -1):
                        base = delta * xt_k + w_nu / 2 - 0.5j * lam * beta
                        tblock *= s(base + 1j * beta) / s(base)
                term *= tblock
            total += term / denom
        return -0.25 * pref * pref * total

    return _batched(case, formula)


# ---------------------------------------------------------------------------
# the exact summation identity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SummationParams:
    """Free parameters of the exact summation identity.

    All entries are complex and essentially unconstrained apart from
    genericity: ``gamma`` must have nonzero imaginary part and the ``c``,
    ``d`` families must stay mutually distinct modulo the zero lattice.
    ``n`` has ``2 (rho + 1)`` entries; ``c`` and ``d`` have ``rho + 1``.
    """

    X: tuple[complex, ...]
    m: tuple[complex, ...]
    gamma: complex
    a: tuple[complex, ...]
    c: tuple[complex, ...]
    d: tuple[complex, ...]
    n: tuple[complex, ...]

    def __post_init__(self) -> None:
        for name in ("X", "m", "a", "c", "d", "n"):
            object.__setattr__(
                self, name, tuple(complex(v) for v in getattr(self, name))
            )
        if len(self.X) != len(self.m) or len(self.X) != len(self.a):
            raise DomainError("X, m and a must have equal length")


def summation_shift_term(
    case: CaseParams,
    p: SummationParams,
    j: int,
    sign: int,
) -> complex:
    """One shift-type term of the summation identity (coordinate ``j``,
    direction ``sign``)."""
    rho = case.rho
    omega = case.omega
    x_j, m_j, a_j = p.X[j], p.m[j], p.a[j]

    def formula(s):
        term = s(p.gamma * m_j)
        for kk, (x_k, m_k, a_k) in enumerate(zip(p.X, p.m, p.a)):
            if kk == j:
                continue
            for delta in (1, -1):
                base = x_j + delta * x_k
                term *= s(base + sign * (a_j - a_k - p.gamma * m_k))
                term /= s(base + sign * (a_j - a_k))
        for nu in range(rho + 1):
            half = omega[nu] / 2
            term *= s(sign * x_j - p.gamma * m_j / 2 - half)
            term /= s(sign * x_j - half)
            term *= s(sign * x_j + a_j - p.c[nu] - half - p.n[nu])
            term /= s(sign * x_j + a_j - p.c[nu] - half)
            term *= s(sign * x_j + a_j - p.d[nu] - half - p.n[nu + rho + 1])
            term /= s(sign * x_j + a_j - p.d[nu] - half)
        return term

    return _batched(case, formula)


def summation_terms(case: CaseParams, p: SummationParams) -> tuple[list[complex], complex]:
    """All left-side terms (shift family, then negated boundary family)
    plus the right-side value."""
    terms = [summation_shift_term(case, p, j, sign)
             for sign in (1, -1) for j in range(len(p.X))]
    for nu in range(case.rho + 1):
        terms.append(-summation_boundary_term(case, p, nu, use_c=True))
        terms.append(-summation_boundary_term(case, p, nu, use_c=False))
    return terms, summation_rhs(case, p)


def summation_boundary_term(
    case: CaseParams,
    p: SummationParams,
    nu: int,
    use_c: bool,
) -> complex:
    """One boundary family member (anchored at ``c_nu`` or ``d_nu``)."""
    rho = case.rho
    omega = case.omega
    anchor = p.c[nu] if use_c else p.d[nu]

    def formula(s):
        term = 1.0 + 0j
        for x_j, m_j, a_j in zip(p.X, p.m, p.a):
            for delta in (1, -1):
                base = delta * x_j + omega[nu] / 2 + anchor - a_j
                term *= s(base - p.gamma * m_j) / s(base)
        for mu in range(rho + 1):
            gap = (omega[nu] - omega[mu]) / 2
            # block against the c-family
            term *= s(gap + anchor - p.c[mu] - p.n[mu])
            if not (use_c and mu == nu):
                term /= s(gap + anchor - p.c[mu])
            # block against the d-family
            term *= s(gap + anchor - p.d[mu] - p.n[mu + rho + 1])
            if use_c or mu != nu:
                term /= s(gap + anchor - p.d[mu])
        return term

    return _batched(case, formula)


def summation_rhs(case: CaseParams, p: SummationParams) -> complex:
    """Right side: a single ``s`` value at the parameter sum."""
    return case.s_scalar(complex(2 * p.gamma * sum(p.m) + sum(p.n)))
