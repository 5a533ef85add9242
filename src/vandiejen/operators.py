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
* :func:`apply_conjugated_operator` - the full action on a callable.

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

Each coefficient is written as a formula in a function ``s`` and gets all
of its ``s`` values from one array :func:`~vandiejen.sfun.s_eval` call
(see :func:`_batched`); the values are the same, bit for bit, as with one
scalar call per argument.

The exact summation identity (:func:`summation_lhs` versus
:func:`summation_rhs`) is implemented for free complex parameters; the
parameter choice that turns it into the operator identity is produced by
:func:`proof_params`.

Unless stated otherwise, functions take raw numeric parameters (coupling
vector ``g``, scalars ``lam`` and ``beta``, mass values, coordinates) so
they stay usable for structural experiments; the typed containers
:class:`CouplingSet` and :class:`Configuration` add validation on top for
the verification engine and the CLI.
"""

from __future__ import annotations

import cmath
import enum
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .sfun import (
    DEFAULT_POLICY,
    CaseKind,
    CaseParams,
    DomainError,
    TruncationPolicy,
    lattice_distance,
    s_eval,
)

__all__ = [
    "MassTag",
    "CouplingSet",
    "Configuration",
    "SummationParams",
    "d_param",
    "f_pm",
    "half_period_product",
    "coeff_V_shift",
    "coeff_V0",
    "operator_terms",
    "apply_conjugated_operator",
    "source_constant",
    "c0_constant",
    "eigen_constant",
    "balance_defect",
    "balance_solve",
    "vd_V_pm",
    "vd_V0",
    "vd_apply",
    "def_V_pm",
    "def_Vt_pm",
    "def_V0",
    "deformed_apply",
    "summation_shift_term",
    "summation_boundary_term",
    "summation_lhs",
    "summation_rhs",
    "proof_params",
    "shift_lattice_advisory",
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
        if not self.lam > 0:
            raise DomainError(f"lam must be positive, got {self.lam}")
        if not self.beta > 0:
            raise DomainError(f"beta must be positive, got {self.beta}")

    def validate_for(self, case: CaseParams) -> None:
        expected = 2 * (case.rho + 1)
        if len(self.g) != expected:
            raise DomainError(
                f"case {case.kind.label} needs {expected} couplings, got {len(self.g)}"
            )

    @property
    def g_sum(self) -> float:
        return float(sum(self.g))

    def reflected_dual(self) -> "CouplingSet":
        """Couplings ``(lam + 1)/2 - g_nu`` of the opposite-species block."""
        return CouplingSet(
            tuple((self.lam + 1) / 2 - v for v in self.g), self.lam, self.beta
        )

    def deformed_dual(self) -> "CouplingSet":
        """Couplings ``(lam + 1 - 2 g_nu) / (2 lam)`` with parameters
        ``1/lam`` and ``lam * beta`` of the swapped-species description."""
        return CouplingSet(
            tuple((self.lam + 1 - 2 * v) / (2 * self.lam) for v in self.g),
            1.0 / self.lam,
            self.lam * self.beta,
        )


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

    def balance_defect(self) -> float:
        return balance_defect(self.coupling, self.mass_values)

    def is_balanced(self, tol: float = 1e-12) -> bool:
        return abs(self.balance_defect()) < tol


def balance_defect(coupling: CouplingSet, mass_values: Sequence[float]) -> float:
    """Elliptic-case constraint value ``2 lam sum(m) + sum(g) - 2(lam+1)``.

    The eigenfunction and kernel identities hold unconditionally in cases
    I-III and, in case IV, exactly on the zero set of this quantity.
    """
    lam = coupling.lam
    return 2 * lam * float(sum(mass_values)) + coupling.g_sum - 2 * (lam + 1)


# ---------------------------------------------------------------------------
# scalar building blocks
# ---------------------------------------------------------------------------


def _sv(case: CaseParams, z: complex, policy: TruncationPolicy) -> complex:
    return complex(s_eval(case, complex(z), policy))


def _batched(
    case: CaseParams,
    policy: TruncationPolicy,
    formula: Callable[[Callable[[complex], complex]], complex],
) -> complex:
    """``formula(s)`` with every ``s`` value taken from one array call.

    ``formula`` runs twice.  The first run hands it an ``s`` that records
    its argument and returns 1; all recorded arguments then go through a
    single :func:`s_eval` call; the second run hands the values back in
    call order.  Products and quotients therefore run in exactly the order
    of scalar ``s`` calls, with the same bits, and an exact zero in a
    denominator still raises :class:`ZeroDivisionError`.  This needs the
    sequence of ``s`` arguments not to depend on ``s`` values; the replay
    checks that it consumes exactly the recorded values.
    """
    args: list[complex] = []

    def record(z: complex) -> complex:
        args.append(complex(z))
        return 1.0

    formula(record)
    values = iter(s_eval(case, np.array(args), policy).tolist() if args else ())

    def replay(z: complex) -> complex:
        value = next(values, None)
        if value is None:
            raise RuntimeError("formula asked for more s values than it recorded")
        return value

    out = formula(replay)
    if next(values, None) is not None:
        raise RuntimeError("formula asked for fewer s values than it recorded")
    return out


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


def f_pm(
    case: CaseParams,
    sign: int,
    x: complex,
    m_j: complex,
    m_k: complex,
    lam: float,
    beta: float,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> complex:
    """Pair interaction factor between coordinates of masses ``m_j, m_k``.

    ``sign`` is the shift direction label (+1 or -1).  The factor is a
    ratio of two ``s`` values whose offsets depend on both masses::

        f_sign(x) = s(x - sign*i*(t + lam*m_k*beta)) / s(x - sign*i*t),
        t = (m_j - m_k)(lam*m_j*m_k - 1) * beta / (4*m_j*m_k)
    """
    return _batched(case, policy, lambda s: _f_pm(s, sign, x, m_j, m_k, lam, beta))


def _f_pm(s, sign, x, m_j, m_k, lam, beta) -> complex:
    t = (m_j - m_k) * (lam * m_j * m_k - 1) * beta / (4 * m_j * m_k)
    num = s(x - sign * 1j * t - sign * 1j * lam * m_k * beta)
    den = s(x - sign * 1j * t)
    return num / den


def half_period_product(case: CaseParams, policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """The constant ``prod_{nu=1}^{rho} s(omega_nu / 2)`` (empty => 1)."""
    return _batched(case, policy, lambda s: _half_period_product(s, case))


def _half_period_product(s, case: CaseParams) -> complex:
    out = 1.0 + 0j
    for w in case.omega[1:]:
        out *= s(w / 2)
    return out


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
    policy: TruncationPolicy = DEFAULT_POLICY,
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

    return _batched(case, policy, formula)


def coeff_V0(
    case: CaseParams,
    g: Sequence[float],
    lam: float,
    beta: float,
    masses: Sequence[complex],
    X: Sequence[complex],
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> complex:
    """Non-shifting coefficient of the conjugated operator.

    A sum over the half-periods ``omega_nu`` (``nu = 0 .. rho``).  Each
    summand carries an exponential weight (trivial outside the elliptic
    case), a constant coupling block, and one ``s``-quotient per coordinate
    and reflection sign; two such groups appear, distinguished by whether
    the coupling block is taken at ``i beta / 2`` or ``i lam beta / 2``
    and by the per-coordinate offsets.
    """
    rho = case.rho
    omega = case.omega
    xi = case.xi
    r = case.r if case.kind in (CaseKind.TRIGONOMETRIC, CaseKind.ELLIPTIC) else 0.0

    e_weight = 2 * lam * sum(masses) + sum(g) - (rho + 1) * (lam + 1) / 2

    def formula(s):
        total = 0j
        for nu in range(rho + 1):
            expo = cmath.exp(-r * xi[nu] * e_weight * beta) if xi[nu] else 1.0
            denom_nu = 1.0 + 0j
            for mu in range(rho + 1):
                if mu != nu:
                    denom_nu *= s((omega[nu] - omega[mu]) / 2)

            # first group: coupling block at i beta / 2
            g_block1 = 1.0 + 0j
            for g_mu in g:
                g_block1 *= s(omega[nu] / 2 + 0.5j * beta - 1j * g_mu * beta)
            for mu in range(rho + 1):
                g_block1 /= s((omega[nu] - omega[mu] + 1j * (1 - lam) * beta) / 2)
            x_block1 = 1.0 + 0j
            for m_j, x_j in zip(masses, X):
                shift = 0.25j * (lam * (m_j - 1) + 1 / m_j + 1) * beta
                for delta in (1, -1):
                    base = delta * x_j + omega[nu] / 2 + shift
                    x_block1 *= s(base - 1j * lam * m_j * beta) / s(base)

            # second group: coupling block at i lam beta / 2
            g_block2 = 1.0 + 0j
            for g_mu in g:
                g_block2 *= s(omega[nu] / 2 + 0.5j * lam * beta - 1j * g_mu * beta)
            for mu in range(rho + 1):
                g_block2 /= s((omega[nu] - omega[mu] + 1j * (lam - 1) * beta) / 2)
            x_block2 = 1.0 + 0j
            for m_k, x_k in zip(masses, X):
                shift = 0.25j * (lam * (m_k + 1) + 1 / m_k - 1) * beta
                for delta in (1, -1):
                    base = delta * x_k + omega[nu] / 2 + shift
                    x_block2 *= s(base - 1j * lam * m_k * beta) / s(base)

            total += expo / denom_nu * (g_block1 * x_block1 + g_block2 * x_block2)

        pref = _half_period_product(s, case)
        return -0.25 * pref * pref * total

    return _batched(case, policy, formula)


def operator_terms(
    case: CaseParams,
    g: Sequence[float],
    lam: float,
    beta: float,
    masses: Sequence[complex],
    tags: Sequence[MassTag] | None,
    X: Sequence[complex],
    fn: Callable[[Sequence[complex]], complex],
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> list[complex]:
    """All terms of the conjugated operator applied to ``fn`` at ``X``.

    Returns ``2 * n_p`` shift terms followed by the zeroth term; the sum of
    the list is the operator action.  Exposing the list (rather than only
    the sum) lets callers normalise residuals by the largest term.
    """
    X = tuple(complex(v) for v in X)
    terms: list[complex] = []
    for j, m_j in enumerate(masses):
        step = 1j * beta / m_j
        for sign in (1, -1):
            coeff = coeff_V_shift(case, g, lam, beta, masses, tags, X, j, sign, policy)
            shifted = list(X)
            shifted[j] = X[j] - sign * step
            pref = _sv(case, 1j * lam * m_j * beta, policy)
            terms.append(pref * coeff * fn(tuple(shifted)))
    terms.append(coeff_V0(case, g, lam, beta, masses, X, policy) * fn(X))
    return terms


def apply_conjugated_operator(
    case: CaseParams,
    g: Sequence[float],
    lam: float,
    beta: float,
    masses: Sequence[complex],
    tags: Sequence[MassTag] | None,
    X: Sequence[complex],
    fn: Callable[[Sequence[complex]], complex],
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> complex:
    return sum(
        operator_terms(case, g, lam, beta, masses, tags, X, fn, policy), start=0j
    )


# ---------------------------------------------------------------------------
# closed-form constants
# ---------------------------------------------------------------------------


def source_constant(
    case: CaseParams,
    g: Sequence[float],
    lam: float,
    beta: float,
    mass_values: Sequence[complex],
    policy: TruncationPolicy = DEFAULT_POLICY,
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

    return _batched(case, policy, formula)


def c0_constant(
    case: CaseParams,
    g: Sequence[float],
    lam: float,
    beta: float,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> complex:
    """Additive constant relating the unreduced operator to the conjugated
    one (mass-independent; diverges as ``lam -> 1``)."""
    rho = case.rho
    omega = case.omega
    xi = case.xi
    r = case.r if case.kind in (CaseKind.TRIGONOMETRIC, CaseKind.ELLIPTIC) else 0.0
    e_weight = sum(g) - (rho + 1) * (lam + 1) / 2

    def formula(s):
        total = 0j
        for nu in range(rho + 1):
            expo = cmath.exp(-r * xi[nu] * e_weight * beta) if xi[nu] else 1.0
            denom = 1.0 + 0j
            for mu in range(rho + 1):
                if mu != nu:
                    denom *= s((omega[nu] - omega[mu]) / 2)
            block = 1.0 + 0j
            for g_mu in g:
                block *= s(omega[nu] / 2 + 0.5j * lam * beta - 1j * g_mu * beta)
            for mu in range(rho + 1):
                block /= s((omega[nu] - omega[mu] + 1j * (lam - 1) * beta) / 2)
            total += expo * block / denom

        pref = _half_period_product(s, case)
        return 0.25 * pref * pref * total

    return _batched(case, policy, formula)


def eigen_constant(
    case: CaseParams,
    g: Sequence[float],
    lam: float,
    beta: float,
    mass_values: Sequence[float],
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> complex:
    """Eigenvalue of the unreduced (ground-state form) operator: the
    additive constant plus the conjugated eigenvalue."""
    return c0_constant(case, g, lam, beta, policy) + source_constant(
        case, g, lam, beta, mass_values, policy
    )


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
    solve_index: int = -1,
    N: int = 0,
    Nt: int = 0,
    M: int = 0,
    Mt: int = 0,
    mass_sum: float = 0.0,
) -> tuple[float, ...]:
    """Adjust one coupling so the elliptic constraint of ``variant`` holds.

    ``variant`` names the identity whose constraint is wanted (``source``
    for a free mass multiset, or one of the specialised identities); the
    particle counts (or ``mass_sum`` for the source form) select the
    constraint, and the coupling at ``solve_index`` is replaced so that
    the constraint value ``<offset> + sum(g)`` vanishes.  Returns the new
    coupling tuple.
    """
    if variant not in _BALANCE_VARIANTS:
        raise DomainError(
            f"unknown balancing variant {variant!r}; choose from {sorted(_BALANCE_VARIANTS)}"
        )
    offset = _BALANCE_VARIANTS[variant](lam, N=N, Nt=Nt, M=M, Mt=Mt, msum=mass_sum)
    g = [float(v) for v in g]
    rest = sum(v for i, v in enumerate(g) if i != (solve_index % len(g)))
    g[solve_index % len(g)] = -offset - rest
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
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> complex:
    """Shift coefficient of the all-unit-mass operator, from its own
    closed form (independent of :func:`coeff_V_shift`)."""
    return _batched(case, policy, lambda s: _vd_V_pm(s, g, lam, beta, x, j, sign))


def _vd_V_pm(s, g, lam, beta, x, j, sign) -> complex:
    x_j = complex(x[j])
    out = 1.0 + 0j
    for g_nu in g:
        out *= s(sign * x_j - 1j * g_nu * beta)
    out /= s(2 * sign * x_j)
    out /= s(2 * sign * x_j - 1j * beta)
    for k, x_k in enumerate(x):
        if k == j:
            continue
        for delta in (1, -1):
            base = x_j + delta * complex(x_k)
            out *= s(base - sign * 1j * lam * beta) / s(base)
    return out


def vd_V0(
    case: CaseParams,
    g: Sequence[float],
    lam: float,
    beta: float,
    x: Sequence[complex],
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> complex:
    """Zeroth coefficient of the all-unit-mass operator (closed form)."""
    rho = case.rho
    omega = case.omega
    xi = case.xi
    r = case.r if case.kind in (CaseKind.TRIGONOMETRIC, CaseKind.ELLIPTIC) else 0.0
    n_p = len(x)
    e_weight = 2 * lam * n_p + sum(g) - (rho + 1) * (lam + 1) / 2

    def formula(s):
        total = 0j
        for nu in range(rho + 1):
            expo = cmath.exp(-r * xi[nu] * e_weight * beta) if xi[nu] else 1.0
            denom = 1.0 + 0j
            for mu in range(rho + 1):
                if mu != nu:
                    denom *= s((omega[nu] - omega[mu]) / 2)
            block = 1.0 + 0j
            for g_mu in g:
                block *= s(omega[nu] / 2 + 0.5j * beta - 1j * g_mu * beta)
            for mu in range(rho + 1):
                block /= s((omega[nu] - omega[mu] + 1j * (1 - lam) * beta) / 2)
            xblock = 1.0 + 0j
            for x_j in x:
                for delta in (1, -1):
                    base = delta * complex(x_j) + omega[nu] / 2 + 0.5j * beta
                    xblock *= s(base - 1j * lam * beta) / s(base)
            total += expo * block * xblock / denom

        pref = _half_period_product(s, case)
        return -0.25 * pref * pref * total

    return _batched(case, policy, formula)


def vd_apply(
    case: CaseParams,
    g: Sequence[float],
    lam: float,
    beta: float,
    x: Sequence[complex],
    fn: Callable[[Sequence[complex]], complex],
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> complex:
    """Plain action of the all-unit-mass operator on ``fn`` at ``x``."""
    x = tuple(complex(v) for v in x)
    pref = _sv(case, 1j * lam * beta, policy)
    total = 0j
    for j in range(len(x)):
        for sign in (1, -1):
            coeff = vd_V_pm(case, g, lam, beta, x, j, sign, policy)
            shifted = list(x)
            shifted[j] = x[j] - sign * 1j * beta
            total += pref * coeff * fn(tuple(shifted))
    total += vd_V0(case, g, lam, beta, x, policy) * fn(x)
    return total


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
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> complex:
    """Shift coefficient on an undeformed coordinate of the two-species
    operator: the all-unit-mass block times the cross factors."""
    x_j = complex(x[j])

    def formula(s):
        out = _vd_V_pm(s, g, lam, beta, x, j, sign)
        for xt_k in xt:
            for delta in (1, -1):
                base = x_j + delta * complex(xt_k)
                num = s(base - sign * 0.5j * (lam - 1) * beta)
                den = s(base - sign * 0.5j * (lam + 1) * beta)
                out *= num / den
        return out

    return _batched(case, policy, formula)


def def_Vt_pm(
    case: CaseParams,
    g: Sequence[float],
    lam: float,
    beta: float,
    x: Sequence[complex],
    xt: Sequence[complex],
    k: int,
    sign: int,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> complex:
    """Shift coefficient on a deformed coordinate of the two-species
    operator, written directly from its closed form."""
    xt_k = complex(xt[k])

    def formula(s):
        out = 1.0 + 0j
        for g_nu in g:
            g_dual = (lam + 1) / 2 - g_nu
            out *= s(sign * xt_k + 1j * g_dual * beta)
        out /= s(2 * sign * xt_k)
        out /= s(2 * sign * xt_k + 1j * lam * beta)
        for k2, xt_k2 in enumerate(xt):
            if k2 == k:
                continue
            for delta in (1, -1):
                base = xt_k + delta * complex(xt_k2)
                out *= s(base + sign * 1j * beta) / s(base)
        for x_j in x:
            for delta in (1, -1):
                base = xt_k + delta * complex(x_j)
                num = s(base - sign * 0.5j * (lam - 1) * beta)
                den = s(base + sign * 0.5j * (lam + 1) * beta)
                out *= num / den
        return out

    return _batched(case, policy, formula)


def def_V0(
    case: CaseParams,
    g: Sequence[float],
    lam: float,
    beta: float,
    x: Sequence[complex],
    xt: Sequence[complex],
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> complex:
    """Zeroth coefficient of the two-species operator (closed form)."""
    rho = case.rho
    omega = case.omega
    xi = case.xi
    r = case.r if case.kind in (CaseKind.TRIGONOMETRIC, CaseKind.ELLIPTIC) else 0.0
    e_weight = 2 * lam * len(x) - 2 * len(xt) + sum(g) - (rho + 1) * (lam + 1) / 2

    def formula(s):
        total = 0j
        for nu in range(rho + 1):
            expo = cmath.exp(-r * xi[nu] * e_weight * beta) if xi[nu] else 1.0
            denom = 1.0 + 0j
            for mu in range(rho + 1):
                if mu != nu:
                    denom *= s((omega[nu] - omega[mu]) / 2)
            block = 1.0 + 0j
            for g_mu in g:
                block *= s(omega[nu] / 2 + 0.5j * beta - 1j * g_mu * beta)
            for mu in range(rho + 1):
                block /= s((omega[nu] - omega[mu] + 1j * (1 - lam) * beta) / 2)
            xblock = 1.0 + 0j
            for x_j in x:
                for delta in (1, -1):
                    base = delta * complex(x_j) + omega[nu] / 2 + 0.5j * beta
                    xblock *= s(base - 1j * lam * beta) / s(base)
            tblock = 1.0 + 0j
            for xt_k in xt:
                for delta in (1, -1):
                    base = delta * complex(xt_k) + omega[nu] / 2 - 0.5j * lam * beta
                    tblock *= s(base + 1j * beta) / s(base)
            total += expo * block * xblock * tblock / denom

        pref = _half_period_product(s, case)
        return -0.25 * pref * pref * total

    return _batched(case, policy, formula)


def deformed_apply(
    case: CaseParams,
    g: Sequence[float],
    lam: float,
    beta: float,
    x: Sequence[complex],
    xt: Sequence[complex],
    fn: Callable[[Sequence[complex], Sequence[complex]], complex],
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> complex:
    """Plain action of the two-species operator on ``fn(x, xt)``.

    Undeformed coordinates step by ``i beta`` with weight ``s(i lam beta)``;
    deformed coordinates step by ``i lam beta`` the opposite way with
    weight ``-s(i beta)``.
    """
    x = tuple(complex(v) for v in x)
    xt = tuple(complex(v) for v in xt)
    pref_x = _sv(case, 1j * lam * beta, policy)
    pref_t = _sv(case, 1j * beta, policy)
    total = 0j
    for j in range(len(x)):
        for sign in (1, -1):
            coeff = def_V_pm(case, g, lam, beta, x, xt, j, sign, policy)
            shifted = list(x)
            shifted[j] = x[j] - sign * 1j * beta
            total += pref_x * coeff * fn(tuple(shifted), xt)
    for k in range(len(xt)):
        for sign in (1, -1):
            coeff = def_Vt_pm(case, g, lam, beta, x, xt, k, sign, policy)
            shifted = list(xt)
            shifted[k] = xt[k] + sign * 1j * lam * beta
            total -= pref_t * coeff * fn(x, tuple(shifted))
    total += def_V0(case, g, lam, beta, x, xt, policy) * fn(x, xt)
    return total


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
    policy: TruncationPolicy = DEFAULT_POLICY,
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

    return _batched(case, policy, formula)


def summation_lhs(
    case: CaseParams, p: SummationParams, policy: TruncationPolicy = DEFAULT_POLICY
) -> complex:
    """Left side: shift-type terms minus the two boundary families."""
    rho = case.rho
    if len(p.c) != rho + 1 or len(p.d) != rho + 1 or len(p.n) != 2 * (rho + 1):
        raise DomainError(
            f"case {case.kind.label} needs {rho + 1} entries in c and d and "
            f"{2 * (rho + 1)} in n"
        )

    total = 0j
    for sign in (1, -1):
        for jj in range(len(p.X)):
            total += summation_shift_term(case, p, jj, sign, policy)
    for nu in range(rho + 1):
        total -= summation_boundary_term(case, p, nu, use_c=True, policy=policy)
        total -= summation_boundary_term(case, p, nu, use_c=False, policy=policy)
    return total


def summation_boundary_term(
    case: CaseParams,
    p: SummationParams,
    nu: int,
    use_c: bool,
    policy: TruncationPolicy = DEFAULT_POLICY,
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
            if use_c:
                if mu != nu:
                    term /= s(gap + anchor - p.c[mu])
            else:
                term /= s(gap + anchor - p.c[mu])
            # block against the d-family
            term *= s(gap + anchor - p.d[mu] - p.n[mu + rho + 1])
            if use_c:
                term /= s(gap + anchor - p.d[mu])
            else:
                if mu != nu:
                    term /= s(gap + anchor - p.d[mu])
        return term

    return _batched(case, policy, formula)


def summation_rhs(
    case: CaseParams, p: SummationParams, policy: TruncationPolicy = DEFAULT_POLICY
) -> complex:
    """Right side: a single ``s`` value at the parameter sum."""
    return _sv(case, 2 * p.gamma * sum(p.m) + sum(p.n), policy)


def proof_params(
    case: CaseParams,
    g: Sequence[float],
    lam: float,
    beta: float,
    masses: Sequence[complex],
    X: Sequence[complex],
    a0: complex = 0j,
) -> SummationParams:
    """Parameter choice turning the summation identity into the operator
    identity: step parameter ``i lam beta``, mass-dependent anchors, and
    boundary data encoding the couplings and half-periods."""
    rho = case.rho
    omega = case.omega
    if len(g) != 2 * (rho + 1):
        raise DomainError(f"need {2 * (rho + 1)} couplings, got {len(g)}")
    gamma = 1j * lam * beta
    a = tuple(
        -(1j * lam * beta / 4) * (m + 1 / (lam * m)) + a0 for m in masses
    )
    c = tuple(1j * beta * (lam - 1) / 4 for _ in range(rho + 1))
    d = tuple(-1j * beta * (lam - 1) / 4 for _ in range(rho + 1))
    n_first = tuple(
        -0.5j * lam * beta - omega[nu] / 2 + 1j * g[nu] * beta for nu in range(rho + 1)
    )
    n_second = tuple(
        -0.5j * beta - omega[nu] / 2 + 1j * g[nu + rho + 1] * beta
        for nu in range(rho + 1)
    )
    return SummationParams(
        X=tuple(X), m=tuple(masses), gamma=gamma, a=a, c=c, d=d, n=n_first + n_second
    )


def shift_lattice_advisory(
    case: CaseParams,
    lam: float,
    beta: float,
    mass_values: Sequence[float],
    k_max: int = 12,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> list[str]:
    """Warn when some multiple of a shift step lands on the zero lattice.

    The operator identities assume the step lattice ``(i beta / m) Z`` and
    the zero lattice of ``s`` meet only at the origin.  This cannot be
    certified numerically, so the check is advisory: it scans multiples
    ``k = 1 .. k_max`` and reports near-collisions as warning strings
    (also emitted through :mod:`warnings`).
    """
    notes = []
    for m in set(mass_values):
        for k in range(1, k_max + 1):
            point = 1j * k * beta / m
            dist = lattice_distance(case, point)
            if dist < policy.pole_floor:
                note = (
                    f"step multiple {k} * i*beta/{m:g} lies within {dist:.3g} "
                    f"of the zero lattice ({case.describe()}); identities may degenerate"
                )
                notes.append(note)
                warnings.warn(note, stacklevel=2)
                break
    return notes
