"""Seeded numerical certification of every identity in the family.

Each identity gets a runner that draws admissible random configurations,
evaluates both sides, and normalises the defect by the largest individual
term (never by ``max(|lhs|, |rhs|)``: under elliptic balancing a right
side can be an exact zero of ``s`` while the terms stay order one).

Runners emit :class:`SampleResult` rows.  A row is either a positive
check (``passed`` iff the residual is at or below the tolerance) or a
negative control (``control=True``; ``passed`` iff the residual EXCEEDS
the stated floor).  Elliptic runs automatically pair every balanced check
with detuned controls in both directions, so a report certifies the
if-and-only-if character of the balancing constraint, not just one side.

Everything is deterministic: given the same identity, case, sample count
and seed, the emitted rows (and their serialised bytes) are identical.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, fields as dataclass_fields, replace
from functools import cache, lru_cache, partial
from itertools import accumulate
from typing import NamedTuple, TypeVar

import numpy as np

from .eigenfunctions import (
    BranchError,
    BranchTracker,
    ConjugatedTerms,
    conjugation_terms,
    continued_root,
    deformed_groundstate_sq_factors,
    deformed_power_sum,
    eigenfunction_factors,
    factor_ratio,
    factor_value,
    groundstate_sq_factors,
    power_sum_weight,
    quasi_invariance_defect,
)
from .gamma import functional_eq_constant, gamma_G
from .operators import (
    Configuration,
    CouplingSet,
    SummationParams,
    MassTag,
    Operator,
    _coefficient_memo,
    _moved,
    balance_solve,
    c0_constant,
    coeff_V0,
    coeff_V_shift,
    def_operator,
    dual_couplings,
    eigen_constant,
    summation_terms,
    operator_terms,
    reflected_couplings,
    source_constant,
    vd_operator,
    weighted_terms,
)
from .sfun import (
    PRODUCT_TERMS,
    CaseKind,
    CaseParams,
    ConvergenceError,
    DomainError,
    PoleProximityError,
    duplication_residual,
    quasi_factor,
    theta_eval,
    theta_product,
)

_TINY = 1e-300

T = TypeVar("T")

CASES = ("I", "II", "III", "IV")

#: Detuning applied to one coupling (or one free parameter) in negative
#: controls, and the floor such a control must exceed to count as passed.
CONTROL_DETUNE = 0.1
CONTROL_FLOOR = 1e-3

WINDOW_RE = (0.15, 1.2)
WINDOW_IM = (-0.35, 0.35)


# ---------------------------------------------------------------------------
# result records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampleResult:
    """One residual evaluation.

    For ordinary rows ``passed`` means ``residual <= tolerance``.  For
    control rows (deliberately broken inputs) ``passed`` means the
    residual EXCEEDS the tolerance field, which then holds the control
    floor rather than an accuracy target.
    """

    identity: str
    case: str
    label: str
    index: int
    residual: float
    scale: float
    tolerance: float
    control: bool
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of one (identity, case) verification run."""

    identity: str
    case: str
    seed: int
    sample_count: int
    max_rel_residual: float
    normalization_scale: float
    min_control_residual: float
    rejection_rate: float
    verdict: str
    results: tuple[SampleResult, ...]

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _row(
    ctx: "_RunCtx",
    label: str,
    index: int,
    residual: float,
    scale: float,
    control: bool = False,
    detail: str = "",
    default_tol: float | None = None,
) -> SampleResult:
    """A positive row's tolerance is the run's given one, else the row's
    own ``default_tol``, else its identity's default."""
    residual = float(residual)
    if control:
        tol = CONTROL_FLOOR
        passed = math.isfinite(residual) and residual > tol
    else:
        tol = (ctx.tol if ctx.tol is not None else default_tol if default_tol is not None
               else default_tolerance(ctx.identity, ctx.label))
        passed = math.isfinite(residual) and residual <= tol
    return SampleResult(
        identity=ctx.identity,
        case=ctx.label,
        label=label,
        index=index,
        residual=residual,
        scale=float(scale),
        tolerance=tol,
        control=control,
        passed=passed,
        detail=detail,
    )


# ---------------------------------------------------------------------------
# deterministic sampling
# ---------------------------------------------------------------------------


def _rng_for(seed: int, identity: str | None = None, case_label: str | None = None) -> np.random.Generator:
    # The whole seed is entropy, so no two seeds share rows.  A seed below
    # 2**32 is a single entropy word, which keeps its rows stable.
    seed = int(seed)
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    entropy: list[int] = [seed]
    if identity is not None:
        entropy.append(IDENTITIES.index(identity))
    if case_label is not None:
        entropy.append(CASES.index(case_label))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def make_case(label: str, rng: np.random.Generator | None = None,
              r: float | None = None, a: float | None = None) -> CaseParams:
    """Concrete scale parameters for a case label.

    Scales left unspecified are drawn from the standard windows (an rng
    is then required for the hyperbolic and elliptic cases to stay
    deterministic per seed).
    """
    kind = CaseKind.from_label(label)
    if kind is CaseKind.RATIONAL:
        return CaseParams(kind)
    if kind is CaseKind.TRIGONOMETRIC:
        return CaseParams(kind, r=r if r is not None else 1.0)
    if kind is CaseKind.HYPERBOLIC:
        if a is None:
            a = float(rng.uniform(1.0, 2.0)) if rng is not None else 1.5
        return CaseParams(kind, a=a)
    if a is None:
        a = float(rng.uniform(1.5, 2.5)) if rng is not None else 2.0
    return CaseParams(kind, r=r if r is not None else 1.0, a=a)


def _draw_scalar(rng, re=(0.05, 1.3), im=(-0.6, 0.6)) -> complex:
    return complex(rng.uniform(*re), rng.uniform(*im))


def _draw_X(rng, n: int, im_window=WINDOW_IM) -> tuple[complex, ...]:
    """Well-separated coordinates: ``|x_j - x_k|`` and ``|x_j + x_k|``
    both at least 0.1, so difference and sum arguments stay clear of the
    origin."""
    for _ in range(500):
        re = rng.uniform(*WINDOW_RE, size=n)
        im = rng.uniform(*im_window, size=n)
        X = tuple(complex(u, v) for u, v in zip(re, im))
        ok = True
        for i in range(n):
            for k in range(i + 1, n):
                if abs(X[i] - X[k]) < 0.1 or abs(X[i] + X[k]) < 0.1:
                    ok = False
        if ok:
            return X
    raise ConvergenceError("could not draw separated coordinates")


def _draw_coupling(rng, case: CaseParams) -> CouplingSet:
    n_g = 2 * (case.rho + 1)
    g = tuple(float(v) for v in rng.uniform(-0.4, 0.6, size=n_g))
    lam = float(rng.uniform(0.3, 1.7))
    while abs(lam - 1.0) < 0.12:
        lam = float(rng.uniform(0.3, 1.7))
    return CouplingSet(g, lam, float(rng.uniform(0.2, 0.4)))


def _screen_config(config: Configuration, X: Sequence[complex], coeff_cap: float = 1e8) -> bool:
    """True when every operator coefficient at ``X`` is finite and not
    absurdly amplified by a nearby pole."""
    case, cs = config.case, config.coupling
    try:
        terms = operator_terms(case, cs.g, cs.lam, cs.beta, config.mass_values,
                               config.masses, X, lambda _: 1.0)
    except (DomainError, ZeroDivisionError, OverflowError, ConvergenceError):
        return False
    arr = np.asarray(terms, dtype=complex)
    if not np.all(np.isfinite(arr)):
        return False
    return float(np.max(np.abs(arr))) <= coeff_cap


def _screened_X(rng, config: Configuration, coeff_cap: float = 1e8) -> tuple[complex, ...] | None:
    """Coordinates for ``config``, or None where :func:`_screen_config` rejects them."""
    X = _draw_X(rng, config.size)
    return X if _screen_config(config, X, coeff_cap) else None


@dataclass(frozen=True)
class SampleBatch:
    points: tuple[tuple[complex, ...], ...]
    attempts: int
    rejected: int

    @property
    def rejection_rate(self) -> float:
        return self.rejected / max(1, self.attempts)


def sample_admissible(
    template: Configuration,
    count: int,
    seed: int,
    coeff_cap: float = 1e8,
    max_attempts: int | None = None,
) -> SampleBatch:
    """Deterministic admissible points for a fixed configuration.

    Draws coordinates from the standard window, rejecting any point whose
    operator coefficients blow up (pole proximity) or fail to evaluate.
    Raises :class:`ConvergenceError` (reporting the attempt and rejection
    counts) instead of looping forever when the window is hostile, and
    :class:`DomainError` for a ``count`` below 1.
    """
    if count < 1:
        raise DomainError("count must be at least 1")
    limit = max_attempts if max_attempts is not None else 60 * count
    # a run context for its draw loop only
    ctx = _RunCtx(identity="", case=template.case, samples=count, rng=_rng_for(seed))
    points = []
    while len(points) < count:
        X = ctx.draw(lambda: _screened_X(ctx.rng, template, coeff_cap), limit - ctx.attempts)
        if X is None:
            raise ConvergenceError(
                f"admissible sampling exhausted after {ctx.attempts} attempts "
                f"({ctx.rejected} rejected) for {template.case.describe()}"
            )
        points.append(X)
    return SampleBatch(tuple(points), ctx.attempts, ctx.rejected)


# ---------------------------------------------------------------------------
# run context
# ---------------------------------------------------------------------------


@dataclass
class _RunCtx:
    identity: str
    case: CaseParams
    samples: int
    rng: np.random.Generator
    tol: float | None = None  # a given tolerance; None: each row's default (see _row)
    masses: tuple[MassTag, ...] | None = None
    particles: tuple[int, int, int, int] | None = None
    max_n: int = 3
    product_terms: int = PRODUCT_TERMS
    attempts: int = 0
    rejected: int = 0

    @property
    def label(self) -> str:
        return self.case.kind.label

    def draw(self, make: Callable[[], T | None], tries: int,
             catch: type[Exception] | tuple[type[Exception], ...] = (),
             fail: str | None = None) -> T | None:
        """The first value other than None of at most ``tries`` calls of ``make``.
        Each call is one attempt; one that returns None or raises one of ``catch``
        is one rejection.  When every call is rejected, this raises
        :class:`ConvergenceError` with the message ``fail``, or returns None without one."""
        for _ in range(tries):
            self.attempts += 1
            try:
                value = make()
            except catch:
                value = None
            if value is not None:
                return value
            self.rejected += 1
        if fail is not None:
            raise ConvergenceError(fail)
        return None

    def admissible_X(self, config: Configuration) -> tuple[complex, ...]:
        return self.draw(lambda: _screened_X(self.rng, config), 80,
                         fail=f"no admissible point for {config.case.describe()} with "
                              f"{config.size} coordinates after 80 tries")


def _defect(terms: Sequence[complex], rhs: Sequence[complex] = ()) -> tuple[float, float]:
    """``|sum(terms) - sum(rhs)|`` over the largest single term on either
    side, and that scale (at least ``_TINY``; a NaN term is passed over)."""
    scale = _TINY
    for v in (*terms, *rhs):
        av = abs(v)
        if av > scale:
            scale = av
    return abs(sum(terms) - sum(rhs)) / scale, scale


def _phase(k: tuple[float, ...], Z: Sequence[complex]) -> complex:
    return sum(kv * complex(zv) for kv, zv in zip(k, Z))


def _exp_fn(k: Sequence[float]):
    k = tuple(float(v) for v in k)
    return lambda Z: cmath.exp(1j * _phase(k, Z))


def _exp_fn2(kx: Sequence[float], kt: Sequence[float]):
    kx = tuple(float(v) for v in kx)
    kt = tuple(float(v) for v in kt)
    return lambda P: cmath.exp(1j * (_phase(kx, P) + _phase(kt, P[len(kx):])))


def _failure(exc: Exception) -> str:
    """The detail of a row that a tracker or pole failure stopped."""
    return f"{'branch' if isinstance(exc, BranchError) else 'pole'}-failure: {exc}"


# ---------------------------------------------------------------------------
# building-block runners
# ---------------------------------------------------------------------------


def _odd_row(ctx: _RunCtx, i: int):
    z = _draw_scalar(ctx.rng)
    return "odd", *_rel_dev(ctx.case.s_scalar(z), -ctx.case.s_scalar(-z))


def _quasi_period_row(ctx: _RunCtx, i: int):
    case = ctx.case
    nu = 1 + i % case.rho
    z = _draw_scalar(ctx.rng)
    fac = quasi_factor(case, z, nu)
    return f"nu={nu}", *_rel_dev(case.s_scalar(z + case.omega[nu]), complex(fac) * case.s_scalar(z))


def _duplication_row(ctx: _RunCtx, i: int):
    z = _draw_scalar(ctx.rng)
    res = duplication_residual(ctx.case, z)  # a lattice point raises here
    return "duplication", res, max(abs(ctx.case.s_scalar(2 * z)), _TINY)


def _theta_product_row(ctx: _RunCtx, i: int):
    z, q = _draw_scalar(ctx.rng), ctx.case.q
    sv = complex(theta_eval(z, q=q))
    pv = complex(theta_product(z, q=q, product_terms=ctx.product_terms))
    return "sum-vs-product", *_rel_dev(sv, pv)


def _gamma_fe_row(ctx: _RunCtx, i: int):
    alpha = float(ctx.rng.uniform(0.3, 0.6))
    alpha = -alpha if i % 5 == 4 else alpha
    z = _draw_scalar(ctx.rng, re=(0.1, 1.1), im=(-0.2, 0.2))
    up = complex(gamma_G(ctx.case, alpha, z + 0.5j * alpha))
    dn = complex(gamma_G(ctx.case, alpha, z - 0.5j * alpha))
    rhs = functional_eq_constant(ctx.case, alpha) * ctx.case.s_scalar(z) * dn
    res, scale = _rel_dev(up, rhs)
    if math.isfinite(scale) and scale > 1e-12:  # otherwise the draw is rejected
        return f"fe[{'-' if alpha < 0 else '+'}]", res, scale


def _reflection_row(ctx: _RunCtx, i: int):
    alpha = float(ctx.rng.uniform(0.3, 0.6))
    z = _draw_scalar(ctx.rng, re=(0.1, 1.1), im=(-0.2, 0.2))
    a = complex(gamma_G(ctx.case, -alpha, z))
    b = complex(gamma_G(ctx.case, alpha, -z))
    residual, scale = _rel_dev(a, b)
    return "reflection", 0.0 if a == b else residual, scale


class _Pointwise(NamedTuple):
    """One pointwise identity: ``row(ctx, i)``, which draws sample ``i`` and returns its
    ``(label, residual, scale)`` or None for a rejected draw; the errors that also
    reject a draw; and the message when every draw of the run's budget is rejected."""

    row: Callable
    catch: tuple[type[Exception], ...] = ()
    fail: str | None = None


_POINTWISE = {
    "s-oddness": _Pointwise(_odd_row),
    "s-quasi-period": _Pointwise(_quasi_period_row),
    "s-duplication": _Pointwise(_duplication_row, (PoleProximityError,),
                                "duplication sampling kept hitting lattice points"),
    "theta-product": _Pointwise(_theta_product_row),
    "gamma-fe": _Pointwise(_gamma_fe_row, (DomainError, ConvergenceError, OverflowError),
                           "functional-equation sampling kept rejecting points"),
    "gamma-reflection": _Pointwise(_reflection_row),
}


def _rows_pointwise(ctx: _RunCtx) -> list[SampleResult]:
    spec = _POINTWISE[ctx.identity]
    rows = []
    for i in range(ctx.samples):
        # the budget of 60 draws per sample is shared by the whole run
        label, residual, scale = ctx.draw(lambda: spec.row(ctx, i),
                                          60 * ctx.samples - ctx.attempts, spec.catch, spec.fail)
        rows.append(_row(ctx, label, i, residual, scale))
    return rows


# ---------------------------------------------------------------------------
# the exact summation identity
# ---------------------------------------------------------------------------


def residual_summation(case: CaseParams, p: SummationParams) -> tuple[float, float]:
    terms, rhs = summation_terms(case, p)
    return _defect(terms, [rhs])


def _draw_summation_params(ctx: _RunCtx, n: int) -> tuple[SummationParams, tuple[float, float]]:
    """Admissible parameters for ``n`` coordinates and their residual."""
    rho = ctx.case.rho
    rng = ctx.rng

    def make():
        X = _draw_X(rng, n)
        m = tuple(complex(rng.uniform(0.4, 1.3), rng.uniform(-0.25, 0.25)) for _ in range(n))
        gam_sign = 1.0 if int(rng.integers(0, 2)) else -1.0
        gamma = complex(rng.uniform(-0.25, 0.25), gam_sign * rng.uniform(0.2, 0.45))
        a = tuple(complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2)) for _ in range(n))
        c = tuple(complex(rng.uniform(-0.35, 0.35), rng.uniform(-0.3, 0.3)) for _ in range(rho + 1))
        d = tuple(complex(rng.uniform(-0.35, 0.35), rng.uniform(-0.3, 0.3)) for _ in range(rho + 1))
        n_par = [complex(rng.uniform(-0.35, 0.35), rng.uniform(-0.3, 0.3)) for _ in range(2 * (rho + 1))]
        if ctx.label == "IV":
            # the elliptic identity needs the parameter sum to vanish
            n_par[-1] = -2 * gamma * sum(m) - sum(n_par[:-1])
        params = SummationParams(X=X, m=m, gamma=gamma, a=a, c=c, d=d, n=tuple(n_par))
        terms, rhs = summation_terms(ctx.case, params)
        arr = np.asarray(terms + [rhs], dtype=complex)
        if not np.all(np.isfinite(arr)) or float(np.max(np.abs(arr))) > 1e8:
            return None
        return params, _defect(terms, [rhs])

    return ctx.draw(make, 80, (DomainError, ZeroDivisionError, OverflowError),
                    "summation parameter sampling kept rejecting draws")


def _rows_summation(ctx: _RunCtx) -> list[SampleResult]:
    rows = []
    for i in range(ctx.samples):
        n = 1 + i % 3
        params, (res, scale) = _draw_summation_params(ctx, n)
        rows.append(_row(ctx, f"n={n}", i, res, scale))
        if ctx.label == "IV":
            rows.extend(_controls(ctx, f"n={n}", i, lambda delta: residual_summation(
                ctx.case, replace(params, n=(*params.n[:-1], params.n[-1] + delta)))))
    return rows


# ---------------------------------------------------------------------------
# the source identity
# ---------------------------------------------------------------------------


def residual_source(config: Configuration, X: Sequence[complex]) -> tuple[float, float]:
    """Defect of (conjugated operator on the constant function) minus the
    closed-form constant, normalised by the largest single term."""
    case = config.case
    cs = config.coupling
    terms = operator_terms(case, cs.g, cs.lam, cs.beta, config.mass_values, config.masses, X,
                           lambda _: 1.0)
    return _defect(terms, [source_constant(case, cs.g, cs.lam, cs.beta, config.mass_values)])


_ALL_TAGS = (MassTag.PLUS_ONE, MassTag.MINUS_ONE, MassTag.PLUS_INV, MassTag.MINUS_INV)


def _mass_multiset(ctx: _RunCtx, i: int) -> tuple[MassTag, ...]:
    if ctx.masses:
        return ctx.masses
    singles = [(t,) for t in _ALL_TAGS]
    pairs = [(t1, t2) for t1 in _ALL_TAGS for t2 in _ALL_TAGS]
    fixed = singles + pairs
    if i < len(fixed):
        return fixed[i]
    picks = ctx.rng.integers(0, len(_ALL_TAGS), size=3)
    return tuple(_ALL_TAGS[int(p)] for p in picks)


# Elliptic shift coefficients grow double-exponentially in g[-1] * beta, so a
# balance solve that lands far outside the coupling window would poison nearly
# every X draw during screening.  Redraw the free parameters instead.
_BALANCED_G_CAP = 9.0


def _balanced_coupling(ctx: _RunCtx, coupling: CouplingSet, variant: str,
                       N: int = 0, Nt: int = 0, M: int = 0, Mt: int = 0,
                       tags: tuple[MassTag, ...] = ()) -> CouplingSet:
    def make():
        nonlocal coupling
        # The mass sum depends on lam for 1/lam species, so it has to be
        # recomputed for every redrawn coupling, not fixed at the first one.
        mass_sum = sum(t.value_for(coupling.lam) for t in tags)
        g = balance_solve(variant, coupling.lam, coupling.g, N=N, Nt=Nt, M=M,
                          Mt=Mt, mass_sum=mass_sum)
        if abs(g[-1]) <= _BALANCED_G_CAP:
            return CouplingSet(g, coupling.lam, coupling.beta)
        coupling = _draw_coupling(ctx.rng, ctx.case)  # also after the last rejection
        return None

    return ctx.draw(make, 40,
                    fail=f"no balanced coupling within |g| <= {_BALANCED_G_CAP} for {variant}")


def _detuned(coupling: CouplingSet, delta: float) -> CouplingSet:
    return CouplingSet((*coupling.g[:-1], coupling.g[-1] + delta), coupling.lam, coupling.beta)


def _controls(ctx: _RunCtx, prefix: str, index: int,
              residual: Callable[[float], tuple[float, float]]) -> list[SampleResult]:
    """Elliptic negative controls: the rows ``prefix/defect=+-delta`` of ``residual(delta)``,
    the defect of a configuration detuned by ``delta``, ``+CONTROL_DETUNE`` first."""
    return [_row(ctx, f"{prefix}/defect={delta:+g}", index, *residual(delta), control=True)
            for delta in (CONTROL_DETUNE, -CONTROL_DETUNE)]


def _detuned_source(ctx: _RunCtx, coupling: CouplingSet, tags: tuple[MassTag, ...],
                    X: tuple[complex, ...], delta: float) -> tuple[float, float]:
    """The source-identity defect with the last coupling detuned by ``delta``,
    at ``X`` where the detuned configuration is admissible there and at a
    fresh admissible point otherwise."""
    bad = Configuration(ctx.case, _detuned(coupling, delta), tags)
    return residual_source(bad, X if _screen_config(bad, X) else ctx.admissible_X(bad))


def _rows_source(ctx: _RunCtx) -> list[SampleResult]:
    rows = []
    for i in range(ctx.samples):
        tags = _mass_multiset(ctx, i)
        coupling = _draw_coupling(ctx.rng, ctx.case)
        if ctx.label == "IV":
            coupling = _balanced_coupling(ctx, coupling, "source", tags=tags)
        config = Configuration(ctx.case, coupling, tags)
        X = ctx.admissible_X(config)
        name = ",".join(t.value for t in tags)
        rows.append(_row(ctx, f"m=({name})", i, *residual_source(config, X)))
        if ctx.label == "IV":
            rows.extend(_controls(ctx, f"m=({name})", i,
                                  partial(_detuned_source, ctx, coupling, tags, X)))
    return rows


# ---------------------------------------------------------------------------
# conjugation of the square-root form onto the plain form
# ---------------------------------------------------------------------------

_CONJ_TAG_CYCLE = (
    (MassTag.PLUS_ONE,),
    (MassTag.MINUS_ONE,),
    (MassTag.PLUS_INV,),
    (MassTag.MINUS_INV,),
    (MassTag.PLUS_ONE, MassTag.MINUS_ONE),
    (MassTag.PLUS_ONE, MassTag.PLUS_INV),
    (MassTag.MINUS_INV, MassTag.MINUS_ONE),
    (MassTag.PLUS_INV, MassTag.MINUS_INV),
    (MassTag.PLUS_ONE, MassTag.MINUS_INV),
    (MassTag.MINUS_ONE, MassTag.PLUS_INV),
)


def _rows_conjugation(ctx: _RunCtx) -> list[SampleResult]:
    rows = []
    case = ctx.case
    for i in range(ctx.samples):
        tags = ctx.masses or _CONJ_TAG_CYCLE[i % len(_CONJ_TAG_CYCLE)]
        n = len(tags)
        failure = ""

        def set_up():
            nonlocal failure
            coupling = _draw_coupling(ctx.rng, case)
            config = Configuration(case, coupling, tags)
            base = _draw_X(ctx.rng, n, im_window=(-0.12, 0.12))
            if not _screen_config(config, base):
                return None
            params = (coupling.g, coupling.lam, coupling.beta)
            terms = conjugation_terms(case, *params, tags,
                                      eigenfunction_factors(case, *params, tags),
                                      BranchTracker(base))
            try:
                terms.calibrate()
            except (BranchError, PoleProximityError) as exc:
                failure = _failure(exc)  # the row keeps the last failure's detail
                return None
            return config, base, terms

        prepared = ctx.draw(set_up, 40)
        if prepared is None:
            rows.append(_row(ctx, "calibration", i, math.inf, 0.0, detail=failure))
            continue

        config, base, terms = prepared
        point = _offset_point(
            ctx, rows, "offset-continuation", i, base, 8, 0.08, 0.04,
            lambda P: _screen_config(config, P) and terms.coherent(P))
        if point is None:
            continue
        fns = [("const", lambda Z: 1.0 + 0j)]
        fns += [(f"exp{fi}", _exp_fn(ctx.rng.uniform(-0.9, 0.9, size=n))) for fi in range(5)]

        def forms(P):
            # both forms at P for every test function: the plain weights,
            # F(P), and the square-root weights with F at their points
            F = terms.F
            return terms.op.weights(P), F(P), [(w, Q, F(Q)) for w, Q in terms.weights(P)]

        def residual(form, fn):
            plain, FP, rooted = form
            lhs = sum((w * (FQ * fn(Q)) for w, Q, FQ in rooted), start=0j) / FP
            return _defect(weighted_terms(plain, fn), [lhs])

        at = []
        for P in (base, point):
            try:
                at.append(forms(P))
            except (BranchError, PoleProximityError) as exc:
                at.append(_failure(exc))
        for name, fn in fns:
            for pi, form in enumerate(at):
                if isinstance(form, str):
                    rows.append(_row(ctx, f"{name}@p{pi}", i, math.inf, 0.0, detail=form))
                else:
                    rows.append(_row(ctx, f"{name}@p{pi}", i, *residual(form, fn)))

        # sheet-fault control: flipping one coefficient root away from the
        # base must blow the residual up; the fault leaves the plain form,
        # F and the coefficients alone, so only the square roots move
        base0 = base[0]
        terms.tracker.set_fault(("coeff", 0, 1), lambda target: abs(target[0] - base0) > 1e-9)
        try:
            rows.append(_row(ctx, "sheet-fault", i, *residual(forms(point), fns[1][1]),
                             control=True))
        except BranchError as exc:
            rows.append(_row(ctx, "sheet-fault", i, math.inf, 0.0, control=True,
                             detail=_failure(exc)))
        finally:
            terms.tracker.clear_fault()
    return rows


# ---------------------------------------------------------------------------
# grids and block helpers for the specialised identities
# ---------------------------------------------------------------------------


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=8)
def _grid(parts: int, max_n: int) -> tuple[tuple[int, ...], ...]:
    """The block sizes a block-structured runner cycles through: every
    composition of 1..max_n into ``parts`` parts, built once per key."""
    return tuple(c for tot in range(1, max_n + 1) for c in _compositions(tot, parts))


def _rel_dev(lhs: complex, rhs: complex) -> tuple[float, float]:
    scale = max(abs(lhs), abs(rhs), _TINY)
    return abs(lhs - rhs) / scale, scale


def _worst_dev(pairs: Iterable[tuple[complex, complex]]) -> tuple[float, float]:
    """Largest relative deviation over ``(lhs, rhs)`` pairs and its scale,
    by the rule of :func:`_worse_residual`: the first of equal maxima
    counts, and the first non-finite deviation stays."""
    worst = None
    for lhs, rhs in pairs:
        dev = _rel_dev(lhs, rhs)
        if worst is None or _worse_residual(dev[0], worst[0]):
            worst = dev
    return worst


# ---------------------------------------------------------------------------
# direct (branch-tracked) kernel checks
# ---------------------------------------------------------------------------


def _offset_point(ctx: _RunCtx, rows: list[SampleResult], label: str, index: int,
                  base: tuple[complex, ...], tries: int, half_re: float, half_im: float,
                  accept: Callable[[tuple], bool]) -> tuple[complex, ...] | None:
    """The first of up to ``tries`` points near ``base``, each coordinate
    offset uniformly within ``+-half_re`` and ``+-half_im``, that ``accept``
    takes; every other counts as rejected.  None, with a failure row under
    ``label``, when none is taken."""
    def make():
        off = tuple(
            complex(ctx.rng.uniform(-half_re, half_re), ctx.rng.uniform(-half_im, half_im))
            for _ in range(len(base))
        )
        point = tuple(b + o for b, o in zip(base, off))
        return point if accept(point) else None

    point = ctx.draw(make, tries)
    if point is None:
        rows.append(_row(ctx, label, index, math.inf, 0.0,
                         detail="branch-failure: no offset continues coherently"))
    return point


def _direct_kernel_rows(
    ctx: _RunCtx,
    grid_label: str,
    index: int,
    Z0: tuple[complex, ...],
    op: Operator,
    kernel_fn: Callable,
    const: complex,
    ref_fn: Callable,
) -> list[SampleResult]:
    """Pointwise action of the sum or difference ``op`` of square-root-form
    operators on the kernel, at ``Z0`` and at one offset point: the
    :class:`ConjugatedTerms` of ``op`` with the kernel as ``F``, every
    square root continued from ``Z0``, calibrated and checked against
    ``ref_fn``, the shift coefficients of the combined configuration."""
    rows: list[SampleResult] = []
    try:
        tracker = BranchTracker(Z0)
        terms = ConjugatedTerms(tracker, op, lambda P: kernel_fn(tracker, P), ref_fn)
        terms.calibrate()

        def residual_at(P):
            return _defect(weighted_terms(terms.weights(P), terms.F), [const * terms.F(P)])

        rows.append(_row(ctx, f"{grid_label}/direct@p0", index, *residual_at(Z0)))
        label = f"{grid_label}/direct@p1"
        P1 = _offset_point(ctx, rows, label, index, Z0, 6, 0.05, 0.02, terms.coherent)
        if P1 is not None:
            rows.append(_row(ctx, label, index, *residual_at(P1)))
    except (BranchError, PoleProximityError) as exc:
        rows.append(_row(ctx, f"{grid_label}/direct", index, math.inf, 0.0,
                         detail=_failure(exc)))
    return rows


# ---------------------------------------------------------------------------
# block-structured identities; the display identities run over one table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Species:
    """One particle species of a block-structured identity: the name of
    its count (also the :func:`balance_solve` keyword), its mass, and its
    index in the pinned ``(N, Nt, M, Mt)``."""

    name: str
    tag: MassTag
    particles: int


# the four species, in the order of a pinned (N, Nt, M, Mt)
_N, _NT, _M, _MT = (_Species("N", MassTag.PLUS_ONE, 0), _Species("Nt", MassTag.MINUS_INV, 1),
                    _Species("M", MassTag.MINUS_ONE, 2), _Species("Mt", MassTag.PLUS_INV, 3))


def _block_sample(ctx: _RunCtx, species: Sequence[_Species], i: int):
    """Common setup for the block-structured runners: the coordinate
    slots of each species, their label, a (possibly balanced) coupling
    and an admissible point.  Pinned particles that leave every block
    empty are a configuration error."""
    if ctx.particles:
        sizes = tuple(ctx.particles[sp.particles] for sp in species)
    else:
        grid = _grid(len(species), ctx.max_n)
        sizes = grid[i % len(grid)]
    tags = tuple(sp.tag for sp, n in zip(species, sizes) for _ in range(n))
    if not tags:
        raise DomainError("at least one coordinate is required")
    coupling = _draw_coupling(ctx.rng, ctx.case)
    if ctx.label == "IV":
        counts = {sp.name: n for sp, n in zip(species, sizes)}
        coupling = _balanced_coupling(ctx, coupling, ctx.identity, **counts)
    config = Configuration(ctx.case, coupling, tags)
    Z = ctx.admissible_X(config)
    lab = "".join(f"{sp.name}{n}" for sp, n in zip(species, sizes))
    ends = list(accumulate(sizes, initial=0))
    return [tuple(range(a, b)) for a, b in zip(ends, ends[1:])], lab, config, Z


@dataclass(frozen=True)
class _DisplaySpec:
    """One specialised display of the operator: its species in coordinate
    order; ``operator(case, g, lam, beta, *slices)``, whose blocks give the
    chain-shift and closure rows; ``ground(case, g, lam, beta, *slices)``,
    the squared ground-state factors; and whether the chain and closure
    rows run before the eigen row."""

    species: tuple[_Species, ...]
    operator: Callable[..., Operator]
    ground: Callable
    display: bool = True


_TWO_SPECIES = ((_N, _NT), partial(def_operator, labels=("closure-x", "closure-t")),
                deformed_groundstate_sq_factors)
_DISPLAYS = {
    "eigen-plain": _DisplaySpec((_N,), partial(vd_operator, label="closure"),
                                groundstate_sq_factors),
    "deformed-groundstate": _DisplaySpec(*_TWO_SPECIES),
    "deformed-constant": _DisplaySpec(*_TWO_SPECIES, display=False),
}


def _rows_display(ctx: _RunCtx) -> list[SampleResult]:
    spec = _DISPLAYS[ctx.identity]
    rows = []
    case = ctx.case
    for i in range(ctx.samples):
        slices, lab, config, Z = _block_sample(ctx, spec.species, i)
        coupling, tags, values = config.coupling, config.masses, config.mass_values
        g, lam, beta = coupling.g, coupling.lam, coupling.beta
        op = spec.operator(case, g, lam, beta, *slices)

        if spec.display:
            # specialised coefficients == generic multiset coefficients
            dev, sc = _worst_dev([
                (coeff_V_shift(case, g, lam, beta, values, tags, Z, slot, sign),
                 b.coeff(Z, j, sign))
                for b in op.blocks for j, slot in enumerate(b.slots) for sign in (1, -1)])
            rows.append(_row(ctx, f"{lab}/chain-shift", i, dev, sc))

            rows.append(_row(ctx, f"{lab}/chain-zero", i,
                             *_rel_dev(coeff_V0(case, g, lam, beta, values, Z),
                                       op.v0(Z) - c0_constant(case, g, lam, beta))))

            # square-root closure: coefficient ratio under one step
            # equals the squared ground-state ratio
            gs_sq = spec.ground(case, g, lam, beta, *slices)

            def closure(coeff, slot, j, sign, delta):
                shifted = _moved(Z, slot, Z[slot] + delta)
                return (coeff(Z, j, sign) / coeff(shifted, j, -sign),
                        factor_ratio(case, gs_sq, Z, slot, delta))

            for b in op.blocks:
                if b.slots:
                    dev, sc = _worst_dev([
                        closure(b.coeff, slot, j, sign, sign * b.step)
                        for j, slot in enumerate(b.slots) for sign in (1, -1)])
                    rows.append(_row(ctx, f"{lab}/{b.label}", i, dev, sc))

        # eigenvalue: the action on the constant function
        terms = weighted_terms(op.weights(Z), lambda _: 1.0)
        rows.append(_row(ctx, f"{lab}/eigen", i,
                         *_defect(terms, [eigen_constant(case, g, lam, beta, values)])))

        if ctx.label == "IV":
            # the zeroth coefficient of the specialised form carries a large
            # additive constant that cancels in the defect, so the detuned
            # controls measure the same defect through the conjugated form
            # (whose term scale is free of that offset)
            rows.extend(_controls(ctx, f"{lab}/eigen", i,
                                  partial(_detuned_source, ctx, coupling, tags, Z)))
    return rows


# ---------------------------------------------------------------------------
# kernel identities: one runner over a table of block specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _KernelSpec:
    """One kernel identity: its species in coordinate order, and
    ``build(case, g, lam, beta, *slices)``, the operator the kernel
    intertwines: the difference or the sum of the operators of its two
    sides.  The kernel is the eigenfunction of the species' mass
    assignment (:func:`eigenfunction_factors`)."""

    species: tuple[_Species, ...]
    build: Callable[..., Operator]


def _cauchy(case, g, lam, beta, x, y):
    return (vd_operator(case, g, lam, beta, x, "map-x")
            - vd_operator(case, reflected_couplings(g, lam), lam, beta, y, "map-y"))


def _dual(case, g, lam, beta, x, t):
    return (vd_operator(case, g, lam, beta, x, "map-x")
            + vd_operator(case, g, lam, beta, t, "map-t", scaled=True))


def _deformed(case, g, lam, beta, x, xt, y, yt):
    return (def_operator(case, g, lam, beta, x, xt, ("map-x", "map-t"))
            - def_operator(case, reflected_couplings(g, lam), lam, beta, y, yt, ("map-y", "map-yt")))


_KERNELS = {
    "kernel-cauchy": _KernelSpec((_N, _M), _cauchy),
    "kernel-dual": _KernelSpec((_N, _MT), _dual),
    "kernel-deformed": _KernelSpec((_N, _NT, _M, _MT), _deformed),
}


def _rows_kernel(ctx: _RunCtx) -> list[SampleResult]:
    spec = _KERNELS[ctx.identity]
    rows = []
    case = ctx.case
    direct_budget = 2
    for i in range(ctx.samples):
        slices, lab, config, Z = _block_sample(ctx, spec.species, i)
        coupling, tags, values = config.coupling, config.masses, config.mass_values
        g, lam, beta = coupling.g, coupling.lam, coupling.beta
        sq, K = eigenfunction_factors(case, g, lam, beta, tags)
        op = spec.build(case, g, lam, beta, *slices)

        def ref(P, b, j, sign):
            return coeff_V_shift(case, g, lam, beta, values, tags, P, b.slots[j], b.orient * sign)

        for b in op.blocks:
            if b.slots:
                dev, sc = _worst_dev([
                    (ref(Z, b, j, sign),
                     b.coeff(Z, j, sign)
                     * factor_ratio(case, K, Z, slot, sign * b.step))
                    # combined shift +1 first: of equal deviations the first counts
                    for j, slot in enumerate(b.slots) for sign in (b.orient, -b.orient)])
                rows.append(_row(ctx, f"{lab}/{b.label}", i, dev, sc))

        rows.append(_row(ctx, f"{lab}/chain-zero", i,
                         *_rel_dev(coeff_V0(case, g, lam, beta, values, Z), op.v0(Z))))
        rows.append(_row(ctx, f"{lab}/const", i, *residual_source(config, Z)))

        # N and Nt belong to the first operator, M and Mt to the second;
        # the direct check needs a kernel that joins the two
        first = sum(len(sl) for sp, sl in zip(spec.species, slices) if sp.particles < 2)
        if ctx.label in ("I", "II") and direct_budget > 0 and 0 < first < len(tags):
            direct_budget -= 1
            const = source_constant(case, g, lam, beta, values)

            def kernel(tr, P):
                return continued_root(case, sq, P, tr) * factor_value(case, K, P)

            rows.extend(_direct_kernel_rows(ctx, lab, i, Z, op, kernel, const, ref))

        if ctx.label == "IV":
            rows.extend(_controls(ctx, f"{lab}/const", i, lambda delta: residual_source(
                Configuration(case, _detuned(coupling, delta), tags), Z)))
    return rows


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------


def _rows_anti_symmetry(ctx: _RunCtx) -> list[SampleResult]:
    rows = []
    case = ctx.case
    pair_grid = [(1, 1), (2, 1), (1, 2)]
    for i in range(ctx.samples):
        coupling = _draw_coupling(ctx.rng, case)
        g, lam, beta = coupling.g, coupling.lam, coupling.beta
        n = 1 + i % 2
        N, Nt = pair_grid[i % len(pair_grid)]

        tags_plain = (MassTag.PLUS_ONE,) * n
        config = Configuration(case, coupling, tags_plain)
        X = ctx.admissible_X(config)
        tags_def = (MassTag.PLUS_ONE,) * N + (MassTag.MINUS_INV,) * Nt
        config2 = Configuration(case, coupling, tags_def)
        Z = ctx.admissible_X(config2)
        # the operators at +beta and -beta, plain and two-species, for every
        # test function
        plain = tuple(vd_operator(case, g, lam, b, range(n)).weights(X) for b in (beta, -beta))
        two = tuple(def_operator(case, g, lam, b, range(N), range(N, N + Nt)).weights(Z)
                    for b in (beta, -beta))

        for fi in range(5):
            fn = _exp_fn(ctx.rng.uniform(-0.9, 0.9, size=n))
            fn2 = _exp_fn2(ctx.rng.uniform(-0.9, 0.9, size=N), ctx.rng.uniform(-0.9, 0.9, size=Nt))
            for name, (pos, neg), f in (("plain", plain, fn), ("two-species", two, fn2)):
                t_neg = [-t for t in weighted_terms(neg, f)]
                rows.append(_row(ctx, f"{name}/exp{fi}", i,
                                 *_defect(weighted_terms(pos, f), t_neg)))

        if ctx.label != "IV":
            # refuted variant: flipping the couplings along with the step
            # length is NOT a symmetry.  The two variants coincide on the
            # subvariety where the couplings sum to zero, so the witness
            # keeps the sum well away from it.
            fn = _exp_fn(ctx.rng.uniform(-0.9, 0.9, size=n))
            g_sum = sum(g)
            if abs(g_sum) < 0.4:
                bump = (math.copysign(0.4, g_sum if g_sum else 1.0) - g_sum) / len(g)
                g_wit = tuple(v + bump for v in g)
            else:
                g_wit = g
            g_neg = tuple(-v for v in g_wit)
            t_pos = weighted_terms(vd_operator(case, g_wit, lam, beta, range(n)).weights(X), fn)
            t_bad = [-t for t in weighted_terms(
                vd_operator(case, g_neg, lam, -beta, range(n)).weights(X), fn)]
            rows.append(_row(ctx, "plain/joint-flip", i, *_defect(t_pos, t_bad), control=True))
    return rows


def _rows_parameter_swap(ctx: _RunCtx) -> list[SampleResult]:
    rows = []
    case = ctx.case
    grid = [(1, 1), (2, 1), (1, 2), (1, 0), (0, 1)]
    for i in range(ctx.samples):
        N, Nt = grid[i % len(grid)]
        if ctx.particles:
            N, Nt = ctx.particles[0], ctx.particles[1]
        coupling = _draw_coupling(ctx.rng, case)
        g, lam, beta = coupling.g, coupling.lam, coupling.beta
        tags_def = (MassTag.PLUS_ONE,) * N + (MassTag.MINUS_INV,) * Nt
        config = Configuration(case, coupling, tags_def)
        Z = ctx.admissible_X(config)
        g_swap = dual_couplings(g, lam)
        g_bad = tuple((2 * v - lam - 1) / (2 * lam) for v in g)
        lab = f"N{N}Nt{Nt}"

        kx = ctx.rng.uniform(-0.9, 0.9, size=N)
        kt = ctx.rng.uniform(-0.9, 0.9, size=Nt)
        fn = _exp_fn2(kx, kt)

        def swapped(P):
            return fn((*P[Nt:], *P[:Nt]))

        def swapped_terms(g_dual):
            # the swapped operator acts on the deformed coordinates first
            op = def_operator(case, g_dual, 1.0 / lam, -lam * beta, range(Nt), range(Nt, Nt + N))
            return weighted_terms(op.weights((*Z[N:], *Z[:N])), swapped)

        t_orig = weighted_terms(
            def_operator(case, g, lam, beta, range(N), range(N, N + Nt)).weights(Z), fn)
        rows.append(_row(ctx, f"{lab}/swap", i, *_defect(t_orig, swapped_terms(g_swap))))

        if ctx.label != "IV":
            rows.append(_row(ctx, f"{lab}/swap-bad-coupling", i,
                             *_defect(t_orig, swapped_terms(g_bad)), control=True))
    return rows


# ---------------------------------------------------------------------------
# hyperplane quasi-invariance (trigonometric two-species operator)
# ---------------------------------------------------------------------------


def _rows_quasi_invariance(ctx: _RunCtx) -> list[SampleResult]:
    rows = []
    case = ctx.case
    r = case.r
    h0 = 5e-3
    radius = 0.02
    K = 16
    for i in range(ctx.samples):
        n_pow = 1 + i % 3

        def make():
            coupling = _draw_coupling(ctx.rng, case)
            lam, beta = coupling.lam, coupling.beta
            xt0 = complex(ctx.rng.uniform(0.3, 1.0), ctx.rng.uniform(-0.08, 0.08))
            x_pole = xt0 + 0.5j * (lam + 1) * beta
            p_fn = lambda x, xt: deformed_power_sum(r, lam, beta, n_pow, x, xt)
            op = def_operator(case, coupling.g, lam, beta, (0,), (1,))
            probe = sum(weighted_terms(op.weights((x_pole + h0, xt0)),
                                       lambda Q: p_fn(Q[:1], Q[1:])), start=0j)
            if cmath.isfinite(probe) and abs(probe) < 1e10:
                return coupling, xt0, x_pole, p_fn, op
            return None

        coupling, xt0, x_pole, p_fn, op = ctx.draw(
            make, 60, (DomainError, ZeroDivisionError, OverflowError),
            "quasi-invariance sampling kept rejecting draws")
        g, lam, beta = coupling.g, coupling.lam, coupling.beta
        w_bad = -power_sum_weight(r, lam, beta, n_pow)
        p_bad = lambda x, xt: deformed_power_sum(r, lam, beta, n_pow, x, xt, weight=w_bad)
        lab = f"n={n_pow}"

        def display_residual(p):
            t = complex(ctx.rng.uniform(0.2, 1.0), ctx.rng.uniform(-0.1, 0.1))
            d = quasi_invariance_defect(r, lam, beta, p, t, 0, 0, (0.4,), (0.8,))
            up = p((t + 0.5j * beta,), (t + 0.5j * lam * beta,))
            dn = p((t - 0.5j * beta,), (t - 0.5j * lam * beta,))
            scale = max(abs(up), abs(dn), _TINY)
            return abs(d) / scale, scale

        # the probe points, shared by p_fn and p_bad
        weights_at = cache(lambda zeta: op.weights((x_pole + zeta, xt0)))

        def f_at(p, zeta):
            return sum(weighted_terms(weights_at(zeta), lambda Q: p(Q[:1], Q[1:])), start=0j)

        def two_sided_residual(p):
            # R extrapolates h * (f(h) - f(-h)) / 2 to h -> 0, which is the
            # residue of f at the hyperplane point: zero exactly when the
            # two-sided limits agree.  A residue has dimensions of
            # (function value) * (distance), so it is compared against the
            # probe distance times the function scale.
            vals = {}
            for h in (h0, 2 * h0, 4 * h0):
                vals[h] = (f_at(p, h), f_at(p, -h))
            rhat = {h: h * (vp - vm) / 2 for h, (vp, vm) in vals.items()}
            R = (64 * rhat[h0] - 20 * rhat[2 * h0] + rhat[4 * h0]) / 45
            scale = max(max(abs(v) for pair in vals.values() for v in pair), _TINY)
            return abs(R) / (h0 * scale), scale

        def contour_residual(p):
            acc = 0j
            top = _TINY
            for kk in range(K):
                w = cmath.exp(2j * math.pi * kk / K)
                fv = f_at(p, radius * w)
                acc += fv * w
                top = max(top, abs(fv))
            R = acc * radius / K
            return abs(R) / (radius * top), top

        for p, bad in ((p_fn, ""), (p_bad, "-bad-weight")):
            rows.append(_row(ctx, f"{lab}/display{bad}", i, *display_residual(p), control=bool(bad)))
            # the probe points sit within h of an operator pole, so roundoff in
            # the extrapolated residue is amplified by the pole factor; the
            # default tolerance reflects that while staying five decades under
            # the floor, and a given tol replaces it
            rows.append(_row(ctx, f"{lab}/two-sided{bad}", i, *two_sided_residual(p),
                             control=bool(bad), default_tol=1e-6))
            rows.append(_row(ctx, f"{lab}/contour{bad}", i, *contour_residual(p), control=bool(bad)))
    return rows


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Identity:
    """One identity the verifier knows: its runner, the cases it is defined
    (and certifiable) on, its default tolerance on cases I-III and on case
    IV, and whether its elliptic validity hinges on a balancing constraint
    (such an identity gets detuned negative controls, which are all that
    ``no_balance`` keeps)."""

    run: Callable[[_RunCtx], list[SampleResult]]
    cases: tuple[str, ...]
    tol: tuple[float, float]
    balanced: bool = False


#: The identity registry, in report order (which also seeds each run's rows).
_REGISTRY = {
    "s-oddness": _Identity(_rows_pointwise, CASES, (1e-10, 1e-10)),
    "s-quasi-period": _Identity(_rows_pointwise, ("II", "III", "IV"), (1e-10, 1e-10)),
    "s-duplication": _Identity(_rows_pointwise, CASES, (1e-10, 1e-10)),
    "theta-product": _Identity(_rows_pointwise, ("IV",), (1e-10, 1e-10)),
    "gamma-fe": _Identity(_rows_pointwise, CASES, (1e-9, 1e-8)),
    "gamma-reflection": _Identity(_rows_pointwise, CASES, (0.0, 0.0)),
    "summation": _Identity(_rows_summation, CASES, (1e-8, 1e-7), balanced=True),
    "source": _Identity(_rows_source, CASES, (1e-8, 1e-7), balanced=True),
    "conjugation": _Identity(_rows_conjugation, ("I", "II"), (1e-8, 1e-7)),
    "eigen-plain": _Identity(_rows_display, CASES, (1e-8, 1e-7), balanced=True),
    "kernel-cauchy": _Identity(_rows_kernel, CASES, (1e-8, 1e-7), balanced=True),
    "kernel-dual": _Identity(_rows_kernel, CASES, (1e-8, 1e-7), balanced=True),
    "deformed-groundstate": _Identity(_rows_display, CASES, (1e-8, 1e-7), balanced=True),
    "deformed-constant": _Identity(_rows_display, CASES, (1e-8, 1e-7), balanced=True),
    "kernel-deformed": _Identity(_rows_kernel, CASES, (1e-8, 1e-7), balanced=True),
    "anti-symmetry": _Identity(_rows_anti_symmetry, CASES, (1e-10, 1e-10)),
    "parameter-swap": _Identity(_rows_parameter_swap, CASES, (1e-10, 1e-10)),
    "quasi-invariance": _Identity(_rows_quasi_invariance, ("II",), (1e-8, 1e-8)),
}

#: Identities the verifier knows, in report order.
IDENTITIES = tuple(_REGISTRY)
#: Cases each identity is defined (and certifiable) on.
CASE_SUPPORT = {name: spec.cases for name, spec in _REGISTRY.items()}


def default_tolerance(identity: str, case_label: str) -> float:
    lo, hi = _REGISTRY[identity].tol
    return hi if case_label == "IV" else lo


def run_identity(
    identity: str,
    case_label: str,
    samples: int = 20,
    seed: int = 0,
    *,
    tol: float | None = None,
    masses: Sequence[MassTag | str] | None = None,
    particles: tuple[int, int, int, int] | None = None,
    no_balance: bool = False,
    max_n: int = 3,
    r: float | None = None,
    a: float | None = None,
    product_terms: int | None = None,
) -> ResidualReport:
    """Verify one identity on one case and return the report.

    ``masses`` pins the mass multiset where the identity admits one;
    ``particles`` pins the block sizes of the specialised identities;
    ``no_balance`` (elliptic only) keeps just the detuned negative
    controls, whose expectation is a LARGE residual.  ``product_terms``
    caps the factors of the theta product (``None``: the default of
    :func:`~vandiejen.sfun.theta_product`); only ``theta-product`` reads it.
    """
    spec = _REGISTRY.get(identity)
    if spec is None:
        raise DomainError(f"unknown identity {identity!r}; choose from {', '.join(IDENTITIES)}")
    if case_label not in CASES:
        raise DomainError(f"unknown case {case_label!r}; choose from {', '.join(CASES)}")
    if case_label not in spec.cases:
        raise DomainError(
            f"identity {identity!r} is not certifiable on case {case_label} "
            f"(supported: {', '.join(spec.cases)})"
        )
    if no_balance and case_label != "IV":
        raise DomainError("no_balance applies to the elliptic case only")
    if no_balance and not spec.balanced:
        raise DomainError(f"identity {identity!r} has no balancing constraint to drop")
    if product_terms is not None and product_terms < 1:
        raise DomainError("product_terms must be at least 1")
    if samples < 1:
        raise DomainError("samples must be at least 1")
    if tol is not None and not tol >= 0:
        raise DomainError("tol must be non-negative")
    if max_n < 1:
        raise DomainError("max_n must be at least 1")
    if particles and (len(particles) != 4 or min(particles) < 0):
        raise DomainError("particles must be four non-negative counts")

    rng = _rng_for(seed, identity, case_label)
    case = make_case(case_label, rng, r=r, a=a)
    ctx = _RunCtx(
        identity=identity,
        case=case,
        samples=int(samples),
        rng=rng,
        tol=None if tol is None else float(tol),
        masses=tuple(MassTag.parse(t) for t in masses) if masses else None,
        particles=tuple(int(v) for v in particles) if particles else None,
        max_n=int(max_n),
        product_terms=PRODUCT_TERMS if product_terms is None else product_terms,
    )
    with _coefficient_memo():
        rows = spec.run(ctx)
    if no_balance:
        # the positive rows draw nothing, so the controls are as in a full run
        rows = [row for row in rows if row.control]

    return ResidualReport(
        identity=identity,
        case=case_label,
        seed=int(seed),
        rejection_rate=ctx.rejected / max(1, ctx.attempts),
        results=tuple(rows),
        **_fold(map(vars, rows), "pass" if rows else "fail"),
    )


def _worse_residual(residual: float, worst: float) -> bool:
    """Whether ``residual`` replaces ``worst`` as the maximum residual: a
    larger one does, and the first non-finite one does and then stays."""
    return math.isfinite(worst) and (residual > worst or not math.isfinite(residual))


def _fold(rows: Iterable[dict], verdict: str) -> dict:
    """The summary fields of sample records (see :func:`sample_record`):
    their count, the largest positive residual with its scale, the smallest
    control residual (0.0 without controls) and ``verdict``, which turns
    ``"fail"`` at a failing row.  The first of equal extrema counts, and
    the first non-finite one stays (see :func:`_worse_residual`)."""
    count, worst, scale, weakest = 0, 0.0, 0.0, None
    for row in rows:
        count += 1
        residual = row["residual"]
        if not row.get("control"):
            if _worse_residual(residual, worst):
                worst, scale = residual, row.get("scale", 0.0)
        # a smaller control is worse: the residual rule on negated values
        elif weakest is None or _worse_residual(-residual, -weakest):
            weakest = residual
        if not row["passed"]:
            verdict = "fail"
    return {"sample_count": count, "max_rel_residual": worst, "normalization_scale": scale,
            "min_control_residual": 0.0 if weakest is None else weakest, "verdict": verdict}


def run_suite(
    identities: Sequence[str],
    case_labels: Sequence[str],
    samples: int = 20,
    seed: int = 0,
    **kwargs,
) -> list[ResidualReport]:
    """Run several (identity, case) pairs in product order; unsupported
    pairs are skipped, and so are identities without a balancing
    constraint under ``no_balance`` (if none is left, the first one's
    error stands)."""
    tasks = [
        (ident, label)
        for ident in identities
        for label in case_labels
        if label in CASE_SUPPORT[ident]
    ]
    if kwargs.get("no_balance"):
        tasks = [task for task in tasks if _REGISTRY[task[0]].balanced] or tasks[:1]
    if not tasks:
        raise DomainError("no supported (identity, case) combinations selected")
    return [run_identity(ident, label, samples=samples, seed=seed, **kwargs)
            for ident, label in tasks]


# ---------------------------------------------------------------------------
# serialisation: line-delimited records, CSV, merging
# ---------------------------------------------------------------------------

FORMAT_VERSION = 1

_CSV_COLUMNS = tuple(f.name for f in dataclass_fields(SampleResult))


def json_line(record: dict) -> str:
    """One record as a line of the line-delimited report format."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"), allow_nan=True)


def header_line(created: str, **fields) -> str:
    """The header line of a line-delimited report; it is the only line
    carrying a timestamp, so byte comparisons skip it."""
    return json_line({"record": "header", "format": FORMAT_VERSION, "tool": "vandiejen",
                      "created": created, **fields})


def sample_record(row: SampleResult) -> dict:
    return {"record": "sample", **vars(row)}


def summary_record(report: ResidualReport) -> dict:
    return {"record": "summary", **{k: v for k, v in vars(report).items() if k != "results"}}


def render_json_lines(
    reports: Sequence[ResidualReport],
    *,
    created: str = "",
    run_args: dict | None = None,
) -> str:
    """Line-delimited report: one header line (see :func:`header_line`),
    the sample rows and the summary of each report, and a footer (see
    :func:`footer_record`)."""
    records, samples, summaries = [], [], []
    for report in reports:
        rows = [sample_record(row) for row in report.results]
        summaries.append(summary_record(report))
        records += [*rows, summaries[-1]]
        samples += rows
    return json_lines_text(header_line(created, args=run_args or {}),
                           [*records, footer_record(samples, summaries)])


def json_lines_text(header: str, records: Iterable[dict]) -> str:
    """A header line followed by one line per record."""
    return "\n".join([header, *map(json_line, records)]) + "\n"


def footer_record(samples: Sequence[dict], summaries: Sequence[dict]) -> dict:
    """The totals of a report.  Its verdict passes when there is at least
    one summary, no failing row and no failing summary (a report without
    rows fails by its summary alone)."""
    failures = sum(1 for row in samples if not row["passed"])
    passed = failures == 0 and summaries and all(s["verdict"] == "pass" for s in summaries)
    return {
        "record": "footer",
        "reports": len(summaries),
        "samples": len(samples),
        "failures": failures,
        "verdict": "pass" if passed else "fail",
    }


def render_csv(samples: Iterable[dict]) -> str:
    """Sample records (see :func:`sample_record`) as comma-separated rows,
    each field quoted where it needs it."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for row in samples:
        writer.writerow([
            row["identity"], row["case"], row["label"], row["index"],
            repr(row["residual"]), repr(row["scale"]), repr(row["tolerance"]),
            int(row["control"]), int(row["passed"]), row.get("detail", ""),
        ])
    return out.getvalue()


def payload_lines(text: str) -> list[str]:
    """Report lines with the (timestamped) header removed, for byte-level
    determinism comparisons."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if lines and '"record":"header"' in lines[0].replace(" ", ""):
        return lines[1:]
    return lines


# per record kind, the fields that merging and rendering read and their JSON
# types; a field that may be null may also be missing (a null seed is dropped)
_NUMBER = (int, float)
_MERGED_FIELDS = {
    "sample": {"identity": str, "case": str, "label": str, "index": int, "residual": _NUMBER,
               "scale": _NUMBER, "tolerance": _NUMBER, "control": bool, "passed": bool},
    "summary": {"identity": str, "case": str, "seed": (int, type(None)),
                "seeds": (list, type(None))},
}


def parse_report_lines(text: str) -> dict:
    """Parse a line-delimited report into header/samples/summaries/footer.

    Malformed lines, and records whose fields merging cannot read, raise
    :class:`DomainError` naming the offending line instead of being
    silently dropped.
    """
    out = {"header": None, "samples": [], "summaries": [], "footer": None}
    for idx, raw in enumerate(text.splitlines()):
        if not raw.strip():
            continue
        try:
            rec = json.loads(raw)
            kind = rec["record"]
            if kind not in ("header", "sample", "summary", "footer"):
                raise ValueError(f"unknown kind {kind!r}")
            fields = _MERGED_FIELDS.get(kind, {})
            missing = [k for k, t in fields.items() if k not in rec and not isinstance(None, t)]
            if missing:
                raise ValueError(f"missing fields {missing}")
            for key, types in fields.items():
                value = rec.get(key)
                # a JSON boolean is a Python int, but not a number here; a list holds ints
                if (not isinstance(value, types) or (isinstance(value, bool) and types is not bool)
                        or (isinstance(value, list) and any(type(v) is not int for v in value))):
                    raise ValueError(f"field {key} is {value!r}")
        except (ValueError, KeyError, TypeError) as exc:
            raise DomainError(f"corrupt record at line {idx + 1}: {exc}") from exc
        if kind == "sample":
            out["samples"].append(rec)
        elif kind == "summary":
            out["summaries"].append(rec)
        else:
            out[kind] = rec
    return out


def merge_parsed_reports(parsed: Sequence[dict]) -> dict:
    """Merge several parsed reports: sample rows concatenate, and the
    summaries regroup by (identity, case), each folded from its rows by the
    rule of a run (see :func:`_fold`) with its seeds unioned.  A summary
    without rows is kept, and a failing summary verdict stays."""
    samples: list[dict] = []
    seeds: dict[tuple[str, str], set] = {}
    failed = set()
    for part in parsed:
        samples.extend(part["samples"])
        for summ in part["summaries"]:
            key = (summ["identity"], summ["case"])
            seeds.setdefault(key, set()).update([summ.get("seed"), *(summ.get("seeds") or ())])
            if summ.get("verdict") == "fail":
                failed.add(key)
    rows: dict[tuple[str, str], list[dict]] = {}
    for row in samples:
        key = (row["identity"], row["case"])
        rows.setdefault(key, []).append(row)
        seeds.setdefault(key, set())
    summaries = [{"record": "summary", "identity": key[0], "case": key[1],
                  **_fold(rows.get(key, ()), "fail" if key in failed else "pass"),
                  "seeds": sorted(s for s in seeds[key] if s is not None)}
                 for key in sorted(seeds)]
    return {"header": None, "samples": samples, "summaries": summaries,
            "footer": footer_record(samples, summaries)}


def summary_matrix(summaries: Sequence[dict]) -> str:
    """Identity-by-case text matrix of verdicts and worst residuals."""
    idents = sorted({s["identity"] for s in summaries},
                    key=lambda ident: IDENTITIES.index(ident) if ident in IDENTITIES else 99)
    cases = [c for c in CASES if any(s["case"] == c for s in summaries)]
    by_key = {(s["identity"], s["case"]): s for s in summaries}
    width = max([len(i) for i in idents] + [8])
    head = "identity".ljust(width) + "".join(c.center(14) for c in cases)
    lines = [head, "-" * len(head)]
    for ident in idents:
        cells = []
        for c in cases:
            s = by_key.get((ident, c))
            if s is None:
                cells.append("-".center(14))
            else:
                mark = "ok" if s["verdict"] == "pass" else "FAIL"
                cells.append(f"{mark} {s['max_rel_residual']:.1e}".center(14))
        lines.append(ident.ljust(width) + "".join(cells))
    return "\n".join(lines)


__all__ = [
    "CASES",
    "CASE_SUPPORT",
    "CONTROL_FLOOR",
    "IDENTITIES",
    "ResidualReport",
    "SampleBatch",
    "SampleResult",
    "default_tolerance",
    "footer_record",
    "header_line",
    "json_line",
    "json_lines_text",
    "make_case",
    "merge_parsed_reports",
    "parse_report_lines",
    "payload_lines",
    "render_csv",
    "render_json_lines",
    "residual_source",
    "residual_summation",
    "run_identity",
    "run_suite",
    "sample_admissible",
    "sample_record",
    "summary_matrix",
    "summary_record",
    "summation_terms",
]
