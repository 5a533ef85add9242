"""Building-block special functions for the four difference-operator regimes.

Everything in this package is built on a single odd entire function ``s``
that comes in four flavours, selected by :class:`CaseKind`:

* ``RATIONAL``:        s(x) = x
* ``TRIGONOMETRIC``:   s(x) = sin(r x) / r
* ``HYPERBOLIC``:      s(x) = (a / pi) sinh(pi x / a)
* ``ELLIPTIC``:        s(x) = (2/r) sin(r x) prod_{n>=1} (1 - q^{2n})
                        (1 - 2 q^{2n} cos(2 r x) + q^{4n}),  q = exp(-r a)

All four behave like ``s(x) ~ x`` at the origin up to a case constant and
vanish exactly on a lattice of "half-period" translates.  The elliptic
flavour is an odd Jacobi theta function in disguise; both its sine series
and its product form are implemented here and cross-checked in the tests.

The module also records the quasi-periodicity data of ``s`` (sign and
exponential factor picked up under translation by each half-period), the
duplication rule relating ``s(2x)`` to shifted ``s`` factors, and a lattice
distance helper used everywhere to keep evaluation points away from zeros
of ``s`` that would otherwise poison quotients.

Evaluators accept scalars or numpy arrays and are vectorised over the
argument.  :func:`s_eval` and :func:`theta_eval` evaluate a Python or
numpy scalar with ``cmath`` (nearly every call the identities make) and an
array with numpy; the two paths do the same arithmetic in the same order
and give each point the theta term count of the same table, so a point's
value does not depend on the call it comes in.  The scalar ``s`` of a
case is bound once, with the case's constants, as
:attr:`CaseParams.s_scalar`, which :func:`s_eval` and the operator
formulas share; on case IV it calls the scalar branch of
:func:`theta_eval`, whose series is bound once per nome (see
:func:`_theta_series`).  The float paths run at one fixed accuracy: the
series and products stop at the relative error :data:`TARGET_REL_ERR`,
and only :func:`theta_product` takes a setting, its cap
``product_terms`` on the factors.  The precision follows the argument's
type: an mpmath number (and only that) is evaluated in mpmath at the
working precision ``mpmath.mp.dps``, with term counts taken from that
precision, and the value comes back as an mpmath number.  That route
runs the float algorithms (the theta series, the theta product) with
mpmath's functions; it is no second algorithm to check them against.  The
independent references, mpmath's ``jtheta`` among them, are in the tests.
"""

from __future__ import annotations

import cmath
import enum
import importlib
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from typing import Callable

import numpy as np

__all__ = [
    "CaseKind",
    "CaseParams",
    "DomainError",
    "PoleProximityError",
    "ConvergenceError",
    "TARGET_REL_ERR",
    "POLE_FLOOR",
    "PRODUCT_TERMS",
    "theta_eval",
    "theta_product",
    "s_eval",
    "quasi_factor",
    "lattice_distance",
    "require_regular",
    "duplication_residual",
]


class _DeferredModule:
    """Stands for the module ``name`` and imports it at the first access to
    one of its attributes, which it then keeps, so that later accesses cost
    what a module attribute costs.  mpmath (the routes of mpmath arguments)
    and scipy.special (the rational gamma function) were about half of the
    package's import time, and most runs need neither.  Testing whether a
    value is an mpmath number must not touch this stand-in: see
    :func:`_is_mp`."""

    def __init__(self, name: str) -> None:
        self._name = name

    def __getattr__(self, attr: str):
        # introspection (``__wrapped__`` and the like) must not import
        if attr.startswith("__"):
            raise AttributeError(attr)
        value = getattr(importlib.import_module(self._name), attr)
        setattr(self, attr, value)
        return value


mpmath = _DeferredModule("mpmath")

_THETA_TERM_CAP = 400

# Largest exponent a theta term may reach: exp overflows float64 above
# about 709.78, and this leaves a margin for the sum.
_THETA_OVERFLOW_EXP = 650.0

# Arguments s_eval and theta_eval evaluate with cmath instead of numpy.
_SCALAR_TYPES = (complex, float, int, np.number)


def _mp_types() -> tuple:
    """mpmath's number types, or none while mpmath is not loaded (no mpmath
    number exists then).  Never imports mpmath."""
    mp = sys.modules.get("mpmath")
    return () if mp is None else (mp.mpf, mp.mpc)


def _is_mp(x) -> bool:
    """Whether ``x`` is an mpmath number."""
    return isinstance(x, _mp_types())


class DomainError(ValueError):
    """Raised when an evaluation request leaves the supported domain."""


class PoleProximityError(DomainError):
    """Raised when a point sits too close to a zero of ``s`` (hence to a
    pole of some quotient built from it)."""


class ConvergenceError(RuntimeError):
    """Raised when a series or product cannot reach the requested accuracy
    within the configured number of terms."""


class CaseKind(enum.Enum):
    """The four regimes of the building-block function ``s``."""

    RATIONAL = "I"
    TRIGONOMETRIC = "II"
    HYPERBOLIC = "III"
    ELLIPTIC = "IV"

    @classmethod
    def from_label(cls, label: str | "CaseKind") -> "CaseKind":
        """Accept ``I``/``II``/``III``/``IV`` (any case) or a member name."""
        if isinstance(label, cls):
            return label
        text = str(label).strip()
        for member in cls:
            if text.upper() == member.value or text.upper() == member.name.upper():
                return member
        raise DomainError(f"unknown case label {label!r}; expected I, II, III or IV")

    @property
    def label(self) -> str:
        return self.value


# The evaluators run at one fixed accuracy.  Target relative error of the
# adaptive float64 series and products, here and in :mod:`~vandiejen.gamma`:
# a truncation target, not a bound on every value; the float64 hyperbolic
# gamma at a = 1.8, alpha = 0.8 reaches 1.8e-13 at x = 4.5+0.9i and 1.3e-13
# at x = 3.6+1.2i.  An mpmath argument takes its term counts from
# ``mpmath.eps`` instead.
TARGET_REL_ERR = 1e-13
# term counts take log(tol): past ~323 digits an mpmath epsilon underflows float64
_LOG_TARGET = math.log(TARGET_REL_ERR)
# Distance from the zero lattice of s below which require_regular rejects a point.
POLE_FLOOR = 0.05
# Default cap on the factors of theta_product, the one setting of the evaluators.
PRODUCT_TERMS = 40
# how a ConvergenceError of theta_product names that cap on every surface
_RAISE_PRODUCT_TERMS = "raise product_terms (the --trunc-terms flag, config key trunc_terms)"


@dataclass(frozen=True)
class CaseParams:
    """A concrete regime: the case kind plus its scale parameters.

    ``r`` is the trigonometric/elliptic frequency (cases II and IV) and
    ``a`` the hyperbolic/elliptic imaginary scale (cases III and IV).
    Parameters irrelevant to the chosen case are ignored but kept so that
    a single record can be passed around uniformly.
    """

    kind: CaseKind
    r: float = 1.0
    a: float = 1.0

    def __post_init__(self) -> None:
        kind = CaseKind.from_label(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind in (CaseKind.TRIGONOMETRIC, CaseKind.ELLIPTIC) and not 0 < self.r < math.inf:
            raise DomainError(f"case {kind.label} needs a finite r > 0, got r={self.r}")
        if kind in (CaseKind.HYPERBOLIC, CaseKind.ELLIPTIC) and not 0 < self.a < math.inf:
            raise DomainError(f"case {kind.label} needs a finite a > 0, got a={self.a}")

    # -- lattice / half-period data -------------------------------------

    @cached_property
    def rho(self) -> int:
        """Index of the last independent half-period (0, 1, 1, 3)."""
        return {
            CaseKind.RATIONAL: 0,
            CaseKind.TRIGONOMETRIC: 1,
            CaseKind.HYPERBOLIC: 1,
            CaseKind.ELLIPTIC: 3,
        }[self.kind]

    @property
    def omega(self) -> tuple[complex, ...]:
        """Half-periods ``omega_0 .. omega_rho`` (omega_0 is always 0)."""
        if self.kind is CaseKind.RATIONAL:
            return (0j,)
        if self.kind is CaseKind.TRIGONOMETRIC:
            return (0j, complex(math.pi / self.r))
        if self.kind is CaseKind.HYPERBOLIC:
            return (0j, 1j * self.a)
        w1 = complex(math.pi / self.r)
        w2 = 1j * self.a
        return (0j, w1, w2, -w1 - w2)

    @property
    def eps(self) -> tuple[int, ...]:
        """Sign picked up by ``s`` under translation by each half-period."""
        return (1, -1, -1, -1)[: self.rho + 1]

    @property
    def xi(self) -> tuple[int, ...]:
        """Exponential weight of each half-period translation (elliptic
        case only; zero wherever the translation is a plain sign flip)."""
        if self.kind is CaseKind.ELLIPTIC:
            return (0, 0, -1, 1)
        return (0,) * (self.rho + 1)

    @property
    def period_sum(self) -> complex:
        """Sum of the half-periods ``omega_0 + ... + omega_rho``."""
        return sum(self.omega, start=0j)

    @cached_property
    def q(self) -> float:
        """Elliptic nome ``exp(-r a)``; zero outside the elliptic case."""
        if self.kind is CaseKind.ELLIPTIC:
            return math.exp(-self.r * self.a)
        return 0.0

    @cached_property
    def _s_scale(self) -> float:
        """Elliptic prefactor ``exp(r a / 4) / r`` turning theta into ``s``."""
        return math.exp(self.r * self.a / 4) / self.r

    @cached_property
    def s_scalar(self) -> Callable:
        """``s`` of this case at one argument (see :func:`_scalar_s`)."""
        return _scalar_s(self)

    @property
    def zero_lattice_basis(self) -> tuple[complex, ...]:
        """Generators of the zero lattice of ``s`` (empty in case I): the
        real half-period, the imaginary one, or both."""
        return self.omega[1:3]

    def describe(self) -> str:
        bits = [f"case {self.kind.label} ({self.kind.name.lower()})"]
        if self.kind in (CaseKind.TRIGONOMETRIC, CaseKind.ELLIPTIC):
            bits.append(f"r={self.r:g}")
        if self.kind in (CaseKind.HYPERBOLIC, CaseKind.ELLIPTIC):
            bits.append(f"a={self.a:g}")
        if self.kind is CaseKind.ELLIPTIC:
            bits.append(f"q={self.q:.6g}")
        return ", ".join(bits)


def _as_complex_array(x) -> tuple[np.ndarray, bool]:
    """Coerce to a complex ndarray, remembering whether input was scalar."""
    arr = np.asarray(x)
    scalar = arr.ndim == 0
    return np.atleast_1d(arr).astype(np.complex128), scalar


def _restore(values: np.ndarray, scalar: bool):
    return complex(values[0]) if scalar else values


# ---------------------------------------------------------------------------
# theta function
# ---------------------------------------------------------------------------


def _nome_from(tau=None, q=None) -> complex:
    if (tau is None) == (q is None):
        raise DomainError("pass exactly one of tau or q")
    if q is None:
        q = cmath.exp(1j * cmath.pi * tau)
    q = complex(q)
    if not abs(q) < 1:
        raise DomainError(f"nome must satisfy |q| < 1, got |q|={abs(q):.6g}")
    if q == 0:
        raise DomainError("nome must be nonzero")
    return q


def theta_eval(z, tau=None, q=None):
    """Odd Jacobi theta function via its alternating sine series.

    Computes ``2 sum_{n>=0} (-1)^n q^{(n+1/2)^2} sin((2n+1) z)`` with the
    number of terms chosen adaptively from the tail bound
    ``|q|^{n(n+1)} exp(2 n |Im z|) < TARGET_REL_ERR`` (the bound is relative
    to the first term).  Terms are assembled in exponential form so that
    large ``|Im z|`` cannot overflow before the nome decay kicks in.  An
    mpmath ``z`` runs the scalar series with mpmath's ``exp``, its count
    taken at the working epsilon instead of :data:`TARGET_REL_ERR`.

    A scalar takes the bound series of :func:`_theta_series` (a ``complex``
    as it is, another scalar type as a ``complex``).  The scalar ``s`` of
    case IV (:attr:`CaseParams.s_scalar`) calls this function, not the
    bound series, so each float series it sums is a ``theta_eval`` call
    that a profile or a tracer counts.

    Parameters
    ----------
    z:
        Scalar, array or mpmath argument.
    tau, q:
        Modular parameter or nome; exactly one must be given, with
        ``q = exp(i pi tau)`` and ``|q| < 1``.
    """
    if type(z) is complex or isinstance(z, _SCALAR_TYPES):
        if tau is None and type(q) is float:
            series = _float_nome_series(q)
        else:
            series = _theta_series(cmath.log(_nome_from(tau=tau, q=q)), _LOG_TARGET, cmath.exp,
                                   _THETA_OVERFLOW_EXP)
        value = series(z if type(z) is complex else complex(z))
        if value is not None:
            return value
        # the term cap, the overflow guard, or cmath raising where numpy
        # returns inf or nan: the array path raises or returns that value
    qq = _nome_from(tau=tau, q=q)
    if _is_mp(z):
        return _theta_mp(z, mpmath.log(_nome_mp(tau, q)))

    log_q = cmath.log(qq)  # principal branch fixes q**(1/4)
    zz, scalar = _as_complex_array(z)
    if not zz.size:
        return zz
    im = np.abs(zz.imag)
    # the count grows with |Im z|: the cap and the overflow guard reject at
    # the largest, and when the smallest gets the same count, every point does
    n_stop = _theta_terms(log_q, float(np.max(im)), TARGET_REL_ERR, abs(qq))
    n_min = _theta_terms(log_q, float(np.min(im)), TARGET_REL_ERR, abs(qq))
    counts = _theta_terms_array(log_q, im, TARGET_REL_ERR) if n_min < n_stop else None
    total = np.zeros_like(zz)
    for n in range(n_stop + 1):
        exponent = (n + 0.5) ** 2 * log_q
        # sin in exponential form, sharing the nome exponent
        term = (
            np.exp(exponent + 1j * (2 * n + 1) * zz)
            - np.exp(exponent - 1j * (2 * n + 1) * zz)
        ) / 2j
        # each point stops at its own term count, so its value does not
        # depend on the other points of the call
        where = True if n <= n_min else counts >= n
        if n % 2:
            np.subtract(total, term, out=total, where=where)
        else:
            np.add(total, term, out=total, where=where)
    return _restore(2.0 * total, scalar)


def _theta_terms(log_q: complex, im_max: float, tol: float, abs_q: float) -> int:
    """Last index ``n_stop`` of the theta sine series for ``max|Im z| = im_max``:
    the least ``n`` in ``1 .. _THETA_TERM_CAP`` whose tail bound lies below
    ``tol``, from the table of :func:`_count_table`.  ``abs_q`` is only
    quoted in error messages."""
    n = bisect_right(_count_table(log_q.real, math.log(tol)), im_max) + 1
    if n > _THETA_TERM_CAP:
        raise ConvergenceError(
            "theta series tail still above target after "
            f"{_THETA_TERM_CAP} terms (|q|={abs_q:.6g}, max|Im z|={im_max:.3g})"
        )
    peak = abs(log_q) / 4 + (2 * n + 1) * im_max
    if peak > _THETA_OVERFLOW_EXP:
        raise DomainError(
            f"theta argument too deep in the strip: |Im z|={im_max:.3g} "
            "would overflow float64"
        )
    return n


def _theta_terms_array(log_q: complex, im: np.ndarray, tol: float) -> np.ndarray:
    """:func:`_theta_terms` of every entry of ``im``, from the same table, so
    each count is the one the point gets alone.  Every entry must lie at
    or below a ``|Im z|`` that :func:`_theta_terms` accepts."""
    return np.searchsorted(_count_array(log_q.real, math.log(tol)), im, side="right") + 1


def _tail_below(n, decay: float, im, log_tol: float):
    """Whether the theta tail bound ``n(n+1) ln|q| + 2 n |Im z|`` after term
    ``n`` lies below ``ln tol`` (``decay = ln|q|``); ``n`` and ``im`` may be
    arrays.  The rule every term count follows, by :func:`_count_table`."""
    return n * (n + 1) * decay + 2 * n * im < log_tol


@lru_cache(maxsize=64)
def _count_table(decay: float, log_tol: float) -> tuple[float, ...]:
    """Per ``n`` in ``1 .. _THETA_TERM_CAP``, the least float ``|Im z|`` at
    which :func:`_tail_below` turns false.  The rule is monotone in
    ``|Im z|``, so a scan from ``n = 1`` stops at ``bisect_right(table,
    |Im z|) + 1`` (``_THETA_TERM_CAP + 1``: never, as at NaN and inf).
    Keyed by ``ln|q|``, not by the nome, so a complex nome bound at each
    call finds its table.  Each entry is bisected over float steps (the
    int64 patterns of the floats >= 0 are in order) near the bound's root,
    or over all floats where rounding moves the flip further."""
    n = np.arange(1, _THETA_TERM_CAP + 1)
    bound = n * (n + 1) * decay
    root = (log_tol - bound) / (2 * n)
    slack = 1e-15 * (np.abs(bound) - log_tol) / n  # a few roundings of the bound

    def below(bits):
        return _tail_below(n, decay, bits.view(np.float64), log_tol)

    # the rule holds at lo (lo = -1: at no float) and fails at hi
    lo = np.maximum(root - slack, 0.0).view(np.int64)
    lo = np.where(below(lo), lo, -1)
    hi = np.maximum(root + slack, 0.0).view(np.int64)
    hi = np.where(below(hi), 0x7FF0000000000000, hi)  # inf: fails
    while (wide := hi - lo > 1).any():
        mid = np.where(wide, lo + (hi - lo) // 2, hi)
        holds = below(mid)
        lo, hi = np.where(holds, mid, lo), np.where(holds, hi, mid)
    table = tuple(hi.view(np.float64).tolist())
    assert all(a <= b for a, b in zip(table, table[1:])), (decay, log_tol)
    return table


@lru_cache(maxsize=64)
def _count_array(decay: float, log_tol: float) -> np.ndarray:
    """:func:`_count_table` as a read-only array, for ``np.searchsorted``."""
    table = np.array(_count_table(decay, log_tol))
    table.flags.writeable = False
    return table


@lru_cache(maxsize=64)
def _float_nome_series(q: float) -> Callable[[complex], complex | None]:
    """The float64 :func:`_theta_series` of a nome given as a float, as every
    case's is: bound once per nome.  Only a float keys it: a complex nome
    ``-0.3 - 0j`` equals ``-0.3 + 0j`` but lies across the branch cut of
    ``log q``, so a complex nome is bound at each call."""
    return _theta_series(cmath.log(_nome_from(q=q)), _LOG_TARGET, cmath.exp, _THETA_OVERFLOW_EXP)


def _theta_series(log_q, log_tol: float, exp, overflow: float) -> Callable:
    """The scalar sine series of :func:`theta_eval` at the nome ``exp(log_q)``,
    with the count table of ``(Re log q, log_tol)`` bound once and the
    per-term constants ``(n + 1/2)^2 log q`` and ``i (2n + 1)`` built as far
    as a call needs.  ``log_q`` (on the principal branch, which fixes
    ``q**(1/4)``) and ``exp`` are of one backend: ``cmath`` with the float64
    target and overflow bound :data:`_THETA_OVERFLOW_EXP`, or mpmath with
    the log of the working epsilon and no bound.

    A call sums the series at one ``z`` of that backend, term for term as
    the numpy series, to the count :func:`_theta_terms` gives at ``|Im z|``.
    It returns None where that count meets the term cap or the overflow
    bound, or where ``cmath`` raises: the array path of :func:`theta_eval`
    answers those, and the mpmath route raises.  The sign ``(-1)^n`` of a
    term rides on its frequency ``(-1)^n i (2n + 1)``, which swaps the two
    exponentials of an odd term; as IEEE rounding is symmetric in sign, the
    sum is that of subtracting the term, bit for bit.

    On the float route the series is odd bit for bit at a ``z`` with both
    parts nonzero: at ``-z`` the two exponentials ``exp(e +- kz)`` of each
    term swap exactly, and every later step is symmetric in sign.  (A zero
    part may lose the sign of a zero; the count, the term cap and the
    overflow bound read ``|Im z|``, so ``-z`` gives None where ``z`` does.)
    The run memo of :func:`vandiejen.operators._run_s` folds on this.
    """
    quarter = abs(log_q) / 4
    table = _count_table(float(log_q.real), log_tol)
    consts: list = []  # (exponent, frequency) of terms 0, 1, ...: replaced, not mutated

    def series(z):
        nonlocal consts
        im = abs(z.imag)
        n_stop = bisect_right(table, im) + 1
        if n_stop > _THETA_TERM_CAP or quarter + (2 * n_stop + 1) * im > overflow:
            return None
        terms = consts
        if len(terms) <= n_stop:
            terms = consts = [((n + 0.5) ** 2 * log_q, complex(0.0, (-1) ** n * (2 * n + 1)))
                              for n in range(n_stop + 1)]
        total = 0j
        try:
            for exponent, k in terms[:n_stop + 1]:
                kz = k * z
                total += (exp(exponent + kz) - exp(exponent - kz)) / 2j
        except (OverflowError, ValueError):
            return None
        return 2.0 * total

    return series


def theta_product(z, tau=None, q=None, product_terms: int = PRODUCT_TERMS):
    """Same odd theta function via its triple-product representation.

    ``2 q^{1/4} sin z prod_{n>=1} (1 - q^{2n}) (1 - 2 q^{2n} cos 2z + q^{4n})``.

    Kept as an independent implementation so the series form can be
    validated against it; quotient code elsewhere uses whichever is
    convenient.  ``product_terms`` caps the number of factors: raising it
    helps when the nome is close to 1, and for an mpmath argument at high
    precision (at q = 0.3, 50 digits need 48 factors).  An mpmath argument
    runs the same loop with mpmath's functions and stops at the working
    epsilon instead of :data:`TARGET_REL_ERR`.
    """
    if product_terms < 1:
        raise DomainError("product_terms must be at least 1")
    qq = _nome_from(tau=tau, q=q)
    if _is_mp(z):
        qq, zz, scalar, im_max = _nome_mp(tau, q), z, False, abs(z.imag)
        cos, sin, exp, log, tol = mpmath.cos, mpmath.sin, mpmath.exp, mpmath.log, mpmath.eps
        real_exp, prod = mpmath.exp, mpmath.mpc(1)
    else:
        zz, scalar = _as_complex_array(z)
        im_max = float(np.max(np.abs(zz.imag), initial=0.0))
        cos, sin, exp, log, tol = np.cos, np.sin, np.exp, cmath.log, TARGET_REL_ERR
        real_exp, prod = math.exp, np.ones_like(zz)
    bound = 1.0 + (2.0 * real_exp(2 * im_max) + 1.0)
    cos_2z = cos(2 * zz)
    for n in range(1, product_terms + 1):
        q2n = qq ** (2 * n)
        prod *= (1 - q2n) * (1 - 2 * q2n * cos_2z + q2n * q2n)
        if abs(q2n) * bound < tol:
            return _restore(2.0 * exp(0.25 * log(qq)) * sin(zz) * prod, scalar)
    raise ConvergenceError(
        f"theta product not converged after {product_terms} factors "
        f"(|q|={float(abs(qq)):.6g}); {_RAISE_PRODUCT_TERMS}"
    )


# -- the mpmath routes: one mpmath argument at the working precision -------


def _nome_mp(tau, q):
    """The nome in mpmath, from whichever of ``tau`` and ``q`` is given."""
    return mpmath.mpmathify(q) if q is not None else mpmath.expjpi(tau)


def _theta_mp(z, log_q):
    """:func:`_theta_series` at one mpmath argument, with mpmath's ``exp``
    and the term count of the working precision's epsilon."""
    value = _theta_series(log_q, float(mpmath.log(mpmath.eps)), mpmath.exp, math.inf)(z)
    if value is None:
        raise ConvergenceError(
            f"theta series tail still above the working epsilon after {_THETA_TERM_CAP} terms"
        )
    return value


def _s_mp(case: CaseParams, x):
    """``s`` at one mpmath argument; the elliptic case is the theta series
    at the nome ``exp(-r a)`` computed in mpmath."""
    kind = case.kind
    if kind is CaseKind.RATIONAL:
        return x
    if kind is CaseKind.TRIGONOMETRIC:
        return mpmath.sin(case.r * x) / case.r
    if kind is CaseKind.HYPERBOLIC:
        return (case.a / mpmath.pi) * mpmath.sinh(mpmath.pi * x / case.a)
    log_q = -mpmath.mpf(case.r) * case.a
    return mpmath.exp(-log_q / 4) / case.r * _theta_mp(case.r * x, log_q)


# ---------------------------------------------------------------------------
# the building-block function s
# ---------------------------------------------------------------------------


def s_eval(case: CaseParams, x):
    """Evaluate the case's building-block function ``s`` at ``x``.

    Accepts scalars or arrays, and an mpmath number, which it evaluates in
    mpmath at the working precision and returns as an mpmath number.  A
    scalar takes the case's bound evaluator :attr:`CaseParams.s_scalar`,
    whose value equals the array value bit for bit.  The formulas of
    :mod:`~vandiejen.operators` call that evaluator directly on every case,
    so their scalar values do not pass through here.
    """
    if isinstance(x, _SCALAR_TYPES):
        return case.s_scalar(x)
    if _is_mp(x):
        return _s_mp(case, x)
    return _s_array(case, x)


def _s_array(case: CaseParams, x):
    """``s`` at ``x`` with numpy, an array or a scalar (as a complex)."""
    xx, scalar = _as_complex_array(x)
    kind = case.kind
    if kind is CaseKind.RATIONAL:
        vals = xx.copy()
    elif kind is CaseKind.TRIGONOMETRIC:
        vals = np.sin(case.r * xx) / case.r
    elif kind is CaseKind.HYPERBOLIC:
        vals = (case.a / math.pi) * np.sinh(math.pi * xx / case.a)
    else:
        vals = case._s_scale * theta_eval(case.r * xx, q=case.q)
    return _restore(vals, scalar)


def _scalar_s(case: CaseParams) -> Callable:
    """The scalar branch of :func:`s_eval` for ``case``, with the case
    constants taken once: one argument of :data:`_SCALAR_TYPES` in
    ``cmath`` (in case IV through the scalar branch of :func:`theta_eval`),
    as a complex.

    On cases I-III it does the float operations of :func:`_s_array` in the
    same order, so the value is the array value, bit for bit.  A quotient
    by a real ``d > 0`` is taken as numpy divides a complex128 by a real:
    a product with the reciprocal ``1/d``, with numpy's signs of zero
    (Python's own ``w / d`` rounds differently in the last bit).  Where
    cmath raises, numpy returns inf or nan: such an argument takes
    :func:`_s_array`.  Any other argument (an array, an mpmath number)
    goes to :func:`s_eval`.
    """
    kind = case.kind
    if kind is CaseKind.RATIONAL:

        def s(x):
            if type(x) is complex:
                return x
            return complex(x) if isinstance(x, _SCALAR_TYPES) else s_eval(case, x)

    elif kind is CaseKind.TRIGONOMETRIC:
        r, inv_r = case.r, 1.0 / case.r

        def s(x):
            if type(x) is not complex:
                if not isinstance(x, _SCALAR_TYPES):
                    return s_eval(case, x)
                x = complex(x)
            try:
                w = cmath.sin(r * x)
            except (OverflowError, ValueError):
                return _s_array(case, x)
            return complex((w.real + w.imag * 0.0) * inv_r, (w.imag - w.real * 0.0) * inv_r)

    elif kind is CaseKind.HYPERBOLIC:
        a_pi, inv_a = case.a / math.pi, 1.0 / case.a

        def s(x):
            if type(x) is not complex:
                if not isinstance(x, _SCALAR_TYPES):
                    return s_eval(case, x)
                x = complex(x)
            w = math.pi * x
            try:
                return a_pi * cmath.sinh(
                    complex((w.real + w.imag * 0.0) * inv_a, (w.imag - w.real * 0.0) * inv_a))
            except (OverflowError, ValueError):
                return _s_array(case, x)

    else:
        scale, r, q = case._s_scale, case.r, case.q

        def s(x):
            if type(x) is not complex:
                if not isinstance(x, _SCALAR_TYPES):
                    return s_eval(case, x)
                x = complex(x)
            return scale * theta_eval(r * x, q=q)

    return s


def s_eval_mp(case: CaseParams, x: complex, dps: int):
    """``s`` at ``x`` in mpmath at ``dps`` decimal digits, as an mpmath number."""
    with mpmath.workdps(dps):
        return s_eval(case, mpmath.mpmathify(x))


def quasi_factor(case: CaseParams, x, nu: int):
    """Multiplier relating ``s(x + omega_nu)`` to ``s(x)``.

    Returns the factor ``eps_nu * exp(2 i r xi_nu (x + omega_nu / 2))`` so
    that ``s(x + omega_nu) == quasi_factor(...) * s(x)`` identically.  For
    the non-elliptic cases every ``xi_nu`` vanishes and the factor is the
    plain sign ``eps_nu``.
    """
    if not 0 <= nu <= case.rho:
        raise DomainError(f"half-period index {nu} out of range for case {case.kind.label}")
    eps = case.eps[nu]
    xi = case.xi[nu]
    if xi == 0:
        xx, scalar = _as_complex_array(x)
        return _restore(eps * np.ones_like(xx), scalar)
    xx, scalar = _as_complex_array(x)
    vals = eps * np.exp(2j * case.r * xi * (xx + case.omega[nu] / 2))
    return _restore(vals, scalar)


def lattice_distance(case: CaseParams, x) -> np.ndarray | float:
    """Distance from ``x`` to the zero lattice of ``s``.

    The lattice is spanned by the generators in ``zero_lattice_basis``
    (plus the origin); for case I it is just the origin.  The search window
    around the rounded coordinates is generous enough for any input.
    """
    xx, scalar = _as_complex_array(x)
    # each generator is real or imaginary: round that coordinate of x
    near = [(w, np.round(xx.real / w.real if w.imag == 0 else xx.imag / w.imag))
            for w in case.zero_lattice_basis]
    best = np.full(xx.shape, np.inf)
    for offsets in product((-1, 0, 1), repeat=len(near)):
        cand = xx
        for (w, n), d in zip(near, offsets):
            cand = cand - (n + d) * w
        best = np.minimum(best, np.abs(cand))
    return float(best[0]) if scalar else best


def require_regular(case: CaseParams, x, what: str = "argument") -> None:
    """Raise :class:`PoleProximityError` if ``x`` is closer than
    :data:`POLE_FLOOR` to a zero of ``s``."""
    dist = lattice_distance(case, x)
    dmin = float(np.min(np.atleast_1d(dist), initial=np.inf))
    if dmin < POLE_FLOOR:
        raise PoleProximityError(
            f"{what} is within {dmin:.3g} of a zero of s (floor {POLE_FLOOR:g}, "
            f"{case.describe()})"
        )


def duplication_residual(case: CaseParams, x):
    """Relative defect of the duplication rule at ``x``.

    The rule expresses ``s(2x)`` through the product of ``s(x - omega_nu/2)``
    over all half-periods, normalised by the constant ``s(-omega_nu/2)``
    factors for ``nu >= 1``:

        s(2x) = 2 * prod_{nu=0}^{rho} s(x - omega_nu/2)
                  / prod_{nu=1}^{rho} s(-omega_nu/2)

    Returns ``|lhs - rhs| / max(|lhs|, |rhs|)``.  Points where ``2x`` sits
    on the zero lattice are rejected since both sides vanish there.
    """
    xx, scalar = _as_complex_array(x)
    require_regular(case, 2 * xx, what="duplication argument 2x")
    lhs = s_eval(case, 2 * xx)
    num = np.ones_like(np.atleast_1d(lhs))
    for w in case.omega:
        num = num * np.atleast_1d(s_eval(case, xx - w / 2))
    den = 1.0 + 0j
    for w in case.omega[1:]:
        den *= s_eval(case, -w / 2)
    rhs = 2.0 * num / den
    lhs_arr = np.atleast_1d(lhs)
    resid = np.abs(lhs_arr - rhs) / np.maximum(np.abs(lhs_arr), np.abs(rhs))
    return _restore(resid.astype(np.complex128), scalar).real if scalar else resid
