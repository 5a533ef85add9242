"""Reference computations that only the tests call.

Unlike :mod:`oracles`, these are float computations built from the
package's own pieces: the summation identity's left side and the
parameter choice that turns it into the operator identity, the elliptic
balancing defect, the single-coordinate and pair blocks of an
eigenfunction on their own, the cross factors of the three kernels, and
the plain and two-species ground states written against their unit-mass
displays.  The blocks and the cross factors cross-check
:func:`~vandiejen.eigenfunctions.eigenfunction_factors`, the ground states
:func:`~vandiejen.eigenfunctions.continued_root` of the squared factor
lists.  No command of the package runs them, so they live here rather
than in ``src/vandiejen``.
"""

from __future__ import annotations

from typing import Callable, Sequence

from vandiejen.eigenfunctions import BranchTracker, Factor, GFactor, SFactor, pair_kind
from vandiejen.gamma import gamma_G
from vandiejen.operators import (CouplingSet, MassTag, SummationParams, d_param, dual_couplings,
                                 summation_terms)
from vandiejen.sfun import CaseParams, DomainError, s_eval


def balance_defect(coupling: CouplingSet, mass_values: Sequence[float]) -> float:
    """Elliptic-case constraint value ``2 lam sum(m) + sum(g) - 2(lam+1)``.

    The eigenfunction and kernel identities hold unconditionally in cases
    I-III and, in case IV, exactly on the zero set of this quantity.
    """
    lam = coupling.lam
    return 2 * lam * float(sum(mass_values)) + float(sum(coupling.g)) - 2 * (lam + 1)


def summation_lhs(case: CaseParams, p: SummationParams) -> complex:
    """Left side: shift-type terms minus the two boundary families."""
    rho = case.rho
    if len(p.c) != rho + 1 or len(p.d) != rho + 1 or len(p.n) != 2 * (rho + 1):
        raise DomainError(
            f"case {case.kind.label} needs {rho + 1} entries in c and d and "
            f"{2 * (rho + 1)} in n"
        )
    return sum(summation_terms(case, p)[0], start=0j)


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


def psi_single_sq(
    case: CaseParams,
    g: Sequence[float],
    lam: float,
    beta: float,
    x: complex,
    tag: MassTag,
) -> complex:
    """Single-coordinate block, squared: a doubled-argument gamma pair over
    the coupling gamma products, with the coupling offsets depending on the
    mass species, at one point ``x`` or at an array of points."""
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


def pair_factor(case: CaseParams, lam: float, beta: float, tag_j: MassTag,
                tag_k: MassTag) -> tuple[str, Callable]:
    """The pair block of masses ``tag_j`` and ``tag_k``, by their
    :func:`~vandiejen.eigenfunctions.pair_kind`, as its mode and its
    factor, a function of the combined argument ``x``, one per sign
    combination of the two coordinates.  The mode says how the factor
    enters the block: ``sqrt`` (continued square root), ``direct`` (as
    is) or ``invsqrt`` (reciprocal square root).

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


def cauchy_kernel_factors(
    lam: float,
    beta: float,
    x_vars: Sequence[int],
    y_vars: Sequence[int],
    alpha: complex | None = None,
    offset: complex | None = None,
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
                    out.append(GFactor(((j, e1), (k, e2)), offset, alpha))
    return out


def dual_cauchy_kernel_factors(
    x_vars: Sequence[int],
    y_vars: Sequence[int],
) -> list[Factor]:
    """Building-block cross kernel ``prod s(x_j + delta y_k)``."""
    out: list[Factor] = []
    for j in x_vars:
        for k in y_vars:
            for delta in (1, -1):
                out.append(SFactor(((j, 1), (k, delta)), 0j))
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


def psi_single(    case: CaseParams,
    g: Sequence[float],
    lam: float,
    beta: float,
    x: complex,
    tag: MassTag,
    tracker: BranchTracker,
) -> complex:
    """Single-coordinate block: the continued square root of
    :func:`psi_single_sq`.  The tracker's base must be a 1-tuple."""

    def w(Z):
        return psi_single_sq(case, g, lam, beta, Z[0], tag)

    return tracker.sqrt_at(("psi", tag.value), w, (x,))


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
    :func:`pair_factor`).  The tracker's base must be a 1-tuple for the
    rooted kinds.
    """
    mode, factor = pair_factor(case, lam, beta, tag_j, tag_k)
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
    the squared factor lists, so the two implementations cross-check each
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
