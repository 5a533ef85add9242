"""Eigenfunctions: branch tracking, factor lists, ground states, kernels."""

import cmath
import itertools

import numpy as np
import pytest

import oracles
from vandiejen.eigenfunctions import (
    BranchError,
    BranchTracker,
    ConjugatedTerms,
    cauchy_kernel_factors,
    conjugation_terms,
    deformed_groundstate_sq_factors,
    deformed_groundstate_value,
    deformed_power_sum,
    dual_cauchy_kernel_factors,
    eigenfunction_value,
    factor_ratio,
    factor_value,
    groundstate_psi,
    groundstate_sq_factors,
    kernel_cauchy_value,
    kernel_deformed_value,
    kernel_dual_cauchy_value,
    pair_kind,
    phi_factor_specs,
    phi_pair,
    power_sum_weight,
    psi_single,
    psi_single_sq,
    quasi_invariance_defect,
)
from vandiejen.operators import (MassTag, coeff_V_shift, operator_terms, source_constant,
                                 weighted_terms)
from vandiejen.sfun import CaseKind, CaseParams, DomainError
from vandiejen.verify import _KERNELS

R, A = 1.1, 1.8
LAM, BETA = 1.45, 0.31


def make(label):
    return CaseParams(CaseKind.from_label(label), r=R, a=A)


def couplings_for(label, fill=0.37):
    case = make(label)
    return tuple(fill + 0.05 * k for k in range(2 * (case.rho + 1)))


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b))


# --------------------------------------------------------------------------
# branch tracking
# --------------------------------------------------------------------------


def test_tracker_principal_at_base():
    tr = BranchTracker((4.0 + 0j,))
    assert tr.sqrt_at("k", lambda Z: Z[0], (4.0 + 0j,)) == pytest.approx(2.0)


def test_tracker_follows_the_sheet():
    # sqrt(z^2) continued from z=1 must return z itself, not the principal
    # root, once the path leaves the principal sheet
    tr = BranchTracker((1.0 + 0j,))
    target = (-1.0 + 0.3j,)
    val = tr.sqrt_at("k", lambda Z: Z[0] ** 2, target)
    assert val == pytest.approx(-1.0 + 0.3j, rel=1e-12)
    assert cmath.sqrt((-1.0 + 0.3j) ** 2) == pytest.approx(1.0 - 0.3j, rel=1e-12)


def test_tracker_gauge_and_fault():
    tr = BranchTracker((4.0 + 0j,))
    fn = lambda Z: Z[0]
    assert tr.sqrt_at("k", fn, (9.0 + 0j,)) == pytest.approx(3.0)
    tr.set_gauge("k", -1)
    assert tr.sqrt_at("k", fn, (9.0 + 0j,)) == pytest.approx(-3.0)
    tr.set_gauge("k", 1)
    tr.set_fault("k", lambda target: target[0].real > 5)
    assert tr.sqrt_at("k", fn, (9.0 + 0j,)) == pytest.approx(-3.0)
    assert tr.sqrt_at("k", fn, (4.0 + 0j,)) == pytest.approx(2.0)
    tr.clear_fault()
    assert tr.sqrt_at("k", fn, (9.0 + 0j,)) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        tr.set_gauge("k", 2)


def test_tracker_rejects_zero_base_and_zero_crossing():
    tr = BranchTracker((0.0 + 0j,))
    with pytest.raises(BranchError):
        tr.sqrt_at("k", lambda Z: Z[0], (1.0 + 0j,))
    tr = BranchTracker((1.0 + 0j,))
    with pytest.raises(BranchError):
        tr.sqrt_at("k", lambda Z: Z[0], (-1.0 + 0j,))


# --------------------------------------------------------------------------
# single blocks and pair machinery
# --------------------------------------------------------------------------


def test_single_block_square_rational_oracle():
    # all couplings zero, unit mass: the squared block collapses to a
    # ratio of Euler gamma values
    case = make("I")
    beta = 0.42
    for x in (0.3 + 0.05j, 0.55 - 0.04j, 0.8):
        val = psi_single_sq(case, (0.0, 0.0), LAM, beta, x, MassTag.PLUS_ONE)
        ref = oracles.psi_sq_rational_unit_oracle(x, beta)
        assert rel_err(val, ref) < 1e-11


def test_single_block_root_squares_back():
    case = make("II")
    g = couplings_for("II")
    base = (0.47 + 0.03j,)
    tr = BranchTracker(base)
    for x in (base[0], 0.52 + 0.08j, 0.41 - 0.02j):
        root = psi_single(case, g, LAM, BETA, x, MassTag.PLUS_ONE, tr)
        square = psi_single_sq(case, g, LAM, BETA, x, MassTag.PLUS_ONE)
        assert rel_err(root * root, square) < 1e-11


def test_pair_kind_table():
    assert pair_kind(MassTag.PLUS_ONE, MassTag.PLUS_ONE) == "same"
    assert pair_kind(MassTag.PLUS_ONE, MassTag.MINUS_ONE) == "opposite"
    assert pair_kind(MassTag.PLUS_ONE, MassTag.PLUS_INV) == "dual"
    assert pair_kind(MassTag.PLUS_ONE, MassTag.MINUS_INV) == "antidual"
    assert pair_kind(MassTag.MINUS_INV, MassTag.PLUS_INV) == "opposite"
    assert pair_kind(MassTag.MINUS_INV, MassTag.MINUS_ONE) == "dual"


class _Radicand:
    """A stand-in tracker whose ``sqrt_at`` hands back the factor itself,
    evaluated at ``at`` when given (say, the coordinate arrays of a path)."""

    def __init__(self, at=None):
        self.at = at

    def sqrt_at(self, key, fn, target):
        return fn(target if self.at is None else self.at)


def _bits(value):
    return np.atleast_1d(np.asarray(value, dtype=complex)).view(np.float64).tolist()


@pytest.mark.parametrize("label", ("I", "II", "III", "IV"))
def test_pair_block_equals_its_eigenfunction_factor_bit_for_bit(label):
    # phi_pair at the combined argument e1 Z[j] + e2 Z[k] and the matching
    # pair entry of phi_factor_specs give the same value, on one point and,
    # for the rooted kinds, on the coordinate arrays of a path
    case = make(label)
    g = couplings_for(label)
    Z = (0.41 + 0.05j, 0.78 - 0.06j)
    path = tuple(np.array([z + t * (0.03 - 0.02j) for t in np.linspace(0.0, 1.0, 5)])
                 for z in Z)
    for tag_j, tag_k in itertools.product(MassTag, repeat=2):
        specs = {key: (mode, fn) for key, mode, fn
                 in phi_factor_specs(case, g, LAM, BETA, (tag_j, tag_k))}
        for e1, e2 in itertools.product((1, -1), repeat=2):
            mode, fn = specs[("pair", 0, 1, e1, e2)]
            x = e1 * Z[0] + e2 * Z[1]
            pair = phi_pair(case, LAM, BETA, x, tag_j, tag_k, BranchTracker((x,)))
            if mode == "direct":
                assert _bits(pair) == _bits(complex(fn(Z)))
                continue
            root = BranchTracker(Z).sqrt_at("k", fn, Z)
            assert _bits(pair) == _bits(root if mode == "sqrt" else 1.0 / root)
            # on a path, through a tracker that hands back the factor itself
            on_path = phi_pair(case, LAM, BETA, x, tag_j, tag_k,
                               _Radicand((e1 * path[0] + e2 * path[1],)))
            factor = fn(path)
            assert _bits(on_path) == _bits(factor if mode == "sqrt" else 1.0 / factor)


# --------------------------------------------------------------------------
# ground states: two independent routes
# --------------------------------------------------------------------------

X2 = (0.41 + 0.05j, 0.78 - 0.06j)


@pytest.mark.parametrize("label", ("I", "II", "III"))
def test_groundstate_matches_general_eigenfunction(label):
    # the unit-mass display and the general-mass machinery must agree
    case = make(label)
    g = couplings_for(label)
    tags = (MassTag.PLUS_ONE, MassTag.PLUS_ONE)
    tr1 = BranchTracker(X2)
    tr2 = BranchTracker(X2)
    specs = phi_factor_specs(case, g, LAM, BETA, tags)
    for Z in (X2, (0.45 + 0.02j, 0.74 - 0.03j)):
        a = groundstate_psi(case, g, LAM, BETA, Z, (0, 1), tr1)
        b = eigenfunction_value(specs, tr2, Z)
        assert rel_err(a, b) < 1e-11


@pytest.mark.parametrize("label", ("II", "III"))
def test_groundstate_square_equals_factor_product(label):
    case = make(label)
    g = couplings_for(label)
    tr = BranchTracker(X2)
    factors = groundstate_sq_factors(case, g, LAM, BETA, (0, 1))
    for Z in (X2, (0.44 + 0.01j, 0.81 - 0.02j)):
        psi = groundstate_psi(case, g, LAM, BETA, Z, (0, 1), tr)
        prod = factor_value(case, factors, Z)
        assert rel_err(psi * psi, prod) < 1e-10


def test_deformed_groundstate_square_equals_factor_product():
    case = make("II")
    g = couplings_for("II")
    Z = (0.41 + 0.05j, 0.92 - 0.07j)
    tr = BranchTracker(Z)
    factors = deformed_groundstate_sq_factors(case, g, LAM, BETA, (0,), (1,))
    val = deformed_groundstate_value(case, g, LAM, BETA, Z, (0,), (1,), tr)
    prod = factor_value(case, factors, Z)
    assert rel_err(val * val, prod) < 1e-10


# --------------------------------------------------------------------------
# factor lists: exact shift ratios
# --------------------------------------------------------------------------


def test_factor_ratio_matches_direct_quotient():
    case = make("II")
    g = couplings_for("II")
    factors = groundstate_sq_factors(case, g, LAM, BETA, (0, 1))
    Z = X2
    for var, delta in ((0, 1j * BETA), (1, -1j * BETA), (0, 2j * BETA)):
        shifted = list(Z)
        shifted[var] += delta
        direct = factor_value(case, factors, tuple(shifted)) / factor_value(
            case, factors, Z)
        exact = factor_ratio(case, factors, Z, var, delta)
        assert rel_err(exact, direct) < 1e-10


def test_factor_ratio_rejects_incommensurate_shift():
    case = make("II")
    g = couplings_for("II")
    factors = groundstate_sq_factors(case, g, LAM, BETA, (0, 1))
    with pytest.raises(DomainError):
        factor_ratio(case, factors, X2, 0, 0.3j * BETA)


# --------------------------------------------------------------------------
# kernels: value route vs squared factor lists
# --------------------------------------------------------------------------


def test_cauchy_kernel_square_route():
    case = make("II")
    g = couplings_for("II")
    g_ref = tuple((LAM + 1) / 2 - v for v in g)
    Z = (0.41 + 0.05j, 0.92 - 0.07j)
    tr = BranchTracker(Z)
    val = kernel_cauchy_value(case, g, LAM, BETA, Z, (0,), (1,), tr)
    factors = groundstate_sq_factors(case, g, LAM, BETA, (0,))
    factors += groundstate_sq_factors(case, g_ref, LAM, BETA, (1,))
    factors += cauchy_kernel_factors(LAM, BETA, (0,), (1,), power=2)
    prod = factor_value(case, factors, Z)
    assert rel_err(val * val, prod) < 1e-10


def test_dual_cauchy_kernel_square_route():
    case = make("III")
    g = couplings_for("III")
    g_scaled = tuple(v / LAM for v in g)
    Z = (0.41 + 0.05j, 0.92 - 0.07j)
    tr = BranchTracker(Z)
    val = kernel_dual_cauchy_value(case, g, LAM, BETA, Z, (0,), (1,), tr)
    factors = groundstate_sq_factors(case, g, LAM, BETA, (0,))
    factors += groundstate_sq_factors(case, g_scaled, 1 / LAM, LAM * BETA, (1,))
    factors += dual_cauchy_kernel_factors((0,), (1,), power=2)
    prod = factor_value(case, factors, Z)
    assert rel_err(val * val, prod) < 1e-10


def test_deformed_kernel_square_route():
    case = make("II")
    g = couplings_for("II")
    g_ref = tuple((LAM + 1) / 2 - v for v in g)
    Z = (0.38 + 0.04j, 0.71 - 0.05j, 0.55 + 0.06j, 1.02 - 0.03j)
    tr = BranchTracker(Z)
    val = kernel_deformed_value(case, g, LAM, BETA, Z, (0,), (1,), (2,), (3,), tr)
    factors = deformed_groundstate_sq_factors(case, g, LAM, BETA, (0,), (1,))
    factors += deformed_groundstate_sq_factors(case, g_ref, LAM, BETA, (2,), (3,))
    factors += cauchy_kernel_factors(LAM, BETA, (0,), (2,), power=2)
    factors += cauchy_kernel_factors(LAM, BETA, (1,), (3,), alpha=LAM * BETA,
                                     offset=-0.5j * BETA, power=2)
    factors += dual_cauchy_kernel_factors((0,), (3,), power=2)
    factors += dual_cauchy_kernel_factors((1,), (2,), power=2)
    prod = factor_value(case, factors, Z)
    assert rel_err(val * val, prod) < 1e-9


# --------------------------------------------------------------------------
# square-root operator and gauge calibration
# --------------------------------------------------------------------------


def test_sqrt_operator_conjugates_to_plain_form():
    case = make("II")
    g = couplings_for("II")
    tags = (MassTag.PLUS_ONE, MassTag.MINUS_ONE)
    base = (0.43 + 0.04j, 0.86 - 0.05j)
    tracker = BranchTracker(base)
    specs = phi_factor_specs(case, g, LAM, BETA, tags)
    conj = conjugation_terms(case, g, LAM, BETA, tags, specs, tracker)
    conj.calibrate()
    masses = tuple(t.value_for(LAM) for t in tags)

    def fn(Z):
        return cmath.exp(0.3j * Z[0] - 0.42j * Z[1])

    for P in (base, (0.45 + 0.02j, 0.83 - 0.03j)):
        phi_P = eigenfunction_value(specs, tracker, P)
        lhs = sum(weighted_terms(
            conj.weights(P), lambda Q: eigenfunction_value(specs, tracker, Q) * fn(Q),
        ), start=0j) / phi_P
        terms = operator_terms(case, g, LAM, BETA, masses, tags, P, fn)
        scale = max(max(abs(t) for t in terms), abs(lhs))
        assert abs(lhs - sum(terms)) / scale < 1e-9


def test_sheet_fault_breaks_conjugation():
    case = make("II")
    g = couplings_for("II")
    tags = (MassTag.PLUS_ONE,)
    base = (0.43 + 0.04j,)
    tracker = BranchTracker(base)
    specs = phi_factor_specs(case, g, LAM, BETA, tags)
    conj = conjugation_terms(case, g, LAM, BETA, tags, specs, tracker)
    conj.calibrate()
    masses = (1.0,)
    fn = lambda Z: cmath.exp(0.3j * Z[0])
    P = (0.47 + 0.02j,)
    tracker.set_fault(("coeff", 0, 1), lambda target: abs(target[0] - base[0]) > 1e-9)
    phi_P = eigenfunction_value(specs, tracker, P)
    lhs = sum(weighted_terms(
        conj.weights(P), lambda Q: eigenfunction_value(specs, tracker, Q) * fn(Q),
    ), start=0j) / phi_P
    terms = operator_terms(case, g, LAM, BETA, masses, tags, P, fn)
    scale = max(max(abs(t) for t in terms), abs(lhs))
    assert abs(lhs - sum(terms)) / scale > 1e-3


def _one_coordinate_conjugation():
    case = make("II")
    g = couplings_for("II")
    tags = (MassTag.PLUS_ONE,)
    tracker = BranchTracker((0.43 + 0.04j,))
    specs = phi_factor_specs(case, g, LAM, BETA, tags)
    return conjugation_terms(case, g, LAM, BETA, tags, specs, tracker)


def test_gauge_calibration_needs_one_sign_per_factor():
    # the gauge of the factor ("coeff", 0, 1) enters the terms of both
    # directions, so a reference whose sign follows the direction cannot
    # be matched
    conj = _one_coordinate_conjugation()
    flipped = ConjugatedTerms(conj.tracker, conj.op, conj.F,
                              lambda P, b, j, s: s * b.coeff(P, j, s))
    with pytest.raises(BranchError, match="need opposite gauges"):
        flipped.calibrate()


def test_coherence_fails_at_a_faulted_point():
    conj = _one_coordinate_conjugation()
    conj.calibrate()
    base = conj.tracker.base
    P = (0.47 + 0.02j,)
    assert conj.coherent(P)
    conj.tracker.set_fault(("coeff", 0, 1), lambda target: abs(target[0] - base[0]) > 1e-9)
    assert not conj.coherent(P)


def test_sheet_fault_breaks_a_kernel_identity():
    # kernel counterpart of the conjugation's sheet-fault control: one
    # plain and one reflected coordinate joined by the gamma cross kernel
    case = make("II")
    g = couplings_for("II")
    tags = (MassTag.PLUS_ONE, MassTag.MINUS_ONE)
    masses = tuple(t.value_for(LAM) for t in tags)
    _, op = _KERNELS["kernel-cauchy"].build(case, g, LAM, BETA, (0,), (1,))
    base = (0.43 + 0.04j, 0.86 - 0.05j)
    tracker = BranchTracker(base)
    terms = ConjugatedTerms(
        tracker, op,
        lambda P: kernel_cauchy_value(case, g, LAM, BETA, P, (0,), (1,), tracker),
        lambda P, b, j, s: coeff_V_shift(case, g, LAM, BETA, masses, tags, P, b.slots[j],
                                         b.orient * s))
    terms.calibrate()
    const = source_constant(case, g, LAM, BETA, masses)

    def residual(P):
        *shifts, (v0, _) = terms.weights(P)
        parts = weighted_terms(shifts, terms.F) + [(v0 - const) * terms.F(P)]
        return abs(sum(parts)) / max(abs(p) for p in parts)

    P = (0.47 + 0.02j, 0.83 - 0.03j)
    assert residual(P) < 1e-9
    tracker.set_fault(("map-x", 0, 1), lambda target: abs(target[0] - base[0]) > 1e-9)
    assert residual(P) > 1e-3


# --------------------------------------------------------------------------
# deformed power sums and hyperplane quasi-invariance
# --------------------------------------------------------------------------


def test_power_sum_weight_formula():
    import math

    r, lam, beta = 1.0, 1.4, 0.3
    for n in (1, 2, 3):
        w = power_sum_weight(r, lam, beta, n)
        assert w == pytest.approx(
            -math.sinh(r * n * beta) / math.sinh(r * n * lam * beta))
        assert w < 0


def test_power_sums_are_quasi_invariant():
    r, lam, beta = 1.0, 1.4, 0.3
    x = (0.4 + 0.05j, 0.9 - 0.02j)
    xt = (0.7 - 0.08j,)
    t = 0.55 + 0.03j
    for n in (1, 2, 3):
        p_fn = lambda a, b, n=n: deformed_power_sum(r, lam, beta, n, a, b)
        defect = quasi_invariance_defect(r, lam, beta, p_fn, t, 1, 0, x, xt)
        scale = abs(deformed_power_sum(r, lam, beta, n, x, xt))
        assert abs(defect) / scale < 1e-13


def test_wrong_weight_breaks_quasi_invariance():
    r, lam, beta = 1.0, 1.4, 0.3
    x = (0.4 + 0.05j,)
    xt = (0.7 - 0.08j,)
    t = 0.55 + 0.03j
    good = power_sum_weight(r, lam, beta, 1)
    p_fn = lambda a, b: deformed_power_sum(r, lam, beta, 1, a, b, weight=-good)
    defect = quasi_invariance_defect(r, lam, beta, p_fn, t, 0, 0, x, xt)
    scale = abs(deformed_power_sum(r, lam, beta, 1, x, xt))
    assert abs(defect) / scale > 1e-3
