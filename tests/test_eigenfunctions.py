"""Eigenfunctions: branch tracking, factor lists, ground states, kernels."""

import cmath
import dataclasses
import itertools

import numpy as np
import pytest

import oracles
from references import (cauchy_kernel_factors, deformed_groundstate_value,
                        deformed_kernel_cross_factors, dual_cauchy_kernel_factors,
                        groundstate_psi, pair_factor, psi_single, psi_single_sq)
from vandiejen.eigenfunctions import (
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
    pair_kind,
    power_sum_weight,
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


def _squared(factors):
    return [dataclasses.replace(f, power=2) for f in factors]


def _rel_errs(a, b):
    return np.max(np.abs(np.asarray(a) - b) / np.maximum(np.abs(a), np.abs(b)))


@pytest.mark.parametrize("label", ("I", "II", "III", "IV"))
def test_generic_blocks_square_to_the_hand_written_ones(label):
    # per ordered mass pair, on one point and on the coordinate arrays of a
    # path: each single block of eigenfunction_factors squares to
    # psi_single_sq bit for bit, and the pair blocks times the direct pair
    # factors square to the reference's four sign-combination factors,
    # a root squared, a direct value squared and an inverse root inverted
    case = make(label)
    g = couplings_for(label)
    Z = (0.41 + 0.05j, 0.78 - 0.06j)
    path = tuple(np.array([z + t * (0.03 - 0.02j) for t in np.linspace(0.0, 1.0, 5)])
                 for z in Z)
    for tag_j, tag_k in itertools.product(MassTag, repeat=2):
        tags = (tag_j, tag_k)
        sq, direct = eigenfunction_factors(case, g, LAM, BETA, tags)
        pair = [f for f in sq if len(f.coeffs) == 2] + _squared(direct)
        mode, factor = pair_factor(case, LAM, BETA, tag_j, tag_k)
        for at in (Z, path):
            square = continued_root(case, pair, Z, _Radicand(at))
            ref = 1.0 + 0j
            for e1, e2 in itertools.product((1, -1), repeat=2):
                value = factor(e1 * at[0] + e2 * at[1])
                ref = ref * {"sqrt": value, "direct": value**2, "invsqrt": 1.0 / value}[mode]
            assert _rel_errs(square, ref) < 1e-12, (tag_j, tag_k)
            for j, tag in enumerate(tags):
                single = [f for f in sq if f.coeffs[0][0] == j and len(f.coeffs) == 1]
                assert _bits(continued_root(case, single, Z, _Radicand(at))) == _bits(
                    psi_single_sq(case, g, LAM, BETA, at[j], tag))


@pytest.mark.parametrize("n", (1, 2, 3))
def test_unit_masses_give_the_ground_state_list(n):
    case = make("II")
    g = couplings_for("II")
    sq, direct = eigenfunction_factors(case, g, LAM, BETA, (MassTag.PLUS_ONE,) * n)
    assert (sq, direct) == (groundstate_sq_factors(case, g, LAM, BETA, range(n)), [])


def test_kernel_assignments_give_the_hand_written_cross_factors():
    # the direct lists of the kernel-cauchy and kernel-dual assignments, two
    # plain coordinates before three of the other species
    case = make("II")
    g = couplings_for("II")
    x, y = (0, 1), (2, 3, 4)
    for other, cross in ((MassTag.MINUS_ONE, cauchy_kernel_factors(LAM, BETA, x, y)),
                         (MassTag.PLUS_INV, dual_cauchy_kernel_factors(x, y))):
        tags = (MassTag.PLUS_ONE,) * len(x) + (other,) * len(y)
        assert eigenfunction_factors(case, g, LAM, BETA, tags)[1] == cross


# --------------------------------------------------------------------------
# ground states: two independent routes
# --------------------------------------------------------------------------

X2 = (0.41 + 0.05j, 0.78 - 0.06j)


@pytest.mark.parametrize("label", ("II", "III"))
def test_groundstate_square_equals_factor_product(label):
    case = make(label)
    g = couplings_for(label)
    tr = BranchTracker(X2)
    factors = groundstate_sq_factors(case, g, LAM, BETA, (0, 1))
    for Z in (X2, (0.44 + 0.01j, 0.81 - 0.02j)):
        psi = continued_root(case, factors, Z, tr)
        prod = factor_value(case, factors, Z)
        assert rel_err(psi * psi, prod) < 1e-10


def test_deformed_groundstate_square_equals_factor_product():
    case = make("II")
    g = couplings_for("II")
    Z = (0.41 + 0.05j, 0.92 - 0.07j)
    tr = BranchTracker(Z)
    factors = deformed_groundstate_sq_factors(case, g, LAM, BETA, (0,), (1,))
    val = continued_root(case, factors, Z, tr)
    prod = factor_value(case, factors, Z)
    assert rel_err(val * val, prod) < 1e-10


@pytest.mark.parametrize("label", ("I", "II", "III"))
def test_continued_root_matches_the_hand_written_ground_states(label):
    # the root of the squared lists, block by block, against the ground
    # states written out as their unit-mass displays, at the square-route
    # points
    case = make(label)
    g = couplings_for(label)
    plain = groundstate_sq_factors(case, g, LAM, BETA, (0, 1))
    tr, ref = BranchTracker(X2), BranchTracker(X2)
    for Z in (X2, (0.44 + 0.01j, 0.81 - 0.02j)):
        assert rel_err(continued_root(case, plain, Z, tr),
                       groundstate_psi(case, g, LAM, BETA, Z, (0, 1), ref)) < 1e-12
    deformed = deformed_groundstate_sq_factors(case, g, LAM, BETA, (0,), (1,))
    Z = (0.41 + 0.05j, 0.92 - 0.07j)
    tr, ref = BranchTracker(Z), BranchTracker(Z)
    for P in (Z, (0.44 + 0.01j, 0.95 - 0.04j)):
        assert rel_err(continued_root(case, deformed, P, tr),
                       deformed_groundstate_value(case, g, LAM, BETA, P, (0,), (1,), ref)) < 1e-12


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


def _kernel_value(identity, case, g, Z):
    """The kernel as the direct kernel rows take it: the eigenfunction of
    the identity's mass assignment, one coordinate per species."""
    tags = tuple(sp.tag for sp in _KERNELS[identity].species)
    sq, cross = eigenfunction_factors(case, g, LAM, BETA, tags)
    return continued_root(case, sq, Z, BranchTracker(Z)) * factor_value(case, cross, Z)


def test_cauchy_kernel_square_route():
    case = make("II")
    g = couplings_for("II")
    g_ref = tuple((LAM + 1) / 2 - v for v in g)
    Z = (0.41 + 0.05j, 0.92 - 0.07j)
    val = _kernel_value("kernel-cauchy", case, g, Z)
    factors = groundstate_sq_factors(case, g, LAM, BETA, (0,))
    factors += groundstate_sq_factors(case, g_ref, LAM, BETA, (1,))
    factors += _squared(cauchy_kernel_factors(LAM, BETA, (0,), (1,)))
    prod = factor_value(case, factors, Z)
    assert rel_err(val * val, prod) < 1e-10


def test_dual_cauchy_kernel_square_route():
    case = make("III")
    g = couplings_for("III")
    g_scaled = tuple(v / LAM for v in g)
    Z = (0.41 + 0.05j, 0.92 - 0.07j)
    val = _kernel_value("kernel-dual", case, g, Z)
    factors = groundstate_sq_factors(case, g, LAM, BETA, (0,))
    factors += groundstate_sq_factors(case, g_scaled, 1 / LAM, LAM * BETA, (1,))
    factors += _squared(dual_cauchy_kernel_factors((0,), (1,)))
    prod = factor_value(case, factors, Z)
    assert rel_err(val * val, prod) < 1e-10


def test_deformed_kernel_square_route():
    case = make("II")
    g = couplings_for("II")
    g_ref = tuple((LAM + 1) / 2 - v for v in g)
    Z = (0.38 + 0.04j, 0.71 - 0.05j, 0.55 + 0.06j, 1.02 - 0.03j)
    val = _kernel_value("kernel-deformed", case, g, Z)
    factors = deformed_groundstate_sq_factors(case, g, LAM, BETA, (0,), (1,))
    factors += deformed_groundstate_sq_factors(case, g_ref, LAM, BETA, (2,), (3,))
    factors += _squared(deformed_kernel_cross_factors(LAM, BETA, (0,), (1,), (2,), (3,)))
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
    conj = conjugation_terms(case, g, LAM, BETA, tags,
                             eigenfunction_factors(case, g, LAM, BETA, tags), tracker)
    conj.calibrate()
    masses = tuple(t.value_for(LAM) for t in tags)

    def fn(Z):
        return cmath.exp(0.3j * Z[0] - 0.42j * Z[1])

    for P in (base, (0.45 + 0.02j, 0.83 - 0.03j)):
        lhs = sum(weighted_terms(conj.weights(P), lambda Q: conj.F(Q) * fn(Q)),
                  start=0j) / conj.F(P)
        terms = operator_terms(case, g, LAM, BETA, masses, tags, P, fn)
        scale = max(max(abs(t) for t in terms), abs(lhs))
        assert abs(lhs - sum(terms)) / scale < 1e-9


def test_sheet_fault_breaks_conjugation():
    case = make("II")
    g = couplings_for("II")
    tags = (MassTag.PLUS_ONE,)
    base = (0.43 + 0.04j,)
    tracker = BranchTracker(base)
    conj = conjugation_terms(case, g, LAM, BETA, tags,
                             eigenfunction_factors(case, g, LAM, BETA, tags), tracker)
    conj.calibrate()
    masses = (1.0,)
    fn = lambda Z: cmath.exp(0.3j * Z[0])
    P = (0.47 + 0.02j,)
    tracker.set_fault(("coeff", 0, 1), lambda target: abs(target[0] - base[0]) > 1e-9)
    lhs = sum(weighted_terms(conj.weights(P), lambda Q: conj.F(Q) * fn(Q)),
              start=0j) / conj.F(P)
    terms = operator_terms(case, g, LAM, BETA, masses, tags, P, fn)
    scale = max(max(abs(t) for t in terms), abs(lhs))
    assert abs(lhs - sum(terms)) / scale > 1e-3


def _one_coordinate_conjugation():
    case = make("II")
    g = couplings_for("II")
    tags = (MassTag.PLUS_ONE,)
    tracker = BranchTracker((0.43 + 0.04j,))
    return conjugation_terms(case, g, LAM, BETA, tags,
                             eigenfunction_factors(case, g, LAM, BETA, tags), tracker)


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
    op = _KERNELS["kernel-cauchy"].build(case, g, LAM, BETA, (0,), (1,))
    sq, cross = eigenfunction_factors(case, g, LAM, BETA, tags)
    base = (0.43 + 0.04j, 0.86 - 0.05j)
    tracker = BranchTracker(base)
    terms = ConjugatedTerms(
        tracker, op,
        lambda P: continued_root(case, sq, P, tracker) * factor_value(case, cross, P),
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
