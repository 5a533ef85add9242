"""Building-block function: lattice data, oracles, and transformation laws."""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from vandiejen.sfun import (
    POLE_FLOOR,
    PRODUCT_TERMS,
    TARGET_REL_ERR,
    CaseKind,
    CaseParams,
    DomainError,
    PoleProximityError,
    duplication_residual,
    lattice_distance,
    quasi_factor,
    s_eval,
    s_eval_mp,
    theta_eval,
    theta_product,
)

R, A = 1.1, 1.8


def make(label):
    return CaseParams(CaseKind.from_label(label), r=R, a=A)


CASE_LABELS = ("I", "II", "III", "IV")

POINTS = [0.37 + 0.11j, 0.9 - 0.2j, 1.4 + 0.05j, 0.22, 2.1 - 0.3j, 0.65 + 0.3j]


def test_case_kind_labels():
    for label in CASE_LABELS:
        assert CaseKind.from_label(label).label == label
    with pytest.raises(DomainError):
        CaseKind.from_label("V")


@pytest.mark.parametrize("label, scales", [("III", {"a": math.inf}), ("II", {"r": math.inf}),
                                           ("IV", {"r": 1.0, "a": math.inf}),
                                           ("IV", {"r": math.inf, "a": 2.0})])
def test_case_scales_that_are_not_finite_are_rejected(label, scales):
    with pytest.raises(DomainError, match="needs a finite"):
        CaseParams(CaseKind.from_label(label), **scales)


def test_lattice_data():
    one = make("I")
    assert one.rho == 0
    assert one.period_sum == 0
    assert one.zero_lattice_basis == ()

    two = make("II")
    assert two.rho == 1
    assert two.omega[1] == pytest.approx(math.pi / R)
    assert two.period_sum == pytest.approx(math.pi / R)

    three = make("III")
    assert three.rho == 1
    assert three.omega[1] == pytest.approx(1j * A)
    assert three.period_sum == pytest.approx(1j * A)

    four = make("IV")
    assert four.rho == 3
    assert four.eps == (1, -1, -1, -1)
    assert four.xi == (0, 0, -1, 1)
    assert four.omega[3] == pytest.approx(-four.omega[1] - four.omega[2])
    # the three nontrivial half-period translates sum to zero
    assert four.period_sum == pytest.approx(0.0)
    assert four.q == pytest.approx(math.exp(-R * A))


@pytest.mark.parametrize("label", CASE_LABELS)
def test_s_matches_oracle(label):
    case = make(label)
    for x in POINTS:
        ours = complex(s_eval(case, x))
        ref = oracles.s_oracle(label, x, r=R, a=A)
        assert ours == pytest.approx(ref, rel=1e-12)


def test_s_elliptic_frozen_value():
    case = CaseParams(CaseKind.ELLIPTIC, r=1.0, a=2.0)
    got = complex(s_eval(case, 0.37 + 0.11j))
    ref = complex(oracles.S_ELLIPTIC_R1_A2_X037_011)
    assert got == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("label", CASE_LABELS)
def test_s_oddness(label):
    case = make(label)
    for x in POINTS:
        assert complex(s_eval(case, -x)) == pytest.approx(-complex(s_eval(case, x)), rel=1e-12)


@pytest.mark.parametrize("label", ("II", "III", "IV"))
def test_quasi_periodicity(label):
    case = make(label)
    for x in POINTS[:4]:
        for nu in range(1, case.rho + 1):
            lhs = complex(s_eval(case, x + case.omega[nu]))
            rhs = quasi_factor(case, x, nu) * complex(s_eval(case, x))
            assert lhs == pytest.approx(rhs, rel=1e-11)


def test_quasi_factor_plain_sign_flip():
    # without the exponential (xi = 0) the factor is just the sign eps_nu
    case = make("II")
    assert quasi_factor(case, 0.4 + 0.2j, 1) == pytest.approx(-1.0)


@pytest.mark.parametrize("label", CASE_LABELS)
def test_duplication(label):
    case = make(label)
    for x in (0.31 + 0.07j, 0.52 - 0.12j, 1.02 + 0.2j):
        assert duplication_residual(case, x) < 1e-11


def test_duplication_rejects_lattice_point():
    case = make("II")
    with pytest.raises(PoleProximityError):
        duplication_residual(case, math.pi / R + 1e-9)


def test_theta_sum_vs_product():
    q = math.exp(-R * A)
    for z in (0.3 + 0.1j, 1.1 - 0.4j, 2.4 + 0.2j):
        sv = complex(theta_eval(z, q=q))
        pv = complex(theta_product(z, q=q))
        assert sv == pytest.approx(pv, rel=1e-12)
        assert sv == pytest.approx(oracles.theta_oracle(z, q), rel=1e-12)


def test_theta_odd_and_lattice_zero():
    q = 0.2
    z = 0.7 + 0.3j
    assert complex(theta_eval(-z, q=q)) == pytest.approx(-complex(theta_eval(z, q=q)), rel=1e-12)
    assert abs(complex(theta_eval(0.0, q=q))) < 1e-14
    assert abs(complex(theta_eval(math.pi, q=q))) < 1e-12


def test_lattice_distance_values():
    two = make("II")
    assert lattice_distance(two, math.pi / R) == pytest.approx(0.0, abs=1e-12)
    assert lattice_distance(two, math.pi / R + 0.3) == pytest.approx(0.3, rel=1e-9)
    four = make("IV")
    # one step along each generator lands back on the lattice
    assert lattice_distance(four, math.pi / R + 1j * A) == pytest.approx(0.0, abs=1e-12)
    assert lattice_distance(four, 0.25) == pytest.approx(0.25, rel=1e-9)


def _lattice_distance_by_generator_count(case, x):
    """lattice_distance as written before its one loop over the offsets:
    one branch each for no, one and two generators."""
    xx = np.atleast_1d(np.asarray(x, dtype=complex))
    basis = case.zero_lattice_basis
    if not basis:
        best = np.abs(xx)
    elif len(basis) == 1:
        (w,) = basis
        coord = xx.real / w.real if w.imag == 0 else xx.imag / w.imag
        best = np.full(xx.shape, np.inf)
        base = np.round(coord)
        for dn in (-1, 0, 1):
            best = np.minimum(best, np.abs(xx - (base + dn) * w))
    else:
        w1, w2 = basis
        n1 = np.round(xx.real / w1.real)
        n2 = np.round(xx.imag / w2.imag)
        best = np.full(xx.shape, np.inf)
        for d1 in (-1, 0, 1):
            for d2 in (-1, 0, 1):
                best = np.minimum(best, np.abs(xx - (n1 + d1) * w1 - (n2 + d2) * w2))
    return best


@pytest.mark.parametrize("label", CASE_LABELS)
def test_lattice_distance_is_the_branch_per_generator_count_bit_for_bit(label):
    case = make(label)
    rng = np.random.default_rng(41)
    n_pts = 20_000
    # half spread over several periods, half within 1e-3 of a lattice point
    wide = rng.uniform(-12, 12, n_pts // 2) + 1j * rng.uniform(-12, 12, n_pts // 2)
    ks = rng.integers(-5, 6, size=(n_pts // 2, 2))
    near = sum((k * w for k, w in zip(ks.T, case.zero_lattice_basis)), start=0j)
    near = near + rng.uniform(-1e-3, 1e-3, n_pts // 2) + 1j * rng.uniform(-1e-3, 1e-3, n_pts // 2)
    points = np.concatenate([wide, near])
    want = _lattice_distance_by_generator_count(case, points).view(np.int64)
    assert np.array_equal(lattice_distance(case, points).view(np.int64), want)
    scalar = np.array([lattice_distance(case, complex(z)) for z in points])
    assert np.array_equal(scalar.view(np.int64), want)
    assert case.zero_lattice_basis == case.omega[1:3]


def _nearest_by_search(case, x):
    """The distance from ``x`` to every lattice point with coordinates
    within 16 of the origin, at least."""
    reach = [range(-math.ceil(16 / abs(w)), math.ceil(16 / abs(w)) + 1)
             for w in case.zero_lattice_basis]
    return min(abs(x - sum((n * w for n, w in zip(ns, case.zero_lattice_basis)), start=0j))
               for ns in product(*reach))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(label=st.sampled_from(CASE_LABELS), re=st.floats(-12, 12), im=st.floats(-12, 12),
       halves=st.tuples(st.integers(-4, 3), st.integers(-4, 3)))
def test_lattice_distance_is_the_distance_to_the_nearest_lattice_point(label, re, im, halves):
    # rounding each coordinate against a search over the lattice, at a
    # point and at a midpoint of the lattice, where two or four lattice
    # points are nearest and rounding may pick another one
    case = make(label)
    mid = sum(((k + 0.5) * w for k, w in zip(halves, case.zero_lattice_basis)), start=0j)
    for x in (complex(re, im), mid):
        assert lattice_distance(case, x) == pytest.approx(_nearest_by_search(case, x),
                                                          rel=1e-14, abs=1e-15)


def test_s_eval_mp_agrees_with_float_path():
    for label in CASE_LABELS:
        case = make(label)
        x = 0.41 + 0.13j
        lo = complex(s_eval(case, x))
        hi = complex(s_eval_mp(case, x, 30))
        assert lo == pytest.approx(hi, rel=1e-12)


def test_s_eval_vectorized():
    case = make("II")
    xs = np.array(POINTS)
    got = s_eval(case, xs)
    assert got.shape == xs.shape
    for x, v in zip(POINTS, got):
        assert complex(v) == pytest.approx(complex(s_eval(case, x)), rel=1e-14)


def test_policy_defaults_are_sane():
    assert PRODUCT_TERMS >= 20
    assert 0 < TARGET_REL_ERR < 1e-9
    assert POLE_FLOOR > 0
