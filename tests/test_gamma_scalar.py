"""The scalar (cmath) path of gamma_G on the rational and trigonometric
cases against the array (numpy) path, the mpmath oracles and the mpmath
evaluator."""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from vandiejen import gamma as gamma_mod
from vandiejen.gamma import gamma_G, gamma_G1
from vandiejen.sfun import (DEFAULT_POLICY, CaseKind, CaseParams, ConvergenceError, DomainError,
                            TruncationPolicy)

R = 1.1
CASES = {label: CaseParams(CaseKind.from_label(label), r=R, a=1.8) for label in ("I", "II")}

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

re_part = st.floats(-3.0, 3.0)
im_part = st.floats(-2.0, 2.0)
alpha_re = st.floats(0.3, 1.5)
alpha_im = st.floats(-0.5, 0.5)
half_plane = st.sampled_from((1.0, -1.0))


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (ConvergenceError, DomainError) as err:
        return (type(err).__name__, str(err))


def _array(case, alpha, z, policy=gamma_mod.DEFAULT_POLICY):
    return complex(gamma_G(case, alpha, np.array([z]), policy)[0])


def _close(got, ref, rel=1e-13):
    if not (cmath.isfinite(got) and cmath.isfinite(ref)):
        # a pole of Euler's gamma: both paths leave the finite numbers
        return not cmath.isfinite(got) and not cmath.isfinite(ref)
    return abs(got - ref) <= rel * abs(ref)


@PROPERTY
@given(label=st.sampled_from(sorted(CASES)), x=re_part, y=im_part,
       a=alpha_re, b=alpha_im, sign=half_plane)
def test_scalar_gamma_equals_array_path(label, x, y, a, b, sign):
    case = CASES[label]
    alpha = sign * complex(a, b)
    z = complex(x, y)
    scalar = gamma_G(case, alpha, z)
    assert type(scalar) is complex
    assert _close(scalar, _array(case, alpha, z))


@pytest.mark.parametrize("alpha", (0.8, 1.15, 0.9 + 0.3j, -0.8, -1.15 - 0.2j))
def test_rational_scalar_matches_euler_gamma(alpha):
    case = CASES["I"]
    for x in (0.3 + 0.1j, 0.7 - 0.08j, -1.1 + 0.5j, 0.45):
        # for Re(alpha) < 0 the continuation is G_1(-x; -alpha)
        ref = (oracles.g1_rational_oracle(alpha, x) if alpha.real > 0
               else oracles.g1_rational_oracle(-alpha, -x))
        assert gamma_G(case, alpha, x) == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("alpha", (0.8, 1.15, 0.9 + 0.3j, -0.8, -1.15 - 0.2j))
def test_trigonometric_scalar_matches_product_oracle(alpha):
    case = CASES["II"]
    for x in (0.3 + 0.1j, 0.7 - 0.08j, -1.1 + 0.5j, 0.45):
        ref = (oracles.g1_trigonometric_oracle(alpha, x, r=R) if alpha.real > 0
               else oracles.g1_trigonometric_oracle(-alpha, -x, r=R))
        assert gamma_G(case, alpha, x) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("label", sorted(CASES))
def test_scalar_argument_types(label):
    case = CASES[label]
    ref = gamma_G(case, 0.8, 0.5 + 0j)
    for x in (0.5, np.float64(0.5), np.float32(0.5), np.complex128(0.5)):
        assert gamma_G(case, 0.8, x) == ref
    assert gamma_G(case, 0.8, 2) == gamma_G(case, 0.8, np.int64(2)) == gamma_G(case, 0.8, 2.0)
    # a zero-dimensional array is not a scalar type but still returns one
    assert gamma_G(case, 0.8, np.asarray(0.5)) == _array(case, 0.8, 0.5)


@pytest.mark.parametrize("label", sorted(CASES))
def test_precision_policy_still_routes_scalars_to_mpmath(label, monkeypatch):
    case = CASES[label]
    policy = TruncationPolicy(precision_dps=30)
    z = 0.37 + 0.11j
    mp_value = complex(gamma_G1(case, 0.8, np.array([z]), policy)[0])

    def float_path(*args):
        raise AssertionError("float path used under precision_dps")

    monkeypatch.setattr(gamma_mod, "_g1_trigonometric_scalar", float_path)
    monkeypatch.setattr(gamma_mod.scipy_special, "gamma", float_path)
    assert gamma_G(case, 0.8, z, policy) == mp_value
    assert gamma_G(case, -0.8, -z, policy) == mp_value


@pytest.mark.parametrize("alpha", (2e-6, -2e-6))
def test_term_cap_error_is_the_same_on_both_paths(alpha):
    case = CASES["II"]
    z = 0.3 + 0.4j
    scalar = _outcome(gamma_G, case, alpha, z)
    assert scalar[0] == "ConvergenceError"
    assert "product needs" in scalar[1]
    assert scalar == _outcome(_array, case, alpha, z)


def test_cmath_overflow_falls_back_to_the_array_path():
    case = CASES["II"]
    deep = 0.3 - 400j  # exp(2 i r x) overflows float64
    with pytest.raises(OverflowError):
        cmath.exp(2j * R * deep)
    with np.errstate(all="ignore"):
        assert str(gamma_G(case, 0.8, deep)) == str(_array(case, 0.8, deep))


def test_trigonometric_array_path_shares_the_factor_table():
    # the array path runs a batch through the same u_n table, so each
    # point of a batch and the scalar agree to rounding
    table = gamma_mod._trig_table(R, 0.8, 5)
    assert table == tuple(cmath.exp(-R * 0.8 * (2 * n - 1)) for n in range(1, 6))
    case = CASES["II"]
    rng = np.random.default_rng(7)
    pts = rng.uniform(-2, 2, 32) + 1j * rng.uniform(-1, 1, 32)
    for z, b in zip(pts, gamma_G(case, 0.8, pts)):
        # a batch takes the term count of its largest |Im x|
        assert gamma_G(case, 0.8, complex(z)) == pytest.approx(b, rel=1e-13)


def test_trigonometric_array_path_reads_a_cached_read_only_table():
    # the array path takes the u_n as one cached array, and builds its
    # factors 1 - u_n e in a single (terms, points) temporary: the same
    # bits as the two-temporary product
    u = gamma_mod._trig_array(R, 0.8, 7)
    assert u is gamma_mod._trig_array(R, 0.8, 7)
    assert not u.flags.writeable
    assert u.tolist() == list(gamma_mod._trig_table(R, 0.8, 7))
    rng = np.random.default_rng(11)
    x = rng.uniform(-2, 2, 48) + 1j * rng.uniform(-0.4, 0.4, 48)
    count = gamma_mod._geometric_terms(R * 0.8, 0.0, 2 * R * np.max(np.abs(x.imag)),
                                       DEFAULT_POLICY.target_rel_err)
    table = np.array(gamma_mod._trig_table(R, 0.8, count))
    e = np.exp(2j * R * x)
    expected = np.exp(-R * x ** 2 / (2 * 0.8)) / np.prod(1.0 - table[:, None] * e[None, :], axis=0)
    got = gamma_G(CASES["II"], 0.8, x)
    assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()
