"""The hyperbolic and elliptic gamma primitives as scalars and as arrays.

A hyperbolic array evaluates its points in groups, one per cached
trapezoidal table (step and node count), as numpy rows; a scalar is a group
of one row.  Each row is summed on its own, so a scalar and the same point
in any array agree bit for bit, and both agree with the mpmath evaluator and
the oracles.

An elliptic point walks into the annulus of the log series with exact
theta steps in the nome nearer 1 (one step per ``min(a, Re alpha)`` of
``Im w``), then sums the series.  A scalar and a one-point array run the
same ``cmath`` loop and are equal bit for bit; several points take the
series length of the call and agree with their scalars to rounding.  The
tests put points on both sides of every step-count change and compare
them with the mpmath route.  That route runs the same walk and series in
mpmath, so the checks independent of the package are the oracles here and
the qp references and functional equations of test_mpmath_route.

A tracked block evaluates all its factors on a path in one (factors,
points) call.  On cases I-III each row of such a call has the bits of its
own call: the rational and hyperbolic points are evaluated one by one, and
a trigonometric point takes the factor count of its own ``|Im x|``.  Case
IV is left out: its series length and theta factor count are the call's,
and no tracker runs on it."""

import math
from functools import lru_cache

import mpmath
import numpy as np
import pytest

import oracles
from vandiejen import gamma as gamma_mod
from vandiejen import verify
from vandiejen.gamma import functional_eq_constant, gamma_G, gamma_G1
from vandiejen.sfun import _LOG_TARGET, CaseKind, CaseParams, ConvergenceError, s_eval

R, A = 1.1, 1.8
CASES = {label: CaseParams(CaseKind.from_label(label), r=R, a=A) for label in ("III", "IV")}
ALPHAS = (0.8, 0.45, 0.9 + 0.3j, -0.8, -1.15 - 0.2j)
# |Re x| large enough for a finer trapezoidal step than the points near 0
WIDE = (4.5 + 0.9j, -4.2 + 0.5j, 3.6 + 1.2j, 2.9 - 0.3j)
# far from the origin, where sin(2 w y) oscillates fast
FAR = (15 + 0.9j, 30 + 0.5j)


def _steps(alpha, z, a=A):
    """The cosh step count of the primitive at ``z``, as the evaluator takes it."""
    if alpha.real < 0:
        alpha, z = -alpha, -z
    return -round((z.imag - a / 2) / alpha.real)


def _grid(alpha):
    """Three points for each cosh step count k = -3..3."""
    step = abs(alpha.real)
    sign = 1 if alpha.real > 0 else -1
    return [sign * complex(x, A / 2 - k * step + d)
            for k in range(-3, 4)
            for x, d in ((-0.7, 0.1 * step), (0.4, -0.2 * step), (1.3, 0.3 * step))]


def _bits(values):
    return np.asarray(values, dtype=np.complex128).view(np.int64).tolist()


def _scalars(case, alpha, pts):
    return [gamma_G(case, alpha, complex(z)) for z in pts]


@lru_cache(maxsize=None)
def _mp_value(case, alpha, z):
    with mpmath.workdps(30):
        return complex(gamma_G(case, alpha, mpmath.mpc(z)))


def _mp_values(case, alpha, pts):
    """The mpmath route at 30 digits, rounded to complex128; each point is
    evaluated once per session."""
    return np.array([_mp_value(case, alpha, complex(z)) for z in pts])


def _blocks_window():
    """16 points of the blocks workload's window, Im x of both signs."""
    rng = np.random.default_rng(19)
    sign = np.where(np.arange(16) % 2 == 0, 1.0, -1.0)
    return list(rng.uniform(0.1, 1.1, 16) + 1j * sign * rng.uniform(0.02, 0.45, 16))


@pytest.mark.parametrize("alpha", ALPHAS)
def test_the_grid_takes_every_step_count(alpha):
    assert {_steps(complex(alpha), z) for z in _grid(complex(alpha))} == set(range(-3, 4))


@pytest.mark.parametrize("alpha", ALPHAS)
def test_hyperbolic_scalar_and_array_values_are_equal_bit_for_bit(alpha):
    case = CASES["III"]
    pts = _grid(complex(alpha)) + list(WIDE)
    scalars = _scalars(case, alpha, pts)
    assert all(type(v) is complex for v in scalars)
    assert _bits(gamma_G(case, alpha, np.array(pts))) == _bits(scalars)
    # reversed, and joined by other points: each point keeps its bits
    assert _bits(gamma_G(case, alpha, np.array(pts[::-1]))) == _bits(scalars[::-1])
    for z, v in zip(pts, scalars):
        joined = gamma_G(case, alpha, np.array([z, *WIDE, 0.2 + 0.3j]))
        assert _bits(joined[:1]) == _bits([v])


def test_hyperbolic_points_share_cached_tables_and_keep_their_bits(monkeypatch):
    # the points of one call fall into groups, one per cached trapezoidal
    # table (step 1/m, panel count), and each group looks its table up once
    case = CASES["III"]
    table = gamma_mod._hyperbolic_table
    keys = []

    def spy(*key):
        keys.append(key)
        return table(*key)

    monkeypatch.setattr(gamma_mod, "_hyperbolic_table", spy)
    rng = np.random.default_rng(3)
    small = rng.uniform(0.1, 1.1, 150) + 0.9j
    pts = np.concatenate([small, WIDE])
    table.cache_clear()
    values = gamma_G(case, 0.8, pts)
    groups = len(keys)
    assert len(set(keys)) == groups > 1
    first = table.cache_info()
    assert first.misses == groups
    # a repeat call, and every point alone, only hit the cache
    assert _bits(gamma_G(case, 0.8, pts)) == _bits(values)
    assert _bits(_scalars(case, 0.8, pts)) == _bits(values)
    again = table.cache_info()
    assert again.misses == first.misses
    assert again.hits == first.hits + groups + len(pts)
    # the WIDE points oscillate faster and take more nodes per unit of y
    keys.clear()
    gamma_G(case, 0.8, small)
    near = max(key[2] for key in keys)
    keys.clear()
    gamma_G(case, 0.8, np.array(WIDE))
    assert min(key[2] for key in keys) > near
    assert table.cache_info().misses == first.misses


def test_cached_gamma_tables_are_read_only():
    phases, coef, c1, c3 = gamma_mod._hyperbolic_table(1.8, 0.8 + 0j, 5, 9)
    assert phases.shape == (2, 9 + 8) and coef.shape == (2, 9, 8)
    assert type(c1) is complex and type(c3) is complex
    elliptic = gamma_mod._elliptic_tables(1.1, 1.8, 0.8 + 0j)
    assert type(elliptic.coef) is tuple
    with pytest.raises(AttributeError):
        elliptic.coef = ()
    for table in (phases, coef, gamma_mod._trig_array(1.1, 0.8 + 0j, 5)):
        with pytest.raises(ValueError, match="read-only"):
            table *= 1


@pytest.mark.parametrize("alpha", (0.45, -0.45))
def test_blocks_window_hyperbolic_points_against_the_mpmath_evaluator(alpha):
    # near the origin the first nodes' c sin(2 w y) and the closed-form sum
    # over w / (a alpha y^2) cancel; the blocks workload's points (small |w|)
    # pin that cancellation
    case = CaseParams(CaseKind.HYPERBOLIC, a=2.0)
    pts = _blocks_window()
    mp = _mp_values(case, alpha, pts)
    for got in (gamma_G(case, alpha, np.array(pts)), np.array(_scalars(case, alpha, pts))):
        assert np.max(np.abs(got - mp) / np.abs(mp)) < 2e-13


# the float hyperbolic gamma's point sets: the blocks window, every step
# count at every ALPHAS, and the WIDE points
_HYPERBOLIC_SETS = {
    **{f"blocks{alpha:+}": (CaseParams(CaseKind.HYPERBOLIC, a=2.0), alpha, _blocks_window)
       for alpha in (0.45, -0.45)},
    **{f"grid{alpha}": (CASES["III"], alpha, lambda alpha=alpha: _grid(complex(alpha)))
       for alpha in ALPHAS},
    "wide": (CASES["III"], 0.8, lambda: list(WIDE)),
}


@pytest.mark.parametrize("name", sorted(_HYPERBOLIC_SETS))
def test_hyperbolic_points_within_2e_14_of_the_mpmath_route(name):
    # the trapezoidal step aims below 1e-16, so rounding is what is left
    case, alpha, points = _HYPERBOLIC_SETS[name]
    pts = points()
    mp = _mp_values(case, alpha, pts)
    for got in (gamma_G(case, alpha, np.array(pts)), np.array(_scalars(case, alpha, pts))):
        assert np.max(np.abs(got - mp) / np.abs(mp)) < 2e-14


@lru_cache(maxsize=None)
def _oracle(alpha, x, a):
    return oracles.g1_hyperbolic_oracle(alpha, x, a=a)


@pytest.mark.parametrize("name", sorted(_HYPERBOLIC_SETS))
def test_hyperbolic_quadrature_within_2e_14_of_the_oracle(name):
    # the oracle integrates only where the tail decays, so each point is
    # compared where the evaluator integrates: moved by its cosh steps to
    # |Im w| <= Re alpha / 2, on the half-plane Re alpha > 0; the
    # functional-equation steps are exact and the mpmath route checks them.
    # The stepped points of a real alpha coincide across step counts; of
    # the distinct ones, every (n // 4)-th by Re x is taken, for time
    case, alpha, points = _HYPERBOLIC_SETS[name]
    beta, sign = (complex(alpha), 1) if alpha.real > 0 else (-complex(alpha), -1)
    stepped = sorted({complex(round(v.real, 12), round(v.imag, 12))
                      for v in (sign * z + 1j * _steps(complex(alpha), z, case.a) * beta
                                for z in points())},
                     key=lambda v: (v.real, v.imag))
    for x in stepped[::max(1, len(stepped) // 4)]:
        ref = _oracle(beta, x, case.a)
        assert abs(gamma_G1(case, beta, x) - ref) < 2e-14 * abs(ref)


def test_complex_alpha_far_from_the_real_axis_regression():
    # a = 1.8, alpha = 0.3 + 1.5i: the strip of analyticity is narrow
    # (Re alpha / |alpha|^2 = 0.128) and the step must follow it; a rule
    # blind to it was off by up to 2.7e-9 here.  At Im w = 0 the points take
    # no cosh steps, so the oracle checks them as they are
    case, alpha = CASES["III"], 0.3 + 1.5j
    pts = [-1.0 + 0.9j, 0.6 + 0.9j, 2.5 + 0.9j]
    mp = _mp_values(case, alpha, pts)
    oracle = np.array([_oracle(alpha, z, A) for z in pts])
    for got in (gamma_G(case, alpha, np.array(pts)), np.array(_scalars(case, alpha, pts))):
        for ref in (mp, oracle):
            assert np.max(np.abs(got - ref) / np.abs(ref)) < 5e-14


def test_hyperbolic_points_past_the_node_cap_fail():
    # the step shrinks as Re alpha / |alpha|^2 falls and as |Re w| grows;
    # a point needing more than 2000 nodes fails, and so does an array
    # holding one
    case = CASES["III"]
    with pytest.raises(ConvergenceError, match=r"needs 2160 nodes, above the cap 2000; "):
        gamma_G(case, 0.05 + 1.5j, 0.3 + 0.1j)
    good, far = [0.3 + 0.9j, 450 + 0.9j], 500 + 0.9j
    gamma_G(case, 0.8, np.array(good))
    for call in (lambda: gamma_G(case, 0.8, far),
                 lambda: gamma_G(case, -0.8, np.array([-good[0], -far, -good[1]]))):
        with pytest.raises(ConvergenceError, match=r"needs 2208 nodes, above the cap 2000; "):
            call()


@pytest.mark.parametrize("label", ["I", "II", "III", "IV"])
def test_zero_dimensional_two_dimensional_and_empty_inputs(label):
    # every case, the two of this module and the rational and trigonometric
    # ones; a (14, 5) array has as many rows as the rational sum has terms
    case = CaseParams(CaseKind.from_label(label), r=R, a=A)
    rng = np.random.default_rng(3)
    tall = rng.uniform(-2.0, 2.0, (14, 5)) + 1j * rng.uniform(-0.6, 0.6, (14, 5))
    for pts in (np.array([[0.3 + 0.1j, 0.8 - 0.2j, 1.2 + 0.6j],
                          [-0.5 + 0.4j, 0.1 + 0.0j, 2.0 - 0.1j]]), tall):
        values = gamma_G(case, 0.8, pts)
        assert values.shape == pts.shape
        assert _bits(values.ravel()) == _bits(gamma_G(case, 0.8, pts.ravel()))
        scalars = np.array(_scalars(case, 0.8, pts.ravel()))
        assert np.max(np.abs(values.ravel() - scalars) / np.abs(scalars)) < 1e-13
    zero_d = gamma_G(case, 0.8, np.asarray(0.3 + 0.1j))
    assert type(zero_d) is complex
    scalar = gamma_G(case, 0.8, 0.3 + 0.1j)
    if label in CASES:
        assert _bits([zero_d]) == _bits([scalar])
    else:
        # a rational or trigonometric array rounds otherwise than its scalar
        assert abs(zero_d - scalar) < 1e-15 * abs(scalar)
    for empty in (np.array([], dtype=complex), np.zeros((0, 3))):
        out = gamma_G(case, 0.8, empty)
        assert out.shape == empty.shape and out.dtype == np.complex128


@pytest.mark.parametrize("alpha", ALPHAS)
def test_elliptic_scalar_equals_a_one_point_array(alpha):
    case = CASES["IV"]
    for z in _grid(complex(alpha)) + list(WIDE):
        assert _bits([gamma_G(case, alpha, z)]) == _bits(gamma_G(case, alpha, np.array([z])))


def test_elliptic_array_points_agree_with_their_scalars_to_rounding():
    # not bit for bit: the array takes the series length and the theta
    # factor count of the call, and numpy's complex multiplication rounds
    # differently from Python's
    case = CASES["IV"]
    row = [complex(x, 0.4) for x in (-1.3, -0.2, 0.5, 1.7)] + [0.6 + 0.8j, 0.1 - 0.9j]
    values = gamma_G(case, 0.8, np.array(row))
    scalars = np.array(_scalars(case, 0.8, row))
    assert np.max(np.abs(values - scalars) / np.abs(scalars)) < 1e-14


def _theta_steps(alpha, z, a=A):
    """The theta step count of the elliptic primitive at ``z``: ``Im w``,
    ``w = z - i a/2``, over the step ``min(a, Re alpha)``, rounded."""
    if alpha.real < 0:
        alpha, z = -alpha, -z
    return -round((z.imag - a / 2) / min(a, alpha.real))


def _step_edges(alpha, a=A, ks=range(-3, 3)):
    """A point on each side of the change from k + 1 to k theta steps, at
    Im w = (k + 1/2) times the step, for each k in ``ks``."""
    step = min(a, abs(alpha.real))
    sign = 1 if alpha.real > 0 else -1
    return [sign * complex(x, a / 2 - (k + 0.5) * step + d)
            for k in ks for x, d in ((-0.6, 0.01 * step), (0.9, -0.02 * step))]


def _worst_against_mpmath(case, alpha, pts):
    mp = _mp_values(case, alpha, pts)
    return max(float(np.max(np.abs(got - mp) / np.abs(mp)))
               for got in (gamma_G(case, alpha, np.array(pts)), np.array(_scalars(case, alpha, pts))))


@pytest.mark.parametrize("alpha", ALPHAS)
def test_elliptic_points_on_both_sides_of_every_step_change_against_the_mpmath_route(alpha):
    # near rounding; the float64 double product over N x M factors reaches 3e-14 here
    case = CASES["IV"]
    pts = _step_edges(complex(alpha))
    steps = [_theta_steps(complex(alpha), z) for z in pts]
    assert set(steps) == set(range(-3, 4))
    for k, side in zip(range(-3, 3), np.reshape(steps, (6, 2))):
        assert sorted(side) == [k, k + 1]
    assert _worst_against_mpmath(case, alpha, pts + list(WIDE)) < 1e-14


@pytest.mark.parametrize("alpha", (0.45, -0.45))
def test_blocks_window_elliptic_points_against_the_mpmath_route(alpha):
    case = CaseParams(CaseKind.ELLIPTIC, r=1.0, a=2.0)
    rng = np.random.default_rng(23)
    sign = np.where(np.arange(8) % 2 == 0, 1.0, -1.0)
    pts = list(rng.uniform(0.1, 1.1, 8) + 1j * sign * rng.uniform(0.02, 0.45, 8))
    edges = _step_edges(complex(alpha), a=2.0, ks=range(-2, 1))
    assert {_theta_steps(complex(alpha), z, a=2.0) for z in edges} == {-2, -1, 0, 1}
    assert _worst_against_mpmath(case, alpha, pts + edges) < 1e-14


@pytest.mark.parametrize("alpha", ALPHAS)
def test_elliptic_functional_equation(alpha):
    # G(x + i alpha/2) / G(x - i alpha/2) = c s(x), scalars and arrays
    case = CASES["IV"]
    c = functional_eq_constant(case, alpha)
    x = np.array([p - 0.3j * complex(alpha).real for p in _step_edges(complex(alpha))])
    half = 0.5j * alpha
    rhs = c * s_eval(case, x)
    for up, dn in ((gamma_G(case, alpha, x + half), gamma_G(case, alpha, x - half)),
                   (np.array(_scalars(case, alpha, x + half)), np.array(_scalars(case, alpha, x - half)))):
        assert np.max(np.abs(up / dn - rhs) / np.abs(rhs)) < 1e-13


def test_elliptic_nomes_near_1_and_far_points_fail_at_the_cap():
    near = CaseParams(CaseKind.ELLIPTIC, r=1.0, a=0.01)
    for call in (lambda: gamma_G(near, 0.01, 0.3 + 0.1j),
                 lambda: gamma_G(near, -0.01, np.array([0.3 + 0.1j, 0.5]))):
        with pytest.raises(ConvergenceError, match="log series terms, above the cap 2000; "
                                                   "both nomes are too close to 1"):
            call()
    far = 0.3 + 1000j  # Im w = 999.1: 2220 theta steps of 0.45
    for call in (lambda: gamma_G(CASES["IV"], 0.45, far),
                 lambda: gamma_G(CASES["IV"], 0.45, np.array([0.3 + 0.1j, far]))):
        with pytest.raises(ConvergenceError, match="needs 2220 theta steps, above the cap 2000"):
            call()


@pytest.mark.parametrize("label", sorted(CASES))
@pytest.mark.parametrize("alpha", (0.8, 0.9 + 0.3j, -1.15 - 0.2j))
def test_both_paths_agree_with_the_mpmath_evaluator(label, alpha):
    case = CASES[label]
    pts = _grid(complex(alpha))[::2]
    mp = _mp_values(case, alpha, pts)
    for got in (gamma_G(case, alpha, np.array(pts)), np.array(_scalars(case, alpha, pts))):
        assert np.max(np.abs(got - mp) / np.abs(mp)) < 2e-13


def test_wide_hyperbolic_points_against_the_mpmath_evaluator():
    # the trapezoidal step shrinks with |Re w|: at |Re x| ~ 4.5 the error is
    # about 3e-15, at 15 and 30 about 2e-14 to 2e-13
    case = CASES["III"]
    for alpha, pts in ((0.8, [*WIDE, *FAR]), (0.45, FAR)):
        mp = _mp_values(case, alpha, pts)
        got = gamma_G(case, alpha, np.array(pts))
        assert np.max(np.abs(got - mp) / np.abs(mp)) < 5e-13


@pytest.mark.parametrize("alpha,x", [(0.8, 0.3 + 0.1j), (1.2, 0.8 - 0.05j), (0.9 + 0.3j, 1.1 + 0.9j),
                                     (0.8, -0.6 + 1.6j)])
def test_both_paths_agree_with_the_oracles(alpha, x):
    hyperbolic, elliptic = CASES["III"], CASES["IV"]
    for ours, ref in (
        (gamma_G1(hyperbolic, alpha, x), oracles.g1_hyperbolic_oracle(alpha, x, a=A)),
        (complex(gamma_G1(hyperbolic, alpha, np.array([x, *WIDE]))[0]),
         oracles.g1_hyperbolic_oracle(alpha, x, a=A)),
        (gamma_G1(elliptic, alpha, x), oracles.g1_elliptic_oracle(alpha, x, r=R, a=A)),
        (complex(gamma_G1(elliptic, alpha, np.array([x]))[0]),
         oracles.g1_elliptic_oracle(alpha, x, r=R, a=A)),
    ):
        assert abs(ours - ref) < 2e-13 * abs(ref)


def test_one_point_beyond_the_cutoff_fails_the_whole_array():
    # at a = 0.5 the cutoff 34.93 / (a + alpha - 2 |Im w0|) passes the
    # fixed limit 40 once |Im w0| > 0.21; the message names the first point
    # beyond it
    case = CaseParams(CaseKind.HYPERBOLIC, a=0.5)
    good = [0.3 + 0.3j, 1.1 + 0.35j]
    bad = 0.3 + 0.64j
    message = "hyperbolic integral needs cutoff 67.2, above the fixed limit 40"
    gamma_G(case, 0.8, np.array(good))
    for call in (lambda: gamma_G(case, 0.8, np.array([*good, bad, 0.2 + 0.7j])),
                 lambda: gamma_G(case, 0.8, bad)):
        with pytest.raises(ConvergenceError) as err:
            call()
        assert str(err.value) == message


@pytest.mark.parametrize("label", sorted(CASES))
def test_gamma_reflection_rows_stay_exactly_zero(label):
    report = verify.run_identity("gamma-reflection", label, samples=12, seed=5)
    assert report.results and all(row.residual == 0.0 for row in report.results)


def _stacked_paths(rng, factors=9):
    """A (factors, 48) argument as a tracked block stacks it: per row the 48
    points of a straight path from its own start."""
    start = rng.uniform(-1.2, 1.2, factors) + 1j * rng.uniform(-0.6, 0.6, factors)
    step = rng.uniform(-0.4, 0.4, factors) + 1j * rng.uniform(-0.3, 0.3, factors)
    return start[:, None] + np.arange(1, 49) / 48 * step[:, None]


@pytest.mark.parametrize("label", ["I", "II", "III"])
@pytest.mark.parametrize("alpha", (0.31, -0.45, 0.9 + 0.3j))
def test_each_row_of_a_stacked_argument_has_the_bits_of_its_own_call(label, alpha):
    # not IV, whose counts are the call's (see the module docstring)
    case = CaseParams(CaseKind.from_label(label), r=R, a=A)
    x = _stacked_paths(np.random.default_rng(5))
    stacked = gamma_G(case, alpha, x)
    assert stacked.shape == x.shape
    for row, values in zip(x, stacked):
        assert _bits(values) == _bits(gamma_G(case, alpha, row.copy()))


@pytest.mark.parametrize("alpha", (0.31, 0.8, 0.9 + 0.3j))
def test_a_trigonometric_point_takes_the_factor_count_of_its_scalar(alpha):
    # a point takes factor n + 1 exactly where its |Im x| reaches the
    # threshold of n, as its scalar's count exceeds n there; the points
    # include each threshold and the float below it
    step = R * complex(alpha).real
    im = np.abs(_stacked_paths(np.random.default_rng(6)).imag).ravel().tolist()

    def count(v):
        return gamma_mod._geometric_terms(step, 0.0, 2 * R * v, _LOG_TARGET)

    ns = range(count(min(im)) - 1, count(max(im)) + 1)
    for n in ns:
        threshold = gamma_mod._trig_threshold(R, step, n)
        im += [threshold, math.nextafter(threshold, 0.0)]
    assert len(ns) > 2
    for n in ns:
        threshold = gamma_mod._trig_threshold(R, step, n)
        assert [v >= threshold for v in im] == [count(v) > n for v in im]
