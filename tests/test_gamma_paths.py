"""The hyperbolic and elliptic gamma primitives as scalars and as arrays.

A hyperbolic array evaluates its points in groups, one per cached
quadrature grid, as numpy rows; a scalar is a group of one row.  Each row
is summed on its own, so a scalar and the same point in any array agree
bit for bit, and both agree with the mpmath evaluator and the oracles.
An elliptic scalar is a one-point array call."""

import mpmath
import numpy as np
import pytest

import oracles
from vandiejen import gamma as gamma_mod
from vandiejen import verify
from vandiejen.gamma import gamma_G, gamma_G1
from vandiejen.sfun import CaseKind, CaseParams, ConvergenceError

R, A = 1.1, 1.8
CASES = {label: CaseParams(CaseKind.from_label(label), r=R, a=A) for label in ("III", "IV")}
ALPHAS = (0.8, 0.45, 0.9 + 0.3j, -0.8, -1.15 - 0.2j)
# |Re x| large enough for more than the minimum of 13 panels
WIDE = (4.5 + 0.9j, -4.2 + 0.5j, 3.6 + 1.2j, 2.9 - 0.3j)


def _steps(alpha, z):
    """The cosh step count of the primitive at ``z``, as the evaluator takes it."""
    if alpha.real < 0:
        alpha, z = -alpha, -z
    return -round((z.imag - A / 2) / alpha.real)


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


def _mp_values(case, alpha, pts):
    """The mpmath route at 30 digits, rounded to complex128."""
    with mpmath.workdps(30):
        return np.array([complex(gamma_G(case, alpha, mpmath.mpc(z))) for z in pts])


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


def test_hyperbolic_points_share_cached_grids_and_keep_their_bits(monkeypatch):
    # the points of one call fall into groups, one per cached quadrature
    # grid (upper limit, panel count), and each group looks its grid up once
    case = CASES["III"]
    grid = gamma_mod._hyperbolic_grid
    keys = []

    def spy(*key):
        keys.append(key)
        return grid(*key)

    monkeypatch.setattr(gamma_mod, "_hyperbolic_grid", spy)
    rng = np.random.default_rng(3)
    pts = np.concatenate([rng.uniform(0.1, 1.1, 150) + 0.9j, WIDE])
    grid.cache_clear()
    values = gamma_G(case, 0.8, pts)
    groups = len(keys)
    panels = sorted({key[-1] for key in keys})
    assert len(set(keys)) == groups > 1
    assert panels[0] == gamma_mod._MIN_PANELS and panels[-1] > gamma_mod._MIN_PANELS
    first = grid.cache_info()
    assert first.misses == groups
    # a repeat call, and every point alone, only hit the cache
    assert _bits(gamma_G(case, 0.8, pts)) == _bits(values)
    assert _bits(_scalars(case, 0.8, pts)) == _bits(values)
    again = grid.cache_info()
    assert again.misses == first.misses
    assert again.hits == first.hits + groups + len(pts)


def test_cached_gamma_tables_are_read_only():
    *arrays, poly = gamma_mod._hyperbolic_grid(1.8, 0.8 + 0j, 14, 13)
    arrays += [*gamma_mod._leggauss(16), gamma_mod._trig_array(1.1, 0.8 + 0j, 5),
               gamma_mod._elliptic_table(1.1, 1.8, 0.8 + 0j, 3, 4)]
    assert type(poly) is tuple
    for table in arrays:
        with pytest.raises(ValueError, match="read-only"):
            table *= 1


@pytest.mark.parametrize("alpha", (0.45, -0.45))
def test_blocks_window_hyperbolic_points_against_the_mpmath_evaluator(alpha):
    # near the origin the first panel's D sin(2 w y) and w E cancel, node by
    # node; the blocks workload's points (small |w|) pin that cancellation
    case = CaseParams(CaseKind.HYPERBOLIC, a=2.0)
    rng = np.random.default_rng(19)
    sign = np.where(np.arange(16) % 2 == 0, 1.0, -1.0)
    pts = list(rng.uniform(0.1, 1.1, 16) + 1j * sign * rng.uniform(0.02, 0.45, 16))
    mp = _mp_values(case, alpha, pts)
    for got in (gamma_G(case, alpha, np.array(pts)), np.array(_scalars(case, alpha, pts))):
        assert np.max(np.abs(got - mp) / np.abs(mp)) < 2e-13


@pytest.mark.parametrize("label", sorted(CASES))
def test_zero_dimensional_two_dimensional_and_empty_inputs(label):
    case = CASES[label]
    pts = np.array([[0.3 + 0.1j, 0.8 - 0.2j, 1.2 + 0.6j], [-0.5 + 0.4j, 0.1 + 0.0j, 2.0 - 0.1j]])
    values = gamma_G(case, 0.8, pts)
    assert values.shape == pts.shape
    assert _bits(values.ravel()) == _bits(gamma_G(case, 0.8, pts.ravel()))
    zero_d = gamma_G(case, 0.8, np.asarray(0.3 + 0.1j))
    assert type(zero_d) is complex
    assert _bits([zero_d]) == _bits([gamma_G(case, 0.8, 0.3 + 0.1j)])
    for empty in (np.array([], dtype=complex), np.zeros((0, 3))):
        out = gamma_G(case, 0.8, empty)
        assert out.shape == empty.shape and out.dtype == np.complex128


@pytest.mark.parametrize("alpha", ALPHAS)
def test_elliptic_scalar_equals_a_one_point_array(alpha):
    case = CASES["IV"]
    for z in _grid(complex(alpha)) + list(WIDE):
        assert _bits([gamma_G(case, alpha, z)]) == _bits(gamma_G(case, alpha, np.array([z])))


def test_elliptic_array_points_agree_with_their_scalars_to_rounding():
    # not bit for bit: the array takes its term counts from the largest
    # |Im w| of the call, and numpy multiplies several columns of the
    # product in a different rounding than one
    case = CASES["IV"]
    row = [complex(x, 0.4) for x in (-1.3, -0.2, 0.5, 1.7)] + [0.6 + 0.8j, 0.1 - 0.9j]
    values = gamma_G(case, 0.8, np.array(row))
    scalars = np.array(_scalars(case, 0.8, row))
    assert np.max(np.abs(values - scalars) / np.abs(scalars)) < 1e-14


@pytest.mark.parametrize("label", sorted(CASES))
@pytest.mark.parametrize("alpha", (0.8, 0.9 + 0.3j, -1.15 - 0.2j))
def test_both_paths_agree_with_the_mpmath_evaluator(label, alpha):
    case = CASES[label]
    pts = _grid(complex(alpha))[::2]
    mp = _mp_values(case, alpha, pts)
    for got in (gamma_G(case, alpha, np.array(pts)), np.array(_scalars(case, alpha, pts))):
        assert np.max(np.abs(got - mp) / np.abs(mp)) < 2e-13


def test_wide_hyperbolic_points_against_the_mpmath_evaluator():
    # the float quadrature's error grows with |w|: at |Re x| ~ 4.5 it is
    # about 1.8e-13, above the 1e-13 target relative error
    case = CASES["III"]
    mp = _mp_values(case, 0.8, WIDE)
    got = gamma_G(case, 0.8, np.array(WIDE))
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
