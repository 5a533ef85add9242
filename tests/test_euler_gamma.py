"""Euler's gamma in the package (the Lanczos approximation behind the rational
gamma_G) against the 40-digit oracle of tests/oracles.py, on the scalar and
the array path, and at its edges: both sides of Re z = 1/2, where the
reflection takes over, points where the reflection's factors overflow, a
pole, an overflowing point, and arrays of any shape."""

import cmath
import sys

import numpy as np
import pytest

import oracles
from vandiejen.gamma import _euler_gamma, _euler_gamma_array, gamma_G
from vandiejen.sfun import CaseKind, CaseParams
from vandiejen.verify import WINDOW_IM, WINDOW_RE

RATIONAL = CaseParams(CaseKind.RATIONAL, r=1.0, a=2.0)


def _grid(seed: int, alpha_range, re_range, im_range, steps: int = 12, points: int = 30):
    """``steps`` seeded steps alpha, every other one negative, each with
    ``points`` seeded x."""
    rng = np.random.default_rng(seed)
    alphas = rng.uniform(*alpha_range, steps) * np.resize([1.0, -1.0], steps)
    return [(float(a), rng.uniform(*re_range, points) + 1j * rng.uniform(*im_range, points))
            for a in alphas]


def _worst(grid) -> tuple[float, float]:
    """The largest relative error of the scalar and of the array rational
    gamma_G over ``grid``; for Re(alpha) < 0 the oracle's primitive is taken
    at ``G(x; alpha) = G_1(-x; -alpha)``."""
    worst_scalar = worst_array = 0.0
    for alpha, xs in grid:
        ref = np.array([oracles.g1_rational_oracle(abs(alpha), x if alpha > 0 else -x)
                        for x in xs.tolist()])
        scalar = np.array([gamma_G(RATIONAL, alpha, x) for x in xs.tolist()])
        array = gamma_G(RATIONAL, alpha, xs)
        worst_scalar = max(worst_scalar, float(np.max(np.abs(scalar - ref) / np.abs(ref))))
        worst_array = max(worst_array, float(np.max(np.abs(array - ref) / np.abs(ref))))
    return worst_scalar, worst_array


def test_the_gamma_fe_window_is_within_1e_14():
    # gamma-fe's draws: alpha in +-[0.3, 0.6], x in the verify window
    # (measured: 2.5e-15 on both paths; seeds 0-5 reach 3.0e-15)
    scalar, array = _worst(_grid(0, (0.3, 0.6), WINDOW_RE, WINDOW_IM))
    assert scalar <= 1e-14
    assert array <= 1e-14


def test_the_tracker_pair_arguments_are_within_5e_14():
    # the gamma factors of a rational tracker path: |alpha| down to 0.06, so
    # |z| = |1/2 + x / (i alpha)| up to about 40, where Gamma's own condition
    # number |z log z| eps, not the approximation, sets the error (measured
    # on this grid: 1.7e-14 on both paths; seeds 0-5 reach 4.4e-14)
    scalar, array = _worst(_grid(1, (0.06, 0.68), (-2.4, 2.4), (-0.9, 0.9)))
    assert scalar <= 5e-14
    assert array <= 5e-14


@pytest.mark.parametrize("im", [0.0, 0.4, -2.5, 12.0])
@pytest.mark.parametrize("re", [0.5 - 1e-12, 0.5, 0.5 + 1e-12, 0.2, 0.8, -3.7, 4.3])
def test_both_sides_of_the_reflection_line(re, im):
    # alpha = 1 and x = i (z - 1/2): gamma_G's argument 1/2 + x / i is z
    # exactly, below Re z = 1/2 by the reflection and above it not
    z = complex(re, im)
    x = 1j * (z - 0.5)
    assert 0.5 + x / 1j == z
    ref = oracles.g1_rational_oracle(1.0, x)
    assert abs(gamma_G(RATIONAL, 1.0, x) - ref) <= 1e-14 * abs(ref)
    assert abs(gamma_G(RATIONAL, 1.0, np.array([x]))[0] - ref) <= 1e-14 * abs(ref)


@pytest.mark.parametrize("z", [-9.5 - 300j, -0.3 + 230j, -3.7 - 234.2j, -171.5 + 0.1j,
                               -170.2 + 3j])
def test_the_reflection_where_its_factors_overflow(z):
    # sin(pi z) overflows past |Im z| of about 225 and Gamma(1 - z) below
    # Re z of about -170, though Gamma(z) is a float: cmath raises, the
    # scalar falls back to the array path, and that takes the reflection in
    # logs.  Gamma's condition number, about |z log z| eps, sets the error
    # (measured: at most 1.5 of it on 200 seeded points with |Im z| in
    # [226, 320], 0.85 on these)
    x = 1j * (z - 0.5)
    ref = oracles.g1_rational_oracle(1.0, x)
    bound = 2 * abs(z * cmath.log(z)) * sys.float_info.epsilon
    with pytest.raises(OverflowError):
        _euler_gamma(z)
    assert abs(_euler_gamma_array(np.array([z]))[0] - ref) <= bound * abs(ref)
    assert abs(gamma_G(RATIONAL, 1.0, x) - ref) <= bound * abs(ref)


def test_a_command_argument_past_the_overflow_of_sin():
    # `vandiejen eval gamma --case I --alpha 0.01 --x 3-0.1j`: z = -9.5 - 300i
    # and |Gamma(z)| is about 1e-229
    x = 3 - 0.1j
    z = 0.5 + x / 0.01j
    ref = oracles.g1_rational_oracle(0.01, x)
    bound = 2 * abs(z * cmath.log(z)) * sys.float_info.epsilon
    for value in (gamma_G(RATIONAL, 0.01, x), gamma_G(RATIONAL, 0.01, np.array([x]))[0]):
        assert abs(value - ref) <= bound * abs(ref)


@pytest.mark.parametrize("shape", [(), (2, 3), (0, 3), (14, 5), (14, 1), (3, 14)])
def test_an_array_of_any_shape_gives_its_points_values(shape):
    # a (14, n) array has as many rows as the sum has terms, so a sum that
    # broadcast against the input's own shape would pair rows with terms
    rng = np.random.default_rng(4)
    z = rng.uniform(-3.0, 3.0, shape) + 1j * rng.uniform(-4.0, 4.0, shape)
    values = _euler_gamma_array(z)
    assert values.shape == z.shape
    assert np.array_equal(values.ravel(), _euler_gamma_array(z.ravel()))
    for point, value in zip(z.ravel().tolist(), values.ravel().tolist()):
        assert abs(value - _euler_gamma(point)) <= 1e-14 * abs(value)


@pytest.mark.parametrize("n", [0, 1, 4])
def test_a_pole_gives_one_outcome_on_both_paths(n):
    # z = -n: cmath divides by an exact zero of sin(pi z), the scalar falls
    # back to the array path, and neither raises nor warns
    x = 1j * (-n - 0.5)
    assert 0.5 + x / 1j == -n
    with pytest.raises(ZeroDivisionError):
        _euler_gamma(complex(-n))
    scalar = gamma_G(RATIONAL, 1.0, x)
    assert not cmath.isfinite(scalar)
    assert str(scalar) == str(gamma_G(RATIONAL, 1.0, np.array([x]))[0])
    assert not cmath.isfinite(_euler_gamma_array(np.array([complex(-n)]))[0])


def test_an_overflowing_point_gives_one_outcome_on_both_paths():
    # Gamma(200) is about 3.9e372: cmath overflows and the scalar falls back
    x = 199.5j
    assert 0.5 + x / 1j == 200
    with pytest.raises(OverflowError):
        _euler_gamma(200 + 0j)
    scalar = gamma_G(RATIONAL, 1.0, x)
    assert not cmath.isfinite(scalar)
    assert str(scalar) == str(gamma_G(RATIONAL, 1.0, np.array([x]))[0])
