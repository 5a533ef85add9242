"""The hyperbolic and elliptic gamma primitives as scalars and as arrays.

A hyperbolic array evaluates its points in node blocks shared by the
points of one panel count; a scalar takes the same blocks with one row.
Each row is summed on its own, so a scalar and the same point in any
array agree bit for bit, and both agree with the mpmath evaluator and the
oracles.  An elliptic scalar is a one-point array call."""

import numpy as np
import pytest

import oracles
from vandiejen import gamma as gamma_mod
from vandiejen import verify
from vandiejen.gamma import gamma_G, gamma_G1
from vandiejen.sfun import CaseKind, CaseParams, ConvergenceError, TruncationPolicy

R, A = 1.1, 1.8
CASES = {label: CaseParams(CaseKind.from_label(label), r=R, a=A) for label in ("III", "IV")}
MP = TruncationPolicy(precision_dps=30)
ALPHAS = (0.8, 0.45, 0.9 + 0.3j, -0.8, -1.15 - 0.2j)
# |Re x| large enough for more than the 13 panels of the default policy
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


def test_hyperbolic_node_blocks_mix_panel_counts_and_stay_small(monkeypatch):
    case = CASES["III"]
    shapes = []
    integrand = gamma_mod._hyperbolic_integrand

    def spy(w, a, alpha, y):
        shapes.append(y.shape)
        return integrand(w, a, alpha, y)

    monkeypatch.setattr(gamma_mod, "_hyperbolic_integrand", spy)
    rng = np.random.default_rng(3)
    pts = np.concatenate([rng.uniform(0.1, 1.1, 150) + 0.9j, WIDE])
    values = gamma_G(case, 0.8, pts)
    panels = sorted({cols // 16 for _, cols in shapes})
    assert panels[0] == 13 and panels[-1] > 13
    assert max(rows for rows, _ in shapes) == gamma_mod._NODE_BLOCK_POINTS
    assert sum(rows for rows, _ in shapes) == len(pts)
    monkeypatch.setattr(gamma_mod, "_hyperbolic_integrand", integrand)
    assert _bits(values) == _bits(_scalars(case, 0.8, pts))


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
    mp = np.asarray(gamma_G(case, alpha, np.array(pts), MP))
    for got in (gamma_G(case, alpha, np.array(pts)), np.array(_scalars(case, alpha, pts))):
        assert np.max(np.abs(got - mp) / np.abs(mp)) < 2e-13


def test_wide_hyperbolic_points_against_the_mpmath_evaluator():
    # the float quadrature's error grows with |w|: at |Re x| ~ 4.5 it is
    # about 2.2e-13, above the 1e-13 target of the policy
    case = CASES["III"]
    mp = np.asarray(gamma_G(case, 0.8, np.array(WIDE), MP))
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
    # the cutoff 34.93 / (a + alpha - 2 |Im w0|) stays below 15 only near
    # Im w0 = 0; the message names the first point beyond it
    case = CASES["III"]
    policy = TruncationPolicy(quadrature_cutoff=15.0)
    good = [0.3 + 0.9j, 1.1 + 0.95j]
    bad = 0.5 + 1.25j
    message = ("hyperbolic integral needs cutoff 18.4 > quadrature_cutoff=15; "
               "raise the policy cutoff")
    gamma_G(case, 0.8, np.array(good), policy)
    for call in (lambda: gamma_G(case, 0.8, np.array([*good, bad, 0.2 + 1.3j]), policy),
                 lambda: gamma_G(case, 0.8, bad, policy)):
        with pytest.raises(ConvergenceError) as err:
            call()
        assert str(err.value) == message


@pytest.mark.parametrize("label", sorted(CASES))
def test_gamma_reflection_rows_stay_exactly_zero(label):
    report = verify.run_identity("gamma-reflection", label, samples=12, seed=5)
    assert report.results and all(row.residual == 0.0 for row in report.results)
