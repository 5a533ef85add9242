"""Operator coefficients evaluate ``s`` in one array call each; the values
equal, bit for bit, those of one scalar ``s_eval`` call per argument."""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from vandiejen import operators
from vandiejen.operators import (
    MassTag,
    c0_constant,
    coeff_V0,
    coeff_V_shift,
    def_V0,
    def_V_pm,
    def_Vt_pm,
    f_pm,
    half_period_product,
    proof_params,
    source_constant,
    summation_boundary_term,
    summation_shift_term,
    vd_V0,
    vd_V_pm,
)
from vandiejen.sfun import (
    DEFAULT_POLICY,
    CaseKind,
    CaseParams,
    ConvergenceError,
    DomainError,
    TruncationPolicy,
    s_eval,
)

CASES = {label: CaseParams(CaseKind.from_label(label), r=1.1, a=1.8)
         for label in ("I", "II", "III", "IV")}

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def _scalar_batched(case, policy, formula):
    """The path before batching: each ``s`` argument through its own scalar
    ``s_eval`` call, in the order the formula asks for them."""
    return formula(lambda z: complex(s_eval(case, complex(z), policy)))


def _calls(case, g, lam, beta, tags, X, xt, j, sign, policy):
    masses = tuple(t.value_for(lam) for t in tags)
    n_x = len(X)
    p = proof_params(case, g, lam, beta, masses, X)
    nu = j % (case.rho + 1)
    return {
        "coeff_V_shift": lambda: coeff_V_shift(case, g, lam, beta, masses, tags, X, j, sign, policy),
        "coeff_V0": lambda: coeff_V0(case, g, lam, beta, masses, X, policy),
        "vd_V_pm": lambda: vd_V_pm(case, g, lam, beta, X, j, sign, policy),
        "vd_V0": lambda: vd_V0(case, g, lam, beta, X, policy),
        "def_V_pm": lambda: def_V_pm(case, g, lam, beta, X, xt, j, sign, policy),
        "def_Vt_pm": lambda: def_Vt_pm(case, g, lam, beta, X, xt, j % len(xt), sign, policy),
        "def_V0": lambda: def_V0(case, g, lam, beta, X, xt, policy),
        "c0_constant": lambda: c0_constant(case, g, lam, beta, policy),
        "source_constant": lambda: source_constant(case, g, lam, beta, masses, policy),
        "summation_shift_term": lambda: summation_shift_term(case, p, j, sign, policy),
        "summation_boundary_term": lambda: summation_boundary_term(
            case, p, nu, use_c=sign > 0, policy=policy),
        "f_pm": lambda: f_pm(case, sign, X[j] + X[(j + 1) % n_x], masses[j],
                             masses[(j + 1) % n_x], lam, beta, policy),
        "half_period_product": lambda: half_period_product(case, policy),
    }


FUNCTIONS = sorted(_calls(CASES["I"], (0.3, 0.4), 1.5, 0.3, (MassTag.PLUS_ONE,),
                          (0.4,), (0.2,), 0, 1, DEFAULT_POLICY))


def _outcome(call):
    """The value as the pair of its float parts, NaN as the string ``nan``
    so that equal outcomes compare equal; or the name of the error."""
    try:
        value = complex(call())
    except (ZeroDivisionError, ConvergenceError, DomainError) as err:
        return type(err).__name__
    return tuple("nan" if part != part else part for part in (value.real, value.imag))


coord = st.builds(complex, st.floats(-1.5, 1.5), st.floats(-0.6, 0.6))


@PROPERTY
@pytest.mark.parametrize("name", FUNCTIONS)
@given(
    label=st.sampled_from(sorted(CASES)),
    g=st.lists(st.floats(-0.5, 1.5), min_size=8, max_size=8),
    lam=st.floats(0.6, 2.0),
    beta=st.floats(0.15, 0.6),
    tags=st.lists(st.sampled_from(list(MassTag)), min_size=1, max_size=3),
    X=st.lists(coord, min_size=3, max_size=3),
    xt=st.lists(coord, min_size=1, max_size=2),
    j=st.integers(0, 2),
    sign=st.sampled_from((1, -1)),
)
def test_batched_equals_scalar_bit_for_bit(name, label, g, lam, beta, tags, X, xt, j, sign):
    case = CASES[label]
    g = tuple(g[:2 * (case.rho + 1)])
    X = tuple(X[:len(tags)])
    call = _calls(case, g, lam, beta, tuple(tags), X, tuple(xt), j % len(X), sign,
                  DEFAULT_POLICY)[name]
    with mock.patch.object(operators, "s_eval", wraps=s_eval) as spy:
        batched = _outcome(call)
    assert spy.call_count <= 1
    with mock.patch.object(operators, "_batched", _scalar_batched):
        scalar = _outcome(call)
    assert batched == scalar


def test_coeff_V0_at_30_digits_matches_the_scalar_path():
    case = CASES["IV"]
    g = tuple(0.37 + 0.05 * k for k in range(8))
    args = (case, g, 1.45, 0.31, (1.0, -1.0, 1 / 1.45), (0.41 + 0.07j, 0.83 - 0.11j, -0.3 + 0.2j))
    fine = TruncationPolicy(precision_dps=30)
    batched = coeff_V0(*args, fine)
    with mock.patch.object(operators, "_batched", _scalar_batched):
        assert coeff_V0(*args, fine) == batched
    assert batched == pytest.approx(coeff_V0(*args), rel=1e-10)


@pytest.mark.parametrize("label", sorted(CASES))
def test_a_zero_coordinate_still_divides_by_zero(label):
    # s(2 X_j) vanishes at X_j = 0, and the replay divides by it as the
    # scalar path did
    case = CASES[label]
    g = tuple(0.37 + 0.05 * k for k in range(2 * (case.rho + 1)))
    X = (0j, 0.6 + 0.1j)
    with pytest.raises(ZeroDivisionError):
        coeff_V_shift(case, g, 1.45, 0.31, (1.0, -1.0), None, X, 0, 1)
    with pytest.raises(ZeroDivisionError):
        vd_V_pm(case, g, 1.45, 0.31, X, 0, -1)
    with pytest.raises(ZeroDivisionError):
        def_Vt_pm(case, g, 1.45, 0.31, (0.6 + 0.1j,), X, 0, 1)


def test_replay_rejects_a_formula_that_branches_on_s_values():
    case = CASES["II"]

    def more(s):  # records two arguments, asks for three on replay
        return s(0.3) if s(0.5) == 1.0 else s(0.7) + s(0.9)

    def fewer(s):  # records three arguments, asks for two on replay
        return s(0.3) + s(0.7) if s(0.5) == 1.0 else s(0.9)

    with pytest.raises(RuntimeError, match="more"):
        operators._batched(case, DEFAULT_POLICY, more)
    with pytest.raises(RuntimeError, match="fewer"):
        operators._batched(case, DEFAULT_POLICY, fewer)
