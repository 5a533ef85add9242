"""Operator coefficients run their formula once with the case's scalar
``s``, on case IV within a run with an ``s`` that remembers its values; the
values equal, bit for bit, those of one scalar ``s_eval`` call per
argument."""

import cmath
import contextlib
import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from references import groundstate_sq_factors, proof_params
from vandiejen import gamma, operators, sfun, verify
from vandiejen.eigenfunctions import factor_ratio
from vandiejen.operators import (
    Configuration,
    CouplingSet,
    MassTag,
    c0_constant,
    coeff_V0,
    coeff_V_shift,
    def_V0,
    def_V_pm,
    def_Vt_pm,
    source_constant,
    summation_boundary_term,
    summation_shift_term,
    vd_V0,
    vd_V_pm,
)
from vandiejen.sfun import (
    CaseKind,
    CaseParams,
    ConvergenceError,
    DomainError,
    s_eval,
)

CASES = {label: CaseParams(CaseKind.from_label(label), r=1.1, a=1.8)
         for label in ("I", "II", "III", "IV")}

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def _scalar_batched(case, formula, key=None):
    """The path before batching: each ``s`` argument through its own scalar
    ``s_eval`` call, in the order the formula asks for them, and no memo."""
    return formula(lambda z: complex(s_eval(case, complex(z))))


def _calls(case, g, lam, beta, tags, X, xt, j, sign):
    masses = tuple(t.value_for(lam) for t in tags)
    p = proof_params(case, g, lam, beta, masses, X)
    nu = j % (case.rho + 1)
    return {
        "coeff_V_shift": lambda: coeff_V_shift(case, g, lam, beta, masses, tags, X, j, sign),
        "coeff_V0": lambda: coeff_V0(case, g, lam, beta, masses, X),
        "vd_V_pm": lambda: vd_V_pm(case, g, lam, beta, X, j, sign),
        "vd_V0": lambda: vd_V0(case, g, lam, beta, X),
        "def_V_pm": lambda: def_V_pm(case, g, lam, beta, X, xt, j, sign),
        "def_Vt_pm": lambda: def_Vt_pm(case, g, lam, beta, X, xt, j % len(xt), sign),
        "def_V0": lambda: def_V0(case, g, lam, beta, X, xt),
        "c0_constant": lambda: c0_constant(case, g, lam, beta),
        "source_constant": lambda: source_constant(case, g, lam, beta, masses),
        "summation_shift_term": lambda: summation_shift_term(case, p, j, sign),
        "summation_boundary_term": lambda: summation_boundary_term(
            case, p, nu, use_c=sign > 0),
    }


FUNCTIONS = sorted(_calls(CASES["I"], (0.3, 0.4), 1.5, 0.3, (MassTag.PLUS_ONE,),
                          (0.4,), (0.2,), 0, 1))


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
    call = _calls(case, g, lam, beta, tuple(tags), X, tuple(xt), j % len(X), sign)[name]
    # within a run's memo, where case IV takes the remembering s
    with operators._coefficient_memo():
        batched = _outcome(call)
    with mock.patch.object(operators, "_batched", _scalar_batched):
        scalar = _outcome(call)
    assert batched == scalar


def _mp_scalar_batched(case, formula, key=None):
    """The scalar path with each ``s`` value at the argument's own type."""
    return formula(lambda z: s_eval(case, z))


def test_coeff_V0_at_30_digits_matches_the_scalar_path():
    case = CASES["IV"]
    g = tuple(0.37 + 0.05 * k for k in range(8))
    X = (0.41 + 0.07j, 0.83 - 0.11j, -0.3 + 0.2j)
    args = (case, g, 1.45, 0.31, (1.0, -1.0, 1 / 1.45))
    with mpmath.workdps(30), operators._coefficient_memo():
        fine = tuple(mpmath.mpc(x) for x in X)
        batched = coeff_V0(*args, fine)
        assert isinstance(batched, mpmath.mpc)
        # an mpmath value never enters the memo: it holds the remembering s
        # and the float coupling blocks, whose arguments are floats
        assert sorted(key[0] for key in operators._MEMO.get()) == ["nu_blocks", "s"]
        with mock.patch.object(operators, "_batched", _mp_scalar_batched):
            assert coeff_V0(*args, fine) == batched
    assert complex(batched) == pytest.approx(coeff_V0(*args, X), rel=1e-10)


@pytest.mark.parametrize("label", sorted(CASES))
def test_a_zero_coordinate_still_divides_by_zero(label):
    # s(2 X_j) vanishes at X_j = 0, and the formula divides by it as the
    # scalar path did, within a run as well
    case = CASES[label]
    g = tuple(0.37 + 0.05 * k for k in range(2 * (case.rho + 1)))
    X = (0j, 0.6 + 0.1j)
    for in_run in (False, True):
        with operators._coefficient_memo(on=in_run):
            with pytest.raises(ZeroDivisionError):
                coeff_V_shift(case, g, 1.45, 0.31, (1.0, -1.0), None, X, 0, 1)
            with pytest.raises(ZeroDivisionError):
                vd_V_pm(case, g, 1.45, 0.31, X, 0, -1)
            with pytest.raises(ZeroDivisionError):
                def_Vt_pm(case, g, 1.45, 0.31, (0.6 + 0.1j,), X, 0, 1)


# ---------------------------------------------------------------------------
# one formula pass on every case
# ---------------------------------------------------------------------------

SAMPLED = ("summation", "source", "eigen-plain", "kernel-cauchy", "kernel-dual",
           "deformed-groundstate", "deformed-constant", "kernel-deformed",
           "anti-symmetry", "parameter-swap")


def _row_bytes(identity, label, seed):
    report = verify.run_identity(identity, label, samples=3, seed=seed)
    return [verify.json_line(verify.sample_record(row)) for row in report.results]


@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@pytest.mark.parametrize("label", sorted(CASES))
@pytest.mark.parametrize("identity", SAMPLED)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_run_equals_one_s_eval_call_per_argument(identity, label, seed):
    # with the memo and, on case IV, the remembering s, against no memo and
    # one s_eval call per argument (an array argument being a path)
    rows = _row_bytes(identity, label, seed)
    with mock.patch.object(operators, "_batched", _mp_scalar_batched):
        assert _row_bytes(identity, label, seed) == rows


def _residuals(label):
    """A source residual and the summation terms at one point."""
    case = CASES[label]
    g = tuple(0.37 + 0.05 * k for k in range(2 * (case.rho + 1)))
    config = Configuration(case, CouplingSet(g, 1.45, 0.31),
                           (MassTag.PLUS_ONE, MassTag.MINUS_INV))
    X = (0.41 + 0.07j, 0.83 - 0.11j)
    return (verify.residual_source(config, X),
            verify.summation_terms(case, proof_params(case, g, 1.45, 0.31,
                                                      config.mass_values, X)))


@contextlib.contextmanager
def _no_array_s():
    """Fail on an array evaluation of ``s``; case IV's scalar ``s`` goes
    through the scalar branch of ``theta_eval``."""
    theta = sfun.theta_eval

    def scalar_theta(z, **nome):
        assert type(z) is complex
        return theta(z, **nome)

    with mock.patch.object(sfun, "_s_array", side_effect=AssertionError), \
            mock.patch.object(sfun, "theta_eval", scalar_theta):
        yield


@pytest.mark.parametrize("label", sorted(CASES))
def test_a_residual_takes_no_array_call(label):
    # every scalar s goes through the case's bound evaluator
    with _no_array_s():
        scalar_s = _residuals(label)
    with mock.patch.object(operators, "_batched", _scalar_batched):
        assert _residuals(label) == scalar_s


def _runs(formula):
    """``formula`` and the list of the ``s`` functions it was run with."""
    runs = []

    def counted(s):
        runs.append(s)
        return formula(s)

    return counted, runs


@pytest.mark.parametrize("label", ("I", "II", "III"))
def test_a_formula_runs_once_with_the_scalar_s(label):
    case = CASES[label]
    g = tuple(0.37 + 0.05 * k for k in range(2 * (case.rho + 1)))

    def formula(s):  # with an inner keyed call, which commits its own value
        return (coeff_V0(case, g, 1.45, 0.31, (1.0, -1.0), (0.41 + 0.07j, 0.6 - 0.2j))
                * s(0.3 + 0.1j) / s(0.7 - 0.2j))

    counted, runs = _runs(formula)
    with operators._coefficient_memo(), \
            mock.patch.object(sfun, "_s_array", side_effect=AssertionError):
        value = operators._batched(case, counted, ("test", label))
        assert runs == [case.s_scalar]
        # the formula's own value and the inner coefficient's
        assert operators._MEMO.get()[("test", label)] == value
        assert len(operators._MEMO.get()) == 3
        assert operators._batched(case, counted, ("test", label)) == value
        assert len(runs) == 1
    assert value == _scalar_batched(case, formula)


def test_a_formula_runs_once_on_the_elliptic_case():
    case = CASES["IV"]
    g = tuple(0.37 + 0.05 * k for k in range(8))

    def formula(s):  # branching on an s value is allowed: nothing replays
        v0 = coeff_V0(case, g, 1.45, 0.31, (1.0, -1.0), (0.41 + 0.07j, 0.6 - 0.2j))
        ratio = s(0.3 + 0.1j) / s(0.7 - 0.2j)
        return v0 * ratio if abs(ratio) < 1 else v0 / ratio

    counted, runs = _runs(formula)
    with _no_array_s():
        assert operators._batched(case, counted) == _scalar_batched(case, formula)
        assert runs == [case.s_scalar]
        with operators._coefficient_memo():
            value = operators._batched(case, counted, ("test", "IV"))
            memo = operators._MEMO.get()
            # one run with the run's remembering s, which the memo holds
            assert runs[1:] == [memo[("s", case)]]
            assert memo[("test", "IV")] == value
            assert len(memo) == 4  # with V_0 and its coupling blocks
            assert operators._batched(case, counted, ("test", "IV")) == value
            assert len(runs) == 2
    assert value == _scalar_batched(case, formula)


def _bits(z):
    return repr(z.real), repr(z.imag)


def test_the_remembering_s_keeps_signed_zeros():
    # on IV the sign of a zero part does not reach the value of s at these
    # points, so a case whose s shows the signs checks the keys too
    signed = CaseParams(CaseKind.ELLIPTIC, r=1.1, a=1.7)
    signed.__dict__["s_scalar"] = lambda z: z + complex(math.copysign(1.0, z.real),
                                                         math.copysign(1.0, z.imag))
    args = [complex(0.0, 0.4), complex(-0.0, 0.4), complex(0.0, -0.4), complex(-0.0, -0.4),
            complex(0.7, 0.0), complex(0.7, -0.0), complex(-0.7, 0.0), complex(-0.7, -0.0),
            complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    for case in (CASES["IV"], signed):
        outside = [_bits(case.s_scalar(z)) for z in args]
        for order in (list(range(len(args))), list(range(len(args)))[::-1]):
            with operators._coefficient_memo():
                inside = operators._batched(case, lambda s: [s(args[k]) for k in order + order])
            assert [_bits(v) for v in inside] == [outside[k] for k in order + order]


def test_a_pass_with_an_mpmath_argument_commits_nothing():
    case = CASES["II"]
    g = tuple(0.37 + 0.05 * k for k in range(4))
    args = (case, g, 1.45, 0.31, (1.0, -1.0 / 1.45))
    X = (0.41 + 0.07j, 0.83 - 0.11j)
    with mpmath.workdps(30), operators._coefficient_memo():
        fine = tuple(mpmath.mpc(x) for x in X)
        value = coeff_V0(*args, fine)
        assert isinstance(value, mpmath.mpc)
        # not the coefficient; its coupling blocks, a float pass, are kept
        assert [key[0] for key in operators._MEMO.get()] == ["nu_blocks"]
        with mock.patch.object(operators, "_batched", _mp_scalar_batched):
            assert coeff_V0(*args, fine) == value
        # a float pass after it commits as before
        coeff_V0(*args, X)
        assert len(operators._MEMO.get()) == 2
    assert complex(value) == pytest.approx(coeff_V0(*args, X), rel=1e-10)


@pytest.mark.parametrize("label, z", [("II", complex(0.3, 800.0)), ("II", complex(-0.7, -800.0)),
                                      ("III", complex(500.0, 0.3)), ("III", complex(-480.0, 1.1))])
def test_the_bound_evaluator_takes_the_array_path_where_cmath_overflows(label, z):
    case = CASES[label]
    with pytest.raises(OverflowError):
        if label == "II":
            cmath.sin(case.r * z)
        else:
            cmath.sinh(complex(z.real / case.a, z.imag / case.a) * cmath.pi)
    with np.errstate(over="ignore", invalid="ignore"):
        array = complex(s_eval(case, np.array([z]))[0])
        values = [case.s_scalar(z), s_eval(case, z), operators._batched(case, lambda s: s(z))]
    assert [_outcome(lambda v=v: v) for v in values] == [_outcome(lambda: array)] * 3


def test_factor_ratio_takes_its_gamma_steps_from_the_formulas_s():
    case = CASES["IV"]
    g = tuple(0.37 + 0.05 * k for k in range(8))
    factors = groundstate_sq_factors(case, g, 1.45, 0.31, (0, 1))
    X = (0.41 + 0.07j, 0.83 - 0.11j)
    with mock.patch.object(gamma, "s_eval", wraps=s_eval) as gamma_spy:
        values = [factor_ratio(case, factors, X, j, sign * 0.31j)
                  for j in (0, 1) for sign in (1, -1)]
    assert gamma_spy.call_count == 0
    with mock.patch.object(operators, "_batched", _scalar_batched):
        assert values == [factor_ratio(case, factors, X, j, sign * 0.31j)
                          for j in (0, 1) for sign in (1, -1)]
