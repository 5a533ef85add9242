"""An operator at a point as ``(weight, point)`` pairs: applied to a
function, the weights give the terms of the loops they replaced, bit for
bit.  A coefficient handed a whole branch-tracker path agrees with its
values point by point, and exactly at the target.  Runners that apply one
operator at one point to several functions compute its weights once."""

import cmath
import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from vandiejen import operators, sfun, verify
from vandiejen.eigenfunctions import (
    BranchError,
    BranchTracker,
    conjugation_terms,
    pathwise,
)
from vandiejen.operators import (
    MassTag,
    coeff_V0,
    coeff_V_shift,
    def_V0,
    def_V_pm,
    def_Vt_pm,
    conjugated_operator,
    def_operator,
    operator_terms,
    vd_V0,
    vd_V_pm,
    vd_operator,
    weighted_terms,
)
from vandiejen.sfun import CaseKind, CaseParams, PoleProximityError, s_eval

CASES = {label: CaseParams(CaseKind.from_label(label), r=1.1, a=1.8)
         for label in ("I", "II", "III", "IV")}

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


# ---------------------------------------------------------------------------
# the term loops as they were before weights
# ---------------------------------------------------------------------------


def _ref_operator_terms(case, g, lam, beta, masses, tags, X, fn):
    X = tuple(complex(v) for v in X)
    terms = []
    for j, m_j in enumerate(masses):
        step = 1j * beta / m_j
        pref = case.s_scalar(1j * lam * m_j * beta)
        for sign in (1, -1):
            coeff = coeff_V_shift(case, g, lam, beta, masses, tags, X, j, sign)
            shifted = list(X)
            shifted[j] = X[j] - sign * step
            terms.append(pref * coeff * fn(tuple(shifted)))
    terms.append(coeff_V0(case, g, lam, beta, masses, X) * fn(X))
    return terms


def _ref_vd_terms(case, g, lam, beta, x, fn):
    x = tuple(complex(v) for v in x)
    pref = case.s_scalar(1j * lam * beta)
    terms = []
    for j in range(len(x)):
        for sign in (1, -1):
            coeff = vd_V_pm(case, g, lam, beta, x, j, sign)
            shifted = list(x)
            shifted[j] = x[j] - sign * 1j * beta
            terms.append(pref * coeff * fn(tuple(shifted)))
    terms.append(vd_V0(case, g, lam, beta, x) * fn(x))
    return terms


def _ref_def_terms(case, g, lam, beta, x, xt, fn):
    x = tuple(complex(v) for v in x)
    xt = tuple(complex(v) for v in xt)
    pref_x = case.s_scalar(1j * lam * beta)
    pref_t = case.s_scalar(1j * beta)
    terms = []
    for j in range(len(x)):
        for sign in (1, -1):
            coeff = def_V_pm(case, g, lam, beta, x, xt, j, sign)
            shifted = list(x)
            shifted[j] = x[j] - sign * 1j * beta
            terms.append(pref_x * coeff * fn(tuple(shifted), xt))
    for k in range(len(xt)):
        for sign in (1, -1):
            coeff = def_Vt_pm(case, g, lam, beta, x, xt, k, sign)
            shifted = list(xt)
            shifted[k] = xt[k] + sign * 1j * lam * beta
            terms.append(-pref_t * coeff * fn(x, tuple(shifted)))
    terms.append(def_V0(case, g, lam, beta, x, xt) * fn(x, xt))
    return terms


def _ref_apply_sqrt_operator(case, g, lam, beta, tags, Z, h_fn, terms):
    Z = tuple(complex(v) for v in Z)
    masses = tuple(t.value_for(lam) for t in tags)
    total = 0j
    for b, j, sign in terms.terms:
        root_here, root_there, shifted = terms.roots(Z, b, j, sign)
        total += b.prefactor(case.s_scalar) * root_here * root_there * h_fn(shifted)
    total += coeff_V0(case, g, lam, beta, masses, Z) * h_fn(Z)
    return total


def _outcome(call):
    """The value (a number or a list) as pairs of float parts, NaN as the
    string ``nan``; or the name of the error."""
    try:
        value = call()
    except (ZeroDivisionError, BranchError, PoleProximityError) as err:
        return type(err).__name__
    values = value if isinstance(value, list) else [value]
    return [tuple("nan" if p != p else p for p in (v.real, v.imag)) for v in values]


def _exp(k):
    return lambda Z: cmath.exp(1j * sum(kv * z for kv, z in zip(k, Z)))


coord = st.builds(complex, st.floats(0.15, 1.2), st.floats(-0.35, 0.35))
wave = st.floats(-0.9, 0.9)
OPERATOR = dict(
    label=st.sampled_from(sorted(CASES)),
    g=st.lists(st.floats(-0.4, 0.6), min_size=8, max_size=8),
    lam=st.floats(0.3, 1.7),
    beta=st.floats(0.2, 0.4),
)


@PROPERTY
@given(tags=st.lists(st.sampled_from(list(MassTag)), min_size=1, max_size=3),
       X=st.lists(coord, min_size=3, max_size=3), k=st.lists(wave, min_size=3, max_size=3),
       **OPERATOR)
def test_plain_weights_give_the_old_terms_bit_for_bit(label, g, lam, beta, tags, X, k):
    case = CASES[label]
    g = tuple(g[:2 * (case.rho + 1)])
    n = len(tags)
    X, fn = tuple(X[:n]), _exp(k[:n])
    masses = tuple(t.value_for(lam) for t in tags)
    ref = _outcome(lambda: _ref_operator_terms(case, g, lam, beta, masses, tags, X, fn))
    assert _outcome(lambda: [w * fn(Q) for w, Q in conjugated_operator(
        case, g, lam, beta, masses, tags).weights(X)]) == ref
    assert _outcome(lambda: operator_terms(case, g, lam, beta, masses, tags, X, fn)) == ref

    ref = _outcome(lambda: _ref_vd_terms(case, g, lam, beta, X, fn))
    op = vd_operator(case, g, lam, beta, range(n))
    assert _outcome(lambda: [w * fn(Q) for w, Q in op.weights(X)]) == ref
    assert _outcome(lambda: sum(weighted_terms(op.weights(X), fn), start=0j)) == _outcome(
        lambda: sum(_ref_vd_terms(case, g, lam, beta, X, fn), start=0j))


@PROPERTY
@given(x=st.lists(coord, min_size=0, max_size=2), xt=st.lists(coord, min_size=0, max_size=2),
       k=st.lists(wave, min_size=4, max_size=4), **OPERATOR)
def test_two_species_weights_give_the_old_terms_bit_for_bit(label, g, lam, beta, x, xt, k):
    case = CASES[label]
    g = tuple(g[:2 * (case.rho + 1)])
    x, xt = tuple(x), tuple(xt)
    exp_x, exp_t = _exp(k[:2]), _exp(k[2:])

    def fn(a, b):
        return exp_x(a) * exp_t(b)

    ref = _outcome(lambda: _ref_def_terms(case, g, lam, beta, x, xt, fn))
    n = len(x)
    op = def_operator(case, g, lam, beta, range(n), range(n, n + len(xt)))
    assert _outcome(lambda: [w * fn(Q[:n], Q[n:]) for w, Q in op.weights((*x, *xt))]) == ref
    # the old action subtracted the deformed terms; adding their negation
    # is the same to the bit
    assert _outcome(lambda: sum(weighted_terms(op.weights((*x, *xt)),
                                               lambda Q: fn(Q[:n], Q[n:])), start=0j)) == _outcome(
        lambda: sum(_ref_def_terms(case, g, lam, beta, x, xt, fn), start=0j))


@PROPERTY
@given(tags=st.lists(st.sampled_from(list(MassTag)), min_size=1, max_size=2),
       X=st.lists(st.builds(complex, st.floats(0.3, 0.9), st.floats(-0.1, 0.1)),
                  min_size=2, max_size=2),
       dX=st.lists(st.builds(complex, st.floats(-0.08, 0.08), st.floats(-0.04, 0.04)),
                   min_size=2, max_size=2),
       k=st.lists(wave, min_size=2, max_size=2), **OPERATOR)
def test_square_root_weights_give_the_old_action_bit_for_bit(label, g, lam, beta, tags, X,
                                                             dX, k):
    case = CASES[label]
    g = tuple(g[:2 * (case.rho + 1)])
    n = len(tags)
    base = (X[0], X[1] + 0.6)[:n]
    fn = _exp(k[:n])
    terms = conjugation_terms(case, g, lam, beta, tags, ((), ()), BranchTracker(base))
    for Z in (base, tuple(b + d for b, d in zip(base, dX))):
        ref = _outcome(lambda: _ref_apply_sqrt_operator(case, g, lam, beta, tags, Z, fn, terms))
        assert _outcome(lambda: sum(weighted_terms(terms.weights(Z), fn), start=0j)) == ref
        assert _outcome(lambda: sum((w * fn(Q) for w, Q in terms.weights(Z)), start=0j)) == ref


# ---------------------------------------------------------------------------
# a coefficient on a whole path
# ---------------------------------------------------------------------------


def _coefficients(case, g, lam, beta, tags, j, sign):
    masses = tuple(t.value_for(lam) for t in tags)
    return {
        "coeff_V_shift": lambda P: coeff_V_shift(case, g, lam, beta, masses, tags, P, j, sign),
        "vd_V_pm": lambda P: vd_V_pm(case, g, lam, beta, P, j, sign),
        "def_V_pm": lambda P: def_V_pm(case, g, lam, beta, P[:1], P[1:], 0, sign),
        "def_Vt_pm": lambda P: def_Vt_pm(case, g, lam, beta, P[:1], P[1:], 0, sign),
    }


COEFFICIENTS = sorted(_coefficients(CASES["I"], (), 1.0, 1.0, (), 0, 1))


@PROPERTY
@pytest.mark.parametrize("name", COEFFICIENTS)
@given(tags=st.lists(st.sampled_from(list(MassTag)), min_size=2, max_size=2),
       base=st.lists(coord, min_size=2, max_size=2),
       target=st.lists(coord, min_size=2, max_size=2),
       j=st.integers(0, 1), sign=st.sampled_from((1, -1)), **OPERATOR)
def test_a_path_agrees_with_its_points_and_ends_on_the_scalar_value(
        name, label, g, lam, beta, tags, base, target, j, sign):
    case = CASES[label]
    g = tuple(g[:2 * (case.rho + 1)])
    coeff = _coefficients(case, g, lam, beta, tuple(tags), j, sign)[name]
    # the path as the tracker builds it
    ts = [t / 48 for t in range(1, 49)]
    path = tuple(np.array([b + t * (z - b) for t in ts]) for b, z in zip(base, target))
    try:
        points = [coeff(tuple(complex(c[k]) for c in path)) for k in range(len(ts))]
    except (ZeroDivisionError, PoleProximityError):
        assume(False)
    assume(all(cmath.isfinite(v) and 1e-200 < abs(v) < 1e200 for v in points))
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        values = pathwise(coeff)(path)
    assert values.shape == (len(ts),)
    for value, point in zip(values, points):
        assert abs(value - point) <= 1e-13 * abs(point)
    assert complex(values[-1]) == points[-1]


def test_a_formula_may_mix_scalar_and_array_arguments():
    # a scalar argument takes the scalar s, each array argument its own
    # array call
    case = CASES["IV"]
    z = np.array([0.3 + 0.1j, 0.7 - 0.2j, 1.1 + 0.05j])

    def formula(v):
        return lambda s: s(0.5 + 0.1j) * s(v) / s(2 * v)

    with mock.patch.object(sfun, "s_eval", wraps=s_eval) as spy:
        values = operators._batched(case, formula(z))
    assert [call.args[1].shape for call in spy.call_args_list] == [z.shape] * 2
    for value, v in zip(values, z.tolist()):
        point = operators._batched(case, formula(v))
        assert abs(value - point) <= 1e-15 * abs(point)


# ---------------------------------------------------------------------------
# weights computed once per point
# ---------------------------------------------------------------------------


def _counting(module, name, counts, key=lambda *args: None):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts.append((name, key(*args)))
        return original(*args, **kwargs)

    return mock.patch.object(module, name, counted)


@pytest.mark.parametrize("seed", (0, 1))
def test_an_anti_symmetry_sample_builds_each_operator_once(seed):
    # the operators built: +beta and -beta, plain and two-species
    counts = []
    with _counting(operators, "vd_V0", counts), _counting(operators, "def_V0", counts):
        report = verify.run_identity("anti-symmetry", "IV", samples=1, seed=seed)
    assert len(report.results) == 10
    assert counts.count(("vd_V0", None)) == 2
    assert counts.count(("def_V0", None)) == 2


@pytest.mark.parametrize("label", ("I", "II"))
def test_a_conjugation_sample_builds_each_form_once_per_point(label):
    # each V_0 is evaluated once per point, whether the screen, a form or
    # the sheet-fault row asks first: the run's memo takes one V_0 value
    # per point and never replaces one; the base and the offset point
    committed = []

    class CountingMemo(dict):
        def __setitem__(self, key, value):
            committed.append(key)
            super().__setitem__(key, value)

    @contextlib.contextmanager
    def counting_memo():
        token = operators._MEMO.set(CountingMemo())
        try:
            yield
        finally:
            operators._MEMO.reset(token)

    with mock.patch.object(verify, "_coefficient_memo", counting_memo):
        report = verify.run_identity("conjugation", label, samples=1, seed=3)
    assert len(report.results) == 13
    points = [key[-1] for key in committed if key[0] == "V0"]
    assert len(points) == len(set(points)) == 2


def test_a_quasi_invariance_sample_builds_one_operator_per_draw():
    # the probe of a draw and every probe point of its residuals share the
    # draw's two-species operator; each draw draws one coupling
    counts = []
    with _counting(operators, "def_operator", counts), _counting(verify, "def_operator", counts), \
            _counting(verify, "_draw_coupling", counts):
        report = verify.run_identity("quasi-invariance", "II", samples=3, seed=0)
    assert len(report.results) == 18
    assert counts.count(("def_operator", None)) == counts.count(("_draw_coupling", None)) >= 3


def test_a_direct_kernel_row_evaluates_its_kernel_once_per_point():
    # calibration, the coherence check and the residual share one kernel
    # value per point
    points = []
    continued_root = verify.continued_root

    def counted(case, factors, Z, tracker):
        points.append(Z)
        return continued_root(case, factors, Z, tracker)

    with mock.patch.object(verify, "continued_root", counted):
        report = verify.run_identity("kernel-cauchy", "II", samples=6, seed=0)
    assert any("/direct@p1" in row.label for row in report.results)
    assert len(points) == len(set(points)) == 10


@pytest.mark.parametrize("label", ("III", "IV"))
@pytest.mark.parametrize("identity", sorted(verify._KERNELS))
def test_a_kernel_run_without_direct_rows_takes_no_continued_root(identity, label):
    # only the direct rows, on cases I and II, take the kernel's root
    calls = []
    continued_root = verify.continued_root

    def counted(*args):
        calls.append(args)
        return continued_root(*args)

    with mock.patch.object(verify, "continued_root", counted):
        report = verify.run_identity(identity, label, samples=8, seed=0)
        assert report.results and calls == []
        verify.run_identity(identity, "II", samples=8, seed=0)
    assert calls
