"""The scalar (cmath) path of s_eval/theta_eval against the array (numpy)
path, the mpmath evaluator, and the term-count scan it replaced."""

import cmath
import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from vandiejen import sfun
from vandiejen.sfun import (
    TARGET_REL_ERR,
    CaseKind,
    CaseParams,
    ConvergenceError,
    DomainError,
    _theta_terms,
    _theta_terms_array,
    s_eval,
    s_eval_mp,
    theta_eval,
)

CASES = {label: CaseParams(CaseKind.from_label(label), r=1.1, a=1.8)
         for label in ("I", "II", "III", "IV")}

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

re_part = st.floats(-4.0, 4.0)
im_part = st.floats(0.0, 2.5)
half_plane = st.sampled_from((1.0, -1.0))


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (ConvergenceError, DomainError) as err:
        return (type(err).__name__, str(err))


@PROPERTY
@given(label=st.sampled_from(sorted(CASES)), x=re_part, y=im_part, sign=half_plane)
def test_scalar_s_eval_equals_array_path(label, x, y, sign):
    case = CASES[label]
    z = complex(x, sign * y)
    scalar = _outcome(s_eval, case, z)
    array = _outcome(lambda: complex(s_eval(case, np.array([z]))[0]))
    assert scalar == array
    if not isinstance(scalar, tuple):
        assert type(scalar) is complex


@PROPERTY
@given(mod=st.floats(0.05, 0.8), arg=st.floats(-math.pi, math.pi), x=re_part,
       y=st.floats(0.0, 4.0), sign=half_plane)
def test_scalar_theta_eval_equals_array_path(mod, arg, x, y, sign):
    q = cmath.rect(mod, arg)
    z = complex(x, sign * y)
    scalar = _outcome(theta_eval, z, q=q)
    array = _outcome(lambda: complex(theta_eval(np.array([z]), q=q)[0]))
    assert scalar == array


@pytest.mark.parametrize("nome", [{"q": 1.5}, {"q": 0.0}, {"q": -0.0}, {"q": math.nan},
                                  {"q": 0j}, {}, {"q": 0.3, "tau": 1j}],
                         ids=["q=1.5", "q=0", "q=-0", "q=nan", "q=0j", "none", "both"])
def test_an_invalid_nome_is_rejected_on_every_path(nome):
    errors = set()
    for z in (0.3, 0.3 + 0j, np.array([0.3]), mpmath.mpf("0.3")):
        with pytest.raises(DomainError) as err:
            theta_eval(z, **nome)
        errors.add(str(err.value))
    assert len(errors) == 1


def test_each_nome_keeps_its_own_bound_series():
    # -0.3, -0.3 + 0j and -0.3 - 0j compare equal, but the last lies across
    # the branch cut of log q, so q^(1/4) and every value differ; the series
    # theta_eval keeps for a float nome must never serve it
    nomes = [0.3, -0.3] + [complex(re, im) for re, im in itertools.product(
        (0.3, -0.3, 0.0, -0.0), (0.0, -0.0, 0.3, -0.3)) if re or im]
    points = [complex(x, y) for x, y in itertools.product((0.0, -0.0, 0.7), (0.0, -0.0, 0.4))]
    for order in (nomes, nomes[::-1]):
        sfun._float_nome_series.cache_clear()
        for q in order:
            for z in points:
                want = complex(theta_eval(np.array([z]), q=q)[0])
                assert _bit_outcome(theta_eval, z, q=q) == _bit_outcome(lambda: want), (q, z)


@pytest.mark.parametrize("label", sorted(CASES))
def test_scalar_path_agrees_with_batch_in_both_half_planes(label):
    case = CASES[label]
    rng = np.random.default_rng(5)
    pts = rng.uniform(-2, 2, 64) + 1j * rng.uniform(-1, 1, 64)
    assert (pts.imag > 0).any() and (pts.imag < 0).any()
    batch = s_eval(case, pts)
    for z, b in zip(pts, batch):
        # each point of a batch sums the theta series to its own term count
        assert s_eval(case, complex(z)) == b


@pytest.mark.parametrize("label", sorted(CASES))
def test_scalar_path_matches_mpmath(label):
    # the mpmath route runs the same series; the oracle (jtheta on case IV)
    # is the independent check
    case = CASES[label]
    rng = np.random.default_rng(11)
    for z in rng.uniform(-2, 2, 4) + 1j * rng.uniform(-1, 1, 4):
        value = s_eval(case, complex(z))
        assert value == pytest.approx(complex(s_eval_mp(case, complex(z), 30)), rel=1e-12)
        assert value == pytest.approx(oracles.s_oracle(label, complex(z), r=case.r, a=case.a),
                                      rel=1e-12)


def test_scalar_argument_types():
    case = CASES["IV"]
    ref = s_eval(case, 0.5 + 0j)
    for x in (0.5, np.float64(0.5), np.float32(0.5), np.complex128(0.5)):
        assert s_eval(case, x) == ref
    assert s_eval(case, 2) == s_eval(case, np.int64(2)) == s_eval(case, 2.0)


def test_an_mpmath_argument_takes_the_mpmath_route():
    case = CASES["IV"]
    z = 0.37 + 0.11j
    with mpmath.workdps(30):
        value = s_eval(case, mpmath.mpc(z))
    assert isinstance(value, mpmath.mpc)
    assert value == s_eval_mp(case, z, 30)


def _reference_terms(log_q, im_max, tol, abs_q):
    """The term-count scan that the count table replaced."""
    decay = log_q.real
    n_stop = None
    for n in range(1, 401):
        if n * (n + 1) * decay + 2 * n * im_max < math.log(tol):
            n_stop = n
            break
    if n_stop is None:
        raise ConvergenceError(
            "theta series tail still above target after "
            f"400 terms (|q|={abs_q:.6g}, max|Im z|={im_max:.3g})"
        )
    if abs(log_q) / 4 + (2 * n_stop + 1) * im_max > 650.0:
        raise DomainError(
            f"theta argument too deep in the strip: |Im z|={im_max:.3g} "
            "would overflow float64"
        )
    return n_stop


GRID_Q = (1e-300, 1e-8, 0.05, 0.3, 0.6, 0.9, 0.99, 0.999, 0.99999)
GRID_IM = (0.0, 1e-9, 0.3, 1.0, 2.7, 8.0, 40.0, 200.0, 1e5, math.inf, math.nan)
GRID_TOL = (1e-300, 1e-16, TARGET_REL_ERR, 1e-6, 0.5, 0.999999)


def _boundary_points(mods=(0.05, 0.3, 0.6, 0.9, 0.99), tols=(1e-16, 1e-13, 1e-6)):
    """(|q|, |Im z|, tol) on and next to the tail-bound boundary of each n,
    where the closed-form root sits on an integer and rounding decides."""
    for mod, tol in itertools.product(mods, tols):
        for n in range(1, 40):
            im0 = (math.log(tol) - n * (n + 1) * math.log(mod)) / (2 * n)
            if im0 >= 0:
                for im_max in (math.nextafter(im0, 0.0), im0, math.nextafter(im0, math.inf)):
                    yield mod, im_max, tol


def test_table_term_count_matches_scan():
    seen = set()
    grid = itertools.chain(itertools.product(GRID_Q, GRID_IM, GRID_TOL), _boundary_points())
    for mod, im_max, tol in grid:
        for q in (complex(mod), cmath.rect(mod, 2.0)):
            log_q = cmath.log(q)
            got = _outcome(_theta_terms, log_q, im_max, tol, abs(q))
            assert got == _outcome(_reference_terms, log_q, im_max, tol, abs(q)), (q, im_max, tol)
            seen.add(got[0] if isinstance(got, tuple) else "n")
    # the grid reaches the term cap and the overflow guard
    assert seen == {"n", "ConvergenceError", "DomainError"}


def _bit_outcome(fn, *args, **kwargs):
    """The value as the reprs of its parts (signs of zero and NaN kept), the
    error's type and message, or None (a bound series that has no value)."""
    out = _outcome(fn, *args, **kwargs)
    return out if out is None or isinstance(out, tuple) else (repr(out.real), repr(out.imag))


def _reference_series(q):
    """The scalar series as it was before the count table: the count by a
    scan from n = 1, then the terms with their constants built per term."""
    log_q = cmath.log(q)
    decay, quarter, log_tol = log_q.real, abs(log_q) / 4, math.log(TARGET_REL_ERR)

    def series(z):
        im = abs(z.imag)
        n_stop = 1
        while not n_stop * (n_stop + 1) * decay + 2 * n_stop * im < log_tol:
            if n_stop == 400:
                return None
            n_stop += 1
        if quarter + (2 * n_stop + 1) * im > 650.0:
            return None
        total = 0j
        try:
            for n in range(n_stop + 1):
                exponent, k = (n + 0.5) ** 2 * log_q, 1j * (2 * n + 1)
                kz = k * z
                term = (cmath.exp(exponent + kz) - cmath.exp(exponent - kz)) / 2j
                if n % 2:
                    total -= term
                else:
                    total += term
        except (OverflowError, ValueError):
            return None
        return 2.0 * total

    return series


# the float nomes of r = 1 at a = 2, 0.5 and 20 (a series of two terms),
# one whose counts reach the term cap below the overflow guard, a complex
# one, and the two sides of the branch cut of log q
SERIES_NOMES = (math.exp(-2.0), math.exp(-0.5), math.exp(-20.0), 0.999,
                cmath.rect(0.3, 2.0), complex(-0.3, 0.0), complex(-0.3, -0.0))


@pytest.mark.parametrize("q", SERIES_NOMES, ids=repr)
def test_the_series_equals_the_scan_and_sum_it_replaced(q):
    new = sfun._theta_series(cmath.log(q), math.log(TARGET_REL_ERR), cmath.exp, 650.0)
    old = _reference_series(q)
    rng = np.random.default_rng(23)
    n_pts = 3000  # 21,000 over the seven nomes
    ims = rng.uniform(0.0, 4.0, n_pts) * rng.choice((-1.0, 1.0), n_pts)
    points = [complex(x, y) for x, y in zip(rng.uniform(-4.0, 4.0, n_pts), ims)]
    # each entry of the count table and the float below it, where the count steps
    for im in sfun._count_table(cmath.log(q).real, math.log(TARGET_REL_ERR)):
        for y in (im, math.nextafter(im, 0.0)):
            points += [complex(0.7, y), complex(-1.3, -y)]
    parts = (0.0, -0.0, 0.4, -1.3, math.nan, math.inf, -math.inf)
    points += [complex(x, y) for x, y in itertools.product(parts, parts)]
    outcomes = set()
    for z in points:
        got = _bit_outcome(new, z)
        assert got == _bit_outcome(old, z), (q, z)
        outcomes.add(got is None)
    assert outcomes == {True, False}


def _unsigned_zeros(outcome):
    return outcome if outcome is None else tuple("0.0" if p == "-0.0" else p for p in outcome)


@pytest.mark.parametrize("q", SERIES_NOMES, ids=repr)
def test_the_series_is_odd_bit_for_bit(q):
    # the run memo of case IV keeps one value for z and -z (operators._run_s);
    # the points of the test above, compared as reprs (a NaN's sign is no value)
    series = sfun._theta_series(cmath.log(q), math.log(TARGET_REL_ERR), cmath.exp, 650.0)
    rng = np.random.default_rng(23)
    n_pts = 3000
    ims = rng.uniform(0.0, 4.0, n_pts) * rng.choice((-1.0, 1.0), n_pts)
    points = [complex(x, y) for x, y in zip(rng.uniform(-4.0, 4.0, n_pts), ims)]
    for im in sfun._count_table(cmath.log(q).real, math.log(TARGET_REL_ERR)):
        for y in (im, math.nextafter(im, 0.0)):
            points += [complex(0.7, y), complex(-1.3, -y)]
    parts = (0.0, -0.0, 0.4, -1.3, math.nan, math.inf, -math.inf)
    points += [complex(x, y) for x, y in itertools.product(parts, parts)]
    outcomes = set()
    for z in points:
        at_z = series(z)
        negated = _bit_outcome(lambda: at_z if at_z is None else -at_z)
        got = _bit_outcome(series, -z)
        if z.real and z.imag:
            assert got == negated, (q, z)
            outcomes.add(got is None)
        else:
            # a zero part may lose the sign of a zero, and nothing else
            assert _unsigned_zeros(got) == _unsigned_zeros(negated), (q, z)
    # values, and points past the term cap or the overflow guard
    assert outcomes == {True, False}


@pytest.mark.parametrize("mod", GRID_Q)
def test_the_count_table_holds_the_flip_of_each_tail_bound(mod):
    decay = math.log(mod)
    for log_tol in map(math.log, GRID_TOL):
        table = sfun._count_table(decay, log_tol)
        assert len(table) == sfun._THETA_TERM_CAP
        assert all(a <= b for a, b in zip(table, table[1:]))
        for n, im in enumerate(table, start=1):
            assert not sfun._tail_below(n, decay, im, log_tol), (mod, log_tol, n)
            if im > 0:
                assert sfun._tail_below(n, decay, math.nextafter(im, 0.0), log_tol), (mod, n)


def test_the_count_array_is_the_count_table_read_only():
    decay, log_tol = math.log(0.3), math.log(TARGET_REL_ERR)
    array = sfun._count_array(decay, log_tol)
    assert array.tolist() == list(sfun._count_table(decay, log_tol))
    assert not array.flags.writeable
    assert sfun._count_array(decay, log_tol) is array


def test_complex_nomes_share_their_table_and_build_it_once():
    sfun._count_table.cache_clear()
    z = 0.4 + 0.3j
    for _ in range(50):
        # -0.3 + 0j and -0.3 - 0j: one ln|q|, so one table
        for q in (complex(-0.3, 0.0), complex(-0.3, -0.0)):
            theta_eval(z, q=q)
    info = sfun._count_table.cache_info()
    assert (info.misses, info.hits) == (1, 99)


# q from 2e-9 (the shortest series, n_stop = 1, for |Im z| below 5) to
# 0.99 and the outcomes the points reach: the overflow guard needs a count
# below the term cap at a large |Im z|, which q near 1 does not give; at
# q = 0.99999 every point meets the term cap
_EVERY = {"value", "ConvergenceError", "DomainError"}
_NO_GUARD = {"value", "ConvergenceError"}


_REACHED = [(20.0, _EVERY), (3.0, _EVERY), (1.2, _EVERY), (0.5, _EVERY), (0.1, _NO_GUARD),
            (0.01, _NO_GUARD), (1e-5, {"ConvergenceError"})]


@pytest.mark.parametrize("a, reached", _REACHED, ids=[f"a={a:g}" for a, _ in _REACHED])
def test_elliptic_scalar_s_is_theta_eval_bit_for_bit(a, reached):
    case = CaseParams(CaseKind.ELLIPTIC, r=1.0, a=a)
    scale, q = case._s_scale, case.q
    ims = [im for _, im, _ in _boundary_points(mods=(q,), tols=(TARGET_REL_ERR,))]
    points = [complex(x, sign * im) for im in [0.0, 0.4, *ims] for x, sign in
              ((0.4, 1.0), (-1.3, -1.0))]
    points += [complex(math.inf, 0.3), complex(math.nan, 0.3), complex(0.3, math.nan),
               complex(0.3, math.inf), complex(0.3, 1e300)]
    seen = set()
    with np.errstate(all="ignore"):
        for z in points:
            got = _bit_outcome(case.s_scalar, z)
            w = case.r * z  # r = 1: z itself, but for an infinite part
            for theta in (_outcome(theta_eval, w, q=q),
                          _outcome(lambda: complex(theta_eval(np.array([w]), q=q)[0]))):
                want = theta if isinstance(theta, tuple) else _bit_outcome(lambda: scale * theta)
                assert got == want, z
            seen.add(got[0] if got[0] in ("ConvergenceError", "DomainError") else "value")
    assert seen == reached


def test_vectorised_term_count_matches_the_scalar_count():
    grid = itertools.chain(itertools.product(GRID_Q, GRID_IM, GRID_TOL), _boundary_points())
    accepted = {}
    for mod, im, tol in grid:
        for q in (complex(mod), cmath.rect(mod, 2.0)):
            log_q = cmath.log(q)
            one = _outcome(_theta_terms, log_q, im, tol, abs(q))
            if not isinstance(one, tuple):
                assert _theta_terms_array(log_q, np.array([im]), tol).tolist() == [one]
                accepted.setdefault((q, tol), []).append((im, one))
    # the accepted points of one nome and tolerance, together in one call
    for (q, tol), pairs in accepted.items():
        ims, want = zip(*pairs)
        got = _theta_terms_array(cmath.log(q), np.array(ims[::-1] + ims), tol)
        assert got.tolist() == list(want[::-1] + want), (q, tol)


def test_the_largest_imaginary_part_raises_its_error():
    case = CASES["IV"]
    with pytest.raises(DomainError, match=r"\|Im z\|=220 "):
        s_eval(case, np.array([0.1, 0.3 + 200j, 0.2 - 150j]))
    with pytest.raises(ConvergenceError, match=r"max\|Im z\|=inf"):
        theta_eval(np.array([0.1, complex(0.3, math.inf), 0.3 + 200j]), q=case.q)
    # an overflowing |Im z| raises the scalar error, not a numpy warning
    with pytest.raises(ConvergenceError, match=r"max\|Im z\|=1.1e\+200"):
        s_eval(case, np.array([0.1, 0.3 + 1e200j]))


def _step_of_the_term_count(case):
    """The count at Im z = 0, and the |Im z| where it steps up by one."""
    tol = TARGET_REL_ERR
    log_q = cmath.log(case.q)
    n = _theta_terms(log_q, 0.0, tol, case.q)
    step = (math.log(tol) - n * (n + 1) * log_q.real) / (2 * n)
    assert _theta_terms(log_q, 0.99 * step, tol, case.q) == n
    assert _theta_terms(log_q, 1.01 * step, tol, case.q) == n + 1
    return step


def _points(case, below):
    step = _step_of_the_term_count(case)
    im = st.floats(0.0, 0.99 * step) if below else st.floats(1.01 * step, step + 1.5)
    point = st.builds(lambda x, y, sign: complex(x, sign * y), re_part, im, half_plane)
    return st.lists(point, min_size=1, max_size=6)


# r = 1, a = 2 (the CLI default; the count steps from 4 to 5 at |Im z| = 1.258)
# and a = 0.5, where a point summed to a partner's count changes its bits
STEPPED = [CaseParams(CaseKind.ELLIPTIC, r=1.0, a=a) for a in (2.0, 0.5)]


@pytest.mark.parametrize("case", STEPPED, ids=lambda c: f"a={c.a:g}")
@PROPERTY
@given(data=st.data())
def test_a_point_gets_the_same_s_value_in_any_call(case, data):
    low = data.draw(_points(case, below=True))
    high = data.draw(_points(case, below=False))
    together = s_eval(case, np.array(low + high))
    apart = np.concatenate([s_eval(case, np.array(low)), s_eval(case, np.array(high))])
    assert together.tobytes() == apart.tobytes()


def test_term_count_errors_reach_both_paths():
    case = CASES["IV"]
    deep = 0.3 + 60j
    with pytest.raises(DomainError, match="too deep in the strip"):
        s_eval(case, deep)
    with pytest.raises(DomainError, match="too deep in the strip"):
        s_eval(case, np.array([deep]))
    with pytest.raises(ConvergenceError, match="after 400 terms"):
        theta_eval(0.3, q=0.99999)
    with pytest.raises(ConvergenceError, match="after 400 terms"):
        theta_eval(np.array([0.3]), q=0.99999)
