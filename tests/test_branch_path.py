"""The branch tracker's path walk: one call of a factor on the whole path
against a reference walk that calls it once per path point, and the steps
decided on arrays against the same path's values walked step by step."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from references import (deformed_groundstate_sq_factors, groundstate_sq_factors, phi_pair,
                        psi_single)
from vandiejen.eigenfunctions import (
    BranchError,
    BranchTracker,
    ConjugatedTerms,
    conjugation_terms,
    continued_root,
    eigenfunction_factors,
)
from vandiejen.operators import MassTag, def_operator, weighted_terms
from vandiejen.sfun import CaseKind, CaseParams, PoleProximityError

R, A = 1.1, 1.8
LAM, BETA = 1.45, 0.31
CASES = {label: CaseParams(CaseKind.from_label(label), r=R, a=A) for label in ("I", "II")}
G = {label: tuple(0.37 + 0.05 * k for k in range(2 * (case.rho + 1)))
     for label, case in CASES.items()}

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


class ReferenceTracker(BranchTracker):
    """The walk as it was written before paths: one scalar call of the
    factor per path point, bisecting ambiguous steps."""

    def _continue(self, key, fn, target):
        w0 = complex(fn(self.base))
        if w0 == 0:
            raise BranchError("square-root argument vanishes at the base point")
        prev = cmath.sqrt(w0)
        if target == self.base:
            return prev
        t_prev = 0.0
        for k in range(1, self.path_steps + 1):
            t_next = k / self.path_steps
            prev = self._ref_step(fn, target, t_prev, prev, t_next, 0)
            t_prev = t_next
        return prev

    def _ref_step(self, fn, target, t0, w_prev, t1, depth):
        w_sq = complex(fn(tuple(b + t1 * (z - b) for b, z in zip(self.base, target))))
        scale = abs(w_prev) ** 2 + abs(w_sq)
        if abs(w_sq) < self.rel_floor * scale:
            raise BranchError("square-root argument passes too close to zero along the path")
        root = cmath.sqrt(w_sq)
        d_plus = abs(root - w_prev)
        d_minus = abs(root + w_prev)
        chosen = root if d_plus <= d_minus else -root
        if min(d_plus, d_minus) > 0.5 * max(abs(root), abs(w_prev)):
            if depth >= self.max_depth:
                raise BranchError(f"cannot separate square-root sheets near t={t1:.6f}")
            t_mid = 0.5 * (t0 + t1)
            w_mid = self._ref_step(fn, target, t0, w_prev, t_mid, depth + 1)
            return self._ref_step(fn, target, t_mid, w_mid, t1, depth + 1)
        return chosen


class CountingTracker(BranchTracker):
    """Records, per ``sqrt_at`` call, whether it missed the cache, whether
    it was the first miss of its key, whether its target was the base, how
    often it called the factor, and how many points its bisections of
    ambiguous steps took."""

    def __init__(self, base):
        super().__init__(base)
        self.calls = []
        self._missed_keys = set()
        self._bisected = 0

    def sqrt_at(self, key, fn, target):
        evals = 0

        def counted(Z):
            nonlocal evals
            evals += 1
            return fn(Z)

        target = tuple(complex(v) for v in target)
        miss = (key, target) not in self._cache
        first = miss and key not in self._missed_keys
        if miss:
            self._missed_keys.add(key)
        self._bisected = 0
        try:
            return super().sqrt_at(key, counted, target)
        finally:
            self.calls.append((miss, first, target == self.base, evals, self._bisected))

    def _walk(self, fn, target, t_prev, prev, ts, values, depth):
        # below the top level the walk runs over a bisected step's points
        if depth:
            values = self._count_bisected(values)
        return super()._walk(fn, target, t_prev, prev, ts, values, depth)

    def _count_bisected(self, values):
        for value in values:
            self._bisected += 1
            yield value


def _outcome(evaluate, tracker):
    try:
        evaluate(tracker)
    except (BranchError, PoleProximityError, ZeroDivisionError) as err:
        return (type(err).__name__, str(err))
    return None


def _compare(evaluate, base, exact):
    """Run ``evaluate`` with a counting tracker and the reference tracker;
    the two must fail alike or continue every root to the same sheet."""
    tracker = CountingTracker(base)
    reference = ReferenceTracker(base)
    got = _outcome(evaluate, tracker)
    assert got == _outcome(evaluate, reference)
    if got is not None:
        return
    assert tracker._cache.keys() == reference._cache.keys()
    for cache_key, ref in reference._cache.items():
        value = tracker._cache[cache_key]
        if exact:
            assert value == ref, cache_key
        else:
            assert abs(value - ref) <= 1e-12 * abs(ref), cache_key
    # a key's first miss calls the factor at the base; a miss at another
    # target calls it once on the whole path and once per bisected point;
    # a hit does not call it
    for miss, first, at_base, evals, bisected in tracker.calls:
        assert evals == (first + (0 if at_base else 1 + bisected) if miss else 0)
    return tracker


coordinate = st.builds(complex, st.floats(0.3, 0.9), st.floats(-0.1, 0.1))
offset = st.builds(complex, st.floats(-0.15, 0.15), st.floats(-0.08, 0.08))
tag = st.sampled_from(list(MassTag))
label = st.sampled_from(sorted(CASES))


@PROPERTY
@given(label=label, x0=coordinate, dx=offset, tag_j=tag, tag_k=tag)
def test_one_coordinate_factors_match_the_reference_walk(label, x0, dx, tag_j, tag_k):
    case, g = CASES[label], G[label]

    def evaluate(tracker):
        for x in (x0, x0 + dx):
            psi_single(case, g, LAM, BETA, x, tag_j, tracker)
            phi_pair(case, LAM, BETA, x, tag_j, tag_k, tracker)

    _compare(evaluate, (x0,), exact=False)


@PROPERTY
@given(label=label, x0=coordinate, y0=coordinate, dx=offset, dy=offset)
def test_ground_states_match_the_reference_walk(label, x0, y0, dx, dy):
    case, g = CASES[label], G[label]
    base = (x0, y0 + 0.6)
    plain = groundstate_sq_factors(case, g, LAM, BETA, (0, 1))
    deformed = deformed_groundstate_sq_factors(case, g, LAM, BETA, (0,), (1,))

    def evaluate(tracker):
        for Z in (base, (base[0] + dx, base[1] + dy)):
            continued_root(case, plain, Z, tracker)
            continued_root(case, deformed, Z, tracker)

    _compare(evaluate, base, exact=False)


@PROPERTY
@given(label=label, x0=coordinate, y0=coordinate, dx=offset, dy=offset,
       tag_j=tag, tag_k=tag)
def test_coefficient_roots_equal_the_reference_walk_bit_for_bit(label, x0, y0, dx, dy,
                                                                 tag_j, tag_k):
    case, g = CASES[label], G[label]
    base = (x0, y0 + 0.6)
    tags = (tag_j, tag_k)

    def evaluate(tracker):
        terms = conjugation_terms(case, g, LAM, BETA, tags, ((), ()), tracker)
        for Z in (base, (base[0] + dx, base[1] + dy)):
            sum(weighted_terms(terms.weights(Z), lambda P: 1.0), start=0j)

    _compare(evaluate, base, exact=True)


def _compare_two_species(label, base, dx, dy):
    """The roots of the shift terms of one plain and one deformed
    coordinate, as in the four-block kernel, at ``base`` and at ``base``
    moved by ``(dx, dy)``, against the reference walk bit for bit."""
    case, g = CASES[label], G[label]
    op = def_operator(case, g, LAM, BETA, (0,), (1,))

    def evaluate(tracker):
        terms = ConjugatedTerms(tracker, op, lambda P: 1.0, None)
        for Z in (base, (base[0] + dx, base[1] + dy)):
            for b, j, sign in terms.terms:
                terms.roots(Z, b, j, sign)

    return _compare(evaluate, base, exact=True)


@PROPERTY
@given(label=label, x0=coordinate, y0=coordinate, dx=offset, dy=offset)
def test_two_species_coefficient_roots_equal_the_reference_walk_bit_for_bit(label, x0, y0,
                                                                            dx, dy):
    # the deformed coordinate stays mostly below 1.43, where the
    # trigonometric s(2 xt) vanishes and the walk bisects
    _compare_two_species(label, (x0, y0 + 0.45), dx, dy)


def test_a_bisecting_two_species_walk_equals_the_reference_walk_bit_for_bit():
    # the deformed coordinate moves from 1.35 to 1.475, across the zero of
    # the trigonometric s(2 xt) near 1.43
    tracker = _compare_two_species("II", (0.5, 0.75 + 0.0625j + 0.6), 0j, 0.125)
    assert tracker is not None
    assert sum(bisected for *_, bisected in tracker.calls) > 0


def test_zero_crossing_is_reported_before_a_later_pole():
    # the path 1 -> -1 meets the zero of the factor at t = 0.5; past
    # t = 0.75 the factor raises, so one failed call on the whole path
    # must not decide the outcome
    def fn(Z):
        x = Z[0]
        if np.any(np.real(x) < -0.5):
            raise PoleProximityError("past the pole")
        return x

    for tracker in (BranchTracker((1.0 + 0j,)), ReferenceTracker((1.0 + 0j,))):
        with pytest.raises(BranchError, match="passes too close to zero along the path"):
            tracker.sqrt_at("k", fn, (-1.0 + 0j,))


def test_ambiguous_step_fails_at_the_same_t():
    # the factor jumps from 1 to -1 at t = 0.3, so no bisection separates
    # the sheets there
    def fn(Z):
        return np.where(np.real(Z[0]) > 0.4, 1.0 + 0j, -1.0 + 0j)

    got, ref = (_outcome(lambda tr: tr.sqrt_at("k", fn, (-1.0 + 0j,)), tracker)
                for tracker in (BranchTracker((1.0 + 0j,)), ReferenceTracker((1.0 + 0j,))))
    assert got == ref
    assert got[0] == "BranchError"
    assert got[1].startswith("cannot separate square-root sheets near t=0.3")


def test_a_factor_of_points_only_is_walked_point_by_point():
    tracker = CountingTracker((0.2 + 0.1j,))
    value = tracker.sqrt_at("k", lambda Z: cmath.exp(Z[0]), (1.7 - 0.3j,))
    assert abs(value - cmath.exp(0.5 * (1.7 - 0.3j))) < 1e-13
    assert tracker.calls == [(True, True, False, 2 + tracker.path_steps, 0)]


def _pointwise(f):
    """A factor of one real coordinate that runs the scalar ``f`` on each
    point of a path, so a path call and the reference walk's scalar calls
    see the same bits."""
    def fn(Z):
        x = Z[0]
        if isinstance(x, np.ndarray):
            return np.array([f(v.real) for v in x.tolist()])
        return f(x.real)
    return fn


def _winding(x):
    # the phase passes pi near x = 0.79, so the principal root jumps there
    # and the continued root is its negative from then on
    return cmath.exp(4j * x)


def _flipped_before(f, x):
    """Whether the root of ``f`` continued from 0 to ``x`` is the negated
    principal root there: the walk has flipped its sign before ``x``."""
    fn = _pointwise(f)
    return ReferenceTracker((0j,)).sqrt_at("k", fn, (x + 0j,)) == -cmath.sqrt(f(x))


def _continued_alike(fn, target, rel_floor=BranchTracker.rel_floor):
    """Continue ``fn`` from 0 to ``target`` with the counting tracker and
    the reference tracker, both at ``rel_floor``; both must give the same
    root, bit for bit, or fail alike, and bisect the same steps.  Returns
    the counting tracker and the root or the failure."""
    reference_evals = 0

    def counted(Z):
        nonlocal reference_evals
        reference_evals += 1
        return fn(Z)

    def attempt(tracker, f):
        failure = _outcome(lambda tr: tr.sqrt_at("k", f, (target,)), tracker)
        return failure or ("root", tracker._cache["k", (target,)])

    tracker, reference = CountingTracker((0j,)), ReferenceTracker((0j,))
    tracker.rel_floor = reference.rel_floor = rel_floor
    got = attempt(tracker, fn)
    assert got == attempt(reference, counted)
    if got[0] == "root":
        # the reference calls the factor at the base, at each path point
        # and at each bisected point
        assert tracker.calls[0][-1] == reference_evals - 1 - tracker.path_steps
    return tracker, got


def test_an_ambiguous_step_after_sign_flips_equals_the_reference_walk():
    # the phase jumps by 3 within one path step near x = 1.4, well after
    # the principal root has jumped once
    def f(x):
        return _winding(x) * cmath.exp(1.5j * (1 + math.tanh((x - 1.4) / 0.004)))

    assert _flipped_before(f, 1.2)
    tracker, got = _continued_alike(_pointwise(f), 2.0 + 0j)
    assert got[0] == "root"
    (miss, first, at_base, evals, bisected), = tracker.calls
    assert bisected > 0 and evals == 2 + bisected


def test_a_near_zero_step_after_sign_flips_equals_the_reference_walk():
    # the factor passes 0.002 from zero at the path point x = 1.25, after
    # the principal root has jumped; the steps around it are bisected
    def f(x):
        return _winding(x) * (x - 1.25 + 0.002j)

    assert _flipped_before(f, 1.2)
    tracker, got = _continued_alike(_pointwise(f), 2.0 + 0j)
    assert got[0] == "root"
    assert tracker.calls[0][-1] > 0


def test_a_zero_after_sign_flips_fails_like_the_reference_walk():
    # the factor vanishes exactly at the path point x = 1.25 (t = 30/48)
    def f(x):
        return _winding(x) * (x - 1.25)

    assert _flipped_before(f, 1.2)
    _, got = _continued_alike(_pointwise(f), 2.0 + 0j)
    assert got == ("BranchError", "square-root argument passes too close to zero along the path")


def test_a_key_calls_its_factor_at_the_base_once():
    tracker = CountingTracker((0.2 + 0.1j,))
    fn = _pointwise(cmath.exp)
    for target in (1.1 - 0.2j, 0.7 + 0.3j, 0.2 + 0.1j, 1.1 - 0.2j):
        tracker.sqrt_at("k", fn, (target,))
    tracker.sqrt_at("other", fn, (0.7 + 0.3j,))
    assert [evals for *_, evals, _ in tracker.calls] == [2, 1, 0, 0, 2]


def test_path_arrays_are_built_once_per_target_and_read_only():
    tracker = BranchTracker((0.3 + 0.1j, 0.5 - 0.2j))
    seen = []

    def factor(scale):
        def fn(Z):
            if isinstance(Z[0], np.ndarray):
                seen.append(Z)
            return scale + Z[0] * Z[1]
        return fn

    for key, target in (("a", (0.9 + 0j, 0.4 + 0.1j)), ("b", (0.9 + 0j, 0.4 + 0.1j)),
                        ("a", (0.6 + 0.2j, 0.8 + 0j))):
        tracker.sqrt_at(key, factor(1.0 + len(key)), target)
    assert len(seen) == 3
    assert all(a is b for a, b in zip(seen[0], seen[1]))
    assert not any(a is b for a, b in zip(seen[0], seen[2]))
    for path in seen:
        for coordinate in path:
            assert not coordinate.flags.writeable
            with pytest.raises(ValueError):
                coordinate[0] = 0j


def test_steps_that_are_all_ambiguous_are_bisected_like_the_reference_walk():
    # the root turns by 0.55 per path step: each step is ambiguous, by a
    # distance of 0.54 of the root's modulus, and bisected once
    tracker, got = _continued_alike(_pointwise(lambda x: cmath.exp(26.4j * x)), 2.0 + 0j)
    assert got[0] == "root"
    assert tracker.calls[0][-1] == 2 * tracker.path_steps


def test_a_step_below_a_wide_floor_fails_like_the_reference_walk():
    # with a floor of 1/2 a step fails where |w| < |prev|**2, here at the
    # first step, although the root barely moves
    _, got = _continued_alike(_pointwise(lambda x: 1.0 - 0.1 * x), 1.0 + 0j, rel_floor=0.5)
    assert got == ("BranchError", "square-root argument passes too close to zero along the path")


def test_a_modulus_beyond_float64_fails_like_the_reference_walk():
    # |w| overflows although w is finite, at every point and at the base:
    # the walk's |prev|**2 raises at the first step, as the reference's does
    def f(x):
        return complex(1.5e308, 1.5e308) * cmath.exp(0.1j * x)

    messages = []
    for tracker in (BranchTracker((0j,)), ReferenceTracker((0j,))):
        with pytest.raises(OverflowError) as err:
            tracker.sqrt_at("k", _pointwise(f), (1.0 + 0j,))
        messages.append(str(err.value))
    assert messages[0] == messages[1]


class SequentialCountingTracker(CountingTracker):
    """The counting tracker with a path call's values handed to the walk as
    a list, so that the walk takes every step one by one."""

    def _path_values(self, fn, target, ts):
        values = super()._path_values(fn, target, ts)
        return None if values is None else values.tolist()


class ArrayStepsTracker(CountingTracker):
    """The counting tracker, counting the steps decided on arrays and the
    steps a walk took one by one after them."""

    def __init__(self, base):
        super().__init__(base)
        self.array_steps = self.steps = 0

    def _clear_steps(self, prev, values):
        clear, root = super()._clear_steps(prev, values)
        self.array_steps += clear
        self.steps += len(values)
        return clear, root


def _walked_alike(evaluate, base):
    """Run ``evaluate`` with steps decided on arrays and with every step
    taken one by one: the same roots bit for bit, the same factor calls and
    bisected points per ``sqrt_at`` call.  Returns the array tracker."""
    tracker, sequential = ArrayStepsTracker(base), SequentialCountingTracker(base)
    got = _outcome(evaluate, tracker)
    assert got == _outcome(evaluate, sequential)
    assert tracker._cache.keys() == sequential._cache.keys()
    for cache_key, value in sequential._cache.items():
        assert _bits(tracker._cache[cache_key]) == _bits(value), cache_key
    assert tracker.calls == sequential.calls
    return tracker


def _bits(value):
    return np.array([value], dtype=complex).view(np.int64).tolist()


@pytest.mark.parametrize("label", sorted(CASES))
@pytest.mark.parametrize("seed", range(3))
def test_blocks_walked_on_arrays_equal_the_sequential_walk_bit_for_bit(label, seed):
    # single blocks and a same pair (two unit masses), and an antidual pair
    # (a unit mass with -1/lam), on seeded paths
    case, g = CASES[label], G[label]
    rng = np.random.default_rng(seed)
    base = (complex(rng.uniform(0.3, 0.9), rng.uniform(-0.1, 0.1)),
            complex(rng.uniform(0.9, 1.5), rng.uniform(-0.1, 0.1)))
    targets = [tuple(b + complex(*rng.uniform(-0.15, 0.15, 2)) for b in base) for _ in range(4)]
    lists = [eigenfunction_factors(case, g, LAM, BETA, tags)[0]
             for tags in ((MassTag.PLUS_ONE, MassTag.PLUS_ONE),
                          (MassTag.PLUS_ONE, MassTag.MINUS_INV))]

    def evaluate(tracker):
        for Z in targets:
            for sq in lists:
                continued_root(case, sq, Z, tracker)

    tracker = _walked_alike(evaluate, base)
    # every step of these paths is clear, so the arrays decide them all
    assert tracker.array_steps == tracker.steps > 0


def test_an_ambiguous_step_keeps_its_bisections_after_steps_decided_on_arrays():
    # the phase jumps by 3 within one path step near x = 1.4: the steps
    # before it are decided on arrays, then the walk bisects that step and
    # goes on one step at a time
    def f(x):
        return _winding(x) * cmath.exp(1.5j * (1 + math.tanh((x - 1.4) / 0.004)))

    tracker = _walked_alike(lambda tr: tr.sqrt_at("k", _pointwise(f), (2.0 + 0j,)), (0j,))
    (_, _, _, evals, bisected), = tracker.calls
    assert bisected > 0 and evals == 2 + bisected
    assert 0 < tracker.array_steps < tracker.steps
