"""The branch tracker's path walk: one call of a factor on the whole path
against a reference walk that calls it once per path point."""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vandiejen.eigenfunctions import (
    BranchError,
    BranchTracker,
    ConjugatedTerms,
    ShiftBlock,
    apply_sqrt_operator,
    conjugation_terms,
    deformed_groundstate_value,
    groundstate_psi,
    phi_pair,
    psi_single,
)
from vandiejen.operators import MassTag, def_V_pm, def_Vt_pm
from vandiejen.sfun import DEFAULT_POLICY, CaseKind, CaseParams, PoleProximityError

R, A = 1.1, 1.8
LAM, BETA = 1.45, 0.31
CASES = {label: CaseParams(CaseKind.from_label(label), r=R, a=A) for label in ("I", "II")}
G = {label: tuple(0.37 + 0.05 * k for k in range(2 * (case.rho + 1)))
     for label, case in CASES.items()}

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


class ReferenceTracker(BranchTracker):
    """The walk as it was written before paths: one scalar call of the
    factor per path point, bisecting ambiguous steps."""

    def _continue(self, fn, target):
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
    its target was the base, how often it called the factor, and how many
    points its bisections of ambiguous steps took."""

    def __init__(self, base):
        super().__init__(base)
        self.calls = []
        self._bisected = 0

    def sqrt_at(self, key, fn, target):
        evals = 0

        def counted(Z):
            nonlocal evals
            evals += 1
            return fn(Z)

        target = tuple(complex(v) for v in target)
        miss = (key, target) not in self._cache
        self._bisected = 0
        try:
            return super().sqrt_at(key, counted, target)
        finally:
            self.calls.append((miss, target == self.base, evals, self._bisected))

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
    # a miss calls the factor at the base, once on the whole path, and once
    # per bisected point; a hit does not call it
    for miss, at_base, evals, bisected in tracker.calls:
        assert evals == ((1 if at_base else 2 + bisected) if miss else 0)
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

    def evaluate(tracker):
        for Z in (base, (base[0] + dx, base[1] + dy)):
            groundstate_psi(case, g, LAM, BETA, Z, (0, 1), tracker)
            deformed_groundstate_value(case, g, LAM, BETA, Z, (0,), (1,), tracker)

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
        terms = conjugation_terms(case, g, LAM, BETA, tags, (), tracker)
        for Z in (base, (base[0] + dx, base[1] + dy)):
            apply_sqrt_operator(case, g, LAM, BETA, tags, Z, lambda P: 1.0, terms)

    _compare(evaluate, base, exact=True)


def _compare_two_species(label, base, dx, dy):
    """The roots of the shift terms of one plain and one deformed
    coordinate, as in the four-block kernel, at ``base`` and at ``base``
    moved by ``(dx, dy)``, against the reference walk bit for bit."""
    case, g = CASES[label], G[label]
    blocks = (
        ShiftBlock("x", (0,), lambda P, j, s: def_V_pm(case, g, LAM, BETA, P[:1], P[1:], j, s),
                   -1j * BETA, (1, 1j * LAM * BETA)),
        ShiftBlock("t", (1,), lambda P, j, s: def_Vt_pm(case, g, LAM, BETA, P[:1], P[1:], j, s),
                   1j * LAM * BETA, (-1, 1j * BETA)),
    )

    def evaluate(tracker):
        terms = ConjugatedTerms(case, DEFAULT_POLICY, tracker, blocks, lambda P: 1.0, None)
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
    assert tracker.calls == [(True, False, 2 + tracker.path_steps, 0)]
