"""The coefficient memo: inside one ``run_identity`` call each keyed
coefficient is evaluated once, with the bits of a fresh evaluation, and
nothing of it outlives the call."""

import contextlib
import gc
import math
import weakref
from dataclasses import replace
from unittest import mock

import mpmath
import numpy as np
import pytest

from vandiejen import operators, sfun, verify
from vandiejen.eigenfunctions import pathwise
from vandiejen.operators import (
    MassTag,
    _coefficient_memo,
    c0_constant,
    coeff_V0,
    coeff_V_shift,
    vd_V0,
)
from vandiejen.sfun import CaseKind, CaseParams

CASE = CaseParams(CaseKind.ELLIPTIC, r=1.1, a=1.8)
G = tuple(0.37 + 0.05 * k for k in range(8))
LAM, BETA = 1.45, 0.31
TAGS = (MassTag.PLUS_ONE, MassTag.MINUS_INV)
MASSES = tuple(t.value_for(LAM) for t in TAGS)
X = (0.41 + 0.07j, 0.83 - 0.11j)


def _memo() -> dict:
    return operators._MEMO.get()


def _payload(identity, case, seed):
    report = verify.run_identity(identity, case, samples=8, seed=seed)
    return verify.payload_lines(verify.render_json_lines([report]))


@pytest.mark.parametrize("seed", [0, 1])
def test_every_pair_gives_the_same_payload_without_the_memo(seed):
    # 8 samples: kernel-deformed's direct rows start at index 7
    pairs = [(ident, case) for ident in verify.IDENTITIES
             for case in ("I", "II", "III", "IV") if case in verify.CASE_SUPPORT[ident]]
    with_memo = [_payload(ident, case, seed) for ident, case in pairs]
    with mock.patch.object(verify, "_coefficient_memo", contextlib.nullcontext):
        without = [_payload(ident, case, seed) for ident, case in pairs]
    assert with_memo == without


def test_a_run_takes_fewer_s_values_with_the_memo():
    points = []
    original = sfun._scalar_s

    def counting(case):
        s = original(case)

        def counted(x):
            points.append(np.size(x))
            return s(x)

        return counted

    # each run makes its own case, whose scalar s is bound at its first use
    with mock.patch.object(sfun, "_scalar_s", counting):
        verify.run_identity("source", "IV", samples=4, seed=0)
        with_memo = sum(points)
        points.clear()
        with mock.patch.object(verify, "_coefficient_memo", contextlib.nullcontext):
            verify.run_identity("source", "IV", samples=4, seed=0)
    assert with_memo < sum(points)


def test_a_hit_takes_no_s_values_and_returns_the_same_bits():
    fresh = coeff_V0(CASE, G, LAM, BETA, MASSES, X)
    def no_s(memo, case):
        return mock.Mock(side_effect=AssertionError)

    with _coefficient_memo():
        first = coeff_V0(CASE, G, LAM, BETA, MASSES, X)
        with mock.patch.object(operators, "_run_s", no_s):
            again = coeff_V0(CASE, G, LAM, BETA, MASSES, X)
            # the coordinate-free blocks of V_0 serve the constant too
            const = c0_constant(CASE, G, LAM, BETA)
    assert first == again == fresh
    assert const == c0_constant(CASE, G, LAM, BETA)


def test_the_coupling_blocks_serve_every_zeroth_coefficient():
    fresh = vd_V0(CASE, G, LAM, BETA, X)
    with _coefficient_memo():
        coeff_V0(CASE, G, LAM, BETA, MASSES, X)
        assert vd_V0(CASE, G, LAM, BETA, X) == fresh


def test_a_formula_may_ask_for_one_key_twice():
    fresh = coeff_V0(CASE, G, LAM, BETA, MASSES, X)
    with _coefficient_memo():
        pair = operators._batched(CASE, lambda s: (
            coeff_V0(CASE, G, LAM, BETA, MASSES, X), coeff_V0(CASE, G, LAM, BETA, MASSES, X)))
        assert pair == (fresh, fresh)
        assert coeff_V0(CASE, G, LAM, BETA, MASSES, X) == fresh


def test_a_formula_that_raises_commits_nothing():
    # s(0) = 0 divides by zero after V_0 finished its own pass, which it keeps
    fresh = coeff_V0(CASE, G, LAM, BETA, MASSES, X)
    with _coefficient_memo():
        with pytest.raises(ZeroDivisionError):
            operators._batched(CASE, lambda s: (
                coeff_V0(CASE, G, LAM, BETA, MASSES, X), 1 / s(0j)), ("test",))
        assert ("test",) not in _memo()
        assert _memo()[("V0", CASE, G, LAM, BETA, MASSES, X)] == fresh


def _shift(masses=MASSES, tags=TAGS, j=0, sign=1):
    return coeff_V_shift(CASE, G, LAM, BETA, masses, tags, X, j, sign)


@pytest.mark.parametrize("calls", [
    [dict(tags=None), dict()],
    [dict(j=0, sign=1), dict(j=1, sign=-1), dict(j=1, sign=1), dict(j=0, sign=-1)],
    [dict(), dict(masses=(MASSES[0], math.nextafter(MASSES[1], 0)))],
], ids=["tags-or-none", "swapped-j-sign", "last-bit-mass"])
def test_keys_do_not_collide(calls):
    fresh = [_shift(**kw) for kw in calls]
    with _coefficient_memo():
        memoized = [_shift(**kw) for kw in calls]
        assert len(_memo()) == len(calls) + 1  # and the remembering s
    assert memoized == fresh


def _mp_X(mp):
    return tuple(map(mpmath.mpc, X)) if mp else X


# a float call and, with mp=True, an mpmath call at equal values: the
# coordinates, or lam (which the coupling blocks of V_0 are keyed by too)
MP_CALLS = {
    "V0": lambda mp: coeff_V0(CASE, G, LAM, BETA, MASSES, _mp_X(mp)),
    "V_shift": lambda mp: coeff_V_shift(CASE, G, LAM, BETA, MASSES, TAGS, _mp_X(mp), 0, 1),
    "V0/lam": lambda mp: coeff_V0(CASE, G, mpmath.mpf(LAM) if mp else LAM, BETA, MASSES, X),
}


@pytest.mark.parametrize("name", sorted(MP_CALLS))
def test_an_mpmath_call_never_takes_the_value_of_an_equal_float_key(name):
    # an mpmath key equals the float key of its value, so it skips the memo
    call = MP_CALLS[name]
    with mpmath.workdps(30):
        fresh = call(True)
        with _coefficient_memo():
            call(False)
            memoized = call(True)
    assert isinstance(memoized, mpmath.mpc)
    assert memoized == fresh


def test_a_path_call_is_not_memoized():
    coeff = pathwise(lambda Q: coeff_V_shift(CASE, G, LAM, BETA, MASSES, TAGS, Q, 0, 1))
    path = tuple(np.array([x, x + 0.01, x + 0.02]) for x in X)
    with _coefficient_memo():
        values = coeff(path)
        # only the scalar target point, evaluated alone, is kept (with the
        # remembering s)
        assert len(_memo()) == 2
    assert values.shape == (3,)


def test_the_memo_ends_with_its_run():
    seen = []

    def runner(ctx):
        seen.append(_memo())
        return []

    def failing(ctx):
        seen.append(_memo())
        raise RuntimeError("runner failed")

    assert _memo() is None
    with mock.patch.dict(verify._REGISTRY, {"source": replace(verify._REGISTRY["source"],
                                                              run=runner)}):
        verify.run_identity("source", "I", samples=1)
    assert isinstance(seen[-1], dict) and _memo() is None
    with mock.patch.dict(verify._REGISTRY, {"source": replace(verify._REGISTRY["source"],
                                                              run=failing)}):
        with pytest.raises(RuntimeError, match="runner failed"):
            verify.run_identity("source", "I", samples=1)
    assert isinstance(seen[-1], dict) and _memo() is None
    assert seen[0] is not seen[1]


@pytest.mark.parametrize("fails", [False, True])
def test_the_remembered_s_values_end_with_their_run(fails):
    stores = []

    def runner(ctx):
        coeff_V0(ctx.case, G, LAM, BETA, MASSES, X)
        stores.append(weakref.ref(_memo()[("s", ctx.case)]))
        if fails:
            raise RuntimeError("runner failed")
        return []

    with mock.patch.dict(verify._REGISTRY, {"source": replace(verify._REGISTRY["source"],
                                                              run=runner)}):
        with contextlib.suppress(RuntimeError):
            verify.run_identity("source", "IV", samples=1)
    gc.collect()
    assert len(stores) == 1 and stores[0]() is None and _memo() is None
