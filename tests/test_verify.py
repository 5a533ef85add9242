"""Verification harness: runners, sampling, reports, serialisation."""

import json
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vandiejen import verify
from vandiejen.eigenfunctions import BranchTracker, ConjugatedTerms
from vandiejen.operators import Configuration, CouplingSet, MassTag
from vandiejen.sfun import ConvergenceError, DomainError, PoleProximityError
from vandiejen.verify import (
    CASES,
    CASE_SUPPORT,
    CONTROL_FLOOR,
    IDENTITIES,
    default_tolerance,
    make_case,
    merge_parsed_reports,
    parse_report_lines,
    payload_lines,
    render_csv,
    render_json_lines,
    sample_record,
    SampleResult,
    residual_source,
    run_identity,
    run_suite,
    sample_admissible,
    summary_matrix,
)


# --------------------------------------------------------------------------
# static tables
# --------------------------------------------------------------------------


def test_identity_tables_are_consistent():
    assert len(IDENTITIES) == 18
    for ident in IDENTITIES:
        support = CASE_SUPPORT[ident]
        assert support and all(c in CASES for c in support)
        for label in support:
            assert default_tolerance(ident, label) >= 0.0


def test_the_registry_holds_every_identity_fact():
    # a literal copy of the catalogue: names in report order (which seeds the
    # rows), supported cases, (I-III, IV) tolerances and the balanced set
    all_cases = ("I", "II", "III", "IV")
    expected = [
        ("s-oddness", all_cases, (1e-10, 1e-10)),
        ("s-quasi-period", ("II", "III", "IV"), (1e-10, 1e-10)),
        ("s-duplication", all_cases, (1e-10, 1e-10)),
        ("theta-product", ("IV",), (1e-10, 1e-10)),
        ("gamma-fe", all_cases, (1e-9, 1e-8)),
        ("gamma-reflection", all_cases, (0.0, 0.0)),
        ("summation", all_cases, (1e-8, 1e-7)),
        ("source", all_cases, (1e-8, 1e-7)),
        ("conjugation", ("I", "II"), (1e-8, 1e-7)),
        ("eigen-plain", all_cases, (1e-8, 1e-7)),
        ("kernel-cauchy", all_cases, (1e-8, 1e-7)),
        ("kernel-dual", all_cases, (1e-8, 1e-7)),
        ("deformed-groundstate", all_cases, (1e-8, 1e-7)),
        ("deformed-constant", all_cases, (1e-8, 1e-7)),
        ("kernel-deformed", all_cases, (1e-8, 1e-7)),
        ("anti-symmetry", all_cases, (1e-10, 1e-10)),
        ("parameter-swap", all_cases, (1e-10, 1e-10)),
        ("quasi-invariance", ("II",), (1e-8, 1e-8)),
    ]
    balanced = {"summation", "source", "eigen-plain", "kernel-cauchy", "kernel-dual",
                "deformed-groundstate", "deformed-constant", "kernel-deformed"}
    assert IDENTITIES == tuple(name for name, _, _ in expected)
    assert list(verify._REGISTRY) == list(IDENTITIES)
    for name, cases, (lo, hi) in expected:
        assert CASE_SUPPORT[name] == cases
        assert [default_tolerance(name, label) for label in all_cases] == [lo, lo, lo, hi]
    assert {name for name, spec in verify._REGISTRY.items() if spec.balanced} == balanced


def _with_runner(name, runner):
    """The registry entry of ``name`` with ``runner`` in place of its own."""
    return replace(verify._REGISTRY[name], run=runner)


def test_default_tolerance_split():
    assert default_tolerance("gamma-fe", "I") == 1e-9
    assert default_tolerance("gamma-fe", "IV") == 1e-8
    assert default_tolerance("source", "II") == 1e-8
    assert default_tolerance("source", "IV") == 1e-7
    assert default_tolerance("gamma-reflection", "III") == 0.0


def test_make_case_defaults():
    assert make_case("I").r == 1.0
    assert make_case("II").r == 1.0
    assert make_case("III").a == 1.5
    case = make_case("IV")
    assert case.r == 1.0 and case.a == 2.0
    assert make_case("III", a=1.9).a == 1.9
    with pytest.raises(DomainError):
        make_case("V")


# --------------------------------------------------------------------------
# run_identity: validation and basic reports
# --------------------------------------------------------------------------


def test_run_identity_validation():
    with pytest.raises(DomainError):
        run_identity("no-such-identity", "I")
    with pytest.raises(DomainError):
        run_identity("s-oddness", "V")
    with pytest.raises(DomainError):
        run_identity("theta-product", "II")
    with pytest.raises(DomainError):
        run_identity("quasi-invariance", "I")
    with pytest.raises(DomainError):
        run_identity("source", "II", no_balance=True)
    with pytest.raises(DomainError):
        run_identity("gamma-fe", "IV", no_balance=True)
    with pytest.raises(DomainError, match="product_terms"):
        run_identity("source", "I", product_terms=0)


def test_s_oddness_report_shape():
    rep = run_identity("s-oddness", "I", samples=10, seed=1)
    assert rep.identity == "s-oddness" and rep.case == "I" and rep.seed == 1
    assert rep.sample_count == 10 and len(rep.results) == 10
    assert rep.passed and rep.verdict == "pass"
    assert rep.max_rel_residual <= default_tolerance("s-oddness", "I")
    assert all(row.label == "odd" and not row.control for row in rep.results)


def test_gamma_reflection_is_exact():
    rep = run_identity("gamma-reflection", "III", samples=5, seed=2)
    assert rep.passed
    assert rep.max_rel_residual == 0.0


def test_source_case_iv_controls_and_balance():
    rep = run_identity("source", "IV", samples=2, seed=3)
    assert rep.passed
    plain = [r for r in rep.results if not r.control]
    controls = [r for r in rep.results if r.control]
    assert plain and controls
    for row in plain:
        assert row.residual <= row.tolerance == default_tolerance("source", "IV")
    for row in controls:
        assert row.tolerance == CONTROL_FLOOR
        assert row.passed == (row.residual > CONTROL_FLOOR)
        assert "defect" in row.label
    assert rep.min_control_residual > CONTROL_FLOOR

    # dropping the balancing leaves only the detuned controls, and they
    # are still expected to blow up
    bad = run_identity("source", "IV", samples=2, seed=3, no_balance=True)
    assert bad.results and all(row.control for row in bad.results)
    assert bad.passed


def test_source_case_iv_rebalances_on_coupling_redraw():
    # The balance equation involves the mass sum, which changes with lam
    # for 1/lam species.  When a coupling gets redrawn because the solved
    # component is out of range, the mass sum must follow the new lam;
    # seed 1 exercises redraws on multisets with 1/lam masses.
    rep = run_identity("source", "IV", samples=20, seed=1)
    assert rep.passed
    for row in rep.results:
        if not row.control:
            assert row.residual < 1e-7, (row.label, row.residual)


def test_rejection_rate_stays_moderate():
    for label in ("II", "IV"):
        rep = run_identity("source", label, samples=4, seed=5)
        assert rep.passed
        assert rep.rejection_rate < 0.5


def test_degenerate_particle_blocks():
    # one-sided kernels: the reflected block may be empty
    rep = run_identity("kernel-cauchy", "II", samples=2, seed=4,
                       particles=(1, 0, 0, 0))
    assert rep.passed
    assert all(row.label.startswith("N1M0") for row in rep.results)
    rep = run_identity("kernel-cauchy", "II", samples=2, seed=4,
                       particles=(0, 0, 1, 0))
    assert rep.passed
    assert all(row.label.startswith("N0M1") for row in rep.results)


def test_pinned_masses_are_respected():
    rep = run_identity("source", "II", samples=3, seed=6, masses=("1", "-1/lam"))
    assert rep.passed
    assert all("m=(" in row.label for row in rep.results)
    labels = {row.label for row in rep.results}
    assert len(labels) == 1  # one pinned multiset, repeated per sample


# --------------------------------------------------------------------------
# determinism and invariances
# --------------------------------------------------------------------------


def test_run_identity_is_deterministic():
    a = run_identity("summation", "II", samples=4, seed=11)
    b = run_identity("summation", "II", samples=4, seed=11)
    assert a == b
    c = run_identity("summation", "II", samples=4, seed=12)
    assert [r.residual for r in a.results] != [r.residual for r in c.results]


def test_seeds_past_32_bits_do_not_alias():
    a = run_identity("s-oddness", "II", samples=3, seed=0)
    b = run_identity("s-oddness", "II", samples=3, seed=2**32)
    assert [r.scale for r in a.results] != [r.scale for r in b.results]


# identities that take milliseconds; summation on case IV takes ~30 ms
_CHEAP_PAIRS = [(ident, label)
                for ident in ("s-oddness", "s-quasi-period", "s-duplication", "theta-product",
                              "gamma-fe", "gamma-reflection", "summation")
                for label in CASE_SUPPORT[ident]
                if (ident, label) != ("summation", "IV")]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(pair=st.sampled_from(_CHEAP_PAIRS), seed=st.integers(0, 2**32 - 1))
def test_seed_determines_rows(pair, seed):
    identity, label = pair
    first = run_identity(identity, label, samples=2, seed=seed)
    again = run_identity(identity, label, samples=2, seed=seed)
    assert (payload_lines(render_json_lines([first]))
            == payload_lines(render_json_lines([again])))
    wide = run_identity(identity, label, samples=2, seed=seed + 2**32)
    assert ([sample_record(r) for r in first.results]
            != [sample_record(r) for r in wide.results])


def test_seeds_below_32_bits_keep_their_entropy():
    # rows of every seed in [0, 2**32) stay what they were
    for seed in (0, 7, 2**32 - 1):
        expect = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))
        assert verify._rng_for(seed).random(3).tolist() == expect.random(3).tolist()


def test_negative_seed_is_rejected():
    with pytest.raises(DomainError, match="non-negative"):
        run_identity("s-oddness", "II", samples=1, seed=-1)


@pytest.mark.parametrize("samples", [0, -2])
def test_samples_below_one_are_rejected(samples):
    # as the CLI rejects them, instead of a failing report without rows
    with pytest.raises(DomainError, match="samples must be at least 1"):
        run_identity("source", "I", samples=samples)


@pytest.mark.parametrize("tol", [-1.0, float("nan")])
def test_a_negative_or_nan_tolerance_is_rejected(tol):
    # instead of a report whose every row fails
    with pytest.raises(DomainError, match="tol must be non-negative"):
        run_identity("s-oddness", "I", samples=1, tol=tol)


def test_a_zero_tolerance_stays_allowed():
    # gamma-reflection's own tolerance is zero
    assert run_identity("s-oddness", "I", samples=2, tol=0.0).verdict == "pass"


def test_max_n_below_one_is_rejected():
    with pytest.raises(DomainError, match="max_n"):
        run_identity("eigen-plain", "I", max_n=0)


@pytest.mark.parametrize("particles", [(1, -1, 0, 0), (1, 0, 0)])
def test_particles_must_be_four_non_negative_counts(particles):
    with pytest.raises(DomainError, match="particles"):
        run_identity("eigen-plain", "I", samples=2, particles=particles)


def test_product_terms_caps_the_theta_product():
    with pytest.raises(ConvergenceError, match="after 1 factors"):
        run_identity("theta-product", "IV", samples=2, product_terms=1)


def test_product_terms_leaves_other_identities_alone():
    capped = run_identity("source", "IV", samples=3, product_terms=1)
    assert capped.results == run_identity("source", "IV", samples=3).results


def _fake_rows(residuals):
    """Runner returning fixed rows from (residual, control) pairs; row i
    has scale i + 1."""
    def runner(ctx):
        return [SampleResult("s-oddness", ctx.label, "fake", i, res, i + 1.0, 1e-10, ctl, False)
                for i, (res, ctl) in enumerate(residuals)]
    return runner


def test_summary_scans_controls_past_a_non_finite_row(monkeypatch):
    monkeypatch.setitem(verify._REGISTRY, "s-oddness", _with_runner("s-oddness", _fake_rows(
        [(1e-14, False), (math.nan, False), (5.0, False), (math.inf, False),
         (0.5, True), (0.02, True)])))
    rep = run_identity("s-oddness", "II", samples=1, seed=0)
    assert math.isnan(rep.max_rel_residual)  # the first non-finite row stays
    assert rep.normalization_scale == 2.0
    assert rep.min_control_residual == 0.02


def test_a_nan_control_shows_as_the_minimum(monkeypatch):
    monkeypatch.setitem(verify._REGISTRY, "s-oddness", _with_runner("s-oddness", _fake_rows(
        [(1e-14, False), (0.5, True), (math.nan, True), (0.02, True)])))
    rep = run_identity("s-oddness", "II", samples=1, seed=0)
    assert math.isnan(rep.min_control_residual)

    def row(res):
        return {"identity": "s-oddness", "case": "I", "residual": res, "scale": 1.0,
                "control": True, "passed": math.isfinite(res) and res > CONTROL_FLOOR}
    parsed = {"samples": [row(0.5), row(math.nan)], "summaries": []}
    (summ,) = merge_parsed_reports([parsed])["summaries"]
    assert math.isnan(summ["min_control_residual"])


@pytest.mark.parametrize("identity", ["kernel-cauchy", "kernel-dual", "kernel-deformed",
                                      "eigen-plain", "deformed-groundstate"])
def test_a_nan_shift_deviation_fails(monkeypatch, identity):
    # every map, closure and chain-shift row takes its worst deviation over
    # shifts; a NaN deviation must make the row fail, not drop out
    monkeypatch.setattr(verify, "factor_ratio", lambda *args, **kwargs: complex(math.nan, 0))
    rep = run_identity(identity, "I", samples=3, seed=0)
    assert rep.verdict == "fail"
    assert any(math.isnan(row.residual) for row in rep.results)


@pytest.mark.parametrize("case", ["I", "IV"])
@pytest.mark.parametrize("identity,particles,labels", [
    ("eigen-plain", None, "N1/chain-shift N1/chain-zero N1/closure N1/eigen"),
    ("deformed-groundstate", None,
     "N0Nt1/chain-shift N0Nt1/chain-zero N0Nt1/closure-t N0Nt1/eigen"),
    ("deformed-groundstate", (1, 1, 0, 0),
     "N1Nt1/chain-shift N1Nt1/chain-zero N1Nt1/closure-x N1Nt1/closure-t N1Nt1/eigen"),
    ("deformed-constant", None, "N0Nt1/eigen"),
])
def test_display_rows_keep_their_labels(identity, particles, labels, case):
    # every row of a display identity, in order; on the elliptic case the
    # two detuned controls of the eigen row follow
    labels = labels.split()
    if case == "IV":
        eigen = labels[-1]
        labels += [f"{eigen}/defect=+0.1", f"{eigen}/defect=-0.1"]
    rep = run_identity(identity, case, samples=1, seed=0, particles=particles)
    assert [row.label for row in rep.results] == labels


def test_payload_lines_byte_determinism():
    reports_a = run_suite(["s-oddness", "gamma-fe"], ["I", "II"], samples=3, seed=7)
    reports_b = run_suite(["s-oddness", "gamma-fe"], ["I", "II"], samples=3, seed=7)
    text_a = render_json_lines(reports_a, created="2026-01-01T00:00:00Z")
    text_b = render_json_lines(reports_b, created="2026-02-02T00:00:00Z")
    assert text_a != text_b  # header timestamps differ
    assert payload_lines(text_a) == payload_lines(text_b)


def test_conjugation_gauge_flip_invariance(monkeypatch):
    # flipping the global sign of one eigenfunction square root must not
    # change any residual: the identity is gauge independent
    a = run_identity("conjugation", "II", samples=2, seed=9)

    class FlippedTracker(verify.BranchTracker):
        def __init__(self, base):
            super().__init__(base)
            self.set_gauge(("single", 0), -1)

    monkeypatch.setattr(verify, "BranchTracker", FlippedTracker)
    b = run_identity("conjugation", "II", samples=2, seed=9)
    assert a.passed and b.passed
    for ra, rb in zip(a.results, b.results):
        assert ra.label == rb.label
        assert abs(ra.residual - rb.residual) < 1e-12


@pytest.mark.parametrize("identity, particles, case", [
    *(pytest.param("kernel-deformed", (1, 1, 1, 1), c, id=c) for c in ("I", "II")),
    # the difference and the sum of two all-unit operators
    *(pytest.param("kernel-cauchy", (1, 0, 1, 0), c, id=f"cauchy-{c}") for c in ("I", "II")),
    *(pytest.param("kernel-dual", (1, 0, 0, 1), c, id=f"dual-{c}") for c in ("I", "II")),
])
def test_four_block_direct_rows_pass(identity, particles, case):
    # one coordinate per species joins both operators at every sample, so
    # two samples reach the direct rows of the kernel
    rep = run_identity(identity, case, samples=2, seed=0, particles=particles)
    direct = [row for row in rep.results if "/direct" in row.label]
    assert [row.label.split("/")[1] for row in direct] == ["direct@p0", "direct@p1"] * 2
    assert all(row.passed for row in direct)


def _pre_weights_direct_residual(Z0, op, kernel_fn, const, ref_fn):
    """A direct row's residual at its base ``Z0`` as the rows summed it
    before the square-root weights: each shift term is
    ``pref * (here * there * F(shifted))``, the prefactor ``+-s(arg)``."""
    tracker = BranchTracker(Z0)
    terms = ConjugatedTerms(tracker, op, lambda P: kernel_fn(tracker, P), ref_fn)
    terms.calibrate()
    parts = []
    for b, j, sign in terms.terms:
        here, there, shifted = terms.roots(Z0, b, j, sign)
        value = op.case.s_scalar(complex(b.pref[1]))
        pref = value if b.pref[0] > 0 else -value
        parts.append(pref * (here * there * terms.F(shifted)))
    FP = terms.F(Z0)
    parts.append(op.v0(Z0) * FP)
    return verify._defect(parts, [const * FP])[0]


@pytest.mark.parametrize("seed", (0, 1))
@pytest.mark.parametrize("identity, particles, case", [
    *(pytest.param("kernel-deformed", (1, 1, 1, 1), c, id=c) for c in ("I", "II")),
    *(pytest.param("kernel-cauchy", (1, 0, 1, 0), c, id=f"cauchy-{c}") for c in ("I", "II")),
    *(pytest.param("kernel-dual", (1, 0, 0, 1), c, id=f"dual-{c}") for c in ("I", "II")),
])
def test_direct_rows_agree_with_the_pre_weights_residual(identity, particles, case, seed):
    # the weights of the square-root form regroup each shift term as
    # (pref * here * there) * F(shifted): a rounding apart, with the sign
    # of every prefactor kept
    calls = []
    original = verify._direct_kernel_rows

    def recording(ctx, grid_label, index, *args):
        # the kernel and the reference see the runner's sample: take the
        # reference now, before the runner draws the next
        rows = original(ctx, grid_label, index, *args)
        calls.append((rows[0], _pre_weights_direct_residual(*args)))
        return rows

    with mock.patch.object(verify, "_direct_kernel_rows", recording):
        run_identity(identity, case, samples=2, seed=seed, particles=particles)
    assert len(calls) == 2
    for row, reference in calls:
        assert row.label.endswith("/direct@p0")
        assert abs(row.residual - reference) <= 1e-15


def test_source_residual_symmetries():
    case = make_case("II")
    cs = CouplingSet((0.37, 0.42, 0.47, 0.52), 1.45, 0.31)
    conf = Configuration(case, cs, (MassTag.PLUS_ONE, MassTag.MINUS_INV))
    X = (0.41 + 0.07j, 0.83 - 0.11j)
    r0, s0 = residual_source(conf, X)
    assert r0 < 1e-12

    # reflecting every coordinate leaves the identity intact
    r1, s1 = residual_source(conf, tuple(-x for x in X))
    assert r1 < 1e-12
    assert s1 == pytest.approx(s0, rel=1e-12)

    # permuting coordinates together with their masses as well
    conf_p = Configuration(case, cs, (MassTag.MINUS_INV, MassTag.PLUS_ONE))
    r2, s2 = residual_source(conf_p, (X[1], X[0]))
    assert r2 < 1e-12
    assert s2 == pytest.approx(s0, rel=1e-12)


# --------------------------------------------------------------------------
# admissible sampling
# --------------------------------------------------------------------------


def _template():
    case = make_case("II")
    cs = CouplingSet((0.37, 0.42, 0.47, 0.52), 1.45, 0.31)
    return Configuration(case, cs, (MassTag.PLUS_ONE, MassTag.MINUS_ONE))


def test_sample_admissible_deterministic():
    batch_a = sample_admissible(_template(), 6, seed=21)
    batch_b = sample_admissible(_template(), 6, seed=21)
    assert len(batch_a.points) == 6
    assert batch_a.points == batch_b.points
    assert batch_a.attempts == batch_b.attempts
    assert 0.0 <= batch_a.rejection_rate < 0.5


def test_sample_admissible_gives_up_cleanly():
    with pytest.raises(ConvergenceError) as err:
        sample_admissible(_template(), 5, seed=21, coeff_cap=1e-30, max_attempts=25)
    assert "25 attempts" in str(err.value)


@pytest.mark.parametrize("count", [-3, 0])
def test_sample_admissible_rejects_a_count_below_one(count):
    # as run_identity rejects samples below 1, not an empty batch
    with pytest.raises(DomainError, match="count must be at least 1"):
        sample_admissible(_template(), count, seed=1)


def test_the_composition_grid_is_built_once_per_key():
    verify._grid.cache_clear()
    report = run_identity("eigen-plain", "II", samples=7, seed=3, max_n=4)
    assert len(report.results) >= 7
    info = verify._grid.cache_info()
    assert (info.misses, info.hits) == (1, 6)
    grid = verify._grid(1, 4)
    assert grid == ((1,), (2,), (3,), (4,))
    four = verify._grid(4, 3)
    assert type(four) is tuple and verify._grid(4, 3) is four
    assert list(four) == [c for tot in (1, 2, 3) for c in verify._compositions(tot, 4)]
    assert len(four) == 34 and len(set(four)) == 34


# --------------------------------------------------------------------------
# the draw loop and the no_balance filter
# --------------------------------------------------------------------------

_BALANCED = [name for name, spec in verify._REGISTRY.items() if spec.balanced]


def _ctx(label, identity="s-duplication", samples=3):
    return verify._RunCtx(identity=identity, case=make_case(label), label=label,
                          samples=samples, tol=1e-10, rng=np.random.default_rng(5))


@pytest.mark.parametrize("identity", _BALANCED)
def test_no_balance_keeps_the_control_rows_of_the_full_run(identity):
    for seed in range(3):
        full = run_identity(identity, "IV", samples=4, seed=seed)
        bare = run_identity(identity, "IV", samples=4, seed=seed, no_balance=True)
        assert bare.results == tuple(row for row in full.results if row.control)
        assert bare.rejection_rate == full.rejection_rate


@pytest.mark.parametrize("passing", [0, 1])
def test_duplication_sampling_shares_its_budget_and_keeps_its_message(monkeypatch, passing):
    calls = []

    def residual(case, z):
        calls.append(z)
        if len(calls) > passing:
            raise PoleProximityError("on the lattice")
        return 0.0

    monkeypatch.setattr(verify, "duplication_residual", residual)
    ctx = _ctx("II")
    with pytest.raises(ConvergenceError, match="^duplication sampling kept hitting lattice points$"):
        verify._rows_pointwise(ctx)
    # 60 draws per sample over the whole run, however the rows used them
    assert len(calls) == ctx.attempts == 60 * 3
    assert ctx.rejected == 60 * 3 - passing


def test_the_balanced_coupling_cap_gives_up_after_40_attempts(monkeypatch):
    monkeypatch.setattr(verify, "_BALANCED_G_CAP", -1.0)
    ctx = _ctx("IV", identity="source")
    first = verify._draw_coupling(ctx.rng, ctx.case)
    with pytest.raises(ConvergenceError, match="no balanced coupling within"):
        verify._balanced_coupling(ctx, first, "source", tags=(MassTag.PLUS_ONE,))
    assert ctx.attempts == ctx.rejected == 40
    # every rejected call drew the next coupling, the last one too
    rng = np.random.default_rng(5)
    for _ in range(41):
        verify._draw_coupling(rng, ctx.case)
    assert ctx.rng.bit_generator.state == rng.bit_generator.state


def test_the_calibration_row_carries_the_last_calibration_failure(monkeypatch):
    screens = []

    class Uncalibrated:
        def calibrate(self):
            raise verify.BranchError(f"set-up {len(screens)}")

    # the set-ups after the 30th fail the screen, so they leave the detail alone
    monkeypatch.setattr(verify, "_screen_config", lambda *args: screens.append(1) or len(screens) <= 30)
    monkeypatch.setattr(verify, "conjugation_terms", lambda *args: Uncalibrated())
    rep = run_identity("conjugation", "I", samples=1, seed=0)
    (row,) = rep.results
    assert (row.label, row.residual, row.detail) == ("calibration", math.inf,
                                                     "branch-failure: set-up 30")
    assert len(screens) == 40 and rep.rejection_rate == 1.0


# --------------------------------------------------------------------------
# suite running
# --------------------------------------------------------------------------


def test_run_suite_skips_unsupported_pairs():
    reports = run_suite(["theta-product", "s-oddness"], ["I", "IV"], samples=3, seed=1)
    keys = [(r.identity, r.case) for r in reports]
    assert keys == [("theta-product", "IV"), ("s-oddness", "I"), ("s-oddness", "IV")]
    with pytest.raises(DomainError):
        run_suite(["theta-product"], ["I", "II"], samples=3, seed=1)


def test_run_suite_without_balancing_skips_identities_that_have_none():
    reports = run_suite(["s-oddness", "source", "gamma-fe", "summation"], ["IV"], samples=1,
                        seed=2, no_balance=True)
    assert [r.identity for r in reports] == ["source", "summation"]
    assert all(row.control for r in reports for row in r.results)
    # with none left, the first identity's own error stands
    with pytest.raises(DomainError, match="'gamma-fe' has no balancing constraint to drop"):
        run_suite(["gamma-fe", "s-oddness"], ["IV"], samples=1, no_balance=True)
    with pytest.raises(DomainError, match="'gamma-fe' has no balancing constraint to drop"):
        run_identity("gamma-fe", "IV", no_balance=True)


# --------------------------------------------------------------------------
# serialisation: line records, CSV, merging
# --------------------------------------------------------------------------


def _two_reports(seed):
    return run_suite(["s-oddness"], ["I", "II"], samples=4, seed=seed)


def test_json_lines_round_trip():
    reports = _two_reports(3)
    text = render_json_lines(reports, created="t0", run_args={"samples": 4})
    parsed = parse_report_lines(text)
    assert parsed["header"]["args"] == {"samples": 4}
    assert parsed["header"]["created"] == "t0"
    assert len(parsed["summaries"]) == 2
    assert len(parsed["samples"]) == sum(r.sample_count for r in reports)
    assert parsed["footer"]["verdict"] == "pass"
    assert parsed["footer"]["failures"] == 0


def test_parse_rejects_corrupt_records():
    reports = _two_reports(3)
    lines = render_json_lines(reports).splitlines()
    lines[3] = "{not json"
    with pytest.raises(DomainError) as err:
        parse_report_lines("\n".join(lines))
    assert "line 4" in str(err.value)

    sample = json.loads(render_json_lines(reports).splitlines()[1])
    del sample["residual"]
    with pytest.raises(DomainError) as err:
        parse_report_lines(json.dumps(sample))
    assert "missing" in str(err.value)

    with pytest.raises(DomainError):
        parse_report_lines('{"record":"mystery"}')


@pytest.mark.parametrize("residual", [math.nan, math.inf, -math.inf, 0, 1e-3])
def test_parse_takes_any_number_as_a_residual(residual):
    row = SampleResult("s-oddness", "I", "x", 0, residual, 1.0, 1e-9, False, False)
    (parsed,) = parse_report_lines(json.dumps(sample_record(row)))["samples"]
    assert parsed["residual"] == residual or math.isnan(parsed["residual"])


@pytest.mark.parametrize("field,value", [
    ("residual", True), ("residual", "x"), ("residual", None), ("passed", 1),
    ("identity", 3), ("case", None), ("label", None), ("index", 1.5), ("index", True),
    ("scale", "x"), ("tolerance", None), ("control", 0),
])
def test_parse_rejects_sample_fields_of_the_wrong_type(field, value):
    row = SampleResult("s-oddness", "I", "x", 0, 0.5, 1.0, 1e-9, False, False)
    rec = {**sample_record(row), field: value}
    with pytest.raises(DomainError, match=f"corrupt record at line 1: field {field} "):
        parse_report_lines(json.dumps(rec))


@pytest.mark.parametrize("seed,ok", [
    (3, True), (None, True), ("missing", True), (True, False), ([1], False), ("7", False),
    (1.0, False),
])
def test_parse_checks_a_summary_seed(seed, ok):
    rec = {"record": "summary", "identity": "s-oddness", "case": "I"}
    if seed != "missing":
        rec["seed"] = seed
    if ok:
        assert parse_report_lines(json.dumps(rec))["summaries"] == [rec]
    else:
        with pytest.raises(DomainError, match="corrupt record at line 1: field seed "):
            parse_report_lines(json.dumps(rec))


@pytest.mark.parametrize("seeds,ok", [
    ([3, 4], True), ([], True), (None, True), ("missing", True), ([True], False),
    ([1, "2"], False), ([1.0], False), (3, False), ([[1]], False),
])
def test_parse_checks_a_summary_seed_list(seeds, ok):
    rec = {"record": "summary", "identity": "s-oddness", "case": "I"}
    if seeds != "missing":
        rec["seeds"] = seeds
    if ok:
        assert parse_report_lines(json.dumps(rec))["summaries"] == [rec]
    else:
        with pytest.raises(DomainError, match="corrupt record at line 1: field seeds "):
            parse_report_lines(json.dumps(rec))


def test_merge_reads_the_seeds_of_merged_summaries():
    merged = merge_parsed_reports([parse_report_lines(render_json_lines(_two_reports(s)))
                                   for s in (3, 4)])
    text = verify.json_lines_text(verify.header_line("t0"),
                                  [*merged["samples"], *merged["summaries"], merged["footer"]])
    again = merge_parsed_reports([parse_report_lines(text),
                                  parse_report_lines(render_json_lines(_two_reports(5)))])
    assert [s["seeds"] for s in again["summaries"]] == [[3, 4, 5], [3, 4, 5]]


def test_merge_adds_sample_counts():
    text_a = render_json_lines(_two_reports(3))
    text_b = render_json_lines(_two_reports(4))
    merged = merge_parsed_reports([parse_report_lines(text_a),
                                   parse_report_lines(text_b)])
    assert len(merged["samples"]) == 16
    by_case = {s["case"]: s for s in merged["summaries"]}
    assert by_case["I"]["sample_count"] == 8
    assert by_case["I"]["seeds"] == [3, 4]
    assert merged["footer"]["verdict"] == "pass"
    assert merged["footer"]["samples"] == 16

    worst = max(s["max_rel_residual"] for s in merged["summaries"])
    singles = [parse_report_lines(text_a), parse_report_lines(text_b)]
    expect = max(s["max_rel_residual"] for p in singles for s in p["summaries"])
    assert worst == expect


def test_merge_takes_a_nan_residual_as_the_maximum():
    def row(res):
        return {"identity": "s-oddness", "case": "I", "residual": res, "scale": 1.0,
                "passed": math.isfinite(res)}
    parsed = {"samples": [row(1e-14), row(math.nan), row(3e-13)], "summaries": []}
    merged = merge_parsed_reports([parsed])
    (summ,) = merged["summaries"]
    assert math.isnan(summ["max_rel_residual"])
    assert merged["footer"]["verdict"] == "fail"


def _same(a, b):
    """Equality that counts NaN equal to NaN, for values and records."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a == b


residual_value = st.one_of(st.floats(0.0, 1e-6), st.floats(0.0, 10.0),
                           st.sampled_from((math.nan, math.inf)))
fake_report = st.lists(st.tuples(residual_value, st.booleans()), min_size=0, max_size=6)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(parts=st.lists(fake_report, min_size=1, max_size=4), seed=st.integers(0, 2**40))
def test_json_lines_parse_merge_round_trip(parts, seed):
    # each part is one (identity, case) report of fixed rows, NaN residuals
    # and NaN controls included; merging the parsed file of all of them
    # reproduces every summary and the footer
    pairs = [("s-oddness", "I"), ("s-oddness", "II"), ("gamma-fe", "I"), ("gamma-fe", "III")]

    def runner(ctx):
        rows = parts[pairs.index((ctx.identity, ctx.label))]
        return [verify._row(ctx, "fake", i, res, i + 1.0, control=ctl)
                for i, (res, ctl) in enumerate(rows)]

    with mock.patch.dict(verify._REGISTRY, {"s-oddness": _with_runner("s-oddness", runner),
                                            "gamma-fe": _with_runner("gamma-fe", runner)}):
        reports = [run_identity(ident, case, samples=1, seed=seed)
                   for ident, case in pairs[:len(parts)]]
    parsed = parse_report_lines(render_json_lines(reports, created="t0"))
    assert len(parsed["samples"]) == sum(map(len, parts))
    assert all(_same(got, sample_record(row)) for got, row in
               zip(parsed["samples"], (row for rep in reports for row in rep.results)))
    merged = merge_parsed_reports([parsed])
    assert _same(merged["footer"], parsed["footer"])
    assert len(merged["summaries"]) == len(parsed["summaries"])
    by_key = {(m["identity"], m["case"]): m for m in merged["summaries"]}
    for summ in parsed["summaries"]:
        got = by_key[summ["identity"], summ["case"]]
        assert got["seeds"] == [seed]
        assert _same({k: got[k] for k in summ if k not in ("seed", "rejection_rate")},
                     {k: summ[k] for k in summ if k not in ("seed", "rejection_rate")})


def test_merge_empty_is_a_failure():
    merged = merge_parsed_reports([])
    assert merged["footer"]["verdict"] == "fail"
    assert merged["footer"]["samples"] == 0


def test_a_report_without_rows_fails_in_footer_and_merge():
    empty = verify.ResidualReport("s-oddness", "I", 0, 0, 0.0, 0.0, 0.0, 0.0, "fail", ())
    parsed = parse_report_lines(render_json_lines([empty], created="t0"))
    assert parsed["footer"]["verdict"] == "fail"
    merged = merge_parsed_reports([parsed])
    assert merged["footer"] == {"record": "footer", "reports": 1, "samples": 0,
                                "failures": 0, "verdict": "fail"}
    (summ,) = merged["summaries"]
    assert (summ["identity"], summ["case"], summ["sample_count"], summ["verdict"],
            summ["seeds"]) == ("s-oddness", "I", 0, "fail", [0])


def test_a_failing_empty_report_fails_a_merge_with_passing_rows():
    empty = verify.ResidualReport("s-oddness", "I", 1, 0, 0.0, 0.0, 0.0, 0.0, "fail", ())
    passing = run_identity("s-oddness", "I", samples=2, seed=0)
    assert passing.verdict == "pass"
    merged = merge_parsed_reports([parse_report_lines(render_json_lines([passing])),
                                   parse_report_lines(render_json_lines([empty]))])
    (summ,) = merged["summaries"]
    assert summ["verdict"] == "fail" and summ["seeds"] == [0, 1]
    assert summ["sample_count"] == passing.sample_count
    assert merged["footer"]["verdict"] == "fail"


def test_csv_rendering():
    reports = _two_reports(5)
    text = render_csv(sample_record(row) for rep in reports for row in rep.results)
    lines = text.strip().splitlines()
    assert lines[0] == "identity,case,label,index,residual,scale,tolerance,control,passed,detail"
    assert len(lines) == 1 + sum(r.sample_count for r in reports)
    first = lines[1].split(",")
    assert first[0] == "s-oddness" and first[1] == "I"
    assert first[7] in ("0", "1") and first[8] in ("0", "1")


def test_summary_matrix_layout():
    reports = _two_reports(6)
    parsed = parse_report_lines(render_json_lines(reports))
    matrix = summary_matrix(parsed["summaries"])
    assert "s-oddness" in matrix
    assert "ok" in matrix
    lines = matrix.splitlines()
    assert lines[0].startswith("identity")
    assert "I" in lines[0] and "II" in lines[0]
