"""Acceptance gate: one test per advertised guarantee of the package.

Every test below drives the public interfaces end to end at the tolerances
the package promises, then emits a single summary line through the terminal
reporter so the verdict survives pytest's output capture. Negative controls
must fail by a wide margin wherever a guarantee is conditional, which rules
out a vacuously slack residual normalisation.
"""

import time

import numpy as np
import pytest

from vandiejen.operators import Configuration, CouplingSet, MassTag, balance_solve
from vandiejen.verify import (
    CASES,
    IDENTITIES,
    make_case,
    payload_lines,
    render_json_lines,
    residual_source,
    run_identity,
    run_suite,
    sample_admissible,
)

CONTROL_FLOOR = 1e-3

TAGS = (MassTag.PLUS_ONE, MassTag.MINUS_ONE, MassTag.PLUS_INV, MassTag.MINUS_INV)

# Particle-count compositions each coefficient identity cycles through
# (all splits of 1..3 particles over the species the identity supports).
COMPOSITION_COUNTS = {
    "eigen-plain": 3,
    "kernel-cauchy": 9,
    "kernel-dual": 9,
    "deformed-groundstate": 9,
    "deformed-constant": 9,
    "kernel-deformed": 34,
}


@pytest.fixture
def announce(request):
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def emit(num, name, ok, detail):
        verdict = "PASS" if ok else "FAIL"
        line = f"acceptance {num:02d} {name}: {verdict} [{detail}]"
        if reporter is None:
            print(line)
        else:
            reporter.write_line(line)

    return emit


def _coupling_draw(rng, case):
    while True:
        lam = float(rng.uniform(0.3, 1.7))
        if abs(lam - 1.0) > 0.12:
            break
    beta = float(rng.uniform(0.2, 0.4))
    g = tuple(float(rng.uniform(-0.4, 0.6)) for _ in range(2 * (case.rho + 1)))
    return CouplingSet(g, lam, beta)


def _mass_vectors():
    singles = [(t,) for t in TAGS]
    pairs = [(a, b) for a in TAGS for b in TAGS]
    rng = np.random.default_rng(414)
    triples = [
        tuple(TAGS[int(i)] for i in rng.integers(0, 4, size=3)) for _ in range(16)
    ]
    return singles + pairs + triples


def test_criterion_01_gamma_functional_equation(announce):
    """The gamma block satisfies its defining shift relation in every case."""
    t0 = time.perf_counter()
    failures = []
    worst = 0.0
    for label in CASES:
        tol = 1e-8 if label == "IV" else 1e-9
        rep = run_identity("gamma-fe", label, samples=50, seed=0)
        worst = max(worst, rep.max_rel_residual)
        if rep.sample_count != 50:
            failures.append(f"case {label}: only {rep.sample_count} samples")
        if not rep.passed or rep.max_rel_residual >= tol:
            failures.append(f"case {label}: residual {rep.max_rel_residual:.3e}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s over budget")
    announce(
        1,
        "gamma functional equation",
        not failures,
        f"4 cases x 50 points, worst {worst:.2e}, {elapsed:.2f}s",
    )
    assert not failures, "; ".join(failures)


def test_criterion_02_gamma_reflection_symmetry(announce):
    """Negating the shift parameter mirrors the argument bit for bit."""
    failures = []
    for label in CASES:
        rep = run_identity("gamma-reflection", label, samples=20, seed=0)
        if rep.sample_count != 20:
            failures.append(f"case {label}: only {rep.sample_count} samples")
        if not rep.passed or rep.max_rel_residual != 0.0:
            failures.append(f"case {label}: residual {rep.max_rel_residual:.3e}")
    announce(
        2,
        "gamma reflection symmetry",
        not failures,
        "4 cases x 20 points, bit-exact",
    )
    assert not failures, "; ".join(failures)


def test_criterion_03_coefficient_summation_identity(announce):
    """Shift coefficients sum to a constant for free complex parameters."""
    t0 = time.perf_counter()
    failures = []
    worst = 0.0
    floor = float("inf")
    for label in CASES:
        tol = 1e-7 if label == "IV" else 1e-8
        rep = run_identity("summation", label, samples=50, seed=0)
        worst = max(worst, rep.max_rel_residual)
        if not rep.passed or rep.max_rel_residual >= tol:
            failures.append(f"case {label}: residual {rep.max_rel_residual:.3e}")
        if label != "IV":
            continue
        for sign in ("+", "-"):
            rows = [r for r in rep.results if r.label.endswith(f"defect={sign}0.1")]
            if not rows:
                failures.append(f"missing {sign}0.1 detune controls")
                continue
            low = min(r.residual for r in rows)
            floor = min(floor, low)
            if low <= CONTROL_FLOOR:
                failures.append(f"control defect={sign}0.1 too small: {low:.3e}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s over budget")
    announce(
        3,
        "coefficient summation identity",
        not failures,
        f"4 cases x 50 points, worst {worst:.2e}, min control {floor:.2e}, "
        f"{elapsed:.1f}s",
    )
    assert not failures, "; ".join(failures)


def test_criterion_04_source_identity_mass_vectors(announce):
    """The operator identity holds for every mass species combination.

    Cases I to III run with fully free couplings: all 4 single-species
    vectors, all 16 ordered pairs, and 16 seeded random triples, each at
    20 admissible points. The elliptic case repeats the sweep with the
    coupling sum balanced, and detuning that sum by +-0.1 must push the
    residual above the control floor in both directions.
    """
    t0 = time.perf_counter()
    failures = []
    worst_free = 0.0
    for label in ("I", "II", "III"):
        case = make_case(label)
        rng = np.random.default_rng(1000 + ord(label[-1]))
        for vi, tags in enumerate(_mass_vectors()):
            conf = Configuration(case, _coupling_draw(rng, case), tags)
            batch = sample_admissible(conf, 20, seed=7000 + vi)
            for X in batch.points:
                res, _ = residual_source(conf, X)
                worst_free = max(worst_free, res)
                if res >= 1e-8:
                    failures.append(f"{label} vector {vi}: residual {res:.3e}")

    worst_balanced = 0.0
    floor = float("inf")
    case = make_case("IV")
    rng = np.random.default_rng(1700)
    for vi, tags in enumerate(_mass_vectors()):
        for _ in range(40):
            coupling = _coupling_draw(rng, case)
            masses = tuple(t.value_for(coupling.lam) for t in tags)
            g = balance_solve("source", coupling.lam, coupling.g, mass_sum=sum(masses))
            if abs(g[-1]) <= 9.0:
                break
        balanced = CouplingSet(g, coupling.lam, coupling.beta)
        conf = Configuration(case, balanced, tags)
        assert conf.is_balanced(1e-9)
        batch = sample_admissible(conf, 2, seed=7100 + vi)
        for X in batch.points:
            res, _ = residual_source(conf, X)
            worst_balanced = max(worst_balanced, res)
            if res >= 1e-7:
                failures.append(f"IV vector {vi}: residual {res:.3e}")
        for delta in (0.1, -0.1):
            detuned = list(balanced.g)
            detuned[-1] += delta
            bad = Configuration(
                case, CouplingSet(tuple(detuned), balanced.lam, balanced.beta), tags
            )
            ctrl_batch = sample_admissible(bad, 3, seed=7200 + vi, coeff_cap=1e4)
            ctrl = max(residual_source(bad, X)[0] for X in ctrl_batch.points)
            floor = min(floor, ctrl)
            if ctrl <= CONTROL_FLOOR:
                failures.append(
                    f"IV vector {vi} defect {delta:+.1f}: control {ctrl:.3e}"
                )
    elapsed = time.perf_counter() - t0
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.1f}s over budget")
    announce(
        4,
        "source identity over mass vectors",
        not failures,
        f"36 vectors, free worst {worst_free:.2e}, balanced worst "
        f"{worst_balanced:.2e}, min control {floor:.2e}, {elapsed:.1f}s",
    )
    assert not failures, "; ".join(failures[:8])


def test_criterion_05_conjugated_operator_equivalence(announce):
    """Square-root conjugation reproduces the plain coefficient action.

    Branch-safe cases only; each sample checks a constant plus five
    exponential test functions at the base point and one offset point,
    and an injected sheet fault must break the match.
    """
    failures = []
    worst = 0.0
    floor = float("inf")
    for label in ("I", "II"):
        rep = run_identity("conjugation", label, samples=10, seed=0)
        plain = [r for r in rep.results if not r.control]
        controls = [r for r in rep.results if r.control]
        if not rep.passed:
            failures.append(f"case {label}: verdict {rep.verdict}")
        if not plain or not controls:
            failures.append(f"case {label}: missing rows")
            continue
        high = max(r.residual for r in plain)
        low = min(r.residual for r in controls)
        worst = max(worst, high)
        floor = min(floor, low)
        if high >= 1e-8:
            failures.append(f"case {label}: residual {high:.3e}")
        if low <= CONTROL_FLOOR:
            failures.append(f"case {label}: sheet-fault control {low:.3e}")
    announce(
        5,
        "conjugated operator equivalence",
        not failures,
        f"2 cases x 10 samples, worst {worst:.2e}, min fault control {floor:.2e}",
    )
    assert not failures, "; ".join(failures)


def test_criterion_06_eigenfunction_and_kernel_identities(announce):
    """Constant-eigenvalue and kernel identities across particle counts.

    Every split of up to three particles over the species an identity
    supports is exercised. Cases I to III run with free couplings; the
    elliptic case balances the coupling sum per identity and carries
    detuned negative controls.
    """
    t0 = time.perf_counter()
    failures = []
    worst = 0.0
    floor = float("inf")
    for ident, count in COMPOSITION_COUNTS.items():
        for label in ("I", "II", "III"):
            rep = run_identity(ident, label, samples=max(20, count), seed=0)
            worst = max(worst, rep.max_rel_residual)
            seen = {r.label.split("/")[0] for r in rep.results}
            if len(seen) != count:
                failures.append(f"{ident} {label}: {len(seen)} of {count} splits")
            if not rep.passed or rep.max_rel_residual >= 1e-8:
                failures.append(f"{ident} {label}: {rep.max_rel_residual:.3e}")
        rep = run_identity(ident, "IV", samples=count, seed=0)
        worst = max(worst, rep.max_rel_residual)
        seen = {r.label.split("/")[0] for r in rep.results}
        if len(seen) != count:
            failures.append(f"{ident} IV: {len(seen)} of {count} splits")
        if not rep.passed or rep.max_rel_residual >= 1e-7:
            failures.append(f"{ident} IV: {rep.max_rel_residual:.3e}")
        floor = min(floor, rep.min_control_residual)
        if rep.min_control_residual <= CONTROL_FLOOR:
            failures.append(f"{ident} IV control: {rep.min_control_residual:.3e}")
    elapsed = time.perf_counter() - t0
    announce(
        6,
        "eigenfunction and kernel identities",
        not failures,
        f"6 identities x 4 cases, worst {worst:.2e}, min control {floor:.2e}, "
        f"{elapsed:.1f}s",
    )
    assert not failures, "; ".join(failures)


def test_criterion_07_operator_symmetries(announce):
    """Operator output is odd under reflection and stable under the
    species swap that exchanges the two particle families."""
    failures = []
    worst = 0.0
    for ident in ("anti-symmetry", "parameter-swap"):
        for label in CASES:
            rep = run_identity(ident, label, samples=5, seed=0)
            worst = max(worst, rep.max_rel_residual)
            if not rep.passed or rep.max_rel_residual >= 1e-10:
                failures.append(f"{ident} {label}: {rep.max_rel_residual:.3e}")
    announce(
        7,
        "operator symmetries",
        not failures,
        f"2 identities x 4 cases x 5 functions, worst {worst:.2e}",
    )
    assert not failures, "; ".join(failures)


def test_criterion_08_power_sum_quasi_invariance(announce):
    """Weighted power sums are invariant under lockstep contour shifts.

    Trigonometric case, one particle of each species, exponents 1 to 3;
    a deliberately wrong weight must break the invariance.
    """
    failures = []
    rep = run_identity("quasi-invariance", "II", samples=6, seed=0)
    if not rep.passed:
        failures.append(f"verdict {rep.verdict}")
    exponents = {r.label.split("/")[0] for r in rep.results}
    if exponents != {"n=1", "n=2", "n=3"}:
        failures.append(f"exponent coverage {sorted(exponents)}")
    display = [r for r in rep.results if r.label.endswith("/display")]
    contour = [r for r in rep.results if r.label.endswith("/contour")]
    controls = [r for r in rep.results if r.control]
    worst = max(r.residual for r in display + contour)
    floor = min(r.residual for r in controls)
    if worst >= 1e-8:
        failures.append(f"invariance residual {worst:.3e}")
    if floor <= CONTROL_FLOOR:
        failures.append(f"bad-weight control {floor:.3e}")
    announce(
        8,
        "power sum quasi-invariance",
        not failures,
        f"exponents 1-3 x 6 samples, worst {worst:.2e}, min control {floor:.2e}",
    )
    assert not failures, "; ".join(failures)


def test_criterion_09_building_block_suite(announce):
    """Oddness, quasi-periodicity, duplication, and the theta product
    formula hold to near machine precision over 1000 points."""
    t0 = time.perf_counter()
    failures = []
    points = 0
    worst = 0.0
    plan = (
        ("s-oddness", CASES, 100),
        ("s-quasi-period", ("II", "III", "IV"), 100),
        ("s-duplication", CASES, 50),
        ("theta-product", ("IV",), 100),
    )
    for ident, labels, count in plan:
        for label in labels:
            rep = run_identity(ident, label, samples=count, seed=0)
            points += rep.sample_count
            worst = max(worst, rep.max_rel_residual)
            if not rep.passed or rep.max_rel_residual >= 1e-10:
                failures.append(f"{ident} {label}: {rep.max_rel_residual:.3e}")
    if points != 1000:
        failures.append(f"{points} points instead of 1000")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s over budget")
    announce(
        9,
        "building block suite",
        not failures,
        f"{points} points, worst {worst:.2e}, {elapsed:.2f}s",
    )
    assert not failures, "; ".join(failures)


def test_criterion_10_report_determinism(announce):
    """Two full-suite runs with the same seed serialise byte-identically."""
    first = payload_lines(
        render_json_lines(run_suite(IDENTITIES, CASES, samples=2, seed=0), created="a")
    )
    second = payload_lines(
        render_json_lines(run_suite(IDENTITIES, CASES, samples=2, seed=0), created="b")
    )
    ok = bool(first) and first == second
    announce(
        10,
        "report determinism",
        ok,
        f"{len(first)} payload lines, byte-identical across runs",
    )
    assert ok, "payload lines differ between identically seeded runs"
