"""One benchmark workload, run in a fresh interpreter.

Usage (normally started by ``run.py``)::

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode setup|plain|traced --tmp DIR

The worker imports the package from ``<checkout>/src``, builds the
workload's inputs from the seed, prints ``ready`` (the end of set-up),
runs the workload for the given number of seconds and prints one JSON
object with raw timings, gate outcomes and, in ``traced`` mode, the
per-layer span metrics.  ``setup`` mode stops after ``ready``.

Workloads
---------
``sweep-elliptic`` / ``sweep-lower``
    ``vandiejen verify`` for every supported identity on the sweep's
    cases, one call per (identity, case) pair writing json-lines, then
    ``vandiejen report`` over all of those files.  Both go through
    ``cli.main`` in-process.  The sweep repeats with the same seed a fixed
    number of times for the given seconds; every repetition must give the
    same payload bytes.
    After each sweep, rounds of the building blocks on the sweep's own
    cases take a further ``PROBE_SHARE`` of the time, so that the
    points-per-second metrics exist on every workload.
``blocks``
    ``s_eval``, ``theta_eval`` and ``gamma_G`` on seeded points in both
    half-planes, each point set once as one array call and once as one
    scalar call per point, in rounds until the time is spent.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

# Evaluators are looked up on their modules at call time, so that the
# tracer's wrappers see the calls made from here.
from vandiejen import cli, gamma, sfun, verify  # noqa: E402

import spans  # noqa: E402

# The gate reads reports through references taken before any tracing, so
# its own parsing never shows up as spans.
parse_report_lines = verify.parse_report_lines
payload_lines = verify.payload_lines

SWEEP_CASES = {"sweep-elliptic": ("IV",), "sweep-lower": ("I", "II", "III")}
WORKLOADS = (*SWEEP_CASES, "blocks")

# verify --samples per (identity, case) pair in a sweep: small enough for
# three repetitions in a run, since the repetitions, not the samples, damp
# the host's noise
SWEEP_SAMPLES = 6
# Time of one sweep plus its block rounds at the reference speed.  A run
# makes round(seconds / SWEEP_STEP_S) sweeps, at least two: a count fixed
# in advance, because the fastest of more repetitions reads lower.
SWEEP_STEP_S = {"sweep-elliptic": 9.0, "sweep-lower": 4.5}
# share of the sweeps' time spent timing the building blocks on their cases
PROBE_SHARE = 0.15

BLOCK_POINTS = 256
ORACLE_POINTS = 4
ORACLE_DPS = 30
# scale parameters `vandiejen eval` and `vandiejen verify` use by default
CASE_R, CASE_A = 1.0, 2.0
# The middle of the step window verify draws from.  gamma_G's cost depends
# on the step far more than on the point, so a seeded step would make the
# cost of a run depend on one draw.
GAMMA_ALPHA = 0.45


# Reference kernel: fixed work outside the package, timed right after each
# step of the workload.  The host's speed drifts by up to a third within a
# minute, mostly by a factor common to all code, so a step's time divided
# by the kernel's time drifts much less.  The end-to-end times are reported
# at the reference speed, raw time x REF_NOMINAL_S / kernel time, where
# REF_NOMINAL_S is about the kernel's time on the 2-core Xeon the benchmark
# was written on.
REF_NOMINAL_S = 0.003


def ref_tick() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    z, acc = 0.3 + 0.2j, 0j
    for k in range(3000):
        acc += cmath.sin(z * (k * 1e-3)) * (1 + 1e-3j)
    a = np.linspace(0.0, 1.0, 64) + 0.1j
    for _ in range(300):
        acc += np.exp(1j * a).sum()
    return time.perf_counter() - t0


class Gate:
    """Counts checked operations.

    ``failed`` counts operations with any failed check.  ``wrong`` lists
    the checks that show an incorrect output (as opposed to a certified
    verdict of ``fail``, which is a correct output that still counts as a
    failed operation).
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.wrong: list[str] = []

    def op(self, name: str, ok: bool, wrong: list[str] = ()) -> None:
        self.attempted += 1
        if not ok or wrong:
            self.failed += 1
            self.failures.append(name)
        self.wrong.extend(f"{name}: {w}" for w in wrong)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def sweep_pairs(workload: str) -> list[tuple[str, str]]:
    cases = SWEEP_CASES[workload]
    return [(ident, c) for ident in verify.IDENTITIES for c in cases
            if c in verify.CASE_SUPPORT[ident]]


def _cli(argv: list[str]):
    """``cli.main`` exit code, or a description of what it raised; the gate
    then reports the pair instead of the run ending without a result."""
    try:
        return cli.main(argv)
    except Exception as exc:  # noqa: BLE001 - reported by the gate
        return f"raised {type(exc).__name__}: {exc}"


def sweep_once(pairs, seed: int, samples: int, tmp: Path) -> dict:
    """One timed sweep: verify per pair, then report over all outputs.
    Each step's time is also given at the reference speed, from the median
    of three reference ticks right after it (not counted in its time)."""
    files, pair_s, codes, ticks = [], [], [], []
    for ident, case in pairs:
        out = tmp / f"{ident}.{case}.jsonl"
        t0 = time.perf_counter()
        rc = _cli(["verify", "--identity", ident, "--cases", case,
                   "--samples", str(samples), "--seed", str(seed),
                   "--format", "json-lines", "--out", str(out)])
        pair_s.append(time.perf_counter() - t0)
        ticks.append(statistics.median(ref_tick() for _ in range(3)))
        codes.append(rc)
        files.append(out)
    merged = tmp / "merged.jsonl"
    t0 = time.perf_counter()
    report_rc = _cli(["report", *map(str, files), "--format", "json-lines",
                      "--out", str(merged)])
    report_s = time.perf_counter() - t0
    ticks.append(statistics.median(ref_tick() for _ in range(3)))
    step_ref = [t * REF_NOMINAL_S / tk for t, tk in zip([*pair_s, report_s], ticks)]
    return {"suite_s": sum(pair_s) + report_s, "pair_s": pair_s, "report_s": report_s,
            "step_ref_s": step_ref, "ticks": ticks, "codes": codes, "report_rc": report_rc,
            "files": files, "merged": merged}


def _read_report(path: Path) -> tuple[dict | None, str]:
    try:
        text = path.read_text()
        return parse_report_lines(text), text
    except (OSError, verify.DomainError) as exc:
        return None, str(exc)


def margins(tol_rows: list[float], ctl_rows: list[float]) -> dict:
    """Median and minimum over rows of the decades by which positive rows
    stay below their tolerance and controls stay above the floor.  The
    minimum moves by a decade between seeds, so the metric is the median."""
    def med(v):
        return statistics.median(v) if v else math.inf
    return {"tol_margin_dec": med(tol_rows), "ctl_margin_dec": med(ctl_rows),
            "tol_margin_min_dec": min(tol_rows, default=math.inf),
            "ctl_margin_min_dec": min(ctl_rows, default=math.inf)}


def check_sweep(pairs, run: dict, gate: Gate) -> tuple[str, dict]:
    """Gate one sweep; returns the payload digest and row statistics."""
    digest = hashlib.sha256()
    tol_rows, ctl_rows = [], []
    rows = rejects = 0
    totals = {"reports": 0, "samples": 0, "failures": 0}
    for (ident, case), path, rc in zip(pairs, run["files"], run["codes"]):
        name = f"verify {ident}/{case}"
        parsed, text = _read_report(path)
        if parsed is None:
            gate.op(name, False, [f"unreadable report: {text}"])
            continue
        digest.update("\n".join(payload_lines(text)).encode())
        wrong = []
        summaries, samples, footer = parsed["summaries"], parsed["samples"], parsed["footer"]
        passed = bool(summaries) and all(s["verdict"] == "pass" for s in summaries)
        if rc != (cli.EXIT_PASS if passed else cli.EXIT_FAIL):
            wrong.append(f"exit code {rc} for verdicts {[s['verdict'] for s in summaries]}")
        failures = sum(1 for r in samples if not r["passed"])
        if footer is None or (footer["samples"], footer["failures"]) != (len(samples), failures):
            wrong.append(f"footer {footer} does not match its {len(samples)} rows")
        for r in samples:
            res, tol = r["residual"], r["tolerance"]
            if r["control"]:
                ctl_rows.append(math.log10(res / tol) if res > 0 else -math.inf)
            elif not r["passed"]:
                wrong.append(f"positive row {r['label']}#{r['index']} residual {res:.3g} > {tol:.3g}")
            elif res > 0 and tol > 0:
                tol_rows.append(math.log10(tol / res))
        rows += len(samples)
        rejects += sum(s["rejection_rate"] for s in summaries)
        totals["reports"] += len(summaries)
        totals["samples"] += len(samples)
        totals["failures"] += failures
        gate.op(name, passed, wrong)

    parsed, text = _read_report(run["merged"])
    if parsed is None:
        gate.op("report", False, [f"unreadable merged report: {text}"])
    else:
        digest.update("\n".join(payload_lines(text)).encode())
        footer = parsed["footer"] or {}
        expect = dict(totals, verdict="pass" if totals["failures"] == 0 else "fail")
        got = {k: footer.get(k) for k in expect}
        wrong = [] if got == expect else [f"merged footer {got} != rendered reports {expect}"]
        if run["report_rc"] != (cli.EXIT_PASS if got.get("verdict") == "pass" else cli.EXIT_FAIL):
            wrong.append(f"report exit code {run['report_rc']} for verdict {got.get('verdict')}")
        gate.op("report", got.get("verdict") == "pass", wrong)
    stats = dict(margins(tol_rows, ctl_rows), rows=rows,
                 reject_rate=rejects / max(1, len(pairs)))
    return digest.hexdigest(), stats


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------


def block_sets(seed: int, cases) -> list[dict]:
    """Seeded point sets: half with Im > 0, half with Im < 0."""
    rng = np.random.Generator(np.random.PCG64(seed))
    sets = []
    for label in cases:
        case = verify.make_case(label, None, r=CASE_R, a=CASE_A)
        sign = np.where(np.arange(BLOCK_POINTS) % 2 == 0, 1.0, -1.0)
        x = rng.uniform(0.1, 1.1, BLOCK_POINTS) + 1j * sign * rng.uniform(0.02, 0.45, BLOCK_POINTS)
        funcs = [("s_eval", lambda z, c=case: sfun.s_eval(c, z), "s-oddness")]
        if label == "IV":
            funcs.append(("theta_eval", lambda z, c=case: sfun.theta_eval(c.r * z, q=c.q), "theta-product"))
        funcs.append(("gamma_G", lambda z, c=case: gamma.gamma_G(c, GAMMA_ALPHA, z), "gamma-fe"))
        for fname, fn, ident in funcs:
            sets.append({"name": f"{fname}.{label}", "fn": fn, "x": x, "case": case,
                         "label": label, "tol": verify.default_tolerance(ident, label)})
    return sets


def blocks_round(sets) -> tuple[list[float], list[float], list]:
    batch_s, scalar_s, values = [], [], []
    for st in sets:
        fn, x = st["fn"], st["x"]
        t0 = time.perf_counter()
        arr = np.asarray(fn(x))
        t1 = time.perf_counter()
        sc = np.array([fn(complex(v)) for v in x.tolist()])
        t2 = time.perf_counter()
        batch_s.append(t1 - t0)
        scalar_s.append(t2 - t1)
        values.append((arr, sc))
    return batch_s, scalar_s, values


def check_blocks(sets, values, gate: Gate, seed: int) -> dict:
    """Array vs scalar agreement within the identity's tolerance, detuned
    controls above the control floor, and an mpmath oracle subsample."""
    tol_rows, ctl_rows = [], []
    rng = np.random.Generator(np.random.PCG64(seed))
    for st, (arr, sc) in zip(sets, values):
        scale = np.maximum(np.abs(sc), 1e-300)
        res = np.abs(arr - sc) / scale
        finite = bool(np.all(np.isfinite(arr)) and np.all(np.isfinite(sc)))
        worst = float(np.max(res)) if finite else math.inf
        ok = finite and worst <= st["tol"]
        gate.op(f"agree {st['name']}", ok,
                [] if ok else [f"array vs scalar residual {worst:.3g} > {st['tol']:.3g}"])
        detuned = np.abs(np.asarray(st["fn"](st["x"] + verify.CONTROL_DETUNE)) - sc) / scale
        floor = float(np.min(detuned))
        gate.op(f"control {st['name']}", floor > verify.CONTROL_FLOOR)
        with np.errstate(divide="ignore"):
            ctl_rows.extend(np.log10(detuned / verify.CONTROL_FLOOR).tolist())
        if ok:
            tol_rows.extend(np.log10(st["tol"] / res[res > 0]).tolist())
        if st["name"].startswith("s_eval."):
            case, tol = st["case"], st["tol"]
            for i in sorted(rng.choice(len(st["x"]), ORACLE_POINTS, replace=False).tolist()):
                x = complex(st["x"][i])
                got = complex(sfun.s_eval(case, x))
                want = complex(sfun.s_eval_mp(case, x, ORACLE_DPS))
                res_mp = abs(got - want) / max(abs(want), 1e-300)
                ok_mp = res_mp <= tol
                gate.op(f"oracle {st['name']}#{i}", ok_mp,
                        [] if ok_mp else [f"s_eval vs s_eval_mp residual {res_mp:.3g} > {tol:.3g}"])
                if ok_mp and res_mp > 0:
                    tol_rows.append(math.log10(tol / res_mp))
    return margins(tol_rows, ctl_rows)


class BlockRounds:
    """Timed rounds over the point sets, each followed by a reference tick,
    gathered across a run; the metrics are medians per set over all rounds
    of the times at the reference speed."""

    def __init__(self, sets) -> None:
        self.sets = sets
        self.rounds: list[tuple[float, list[float], list[float], float]] = []
        self.first = None
        self.digests: set[str] = set()

    def run(self, seconds: float, min_rounds: int = 1) -> None:
        started = time.perf_counter()
        done = 0
        while done < min_rounds or time.perf_counter() - started < seconds:
            t0 = time.perf_counter()
            batch_s, scalar_s, values = blocks_round(self.sets)
            round_s = time.perf_counter() - t0
            self.rounds.append((round_s, batch_s, scalar_s, ref_tick()))
            self.digests.add(hashlib.sha256(
                b"".join(a.tobytes() + s.tobytes() for a, s in values)).hexdigest())
            if self.first is None:
                self.first = values
            done += 1

    def finish(self, gate: Gate, seed: int) -> dict:
        rounds, digests = self.rounds, self.digests
        gate.op("blocks determinism", len(digests) == 1,
                [] if len(digests) == 1 else [f"{len(digests)} distinct results over {len(rounds)} rounds"])
        stats = check_blocks(self.sets, self.first, gate, seed)
        n = BLOCK_POINTS
        ref = [REF_NOMINAL_S / r[3] for r in rounds]
        batch = [statistics.median(r[1][k] * f for r, f in zip(rounds, ref)) for k in range(len(self.sets))]
        scalar = [statistics.median(r[2][k] * f for r, f in zip(rounds, ref)) for k in range(len(self.sets))]
        stats.update({
            "rounds": len(rounds),
            "round_s": statistics.median(r[0] * f for r, f in zip(rounds, ref)),
            "round_wall_s": statistics.median(r[0] for r in rounds),
            "tick_s": statistics.median(r[3] for r in rounds),
            "slowest_set_s": max(b + s for b, s in zip(batch, scalar)),
            # geometric means, so that each (function, case) set weighs the same
            "batch_pts_per_s": math.exp(statistics.fmean(math.log(n / t) for t in batch)),
            "scalar_pts_per_s": math.exp(statistics.fmean(math.log(n / t) for t in scalar)),
            "us_per_pt": {f"{st['name']}.{path}": t / n * 1e6
                          for st, b, s in zip(self.sets, batch, scalar)
                          for path, t in (("batch", b), ("scalar", s))},
            "digest": next(iter(digests)) if len(digests) == 1 else "",
        })
        return stats


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, tmp: Path,
                 tracer: spans.Tracer | None = None) -> dict:
    """Set-up, ``ready``, then the timed workload."""
    gate = Gate()
    cases = SWEEP_CASES.get(workload, verify.CASES)
    sets = block_sets(seed, cases)
    pairs = sweep_pairs(workload) if workload in SWEEP_CASES else []
    print("ready", flush=True)

    def timed(fn, *args):
        """Run one timed stretch, traced when a tracer is given; the gate's
        checks run between stretches, untraced."""
        if tracer is not None:
            tracer.install()
        try:
            return fn(*args)
        finally:
            if tracer is not None:
                tracer.uninstall()

    out: dict = {}
    if pairs:
        # The building-block rounds are interleaved with the sweeps, so
        # both sample the same stretch of the run.  The traced run only
        # needs the sweep's spans.
        probe = BlockRounds(sets) if tracer is None else None
        steps, wall, ticks, digests, stats = [], [], [], set(), None
        for _ in range(max(2, round(seconds / SWEEP_STEP_S[workload]))):
            run = timed(sweep_once, pairs, seed, SWEEP_SAMPLES, tmp)
            wall.append(run["suite_s"])
            steps.append(run["step_ref_s"])
            ticks.extend(run["ticks"])
            digest, rep_stats = check_sweep(pairs, run, gate)
            digests.add(digest)
            stats = stats or rep_stats
            if probe is not None:
                probe.run(run["suite_s"] * PROBE_SHARE / (1 - PROBE_SHARE))
        gate.op("sweep determinism", len(digests) == 1,
                [] if len(digests) == 1 else [f"{len(digests)} distinct payloads over {len(wall)} sweeps"])
        # Every sweep repeats the same work, and the host only ever slows a
        # step down: each step counts with its fastest repetition.
        best = [min(col) for col in zip(*steps)]
        if probe is not None:
            blocks = probe.finish(gate, seed)
            for key in ("scalar_pts_per_s", "batch_pts_per_s", "us_per_pt"):
                out[key] = blocks[key]
        out.update(stats)
        out.update({
            "suite_s": sum(best),
            "suite_wall_s": statistics.median(wall),
            "tick_s": statistics.median(ticks),
            "slowest_pair_s": max(best[:-1]),
            "reps": len(wall),
            "digest": digests.pop() if len(digests) == 1 else "",
        })
    else:
        probe = BlockRounds(sets)
        timed(probe.run, seconds, 3)
        blocks = probe.finish(gate, seed)
        out.update(blocks)
        out["suite_s"] = blocks["round_s"]
        out["suite_wall_s"] = blocks["round_wall_s"]
        out["slowest_pair_s"] = blocks["slowest_set_s"]
        out["reps"] = blocks["rounds"]

    out["gate"] = {"attempted": gate.attempted, "failed": gate.failed,
                   "failures": gate.failures[:20], "wrong": gate.wrong[:20]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    ap.add_argument("--tmp", type=Path, required=True)
    args = ap.parse_args(argv)

    if args.mode == "setup":
        block_sets(args.seed, SWEEP_CASES.get(args.workload, verify.CASES))
        print("ready", flush=True)
        tick = statistics.median(ref_tick() for _ in range(7))
        print(json.dumps({"tick_s": tick, "ref_factor": REF_NOMINAL_S / tick}), flush=True)
        return 0

    args.tmp.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if args.mode == "traced" else None
    out = run_workload(args.workload, args.seed, args.seconds, args.tmp, tracer)
    if tracer is not None:
        out["layer"] = spans.layer_metrics(tracer.span_arrays(), tracer.errors, tracer.bisect_evals)
        out["leftover_wrappers"] = spans.wrapped_names()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["package_file"] = str(Path(verify.__file__).resolve())
    out["versions"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": __import__("scipy").__version__,
        "mpmath": __import__("mpmath").__version__,
    }
    out["threads"] = {k: v for k, v in os.environ.items() if "THREADS" in k}
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
