"""Benchmark of the vandiejen certification engine.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-elliptic --seed 0 --seconds 25 --trace 0

Each run starts fresh interpreters (``worker.py``) on the checkout's own
``src/``: a few that only set up, which give ``setup_s``, and one that
runs the workload.  With ``--trace 1`` the workload runs twice, untraced
and then traced, and the per-layer metrics come from the traced run.

The output lists every metric with its unit, the machine and toolchain,
and the gate outcome; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed``
counts gated operations with a failed check (``fail_frac`` is
``failed / attempted``); ``correct`` is false when a check shows a wrong
output, such as a positive row above its tolerance, an exit code that
contradicts the verdicts, a merged footer that does not match the
rendered reports, or different payload bytes between repetitions or
between the traced and untraced runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

WORKLOADS = ("sweep-elliptic", "sweep-lower", "blocks")
SEED_LIMIT = 2**32
SETUP_PROBES = 7
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
CASES = ("I", "II", "III", "IV")

#: (name, unit) of the metrics printed with ``--trace 0``.
END_TO_END = (
    ("suite_s", "s"),
    ("scalar_pts_per_s", "1/s"),
    ("batch_pts_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("tol_margin_dec", "dec"),
    ("ctl_margin_dec", "dec"),
)


def _per_layer() -> tuple[tuple[str, str], ...]:
    m = []
    for layer in ("sfun", "gamma", "operators", "eigenfunctions", "verify", "cli"):
        m += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
    m += [("sfun.s_eval.calls", "count"), ("sfun.s_eval.pts", "count"), ("sfun.s_eval.self_s", "s"),
          ("sfun.theta_eval.calls", "count"), ("sfun.theta_eval.self_s", "s"), ("sfun.errors", "count")]
    m += [("gamma.gamma_G.calls", "count"), ("gamma.gamma_G.pts", "count"), ("gamma.gamma_G.self_s", "s"),
          ("gamma.gamma_ratio_shift.calls", "count"), ("gamma.gamma_ratio_shift.self_s", "s")]
    for fn in ("operator_terms", "coeff_V0", "coeff_V_shift"):
        m += [(f"operators.{fn}.calls", "count"), (f"operators.{fn}.self_s", "s")]
    m += [("operators.s_calls_per_term_call", "ratio")]
    m += [(f"operators.operator_terms.us_per_call.n{n}", "us") for n in range(1, 7)]
    m += [("eigenfunctions.sqrt_at.calls", "count"), ("eigenfunctions.sqrt_at.self_s", "s"),
          ("eigenfunctions.sqrt_at.incl_s", "s"), ("eigenfunctions.cache_hit_ratio", "ratio"),
          ("eigenfunctions.path_evals", "count"), ("eigenfunctions.bisect_evals", "count"),
          ("eigenfunctions.branch_errors", "count")]
    m += [("verify.run_identity.calls", "count"), ("verify.run_identity.self_s", "s"),
          ("verify.rows", "count"), ("verify.reject_rate", "ratio"), ("verify.report_s", "s"),
          ("verify.slowest_pair_s", "s")]
    m += [("cli.main.calls", "count"), ("cli.main.self_s", "s")]
    for fn in ("s_eval", "gamma_G"):
        layer = "sfun" if fn == "s_eval" else "gamma"
        m += [(f"{layer}.{fn}.us_per_pt.{c}.{path}", "us")
              for c in CASES for path in ("scalar", "batch")]
    m += [("trace.spans", "count"), ("trace.reps", "count"), ("trace.suite_s", "s"),
          ("trace.overhead_s", "s")]
    return tuple(m)


#: (name, unit) of the metrics printed with ``--trace 1``.
PER_LAYER = _per_layer()


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def seed_arg(text: str) -> int:
    seed = int(text)
    # verify masks seeds to 32 bits, so a wider seed would alias a smaller one
    if not 0 <= seed < SEED_LIMIT:
        raise argparse.ArgumentTypeError(f"seed must lie in [0, 2**32), got {seed}")
    return seed


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


class Worker:
    """One fresh interpreter running ``worker.py``; times its set-up as the
    wall time from spawn to its ``ready`` line."""

    def __init__(self, args: list[str], deadline: float) -> None:
        self.deadline = deadline
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), *args], cwd=ROOT, env=worker_env(),
            stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline().strip()
        self.setup_s = time.perf_counter() - started
        if line != "ready":
            self.stop()
            raise BenchError(f"worker did not start: {line or 'no output'} (exit {self.proc.returncode})")

    def result(self) -> dict:
        try:
            out, _ = self.proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.stop()
            raise BenchError("worker ran past the deadline") from None
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with {self.proc.returncode}")
        lines = [ln for ln in out.splitlines() if ln.strip()]
        if not lines:
            raise BenchError("worker printed no result")
        return json.loads(lines[-1])

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def run_worker(workload: str, seed: int, seconds: float, mode: str, tmp: Path,
               deadline: float) -> tuple[float, dict | None]:
    w = Worker(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                "--mode", mode, "--tmp", str(tmp)], deadline)
    try:
        return w.setup_s, w.result()
    finally:
        w.stop()


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def gate_of(*results: dict) -> tuple[int, int, list[str], list[str]]:
    attempted = sum(r["gate"]["attempted"] for r in results)
    failed = sum(r["gate"]["failed"] for r in results)
    failures = [f for r in results for f in r["gate"]["failures"]]
    wrong = [w for r in results for w in r["gate"]["wrong"]]
    return attempted, failed, failures, wrong


def end_to_end(workload: str, seed: int, seconds: float, tmp: Path, deadline: float):
    setups = []
    for _ in range(SETUP_PROBES):
        setup_s, probe = run_worker(workload, seed, seconds, "setup", tmp, deadline)
        setups.append(setup_s * probe["ref_factor"])
    _, res = run_worker(workload, seed, seconds, "plain", tmp, deadline)
    metrics = {name: res[name] for name, _ in END_TO_END if name != "setup_s"}
    metrics["setup_s"] = statistics.median(setups)
    return metrics, [res], []


def per_layer(workload: str, seed: int, seconds: float, tmp: Path, deadline: float):
    # half the time each, so that a traced run costs about an untraced one
    _, plain = run_worker(workload, seed, seconds / 2, "plain", tmp, deadline)
    _, traced = run_worker(workload, seed, seconds / 2, "traced", tmp, deadline)
    metrics = {name: 0 for name, _ in PER_LAYER}
    metrics.update({k: v for k, v in traced["layer"].items() if k in metrics})
    for key, us in plain["us_per_pt"].items():
        fn, case, path = key.split(".")
        name = f"{'sfun' if fn == 's_eval' else 'gamma'}.{fn}.us_per_pt.{case}.{path}"
        if name in metrics:
            metrics[name] = us
    # A single step of one to two seconds: over ten seeds on a noisy 2-core
    # host its spread reached the largest allowed bound, so it is reported
    # here, from the untraced run, without a bound.
    metrics["verify.slowest_pair_s"] = plain["slowest_pair_s"]
    if "rows" in traced:
        metrics["verify.rows"] = traced["rows"]
        metrics["verify.reject_rate"] = traced["reject_rate"]
    metrics["trace.reps"] = traced["reps"]
    metrics["trace.suite_s"] = traced["suite_wall_s"]
    metrics["trace.overhead_s"] = traced["suite_wall_s"] - plain["suite_wall_s"]
    wrong = []
    if plain["digest"] != traced["digest"]:
        wrong.append("traced and untraced runs gave different payload bytes")
    if traced["leftover_wrappers"]:
        wrong.append(f"wrappers left installed: {traced['leftover_wrappers'][:5]}")
    return metrics, [plain, traced], wrong


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="vandiejen benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=seed_arg)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "vandiejen" / "__init__.py").is_file():
        print(f"perfbench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, results, wrong = measure(args.workload, args.seed, args.seconds, tmp, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    attempted, failed, failures, gate_wrong = gate_of(*results)
    wrong += gate_wrong
    src = str((ROOT / "src").resolve())
    for res in results:
        if not res["package_file"].startswith(src):
            wrong.append(f"package imported from {res['package_file']}, not {src}")
    units = dict(PER_LAYER if args.trace else END_TO_END)
    info = dict(machine_info(), **results[0]["versions"], threads=results[0]["threads"])

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  repetitions {results[0]['reps']}")
    print("machine " + json.dumps(info, sort_keys=True))
    print(f"raw wall time of one {'round' if args.workload == 'blocks' else 'sweep'} "
          f"{results[0]['suite_wall_s']:.4g} s; reference kernel {results[0]['tick_s'] * 1e3:.3f} ms")
    for name, unit in units.items():
        print(f"  {name:48s} {metrics[name]:>16.6g} {unit}")
    print(f"gate: attempted {attempted}  failed {failed}  fail_frac {failed / max(1, attempted):.4g}  "
          f"worst tol margin {results[0]['tol_margin_min_dec']:.3g} dec  "
          f"weakest control {results[0]['ctl_margin_min_dec']:.3g} dec")
    for f in failures[:10]:
        print(f"  failed: {f}")
    for w in wrong[:10]:
        print(f"  WRONG: {w}")
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": _finite(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def _finite(value):
    """JSON has no infinities: clamp to the largest float (a margin with no
    rows to measure, or a control with a zero residual)."""
    return max(-sys.float_info.max, min(sys.float_info.max, value))


if __name__ == "__main__":
    sys.exit(main())
