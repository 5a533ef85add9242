"""The payload ledger: per seed, one digest of each (identity, case) pair's
payload, committed as ``tests/ledger/payloads.json``.

Run ``python tests/make_ledger.py`` from the repository root to rewrite the
ledger.  Before writing, it prints against the file it replaces which pairs
moved at which seeds, and every verdict and exit code that changed: the list
a change that moves payload bytes quotes.  ``--check`` recomputes the ledger
and compares it with the committed file instead (exit 1 on a difference).

Each seed is one in-process ``vandiejen verify --all --cases I,II,III,IV
--samples 8 --seed S --format json-lines``.  Its payload lines (the
timestamped header skipped) are grouped by their ``identity`` and ``case``
fields, the footer line under ``footer``.  A group is kept as the first 16
hex digits of the sha256 of its lines, with the verdict of its summary.

Some pairs' bytes move with numpy's SIMD dispatch (ROADMAP item 17).  The
``host`` block names the Python and numpy versions and the numpy CPU
features the ledger was written at, and ``stable`` says per pair whether
all its digests held when a child process recomputed them at numpy's X86_V2
baseline (``NPY_DISABLE_CPU_FEATURES``, set for that process only).  A
comparison always checks exit codes and verdicts, the digests of stable
pairs on any host, and every digest where the host block matches.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LEDGER = Path(__file__).resolve().parent / "ledger" / "payloads.json"

SEEDS = tuple(range(10))
COMMAND = ["verify", "--all", "--cases", "I,II,III,IV", "--samples", "8", "--format",
           "json-lines"]
X86_V2 = "AVX512_SPR AVX512_ICL X86_V4 X86_V3"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def run_seed(seed: int) -> dict:
    """One seed's exit code and, per pair, ``"digest verdict"``."""
    from vandiejen import cli, verify

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*COMMAND, "--seed", str(seed)])
    lines, verdicts = {}, {}
    for line in verify.payload_lines(out.getvalue()):
        record = json.loads(line)
        pair = f"{record['identity']}/{record['case']}" if "identity" in record else "footer"
        lines.setdefault(pair, []).append(line)
        if "verdict" in record:
            verdicts[pair] = record["verdict"]
    pairs = {pair: f"{_digest(text)} {verdicts.get(pair, '-')}" for pair, text in lines.items()}
    return {"exit": code, "pairs": pairs}


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()[:16]


def compute(seeds=SEEDS) -> dict[str, dict]:
    return {str(seed): run_seed(seed) for seed in seeds}


def host() -> dict:
    import numpy as np

    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__ as features
    return {"python": platform.python_version(), "numpy": np.__version__,
            "cpu_features": sorted(name for name, on in features.items() if on)}


def _at_x86_v2(seeds) -> dict[str, dict]:
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": X86_V2}
    code = f"import json, make_ledger; print(json.dumps(make_ledger.compute({list(seeds)})))"
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=Path(__file__).parent,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def build(seeds=SEEDS) -> dict:
    runs = compute(seeds)
    v2 = _at_x86_v2(seeds)
    pairs = sorted({pair for run in runs.values() for pair in run["pairs"]})
    stable = {pair: all(runs[s]["pairs"].get(pair, "").split()[:1]
                        == v2[s]["pairs"].get(pair, "").split()[:1] for s in runs)
              for pair in pairs}
    return {"command": COMMAND, "host": host(), "stable": stable, "seeds": runs}


def differences(ledger: dict, fresh: dict[str, dict]) -> list[str]:
    """What in the recomputed seeds ``fresh`` disagrees with ``ledger``: exit
    codes, verdicts and pairs always; digests of the stable pairs, or of
    every pair where the host block matches this host."""
    every_digest = ledger["host"] == host()
    problems = []
    for seed, run in fresh.items():
        want = ledger["seeds"][seed]
        if run["exit"] != want["exit"]:
            problems.append(f"seed {seed}: exit {run['exit']}, ledger {want['exit']}")
        for pair in sorted(set(run["pairs"]) | set(want["pairs"])):
            got, held = run["pairs"].get(pair, "- missing"), want["pairs"].get(pair, "- missing")
            digest_got, verdict_got = got.split()
            digest_held, verdict_held = held.split()
            if verdict_got != verdict_held:
                problems.append(f"seed {seed} {pair}: verdict {verdict_got}, ledger {verdict_held}")
            elif digest_got != digest_held and (every_digest or ledger["stable"].get(pair)):
                problems.append(f"seed {seed} {pair}: payload digest {digest_got}, "
                                f"ledger {digest_held}")
    return problems


def moved(old: dict, new: dict) -> list[str]:
    """Every exit code that changed from ``old`` to ``new``, then per pair
    the seeds at which it moved, with any verdict that changed."""
    common = [seed for seed in new["seeds"] if seed in old["seeds"]]
    lines = [f"seed {seed}: exit {old['seeds'][seed]['exit']} -> {new['seeds'][seed]['exit']}"
             for seed in common if old["seeds"][seed]["exit"] != new["seeds"][seed]["exit"]]
    pairs = sorted({pair for seed in common for ledger in (old, new)
                    for pair in ledger["seeds"][seed]["pairs"]})
    for pair in pairs:
        was = {seed: old["seeds"][seed]["pairs"].get(pair, "- missing") for seed in common}
        now = {seed: new["seeds"][seed]["pairs"].get(pair, "- missing") for seed in common}
        seeds = [seed for seed in common if was[seed] != now[seed]]
        flips = "".join(f"; seed {seed} verdict {was[seed].split()[1]} -> {now[seed].split()[1]}"
                        for seed in seeds if was[seed].split()[1] != now[seed].split()[1])
        if seeds:
            lines.append(f"{pair}: seeds {', '.join(seeds)}{flips}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write or check the payload ledger.")
    parser.add_argument("--check", action="store_true",
                        help="recompute every seed and compare with the committed ledger")
    args = parser.parse_args(argv)
    old = json.loads(LEDGER.read_text()) if LEDGER.exists() else None
    if args.check:
        problems = differences(old, compute())
        print("\n".join(problems) or f"ledger holds at seeds {SEEDS[0]}-{SEEDS[-1]}")
        return 1 if problems else 0
    new = build()
    if old is not None:
        print("\n".join(moved(old, new)) or "no pair moved")
    LEDGER.parent.mkdir(exist_ok=True)
    LEDGER.write_text(json.dumps(new, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
