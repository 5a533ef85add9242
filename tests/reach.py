"""The reach map: which functions of ``src/vandiejen`` each command enters.

Run ``python tests/reach.py`` from the repository root to rewrite
``tests/reach.json`` (``--out PATH`` writes elsewhere).  Every entry runs in
a fresh interpreter, so a cache that an earlier entry filled cannot hide a
call, and the package's imports count as part of each entry.  A
``sys.setprofile`` hook records the code objects entered; a function is
named ``module:co_qualname`` (``eigenfunctions:_block_value.<locals>.value``),
and lambdas, comprehensions and class bodies are left out.

The entries:

* ``verify IDENTITY``: ``run_identity`` on every supported case, 8 samples,
  seeds 0-2 (what ``vandiejen verify --identity IDENTITY --samples 8`` runs
  under the command line);
* ``eval QUANTITY``: ``vandiejen eval`` on I-IV (``theta`` on IV only);
* ``verify --format``: ``vandiejen verify`` in the three formats, once with
  ``--out``; ``verify --config``: one run from a config file;
* ``report``: ``vandiejen report`` over two written reports, in the three
  formats.

``tests/test_reach.py`` reads the file: every function in ``src`` must be
entered by some entry or stand on its allowlist.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "vandiejen"
DEFAULT_OUT = Path(__file__).resolve().parent / "reach.json"

SEEDS = (0, 1, 2)
SAMPLES = 8
# couplings of the eval runs, by case (2, 4, 4 and 8 of them)
_G = {"I": "0.3,0.35", "II": "0.3,0.35,0.4,0.45", "III": "0.3,0.35,0.4,0.45",
      "IV": "0.3,0.35,0.4,0.45,0.1,0.15,0.2,0.25"}
_CASES = ("I", "II", "III", "IV")


def _identity_runs(identity: str) -> list[tuple]:
    from vandiejen import verify

    return [("run_identity", identity, case, seed)
            for case in verify.CASE_SUPPORT[identity] for seed in SEEDS]


def _eval_runs(quantity: str) -> list[tuple]:
    runs = []
    for case in ("IV",) if quantity == "theta" else _CASES:
        common = ["eval", quantity, "--case", case]
        if quantity in ("s", "theta"):
            runs.append(("main", *common, "--x", "0.3+0.1i,0.7"))
        elif quantity == "gamma":
            runs.append(("main", *common, "--x", "0.3+0.1i,0.7-0.4i", "--alpha", "0.7"))
        elif quantity == "constant":
            runs.append(("main", *common, "--alpha", "0.5"))
        else:
            coupling = ["--g", _G[case], "--lambda", "1.45", "--beta", "0.3"]
            point = ["--x", "0.4+0.05i,0.8-0.1i"]
            if quantity == "coefficients":
                runs.append(("main", *common, *point, *coupling, "--masses", "1,-1"))
            else:
                runs.append(("main", *common, *point, *coupling))
                runs.append(("main", *common, *point, *coupling, "--particles", "1,1,0,0"))
    return runs


def _entries() -> dict[str, list[tuple]]:
    """Per entry name, its runs: ``("run_identity", identity, case, seed)``
    or ``("main", *argv)``, where ``{dir}`` in an argument is the entry's
    scratch directory."""
    from vandiejen import cli, verify

    small = ["verify", "--identity", "s-oddness,source", "--cases", "I,II", "--samples", "2"]
    entries = {f"verify {ident}": _identity_runs(ident) for ident in verify.IDENTITIES}
    for quantity in cli.EVAL_QUANTITIES:
        entries[f"eval {quantity}"] = _eval_runs(quantity)
    entries["verify --format"] = [("main", *small, "--format", fmt) for fmt in ("text", "csv")]
    entries["verify --format"].append(
        ("main", *small, "--format", "json-lines", "--out", "{dir}/a.jsonl"))
    entries["verify --config"] = [("config", "{dir}/run.json"),
                                  ("main", "verify", "--config", "{dir}/run.json", "--seed", "1")]
    entries["report"] = [
        ("main", *small, "--format", "json-lines", "--out", "{dir}/a.jsonl"),
        ("main", *small, "--seed", "1", "--format", "json-lines", "--out", "{dir}/b.jsonl"),
    ] + [("main", "report", "{dir}/a.jsonl", "{dir}/b.jsonl", "--format", fmt)
         for fmt in ("text", "json-lines", "csv")]
    return entries


def _execute(run: tuple, scratch: str) -> None:
    from vandiejen import cli, verify

    kind, *rest = run
    if kind == "run_identity":
        identity, case, seed = rest
        verify.run_identity(identity, case, samples=SAMPLES, seed=seed)
    elif kind == "config":
        config = {"identities": ["source", "eigen-plain"], "cases": ["I", "IV"], "samples": 2,
                  "format": "json-lines"}
        Path(rest[0].format(dir=scratch)).write_text(json.dumps(config))
    else:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main([arg.format(dir=scratch) for arg in rest])


def _trace_entry(name: str) -> list[str]:
    """The functions of ``src/vandiejen`` that entry ``name`` enters, in
    this (fresh) interpreter, its imports included."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        with tempfile.TemporaryDirectory() as scratch:
            for run in _entries()[name]:
                _execute(run, scratch)
    finally:
        sys.setprofile(None)
    package = str(PACKAGE)
    return sorted({f"{Path(code.co_filename).stem}:{code.co_qualname}" for code in entered
                   if os.path.dirname(os.path.abspath(code.co_filename)) == package
                   and code.co_flags & inspect.CO_OPTIMIZED
                   and not code.co_name.startswith("<")})


def build() -> dict[str, list[str]]:
    """Every entry, each traced in a child interpreter."""
    sys.path.insert(0, str(SRC))
    names = list(_entries())
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    reach = {}
    for name in names:
        done = subprocess.run([sys.executable, __file__, "--entry", name], env=env,
                              capture_output=True, text=True, check=True)
        reach[name] = json.loads(done.stdout)
    return reach


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write the reach map of src/vandiejen.")
    parser.add_argument("--out", default=str(DEFAULT_OUT), help="where to write the map")
    parser.add_argument("--entry", help=argparse.SUPPRESS)  # one entry, to stdout
    args = parser.parse_args(argv)
    if args.entry is not None:
        print(json.dumps(_trace_entry(args.entry)))
        return 0
    text = json.dumps(build(), indent=1) + "\n"
    Path(args.out).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
