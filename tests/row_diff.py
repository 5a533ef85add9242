"""A row-level payload diff of this checkout against a git revision.

Run ``python tests/row_diff.py REV`` from the repository root.  It extracts
the ``src`` tree of ``REV`` with ``git archive`` into a temporary directory
and runs the payload ledger's command (``make_ledger.COMMAND``: ``vandiejen
verify --all --cases I,II,III,IV --samples 8 --format json-lines``) for seeds
0-9 on both trees, each tree in its own subprocess with its own
``PYTHONPATH``.

Sample rows pair by (seed, identity, case, label, index), summaries by
(seed, identity, case).  A pair whose rows differ in number or order on the
two trees is reported, not paired.  Per (identity, case) and label kind (the
label without its sample descriptor, such as ``N1Nt2/`` or ``m=(1,-1)``, and
without a control's ``/defect=...``) the printout names the moved rows and
their sample indices, the largest change of a positive row's residual and
the weakest control on each side, then every ``passed`` flag, verdict and
exit code that changed.  ``--json`` writes the same as one JSON object.

Exit code 0 when nothing moved, 1 when a row, a summary or an exit code
moved, 2 when ``REV`` cannot be extracted.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import make_ledger

ROOT = make_ledger.ROOT

# one tree's seeds in one process, as the ledger runs them: per seed the exit
# code and the payload records (the timestamped header left out)
_CHILD = """
import contextlib, io, json, sys
from vandiejen import cli
command, seeds = json.loads(sys.argv[1])
runs = {}
for seed in seeds:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*command, "--seed", str(seed)])
    records = [json.loads(line) for line in out.getvalue().splitlines() if line.strip()]
    runs[str(seed)] = {"exit": code,
                       "records": [r for r in records if r["record"] != "header"]}
json.dump(runs, sys.stdout)
"""

_BLOCK = re.compile(r"(?:(?:N|Nt|M|Mt)\d+)+")


def label_kind(label: str) -> str:
    """The label without its sample descriptor and control suffix:
    ``N1Nt2/closure-x`` and ``N1Nt2/eigen/defect=+0.1`` are ``closure-x``
    and ``eigen``; a label that is its descriptor alone (``m=(1,-1)``,
    ``n=2``) is the descriptor's key."""
    parts = re.split(r"/(?![^()]*\))", label)  # not the / of a mass -1/lam
    if len(parts) > 1 and parts[-1].startswith("defect="):
        parts.pop()
    head = parts[0]
    if "=" in head or _BLOCK.fullmatch(head):
        return "/".join(parts[1:]) or head.split("=")[0]
    return "/".join(parts)


def extract(rev: str, into: Path) -> Path:
    """``REV``'s ``src`` tree under ``into``, by ``git archive``."""
    done = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                          capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(done.stdout)) as tar:
        tar.extractall(into, filter="data")
    return into / "src"


def start(src: Path, seeds) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-c", _CHILD, json.dumps([make_ledger.COMMAND, list(seeds)])]
    return subprocess.Popen(argv, cwd=src.parent, env=env, stdout=subprocess.PIPE, text=True)


def finish(proc: subprocess.Popen) -> dict:
    out, _ = proc.communicate()
    if proc.returncode:
        raise RuntimeError(f"payload run exited {proc.returncode}")
    return json.loads(out)


def _change(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(b - a) if math.isfinite(a) and math.isfinite(b) else math.inf


def _spans(indices) -> str:
    out, run = [], []
    for i in sorted(set(indices)):
        if run and i != run[-1] + 1:
            out.append(run)
            run = []
        run.append(i)
    if run:
        out.append(run)
    return ", ".join(f"{r[0]}" if len(r) == 1 else f"{r[0]}-{r[-1]}" for r in out)


def _by_pair(run: dict) -> tuple[dict, dict]:
    """A run's sample rows, as lists, and its summaries, by (identity, case)."""
    rows, summaries = {}, {}
    for r in run["records"]:
        if "identity" in r:
            pair = f"{r['identity']}/{r['case']}"
            if r["record"] == "summary":
                summaries[pair] = r
            else:
                rows.setdefault(pair, []).append(r)
    return rows, summaries


def compare(old: dict, new: dict) -> dict:
    """What moved from the runs ``old`` to the runs ``new`` (each per seed:
    ``exit`` and ``records``)."""
    groups: dict[tuple, dict] = {}
    totals: dict[str, list] = {}
    unpaired, verdicts, exits, summaries = [], [], [], 0
    for seed in sorted(set(old) & set(new), key=int):
        was, now = old[seed], new[seed]
        if was["exit"] != now["exit"]:
            exits.append(f"seed {seed}: exit {was['exit']} -> {now['exit']}")
        (rows_old, sum_old), (rows_new, sum_new) = _by_pair(was), _by_pair(now)
        for pair in sorted(set(rows_old) | set(rows_new)):
            a_rows, b_rows = rows_old.get(pair, []), rows_new.get(pair, [])
            if [(r["label"], r["index"]) for r in a_rows] != [(r["label"], r["index"])
                                                              for r in b_rows]:
                unpaired.append(f"seed {seed} {pair}: rows differ in number or order "
                                f"({len(a_rows)} -> {len(b_rows)})")
                continue
            a_sum, b_sum = sum_old.get(pair), sum_new.get(pair)
            if a_sum != b_sum:
                summaries += 1
                if a_sum and b_sum and a_sum["verdict"] != b_sum["verdict"]:
                    verdicts.append(f"seed {seed} {pair}: verdict {a_sum['verdict']} -> "
                                    f"{b_sum['verdict']}")
            total = totals.setdefault(pair, [0, 0])
            for a, b in zip(a_rows, b_rows):
                g = groups.setdefault((pair, label_kind(a["label"])), {
                    "rows": 0, "moved": 0, "indices": [], "positive_change": 0.0,
                    "weakest_control": [math.inf, math.inf], "flags": []})
                g["rows"] += 1
                total[0] += 1
                if a["control"]:
                    w = g["weakest_control"]
                    w[:] = min(w[0], a["residual"]), min(w[1], b["residual"])
                if a == b:
                    continue
                g["moved"] += 1
                total[1] += 1
                g["indices"].append(a["index"])
                if not a["control"]:
                    g["positive_change"] = max(g["positive_change"],
                                               _change(a["residual"], b["residual"]))
                if a["passed"] != b["passed"]:
                    g["flags"].append(f"seed {seed} {a['label']} #{a['index']}: passed "
                                      f"{a['passed']} -> {b['passed']}")
    moved = []
    for (pair, kind), g in sorted(groups.items()):
        if g["moved"]:
            control = g["weakest_control"]
            moved.append({"pair": pair, "kind": kind, "rows": g["rows"], "moved": g["moved"],
                          "indices": _spans(g["indices"]),
                          "positive_change": g["positive_change"],
                          "weakest_control": None if math.isinf(control[0]) else control,
                          "flags": g["flags"]})
    return {"rows": sum(t[0] for t in totals.values()),
            "moved_rows": sum(t[1] for t in totals.values()),
            "pairs": {pair: t for pair, t in sorted(totals.items()) if t[1]},
            "groups": moved, "unpaired": unpaired, "summaries_moved": summaries,
            "verdicts": verdicts, "exits": exits}


def anything_moved(report: dict) -> bool:
    return bool(report["moved_rows"] or report["unpaired"] or report["summaries_moved"]
                or report["exits"])


def render(report: dict, rev: str) -> str:
    lines = [f"{report['moved_rows']} of {report['rows']} paired rows moved against {rev}"]
    for pair, (rows, moved) in report["pairs"].items():
        lines.append(f"{pair}: {moved} of {rows} rows moved")
        for g in report["groups"]:
            if g["pair"] != pair:
                continue
            text = f"  {g['kind']}: {g['moved']} of {g['rows']} moved, indices {g['indices']}"
            if g["positive_change"]:
                text += f"; largest positive change {g['positive_change']:.2g}"
            if g["weakest_control"]:
                text += "; weakest control {:.3g} -> {:.3g}".format(*g["weakest_control"])
            lines.append(text)
            lines += [f"    {flag}" for flag in g["flags"]]
    lines += report["unpaired"]
    if report["summaries_moved"]:
        lines.append(f"{report['summaries_moved']} summaries moved")
    lines += report["verdicts"] + report["exits"]
    if not any(g["flags"] for g in report["groups"]) and not report["verdicts"] \
            and not report["exits"]:
        lines.append("no passed flag, verdict or exit code changed")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare the payload rows of this checkout "
                                                 "with those of a git revision.")
    parser.add_argument("rev", help="the git revision to compare against")
    parser.add_argument("--json", action="store_true", help="write the comparison as JSON")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        try:
            src = extract(args.rev, Path(tmp))
        except subprocess.CalledProcessError as exc:
            print(f"cannot extract {args.rev}: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 2
        procs = [start(src, make_ledger.SEEDS), start(ROOT / "src", make_ledger.SEEDS)]
        old, new = (finish(p) for p in procs)
    report = compare(old, new)
    print(json.dumps(report, indent=1) if args.json else render(report, args.rev))
    return 1 if anything_moved(report) else 0


if __name__ == "__main__":
    sys.exit(main())
