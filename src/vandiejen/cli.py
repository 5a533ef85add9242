"""Command-line front end: evaluation tables, verification runs, reports.

Three subcommands:

``vandiejen eval``
    Tabulates the building-block function ``s``, the odd theta function,
    the gamma function ``G``, its step constant ``c``, operator shift
    coefficients, or ground-state eigenfunction values at user-given
    points.

``vandiejen verify``
    Runs seeded residual certification for a selection of identities and
    cases and writes a report (aligned text, line-delimited records, or
    CSV).

``vandiejen report``
    Merges previously written line-delimited reports, prints an
    identity-by-case summary matrix, and optionally re-exports the merged
    residual distribution.

Exit codes: 0 when all verdicts pass, 1 when a verification verdict
fails, 2 for configuration problems, 3 for numerical domain problems
(poles, sampler exhaustion).
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import functools
import json
import math
import re
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import numpy as np

from . import verify
from .eigenfunctions import BranchTracker, continued_root, deformed_groundstate_sq_factors
from .gamma import functional_eq_constant, gamma_G
from .operators import CouplingSet, MassTag, coeff_V0, coeff_V_shift
from .sfun import (
    CaseParams,
    ConvergenceError,
    DomainError,
    PoleProximityError,
    lattice_distance,
    s_eval,
    theta_eval,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_DOMAIN = 3

FORMATS = ("text", "json-lines", "csv")
EVAL_QUANTITIES = ("s", "theta", "gamma", "constant", "coefficients",
                   "eigenfunction")
# per eval quantity, the flags (x, alpha) and fields it reads besides --case,
# --cases, --r, --a, --out, --format and --config
_EVAL_READS = {"s": "x", "theta": "x", "gamma": "x alpha", "constant": "alpha",
               "coefficients": "x g lam beta masses particles",
               "eigenfunction": "x g lam beta particles"}


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for one CLI invocation.

    Built from defaults, then a config file, then command-line flags, in
    increasing precedence.  Serializes to a plain mapping and re-parses to
    an equal value.
    """

    cases: tuple[str, ...] = ("I",)
    r: float = 1.0
    a: float = 2.0
    g: tuple[float, ...] | None = None
    lam: float | None = None
    beta: float | None = None
    particles: tuple[int, int, int, int] | None = None
    masses: tuple[str, ...] | None = None
    identities: tuple[str, ...] = ()
    samples: int = 20
    seed: int = 0
    tol: float | None = None
    trunc_terms: int | None = None
    no_balance: bool = False
    max_n: int = 3
    out: str | None = None
    fmt: str = "text"

    def to_mapping(self) -> dict:
        """The fields that are set, under their keys in :data:`_FIELDS`."""
        m = {}
        for attr, (key, _, kind) in _FIELDS.items():
            value = getattr(self, attr)
            if value is not None and value != ():
                m[key] = list(value) if kind is list else value
        return m

    @classmethod
    def from_mapping(cls, m: dict, where: str = "") -> "RunConfig":
        """The inverse of :meth:`to_mapping`, and the reader of a config
        file.  A value without the JSON type of its field is a
        :class:`DomainError`, whose message ends with ``where``."""
        _check_field_types(m, where)
        fields = {}
        for attr, (key, conv, kind) in _FIELDS.items():
            if m.get(key) is not None:
                fields[attr] = tuple(map(conv, m[key])) if kind is list else conv(m[key])
        return cls(**fields)

    def validate(self) -> None:
        """Field-level validation; raises DomainError naming the field."""
        if not self.cases:
            raise DomainError("field cases: at least one case is required")
        for c in self.cases:
            if c not in verify.CASES:
                raise DomainError(
                    f"field cases: unknown case {c!r}; choose from "
                    + ", ".join(verify.CASES))
        for ident in self.identities:
            if ident not in verify.IDENTITIES:
                raise DomainError(
                    f"field identity: unknown identity {ident!r}; choose "
                    "from " + ", ".join(verify.IDENTITIES))
        if not 0 < self.r < math.inf:
            raise DomainError("field r: must be positive and finite")
        if not 0 < self.a < math.inf:
            raise DomainError("field a: must be positive and finite")
        if self.samples < 1:
            raise DomainError("field samples: must be at least 1")
        if self.seed < 0:
            raise DomainError("field seed: must be non-negative")
        if self.max_n < 1:
            raise DomainError("field max_n: must be at least 1")
        if self.tol is not None and not self.tol >= 0:
            raise DomainError("field tol: must be non-negative")
        if self.trunc_terms is not None and self.trunc_terms < 1:
            raise DomainError("field trunc_terms: must be at least 1")
        if self.fmt not in FORMATS:
            raise DomainError(
                f"field format: unknown format {self.fmt!r}; choose from "
                + ", ".join(FORMATS))
        if self.lam is not None and self.lam == 0:
            raise DomainError("field lambda: must be nonzero")
        if self.beta is not None and self.beta == 0:
            raise DomainError("field beta: must be nonzero")
        if self.particles is not None:
            if len(self.particles) != 4:
                raise DomainError(
                    "field particles: expected N,Ntilde,M,Mtilde")
            if any(p < 0 for p in self.particles):
                raise DomainError("field particles: counts are non-negative")
        if self.masses is not None:
            for token in self.masses:
                MassTag.parse(token)
        if self.no_balance and any(c != "IV" for c in self.cases):
            raise DomainError(
                "field no_balance: applies to the elliptic case only")

    def coupling_for(self, case: CaseParams) -> CouplingSet:
        if self.g is None or self.lam is None or self.beta is None:
            raise DomainError(
                "fields g, lambda, beta: all three are required here")
        coupling = CouplingSet(self.g, self.lam, self.beta)
        coupling.validate_for(case)
        return coupling


# per RunConfig field: its key in a mapping or config file, the conversion
# of its value (of each element, for a list), and the JSON type a mapping
# must give it (None: any value that the conversion takes).  A JSON null
# leaves a field unset, which only a field whose default is None may be.
_FIELDS = {
    "cases": ("cases", str, list),
    "r": ("r", float, None),
    "a": ("a", float, None),
    "g": ("g", float, list),
    "lam": ("lambda", float, None),
    "beta": ("beta", float, None),
    "particles": ("particles", int, list),
    "masses": ("masses", lambda t: MassTag.parse(t).value, list),
    "identities": ("identities", str, list),
    "samples": ("samples", int, int),
    "seed": ("seed", int, int),
    "tol": ("tol", float, None),
    "trunc_terms": ("trunc_terms", int, int),
    "no_balance": ("no_balance", bool, bool),
    "max_n": ("max_n", int, int),
    "out": ("out", str, str),
    "fmt": ("format", str, None),
}
# the flags whose destination is not their field's name
_FLAG_DESTS = {"identities": "identity"}
_TYPE_NAMES = {list: "a list", str: "a string", bool: "a JSON boolean", int: "an integer",
               float: "a number"}


def _has_type(value, kind: type) -> bool:
    # a JSON boolean is a Python int, but not an integer field's value
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _load_config_file(path_text: str, command: str) -> RunConfig:
    """The config file at ``path_text``, read for the subcommand
    ``command``: each key must name a field, and a field that it sets (a
    null sets none) must be a flag of ``command``."""
    path = Path(path_text)
    try:
        raw = path.read_text()
    except OSError as exc:
        raise DomainError(f"config file {path}: {exc}") from exc
    try:
        mapping = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise DomainError(
            f"config file {path}: invalid JSON at line {exc.lineno}") from exc
    if not isinstance(mapping, dict):
        raise DomainError(f"config file {path}: top level must be a mapping")
    where = f" (config file {path})"
    keys = {key for key, _, _ in _FIELDS.values()}
    for key in mapping:
        if key not in keys:
            raise DomainError(f"field {key}: unknown key{where}")
    dests = _flag_dests()
    for attr, (key, _, _) in _FIELDS.items():
        dest = _FLAG_DESTS.get(attr, attr)
        if mapping.get(key) is not None and dest not in dests[command]:
            takers = ", ".join(name for name, d in dests.items() if dest in d)
            raise DomainError(f"field {key}: applies to {takers} only, not to {command}{where}")
    return RunConfig.from_mapping(mapping, where)


@functools.cache
def _flag_dests() -> dict[str, frozenset[str]]:
    """Per subcommand, the destinations of its arguments."""
    (subs,) = (a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: frozenset(a.dest for a in sub._actions) for name, sub in subs.choices.items()}


def _check_field_types(mapping: dict, where: str = "") -> None:
    for attr, (key, conv, kind) in _FIELDS.items():
        value = mapping.get(key)
        null = value is None and key in mapping and getattr(RunConfig, attr) is not None
        if null or (kind and value is not None and not _has_type(value, kind)):
            raise DomainError(f"field {key}: must be {_TYPE_NAMES[kind or conv]}{where}")
    if not all(_has_type(v, int) for v in mapping.get("particles") or ()):
        raise DomainError(f"field particles: entries must be integers{where}")


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge flags over an optional config file over defaults.  A value
    that does not convert to its field's type is a :class:`DomainError`."""
    try:
        cfg = _merge_config(args)
    except DomainError:
        raise
    except (TypeError, ValueError) as exc:
        raise DomainError(f"malformed value: {exc}") from exc
    cfg.validate()
    return cfg


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """The config file (or the defaults), with each flag that is set
    replacing its field.  ``--case`` wins over ``--cases``, and ``--cases``
    and ``--identity`` win over ``--all``."""
    cfg = _load_config_file(args.config, args.command) if args.config else RunConfig()
    flags = {}
    if getattr(args, "all", None):
        flags.update(cases=verify.CASES, identities=verify.IDENTITIES)
    for attr, (_, conv, kind) in _FIELDS.items():
        value = getattr(args, _FLAG_DESTS.get(attr, attr), None)
        if kind is list and value:
            # a comma-separated flag: an empty name is skipped, an empty
            # number is malformed
            flags[attr] = tuple(conv(t.strip()) for t in value.split(",")
                                if t.strip() or conv in (int, float))
        elif kind is not list and value is not None:
            flags[attr] = conv(value)
    if getattr(args, "case", None):
        flags["cases"] = (args.case,)
    return dataclasses.replace(cfg, **flags)


# ---------------------------------------------------------------------------
# formatting helpers
# ---------------------------------------------------------------------------


def parse_complex(token: str) -> complex:
    """Parse ``2``, ``-0.5i``, ``0.3+0.1i`` (``j`` also accepted).  A part
    that is not finite (``nan``, ``inf``, ``1e400``) is rejected."""
    text = token.strip().lower().replace(" ", "")
    if not text:
        raise DomainError("empty coordinate")
    # i is the unit except in inf; a j after inf or nan has its coefficient
    norm = re.sub(r"(?<![0-9.fn])j", "1j", re.sub(r"i(?!nf)", "j", text))
    try:
        value = complex(norm)
    except ValueError as exc:
        raise DomainError(f"cannot parse complex number {token!r}") from exc
    if not cmath.isfinite(value):
        raise DomainError(f"coordinate {token!r} is not finite")
    return value


def _fmt_real(v: float) -> str:
    if not math.isfinite(v):
        return str(v)
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return f"{v:.12g}"


def format_complex(z: complex) -> str:
    """Minimal human form: ``2``, ``-2i``, ``0.5+0.1i``."""
    re_, im = z.real, z.imag
    scale = max(abs(re_), abs(im), 1.0)
    if abs(im) < 1e-13 * scale:
        return _fmt_real(re_)
    if abs(re_) < 1e-13 * scale:
        body = _fmt_real(im)
        if body == "1":
            return "i"
        if body == "-1":
            return "-i"
        return body + "i"
    sign = "+" if im >= 0 else "-"
    return f"{_fmt_real(re_)}{sign}{_fmt_real(abs(im))}i"


def _write_output(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise DomainError(f"output file {out}: {exc}") from exc


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _eval_points(args: argparse.Namespace) -> list[complex]:
    points = [parse_complex(t) for t in (args.x or "").split(",") if t.strip()]
    if not points:
        raise DomainError("flag --x: at least one point is required")
    return points


def _flag_for(value: complex, distance: float | None) -> str:
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        return "pole"
    if distance is not None and distance < 1e-9:
        return "zero"
    return ""


def _tags_for_eval(cfg: RunConfig, count: int) -> tuple[MassTag, ...]:
    if cfg.masses is not None:
        return tuple(MassTag.parse(t) for t in cfg.masses)
    if cfg.particles is not None:
        n, nt, m, mt = cfg.particles
        return ((MassTag.PLUS_ONE,) * n + (MassTag.MINUS_INV,) * nt
                + (MassTag.MINUS_ONE,) * m + (MassTag.PLUS_INV,) * mt)
    return (MassTag.PLUS_ONE,) * count


def cmd_eval(args: argparse.Namespace, cfg: RunConfig) -> int:
    quantity = args.quantity
    # a flag or config key that the quantity does not read is an error
    given = {"x": args.x, "alpha": args.alpha,
             **{f: getattr(cfg, f) for f in ("g", "lam", "beta", "masses", "particles")}}
    for attr, value in given.items():
        if value is not None and attr not in _EVAL_READS[quantity].split():
            name = f"field {_FIELDS[attr][0]}" if attr in _FIELDS else f"flag --{attr}"
            raise DomainError(f"{name}: eval {quantity} does not read it")
    if cfg.masses is not None and cfg.particles is not None:
        raise DomainError(f"fields masses, particles: eval {quantity} reads one, not both")
    if len(cfg.cases) > 1:
        raise DomainError(
            f"field cases: eval takes one case, got {','.join(cfg.cases)}")
    (label,) = cfg.cases
    case = verify.make_case(label, None, r=cfg.r, a=cfg.a)
    alpha = 1.0 if args.alpha is None else args.alpha
    rows: list[tuple[str, complex, str]] = []

    if quantity == "constant":
        value = functional_eq_constant(case, alpha)
        rows.append(("c", value, ""))
    elif quantity in ("s", "theta", "gamma"):
        if quantity == "theta" and label != "IV":
            raise DomainError(
                "theta tabulation needs the elliptic case (--case IV)")
        for x in _eval_points(args):
            distance = None
            try:
                with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                    if quantity == "s":
                        value = complex(s_eval(case, x))
                        distance = float(lattice_distance(case, x))
                    elif quantity == "theta":
                        value = complex(theta_eval(case.r * x, q=case.q))
                        distance = float(lattice_distance(case, x))
                    else:
                        value = complex(gamma_G(case, alpha, x))
            except (ZeroDivisionError, OverflowError):
                value = complex("inf")
            except PoleProximityError:
                value = complex("nan")
            rows.append((format_complex(x), value, _flag_for(value, distance)))
    elif quantity == "coefficients":
        X = _eval_points(args)
        coupling = cfg.coupling_for(case)
        tags = _tags_for_eval(cfg, len(X))
        if len(tags) != len(X):
            raise DomainError(
                f"flag --x: expected {len(tags)} coordinates, got {len(X)}")
        values = tuple(t.value_for(coupling.lam) for t in tags)
        rows.append(("V0", coeff_V0(case, coupling.g, coupling.lam,
                                    coupling.beta, values, X), ""))
        for j in range(len(X)):
            for sign, mark in ((1, "+"), (-1, "-")):
                v = coeff_V_shift(case, coupling.g, coupling.lam,
                                  coupling.beta, values, tags, X, j, sign)
                rows.append((f"V{mark}[{j}]", v, _flag_for(v, None)))
    elif quantity == "eigenfunction":
        X = _eval_points(args)
        coupling = cfg.coupling_for(case)
        n, nt = len(X), 0
        if cfg.particles is not None:
            n, nt, m_cnt, mt_cnt = cfg.particles
            if m_cnt or mt_cnt:
                raise DomainError(
                    "field particles: ground states use N and Ntilde only")
            if n + nt != len(X):
                raise DomainError(
                    f"flag --x: expected {n + nt} coordinates, got {len(X)}")
        # with no deformed coordinates this is the plain ground state's list
        ground = deformed_groundstate_sq_factors(case, coupling.g, coupling.lam, coupling.beta,
                                                 range(n), range(n, n + nt))
        value = continued_root(case, ground, X, BranchTracker(X))
        rows.append(("psi", value, _flag_for(value, None)))
    else:
        raise DomainError(f"unknown quantity {quantity!r}")

    text = _render_eval(rows, quantity, label, cfg.fmt)
    _write_output(text, cfg.out)
    if any(flag == "pole" for _, _, flag in rows):
        print("numerical domain error: evaluation point sits on a pole",
              file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_PASS


def _render_eval(rows: list[tuple[str, complex, str]], quantity: str,
                 label: str, fmt: str) -> str:
    if fmt == "json-lines":
        out = []
        for name, value, flag in rows:
            out.append(verify.json_line({
                "record": "eval",
                "quantity": quantity,
                "case": label,
                "point": name,
                "value": [value.real, value.imag],
                "flag": flag,
            }))
        return "\n".join(out)
    if fmt == "csv":
        out = ["point,value_re,value_im,flag"]
        for name, value, flag in rows:
            out.append(f"{name},{value.real!r},{value.imag!r},{flag}")
        return "\n".join(out)
    if len(rows) == 1:
        name, value, flag = rows[0]
        body = format_complex(value)
        return f"{body} ({flag})" if flag else body
    width = max(len(name) for name, _, _ in rows)
    lines = []
    for name, value, flag in rows:
        tail = f"  {flag}" if flag else ""
        lines.append(f"{name.ljust(width)}  {format_complex(value)}{tail}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace, cfg: RunConfig) -> int:
    if not cfg.identities:
        raise DomainError(
            "flag --identity or --all: choose identities to verify")
    started = time.perf_counter()
    reports = verify.run_suite(
        cfg.identities,
        cfg.cases,
        samples=cfg.samples,
        seed=cfg.seed,
        product_terms=cfg.trunc_terms,
        tol=cfg.tol,
        masses=cfg.masses,
        particles=cfg.particles,
        no_balance=cfg.no_balance,
        max_n=cfg.max_n,
        r=cfg.r,
        a=cfg.a,
    )
    elapsed = time.perf_counter() - started

    if cfg.fmt == "json-lines":
        created = datetime.now(timezone.utc).isoformat(timespec="seconds")
        text = verify.render_json_lines(reports, created=created,
                                        run_args=cfg.to_mapping())
    elif cfg.fmt == "csv":
        text = verify.render_csv(verify.sample_record(row)
                                 for rep in reports for row in rep.results)
    else:
        text = _render_verify_text(reports, elapsed)
    _write_output(text, cfg.out)
    return EXIT_PASS if all(r.passed for r in reports) else EXIT_FAIL


def _render_verify_text(reports: Sequence[verify.ResidualReport],
                        elapsed: float) -> str:
    lines = []
    head = (f"{'identity':22s} {'case':4s} {'verdict':7s} {'samples':>7s} "
            f"{'max_residual':>12s} {'min_control':>11s} {'rejects':>7s}")
    lines.append(head)
    lines.append("-" * len(head))
    for rep in reports:
        ctl = (f"{rep.min_control_residual:.1e}"
               if rep.min_control_residual else "-")
        lines.append(
            f"{rep.identity:22s} {rep.case:4s} {rep.verdict:7s} "
            f"{rep.sample_count:7d} {rep.max_rel_residual:12.2e} "
            f"{ctl:>11s} {rep.rejection_rate:7.2f}")
    lines.append("")
    lines.append(verify.summary_matrix(
        [verify.summary_record(r) for r in reports]))
    lines.append("")
    lines.append(f"runtime: {elapsed:.2f}s")
    verdict = "pass" if all(r.passed for r in reports) else "FAIL"
    lines.append(f"suite verdict: {verdict}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def cmd_report(args: argparse.Namespace, cfg: RunConfig) -> int:
    parsed, seen = [], set()
    for path_text in args.files:
        path = Path(path_text)
        try:
            raw = path.read_text()
        except OSError as exc:
            raise DomainError(f"report file {path}: {exc}") from exc
        # the same rows read twice would be counted twice
        if path.resolve() in seen:
            raise DomainError(f"report file {path}: given twice")
        seen.add(path.resolve())
        try:
            parsed.append(verify.parse_report_lines(raw))
        except DomainError as exc:
            raise DomainError(f"report file {path}: {exc}") from exc
    merged = verify.merge_parsed_reports(parsed)

    if cfg.fmt == "json-lines":
        created = datetime.now(timezone.utc).isoformat(timespec="seconds")
        header = verify.header_line(created, merged_from=len(parsed))
        text = verify.json_lines_text(
            header, [*merged["samples"], *merged["summaries"], merged["footer"]])
    elif cfg.fmt == "csv":
        text = verify.render_csv(merged["samples"])
    else:
        footer = merged["footer"]
        lines = [verify.summary_matrix(merged["summaries"]), ""]
        lines.append(
            f"reports: {footer['reports']}  samples: {footer['samples']}  "
            f"failures: {footer['failures']}  verdict: {footer['verdict']}")
        text = "\n".join(lines)
    _write_output(text, cfg.out)
    return EXIT_PASS if merged["footer"]["verdict"] == "pass" else EXIT_FAIL


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--case", choices=list(verify.CASES),
                     help="single case label")
    sub.add_argument("--cases", help="comma-separated case labels")
    sub.add_argument("--r", type=float, help="trigonometric/elliptic scale")
    sub.add_argument("--a", type=float, help="hyperbolic/elliptic scale")
    sub.add_argument("--out", help="write output to this path")
    sub.add_argument("--format", dest="fmt", choices=list(FORMATS),
                     help="output format (default text)")
    sub.add_argument("--config",
                     help="JSON config file; flags override its values")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vandiejen",
        description="Difference operators of Koornwinder-van Diejen type: "
                    "evaluation, identity certification, reporting.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_eval = subs.add_parser(
        "eval", help="tabulate special functions and coefficients")
    p_eval.add_argument("quantity", choices=list(EVAL_QUANTITIES))
    p_eval.add_argument("--x", help="comma-separated complex points "
                                    "(coordinates for vector quantities); a list "
                                    "that starts with '-' takes '=', as in "
                                    "--x=-0.3-0.1i")
    p_eval.add_argument("--alpha", type=float,
                        help="gamma-function step scale (default 1)")
    p_eval.add_argument("--g", help="comma-separated couplings")
    p_eval.add_argument("--lambda", dest="lam", type=float,
                        help="second-species coupling")
    p_eval.add_argument("--beta", type=float, help="shift step scale")
    p_eval.add_argument("--masses", help="comma-separated mass tags "
                                         "(1, -1, 1/lam, -1/lam)")
    p_eval.add_argument("--particles",
                        help="block sizes N,Ntilde,M,Mtilde")
    _add_common(p_eval)

    p_verify = subs.add_parser(
        "verify", help="run seeded residual certification")
    p_verify.add_argument("--identity",
                          help="comma-separated identity names")
    p_verify.add_argument("--all", action="store_true", default=None,
                          help="verify every identity (and every case "
                               "unless --case/--cases narrows them)")
    p_verify.add_argument("--samples", type=int, help="points per identity")
    p_verify.add_argument("--seed", type=int, help="sampling seed")
    p_verify.add_argument("--tol", type=float, help="tolerance override")
    p_verify.add_argument("--masses", help="pin the mass multiset")
    p_verify.add_argument("--particles",
                          help="pin block sizes N,Ntilde,M,Mtilde")
    p_verify.add_argument("--no-balance", dest="no_balance",
                          action="store_true", default=None,
                          help="elliptic negative control: drop the "
                               "balancing condition and expect failure")
    p_verify.add_argument("--max-n", dest="max_n", type=int,
                          help="largest particle total of the block-structured "
                               "identities (eigen-plain, deformed-*, kernel-*)")
    p_verify.add_argument("--trunc-terms", dest="trunc_terms", type=int,
                          help="factors of the theta product (theta-product only)")
    _add_common(p_verify)

    p_report = subs.add_parser(
        "report", help="merge and summarize report files")
    p_report.add_argument("files", nargs="+",
                          help="line-delimited report files")
    p_report.add_argument("--out", help="write output to this path")
    p_report.add_argument("--format", dest="fmt", choices=list(FORMATS),
                          help="output format (default text)")
    p_report.add_argument("--config",
                          help="JSON config file; flags override its values")
    return parser


_parser = functools.cache(build_parser)  # parsing leaves the parser unchanged


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.command == "eval":
            return cmd_eval(args, cfg)
        if args.command == "verify":
            return cmd_verify(args, cfg)
        return cmd_report(args, cfg)
    except (PoleProximityError, ConvergenceError) as exc:
        print(f"numerical domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except DomainError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
