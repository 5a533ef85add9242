"""Outside-in span tracing of the ``vandiejen`` layers.

:class:`Tracer` wraps the public functions of each layer module (and the
``BranchTracker.sqrt_at`` method) from outside the package.  A wrapper
replaces the name in every loaded ``vandiejen`` module that holds the
original object, so calls made through ``from .sfun import s_eval`` are
seen as well.  Each call records one span (name, start, end, parent) in
flat in-memory arrays; :meth:`Tracer.uninstall` puts every original back.

:func:`self_times` and :func:`layer_metrics` turn the spans into calls,
self time and the derived per-layer counters the benchmark reports.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("sfun", "gamma", "operators", "eigenfunctions", "verify", "cli")

WRAPPED_MARK = "__perfbench_wrapped__"

# Argument (position, keyword) whose size is recorded with the span:
# points for the evaluators, coordinates for the operator terms.
SIZE_ARGS = {
    "sfun.s_eval": (1, "x"),
    "sfun.theta_eval": (0, "z"),
    "gamma.gamma_G": (2, "x"),
    "operators.operator_terms": (6, "X"),
}

SQRT_AT = "eigenfunctions.sqrt_at"

# operator_terms calls are bucketed by coordinate count n1..n<MAX_TERM_N>.
MAX_TERM_N = 6


def public_functions(module) -> dict:
    """Public plain functions defined in ``module`` (not re-exports)."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


class Tracer:
    """Installs span-recording wrappers and keeps the spans they record."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self.errors: dict[int, str] = {}
        self.bisect_evals = 0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[str, object] = {}

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap; installing again after :meth:`uninstall` reuses the same
        wrappers, so spans of several traced stretches add up."""
        import vandiejen.eigenfunctions as eig

        loaded = [m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == "vandiejen" or n.startswith("vandiejen."))]
        for layer in LAYERS:
            module = sys.modules[f"vandiejen.{layer}"]
            for fname, original in public_functions(module).items():
                qualname = f"{layer}.{fname}"
                if qualname not in self._wrappers:
                    self._wrappers[qualname] = self._wrap(qualname, original)
                for holder in loaded:
                    if vars(holder).get(fname) is original:
                        self._patch(holder, fname, self._wrappers[qualname])
        if SQRT_AT not in self._wrappers:
            self._wrappers[SQRT_AT] = self._wrap_sqrt_at(eig.BranchTracker.__dict__["sqrt_at"])
        self._patch(eig.BranchTracker, "sqrt_at", self._wrappers[SQRT_AT])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- span recording ---------------------------------------------------

    def _open(self, name: int) -> int:
        idx = len(self.start)
        self.name_id.append(name)
        self.parent.append(self._stack[-1])
        self.size.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _name(self, qualname: str) -> int:
        self.names.append(qualname)
        return len(self.names) - 1

    def _wrap(self, qualname: str, fn):
        nid = self._name(qualname)
        opened, closed, errors, size = self._open, self._close, self.errors, self.size
        pos_kw = SIZE_ARGS.get(qualname)

        if pos_kw is None:
            def wrapper(*args, **kwargs):
                idx = opened(nid)
                try:
                    return fn(*args, **kwargs)
                except BaseException as exc:
                    errors[idx] = type(exc).__name__
                    raise
                finally:
                    closed(idx)
        else:
            pos, kw = pos_kw

            def wrapper(*args, **kwargs):
                idx = opened(nid)
                arg = args[pos] if len(args) > pos else kwargs.get(kw)
                size[idx] = np.size(arg)
                try:
                    return fn(*args, **kwargs)
                except BaseException as exc:
                    errors[idx] = type(exc).__name__
                    raise
                finally:
                    closed(idx)

        setattr(wrapper, WRAPPED_MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_sqrt_at(self, method):
        """``sqrt_at`` span whose size is the number of path evaluations,
        counted by wrapping the ``fn`` it is handed.  A call that evaluates
        nothing was a cache hit; evaluations beyond ``path_steps + 1`` on a
        miss are bisection steps."""
        nid = self._name(SQRT_AT)
        tracer = self

        def sqrt_at(tracker, key, fn, target):
            idx = tracer._open(nid)
            evals = 0

            def counted(Z):
                nonlocal evals
                evals += 1
                return fn(Z)

            try:
                return method(tracker, key, counted, target)
            except BaseException as exc:
                tracer.errors[idx] = type(exc).__name__
                raise
            finally:
                tracer._close(idx)
                tracer.size[idx] = evals
                if evals:
                    tracer.bisect_evals += max(0, evals - (tracker.path_steps + 1))

        setattr(sqrt_at, WRAPPED_MARK, True)
        sqrt_at.__wrapped__ = method
        return sqrt_at

    def span_arrays(self) -> dict:
        return {
            "names": list(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "size": np.frombuffer(self.size, dtype=np.int64).copy(),
        }


def wrapped_names() -> list[str]:
    """``module.attr`` of every wrapper still installed in a loaded
    ``vandiejen`` module or on ``BranchTracker``; empty after uninstall."""
    found = []
    for mname, module in sorted(sys.modules.items()):
        if module is None or not (mname == "vandiejen" or mname.startswith("vandiejen.")):
            continue
        for attr, obj in vars(module).items():
            if getattr(obj, WRAPPED_MARK, False):
                found.append(f"{mname}.{attr}")
        tracker = vars(module).get("BranchTracker")
        if tracker is not None and getattr(tracker.__dict__.get("sqrt_at"), WRAPPED_MARK, False):
            found.append(f"{mname}.BranchTracker.sqrt_at")
    return found


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Span duration minus the time its direct children cover.

    Spans come from one thread, so children nest inside their parent and
    never overlap each other.
    """
    dur = end - start
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


def nearest_ancestor(parent: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """For each span, the index of the closest span at or above it with
    ``mask`` set, or -1.  Parents are recorded before their children."""
    par, msk = parent.tolist(), mask.tolist()
    res = [-1] * len(par)
    for i, p in enumerate(par):
        if msk[i]:
            res[i] = i
        elif p >= 0:
            res[i] = res[p]
    return np.asarray(res, dtype=np.int64)


def in_layer_time(parent: np.ndarray, layer: np.ndarray, self_t: np.ndarray,
                  mask: np.ndarray) -> float:
    """Time spent in a function's own layer under its outermost calls:
    the self time of each ``mask`` span plus that of every same-layer span
    nested under it without crossing into another layer.  Spans of other
    layers (and what they call) are excluded."""
    par, lay, msk = parent.tolist(), layer.tolist(), mask.tolist()
    own = [False] * len(par)
    for i, p in enumerate(par):
        own[i] = msk[i] or (p >= 0 and lay[p] == lay[i] and own[p])
    return float(self_t[np.asarray(own, dtype=bool)].sum())


def layer_metrics(spans: dict, errors: dict[int, str], bisect_evals: int) -> dict[str, float]:
    """Calls and self time per layer and per traced function, plus the
    derived counters named in the benchmark's per-layer metric list."""
    names = spans["names"]
    nid = spans["name_id"]
    parent, start, end, size = spans["parent"], spans["start"], spans["end"], spans["size"]
    dur = end - start
    self_t = self_times(parent, start, end)
    name_layer = np.asarray([LAYERS.index(n.split(".", 1)[0]) for n in names], dtype=np.int64)
    layer = name_layer[nid] if len(nid) else np.zeros(0, dtype=np.int64)

    def sel(name: str) -> np.ndarray:
        ids = [i for i, n in enumerate(names) if n == name]
        return np.isin(nid, ids)

    out: dict[str, float] = {}
    for k, lname in enumerate(LAYERS):
        m = layer == k
        out[f"{lname}.calls"] = int(m.sum())
        out[f"{lname}.self_s"] = float(self_t[m].sum())

    def fn_stats(name: str, pts: bool = False) -> None:
        m = sel(name)
        out[f"{name}.calls"] = int(m.sum())
        out[f"{name}.self_s"] = in_layer_time(parent, layer, self_t, m)
        if pts:
            out[f"{name}.pts"] = int(size[m].sum())

    fn_stats("sfun.s_eval", pts=True)
    fn_stats("sfun.theta_eval")
    out["sfun.errors"] = sum(1 for i in errors if layer[i] == LAYERS.index("sfun"))

    fn_stats("gamma.gamma_G", pts=True)
    fn_stats("gamma.gamma_ratio_shift")

    for name in ("operators.operator_terms", "operators.coeff_V0", "operators.coeff_V_shift"):
        fn_stats(name)
    terms = sel("operators.operator_terms")
    under_terms = nearest_ancestor(parent, terms) >= 0
    s_under = int((sel("sfun.s_eval") & under_terms).sum())
    out["operators.s_calls_per_term_call"] = s_under / max(1, int(terms.sum()))
    for n in range(1, MAX_TERM_N + 1):
        m = terms & (size == n)
        out[f"operators.operator_terms.us_per_call.n{n}"] = (
            float(dur[m].mean() * 1e6) if m.any() else 0.0)

    sq = sel(SQRT_AT)
    fn_stats(SQRT_AT)
    sq_calls = int(sq.sum())
    misses = int((sq & (size > 0)).sum())
    out["eigenfunctions.cache_hit_ratio"] = (sq_calls - misses) / sq_calls if sq_calls else 0.0
    out["eigenfunctions.path_evals"] = int(size[sq].sum())
    out["eigenfunctions.bisect_evals"] = int(bisect_evals)
    out["eigenfunctions.branch_errors"] = sum(
        1 for i, kind in errors.items() if sq[i] and kind == "BranchError")
    # time under outermost sqrt_at spans (inclusive of everything they call)
    outer_sq = sq.copy()
    has_parent = parent >= 0
    sq_anc = nearest_ancestor(parent, sq)
    outer_sq[has_parent] &= sq_anc[parent[has_parent]] < 0
    out["eigenfunctions.sqrt_at.incl_s"] = float(dur[outer_sq].sum())

    fn_stats("verify.run_identity")
    report = sel("verify.render_json_lines") | sel("verify.parse_report_lines") | sel("verify.merge_parsed_reports")
    out["verify.report_s"] = float(dur[report].sum())

    fn_stats("cli.main")
    out["trace.spans"] = int(len(nid))
    return out
