"""Self-tests of the benchmark.  Run from the checkout root with

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import worker
from vandiejen import verify

# cheap pairs that still reach sfun, gamma, operators, eigenfunctions
PAIRS = [("s-oddness", "IV"), ("gamma-fe", "II"), ("conjugation", "I"), ("source", "IV")]


@pytest.fixture
def work_dir():
    """Working directory inside the checkout, removed afterwards."""
    path = run.ROOT / ".perfbench_tmp" / f"test-{os.getpid()}"
    yield path
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:
        pass


def _spans(rows):
    """Build span arrays from (name, parent, start, end) rows."""
    names = sorted({r[0] for r in rows})
    return {
        "names": names,
        "name_id": np.array([names.index(r[0]) for r in rows], dtype=np.int32),
        "parent": np.array([r[1] for r in rows], dtype=np.int32),
        "start": np.array([r[2] for r in rows], dtype=np.float64),
        "end": np.array([r[3] for r in rows], dtype=np.float64),
        "size": np.zeros(len(rows), dtype=np.int64),
    }


def test_self_time_of_nested_spans():
    #   0 verify.run_identity [0, 10]
    #   1   operators.operator_terms [1, 6]
    #   2     sfun.s_eval [2, 3]
    #   3       sfun.theta_eval [2.25, 2.75]
    #   4     operators.coeff_V0 [3.5, 5.5]
    #   5       sfun.s_eval [4, 5]
    #   6   sfun.s_eval [7, 9]
    rows = [
        ("verify.run_identity", -1, 0.0, 10.0),
        ("operators.operator_terms", 0, 1.0, 6.0),
        ("sfun.s_eval", 1, 2.0, 3.0),
        ("sfun.theta_eval", 2, 2.25, 2.75),
        ("operators.coeff_V0", 1, 3.5, 5.5),
        ("sfun.s_eval", 4, 4.0, 5.0),
        ("sfun.s_eval", 0, 7.0, 9.0),
    ]
    sp = _spans(rows)
    self_t = spans.self_times(sp["parent"], sp["start"], sp["end"])
    np.testing.assert_allclose(self_t, [3.0, 2.0, 0.5, 0.5, 1.0, 1.0, 2.0])

    terms = sp["name_id"] == sp["names"].index("operators.operator_terms")
    np.testing.assert_array_equal(spans.nearest_ancestor(sp["parent"], terms),
                                  [-1, 1, 1, 1, 1, 1, -1])

    m = spans.layer_metrics(sp, errors={}, bisect_evals=0)
    assert m["sfun.calls"] == 4 and m["sfun.self_s"] == pytest.approx(4.0)
    assert m["operators.self_s"] == pytest.approx(3.0)
    assert m["verify.self_s"] == pytest.approx(3.0)
    # in-layer time: coeff_V0's own second inside operator_terms counts for both
    assert m["operators.operator_terms.self_s"] == pytest.approx(3.0)
    assert m["operators.coeff_V0.self_s"] == pytest.approx(1.0)
    # s_eval includes the theta series it calls; theta_eval only its own
    assert m["sfun.s_eval.self_s"] == pytest.approx(4.0)
    assert m["sfun.theta_eval.self_s"] == pytest.approx(0.5)
    assert m["operators.s_calls_per_term_call"] == pytest.approx(2.0)
    assert m["verify.run_identity.self_s"] == pytest.approx(3.0)


def _sweep(tmp: Path, traced: bool):
    tmp.mkdir(parents=True)
    tracer = spans.Tracer() if traced else None
    if tracer:
        tracer.install()
    try:
        if tracer:
            assert spans.wrapped_names(), "tracer installed no wrappers"
        result = worker.sweep_once(PAIRS, seed=3, samples=2, tmp=tmp)
    finally:
        if tracer:
            tracer.uninstall()
    gate = worker.Gate()
    digest, stats = worker.check_sweep(PAIRS, result, gate)
    texts = [verify.payload_lines(p.read_text()) for p in [*result["files"], result["merged"]]]
    return tracer, gate, digest, texts


def test_traced_run_leaves_no_wrappers_and_same_payload(work_dir):
    _, plain_gate, plain_digest, plain_texts = _sweep(work_dir / "plain", traced=False)
    tracer, traced_gate, traced_digest, traced_texts = _sweep(work_dir / "traced", traced=True)

    assert spans.wrapped_names() == []
    for name in ("s_eval", "theta_eval"):
        assert not hasattr(getattr(worker.sfun, name), spans.WRAPPED_MARK)
    assert not hasattr(verify.run_identity, spans.WRAPPED_MARK)

    assert plain_gate.failed == 0 and not plain_gate.wrong
    assert traced_gate.failed == 0 and not traced_gate.wrong
    assert traced_texts == plain_texts
    assert traced_digest == plain_digest

    m = spans.layer_metrics(tracer.span_arrays(), tracer.errors, tracer.bisect_evals)
    assert m["cli.main.calls"] == len(PAIRS) + 1
    assert m["verify.run_identity.calls"] == len(PAIRS)
    assert m["sfun.s_eval.calls"] > 0 and m["sfun.theta_eval.calls"] > 0
    assert m["eigenfunctions.sqrt_at.calls"] > 0


def test_seed_range():
    for ok in (0, 2**32 - 1):
        assert run.seed_arg(str(ok)) == ok
    for bad in (-1, 2**32, 2**40):
        with pytest.raises(argparse.ArgumentTypeError):
            run.seed_arg(str(bad))


def test_metric_lists_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(worker.WORKLOADS)


def test_blocks_gate_catches_a_wrong_array_value():
    sets = worker.block_sets(seed=1, cases=("II",))[:1]
    _, _, values = worker.blocks_round(sets)
    arr, sc = values[0]
    bad = arr.copy()
    bad[5] *= 1 + 1e-6
    gate = worker.Gate()
    worker.check_blocks(sets, [(bad, sc)], gate, seed=1)
    assert gate.failed == 1 and len(gate.wrong) == 1 and "agree s_eval.II" in gate.wrong[0]


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
