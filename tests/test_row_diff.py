"""The row-level payload diff (``tests/row_diff.py``) on two synthetic
payloads: its pairing, its label kinds and the changes it names.  The tool's
``git archive`` path runs in a CI step, against the checkout's own HEAD."""

import pytest

import row_diff


def _row(identity, case, label, index, residual, control=False, passed=True):
    return {"record": "sample", "identity": identity, "case": case, "label": label,
            "index": index, "residual": residual, "control": control, "passed": passed,
            "scale": 1.0, "tolerance": 1e-3 if control else 1e-10, "detail": ""}


def _summary(identity, case, verdict="pass"):
    return {"record": "summary", "identity": identity, "case": case, "verdict": verdict}


def _records():
    return [
        _row("source", "IV", "m=(1,-1/lam)", 0, 1e-12),
        _row("source", "IV", "m=(1,-1/lam)/defect=+0.1", 0, 0.2, control=True),
        _row("source", "IV", "m=(1)", 1, 3e-12),
        _row("source", "IV", "m=(1)/defect=-0.1", 1, 0.05, control=True),
        _summary("source", "IV"),
        _row("eigen-plain", "II", "N1/closure", 0, 1e-15),
        _row("eigen-plain", "II", "N2/closure", 1, 2e-15),
        _summary("eigen-plain", "II"),
        _row("conjugation", "I", "const@p0", 0, 1e-15),
        _summary("conjugation", "I"),
        {"record": "footer", "reports": 3, "samples": 8, "failures": 0, "verdict": "pass"},
    ]


def _payload():
    return {"0": {"exit": 0, "records": _records()}, "1": {"exit": 0, "records": _records()}}


@pytest.mark.parametrize("label, kind", [
    ("m=(1,-1/lam)", "m"), ("m=(1,-1/lam)/defect=+0.1", "m"), ("n=1/defect=-0.1", "n"),
    ("N1Nt2/closure-x", "closure-x"), ("N0Nt0M0Mt1/map-yt", "map-yt"),
    ("N2/eigen/defect=+0.1", "eigen"), ("N1M1/map-x/direct@p0", "map-x/direct@p0"),
    ("n=2/contour", "contour"), ("plain/exp0", "plain/exp0"), ("exp0@p1", "exp0@p1"),
    ("fe[+]", "fe[+]"),
])
def test_a_label_kind_drops_the_sample_descriptor(label, kind):
    assert row_diff.label_kind(label) == kind


def test_equal_payloads_move_nothing():
    report = row_diff.compare(_payload(), _payload())
    assert report["rows"] == 14 and not row_diff.anything_moved(report)
    assert row_diff.render(report, "REV").splitlines() == [
        "0 of 14 paired rows moved against REV",
        "no passed flag, verdict or exit code changed"]


def test_moved_rows_flags_verdicts_and_exit_codes_are_named():
    old, new = _payload(), _payload()
    seed0, seed1 = new["0"]["records"], new["1"]["records"]
    seed0[0]["residual"] = 4e-12                   # a positive row moves by 3e-12
    seed0[3]["residual"] = 0.01                    # a control weakens
    seed1[2]["residual"], seed1[2]["passed"] = 2.0, False
    seed1[4]["verdict"] = "fail"
    new["1"]["exit"] = 1
    seed1[6]["scale"] = 2.0                        # a moved row whose residual held
    del seed0[8]                                   # conjugation/I loses its row at seed 0
    report = row_diff.compare(old, new)
    assert row_diff.anything_moved(report)
    assert report["rows"] == 13 and report["moved_rows"] == 4
    assert row_diff.render(report, "REV").splitlines() == [
        "4 of 13 paired rows moved against REV",
        "eigen-plain/II: 1 of 4 rows moved",
        "  closure: 1 of 4 moved, indices 1",
        "source/IV: 3 of 8 rows moved",
        "  m: 3 of 8 moved, indices 0-1; largest positive change 2; "
        "weakest control 0.05 -> 0.01",
        "    seed 1 m=(1) #1: passed True -> False",
        "seed 0 conjugation/I: rows differ in number or order (1 -> 0)",
        "1 summaries moved",
        "seed 1 source/IV: verdict pass -> fail",
        "seed 1: exit 0 -> 1"]


def test_an_infinite_residual_is_an_infinite_change():
    old, new = _payload(), _payload()
    new["0"]["records"][0]["residual"] = float("inf")
    (group,) = row_diff.compare(old, new)["groups"]
    assert group["positive_change"] == float("inf")
