"""The committed payload ledger (``tests/ledger/payloads.json``, written by
``tests/make_ledger.py``) holds: seeds 0-2 recomputed in this process, and
the comparison names what moved.  The CI step recomputes seeds 0-9."""

import copy
import json

import make_ledger
import pytest


def _ledger() -> dict:
    return json.loads(make_ledger.LEDGER.read_text())


def test_the_payload_ledger_holds_at_seeds_0_to_2():
    assert make_ledger.differences(_ledger(), make_ledger.compute((0, 1, 2))) == []


@pytest.mark.parametrize("same_host", [True, False])
def test_a_moved_digest_or_verdict_is_named(monkeypatch, same_host):
    ledger = _ledger()
    host = ledger["host"] if same_host else {**ledger["host"], "numpy": "0"}
    monkeypatch.setattr(make_ledger, "host", lambda: host)
    stable, unstable = list(ledger["seeds"]["0"]["pairs"])[:2]
    ledger["stable"] = {**ledger["stable"], stable: True, unstable: False}
    fresh = {"0": copy.deepcopy(ledger["seeds"]["0"])}
    pairs = fresh["0"]["pairs"]
    want = []
    for pair in (stable, unstable):
        digest, verdict = pairs[pair].split()
        pairs[pair] = f"{'0' * 16} {verdict}"
        if pair == stable or same_host:
            want.append(f"seed 0 {pair}: payload digest {'0' * 16}, ledger {digest}")
    assert make_ledger.differences(ledger, fresh) == sorted(want)
    # a verdict and an exit code are compared on any host
    digest, verdict = ledger["seeds"]["0"]["pairs"][unstable].split()
    pairs[unstable] = f"{digest} {'fail' if verdict == 'pass' else 'pass'}"
    fresh["0"]["exit"] = 3
    problems = make_ledger.differences(ledger, fresh)
    assert problems[0] == f"seed 0: exit 3, ledger {ledger['seeds']['0']['exit']}"
    assert f"seed 0 {unstable}: verdict {pairs[unstable].split()[1]}, ledger {verdict}" in problems


def test_the_moved_list_names_each_pair_with_its_seeds():
    old = {"seeds": {"0": {"exit": 0, "pairs": {"a/I": "1 pass", "b/I": "2 pass"}},
                     "1": {"exit": 0, "pairs": {"a/I": "3 pass", "b/I": "4 pass"}}}}
    new = copy.deepcopy(old)
    new["seeds"]["0"]["pairs"]["b/I"] = "5 pass"
    new["seeds"]["1"]["pairs"]["b/I"] = "6 fail"
    new["seeds"]["1"]["exit"] = 1
    assert make_ledger.moved(old, new) == ["seed 1: exit 0 -> 1",
                                           "b/I: seeds 0, 1; seed 1 verdict pass -> fail"]
    assert make_ledger.moved(old, old) == []
