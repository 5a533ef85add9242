"""The reach map holds the line: every function in ``src/vandiejen`` is
entered by some entry of ``tests/reach.json`` (written by
``tests/reach.py``) or stands on a short allowlist that gives its reason."""

import ast
import inspect
import json
from pathlib import Path

import pytest

from vandiejen import verify

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "vandiejen"
REACH = Path(__file__).resolve().parent / "reach.json"

_README = "public API that the README names"
_MPMATH = "the mpmath route, which only an mpmath argument takes"
_ARRAYS = "a numpy array path, which perfbench's blocks workload times"

#: Functions that no entry enters, each with the reason it stays.
ALLOWLIST = {
    "gamma:gamma_G1": _README,
    "sfun:s_eval_mp": _README,
    "verify:sample_admissible": _README,
    "verify:SampleBatch.rejection_rate": _README + " (the batch of sample_admissible)",
    "gamma:_g1_mp": _MPMATH,
    "gamma:_hyperbolic_mp": _MPMATH,
    "operators:_holds": _MPMATH + " (an mpmath key skips the run memo)",
    "sfun:_s_mp": _MPMATH,
    "sfun:_theta_mp": _MPMATH,
    "sfun:_DeferredModule.__getattr__": _MPMATH + " (the first access imports mpmath)",
    "gamma:_g1_elliptic": _ARRAYS,
    "gamma:_g1_hyperbolic": _ARRAYS,
    "sfun:_count_array": _ARRAYS,
    "gamma:gamma_ratio_shift": "perfbench's span tracer reports it by this name",
    "verify:payload_lines": "perfbench's sweeps digest report payloads with it",
    "verify:_failure": "the detail of a row that a branch or pole failure stops; "
                       "no seeded run has such a row, the tests force one",
}


def functions(module: str, source: str) -> list[str]:
    """Every function defined in ``source``, lambdas aside, as
    ``module:qualname`` with the qualname Python gives it."""
    names = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.append(f"{module}:{prefix}{child.name}")
                walk(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(ast.parse(source), "")
    return names


def audit(sources: dict[str, str], reach: dict[str, list[str]],
          allowlist: dict[str, str]) -> list[str]:
    """What is wrong with the reach map of the modules ``sources`` (module
    name to text): a function that no entry enters and the allowlist does
    not name, an allowlist entry that is reached or names no function, and
    a reached name that is no function (a map older than the code)."""
    defined = [name for module, text in sources.items() for name in functions(module, text)]
    reached = set().union(*reach.values())
    problems = [f"{name}: reached by no entry and not on the allowlist"
                for name in defined if name not in reached and name not in allowlist]
    problems += [f"{name}: on the allowlist but reached" for name in allowlist if name in reached]
    problems += [f"{name}: on the allowlist but no function" for name in allowlist
                 if name not in defined]
    problems += [f"{name}: in the map but no function; rerun tests/reach.py"
                 for name in sorted(reached - set(defined))]
    return problems


def _sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def _reach() -> dict[str, list[str]]:
    return json.loads(REACH.read_text())


def test_every_function_is_reached_or_allowlisted():
    assert audit(_sources(), _reach(), ALLOWLIST) == []


@pytest.mark.parametrize("label", ("I", "II"))
def test_the_same_species_pair_block_passes_conjugation(label):
    # the same-species pair is a branch of eigenfunction_factors, which every
    # conjugation run enters, so no entry of the map tells it apart; the
    # conjugation tag cycle holds no pair of equal masses, so a pinned run
    # checks it
    report = verify.run_identity("conjugation", label, samples=4, seed=0, masses=("1", "1"))
    assert report.results and report.passed


def test_an_unreached_unlisted_function_fails_and_is_named():
    sources = _sources()
    sources["verify"] += "\n\nclass _Spare:\n    def orphan(self):\n        return None\n"
    assert audit(sources, _reach(), ALLOWLIST) == [
        "verify:_Spare.orphan: reached by no entry and not on the allowlist"]


def test_a_stale_allowlist_entry_fails():
    allowlist = {**ALLOWLIST, "verify:run_identity": _README, "gamma:_gone": _MPMATH}
    assert audit(_sources(), _reach(), allowlist) == [
        "verify:run_identity: on the allowlist but reached",
        "gamma:_gone: on the allowlist but no function"]


def test_a_map_older_than_the_code_fails():
    reach = {**_reach(), "eval s": [*_reach()["eval s"], "sfun:_renamed"]}
    assert audit(_sources(), reach, ALLOWLIST) == [
        "sfun:_renamed: in the map but no function; rerun tests/reach.py"]


def test_the_listed_names_are_the_qualnames_of_the_code():
    # the tracer keys a function by its code object's co_qualname
    def code_names(module, code):
        for const in code.co_consts:
            if inspect.iscode(const):
                if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                    yield f"{module}:{const.co_qualname}"
                yield from code_names(module, const)

    for module, text in _sources().items():
        compiled = compile(text, f"{module}.py", "exec")
        assert sorted(functions(module, text)) == sorted(code_names(module, compiled))
