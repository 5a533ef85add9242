"""The merge of a config file and flags, against a reference copy of the
hand-written merge that listed every field a second time."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vandiejen import verify
from vandiejen.cli import (
    EXIT_CONFIG,
    RunConfig,
    _check_field_types,
    build_parser,
    main,
    resolve_config,
)
from vandiejen.operators import MassTag
from vandiejen.sfun import DomainError


# --------------------------------------------------------------------------
# reference: the merge as it was written field by field
# --------------------------------------------------------------------------


def _reference_load(path_text):
    path = Path(path_text)
    mapping = json.loads(path.read_text())
    if not isinstance(mapping, dict):
        raise DomainError(f"config file {path}: top level must be a mapping")
    _check_field_types(mapping, f" (config file {path})")
    return mapping


def _reference_merge(args):
    file_map = {}
    if getattr(args, "config", None):
        file_map = _reference_load(args.config)

    def pick(key, flag_value, default):
        if flag_value is not None:
            return flag_value
        if key in file_map:
            return file_map[key]
        return default

    cases = None
    if getattr(args, "case", None):
        cases = (args.case,)
    elif getattr(args, "cases", None):
        cases = tuple(t.strip() for t in args.cases.split(",") if t.strip())
    elif getattr(args, "all", None):
        cases = tuple(verify.CASES)
    if cases is None:
        raw = file_map.get("cases")
        cases = tuple(str(c) for c in raw) if raw else ("I",)

    identities = ()
    if getattr(args, "identity", None):
        identities = tuple(t.strip() for t in args.identity.split(",") if t.strip())
    elif getattr(args, "all", None):
        identities = tuple(verify.IDENTITIES)
    elif file_map.get("identities"):
        identities = tuple(str(i) for i in file_map["identities"])

    g = None
    if getattr(args, "g", None):
        g = tuple(float(t) for t in args.g.split(","))
    elif file_map.get("g") is not None:
        g = tuple(float(v) for v in file_map["g"])

    particles = None
    if getattr(args, "particles", None):
        parts = [t.strip() for t in args.particles.split(",")]
        if len(parts) != 4:
            raise DomainError("field particles: expected N,Ntilde,M,Mtilde")
        particles = tuple(int(t) for t in parts)
    elif file_map.get("particles") is not None:
        particles = tuple(int(v) for v in file_map["particles"])

    masses = None
    if getattr(args, "masses", None):
        masses = tuple(MassTag.parse(t).value for t in args.masses.split(",") if t.strip())
    elif file_map.get("masses") is not None:
        masses = tuple(MassTag.parse(t).value for t in file_map["masses"])

    return RunConfig(
        cases=cases,
        r=float(pick("r", getattr(args, "r", None), 1.0)),
        a=float(pick("a", getattr(args, "a", None), 2.0)),
        g=g,
        lam=(float(args.lam) if getattr(args, "lam", None) is not None
             else (float(file_map["lambda"]) if file_map.get("lambda") is not None else None)),
        beta=(float(args.beta) if getattr(args, "beta", None) is not None
              else (float(file_map["beta"]) if file_map.get("beta") is not None else None)),
        particles=particles,
        masses=masses,
        identities=identities,
        samples=int(pick("samples", getattr(args, "samples", None), 20)),
        seed=int(pick("seed", getattr(args, "seed", None), 0)),
        tol=(float(args.tol) if getattr(args, "tol", None) is not None
             else (float(file_map["tol"]) if file_map.get("tol") is not None else None)),
        trunc_terms=(int(args.trunc_terms) if getattr(args, "trunc_terms", None) is not None
                     else (int(file_map["trunc_terms"])
                           if file_map.get("trunc_terms") is not None else None)),
        no_balance=bool(pick("no_balance", getattr(args, "no_balance", None), False)),
        max_n=int(pick("max_n", getattr(args, "max_n", None), 3)),
        out=pick("out", getattr(args, "out", None), None),
        fmt=str(pick("format", getattr(args, "fmt", None), "text")),
    )


def _reference_resolve(args):
    try:
        cfg = _reference_merge(args)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"malformed value: {exc}") from exc
    cfg.validate()
    return cfg


def _outcome(resolve, args):
    try:
        return "ok", resolve(args)
    except DomainError as exc:
        return "error", str(exc)


# --------------------------------------------------------------------------
# inputs: flags (by subcommand) and config-file values, valid and not
# --------------------------------------------------------------------------

_FLAG_VALUES = {
    "--case": ["I", "IV"],
    "--cases": ["I,II", "", ",", "I,", " II , IV", "V"],
    "--all": [None],
    "--identity": ["source", "", ",", "source,eigen-plain", "bogus", " gamma-fe ,"],
    "--r": ["0", "1.5", "-1"],
    "--a": ["2", "-0.5"],
    "--g": ["0.3,0.4", "1,,2", "", "x", " 0.1 , 0.2,0.3,0.4", "0.2,"],
    "--lambda": ["0", "1.3"],
    "--beta": ["0", "-0.4"],
    "--masses": ["1,-1", ",", "1,,1", "bogus", "1/lam, -1/LAMBDA", ""],
    "--particles": ["1,0,0,0", "1,0,0,0,", "1,0,0", "a,0,0,0", "-1,0,0,0", " 2, 1,0 ,0", ""],
    "--samples": ["0", "3"],
    "--seed": ["-1", "5"],
    "--tol": ["0", "1e-9"],
    "--trunc-terms": ["0", "30"],
    "--no-balance": [None],
    "--max-n": ["0", "2"],
    "--out": ["", "o.txt"],
    "--format": ["text", "csv", "json-lines"],
}
_COMMON = {"--case", "--cases", "--r", "--a", "--out", "--format"}
_COMMAND_FLAGS = {
    "verify": _COMMON | {"--identity", "--all", "--samples", "--seed", "--tol", "--masses",
                         "--particles", "--no-balance", "--max-n", "--trunc-terms"},
    "eval": _COMMON | {"--g", "--lambda", "--beta", "--masses", "--particles"},
    "report": {"--out", "--format"},
}
_FILE_VALUES = {
    "cases": [["II"], [], "II", ["I", "IV"], None, ["V"]],
    "r": [1.5, "2", "x", None, 0, True, [1]],
    "a": [2.5, "y", None],
    "g": [[0.1, 0.2], ["x"], "0.1", None, []],
    "lambda": [1.3, "x", None, 0],
    "beta": [0.4, None, "y"],
    "particles": [[1, 0, 0, 0], [1, 0, 0], [1.5, 0, 0, 0], None, "1,0,0,0"],
    "masses": [["1", "-1"], ["bogus"], [1, -1], None, "1", [" 1/LAM "]],
    "identities": [["source"], [], ["nope"], None],
    "samples": [3, 2.7, True, None, 0],
    "seed": [1, "3", None],
    "tol": [1e-9, None, "x", 0],
    "trunc_terms": [30, None, 1.5],
    "no_balance": [True, False, "false", None],
    "max_n": [2, None],
    "out": ["f.txt", None, 5, ""],
    "format": ["csv", None, 5, "xml"],
}


def _optional_choices(pools):
    return st.fixed_dictionaries(
        {}, optional={key: st.sampled_from(values) for key, values in pools.items()})


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("merge") / "run.json"


@settings(derandomize=True, max_examples=400, deadline=None)
@given(command=st.sampled_from(sorted(_COMMAND_FLAGS)),
       flags=_optional_choices(_FLAG_VALUES),
       file_map=st.none() | _optional_choices(_FILE_VALUES))
def test_merge_matches_the_field_by_field_merge(config_path, command, flags, file_map):
    flags = {k: v for k, v in flags.items() if k in _COMMAND_FLAGS[command]}
    argv = {"verify": ["verify"], "eval": ["eval", "s"], "report": ["report", "r.jsonl"]}[command]
    argv += [k if v is None else f"{k}={v}" for k, v in flags.items()]
    if file_map is not None:
        config_path.write_text(json.dumps(file_map))
        argv.append(f"--config={config_path}")
    args = build_parser().parse_args(argv)
    old, new = _outcome(_reference_resolve, args), _outcome(resolve_config, args)

    if old[0] == "error" or new[0] == "ok":
        assert new == old or (old[0] == new[0] == "error")
        return
    # the two inputs that the reference accepts and the table merge rejects:
    # a file value that does not convert although a flag replaces it, and a
    # file without cases
    try:
        RunConfig.from_mapping(file_map)
    except (DomainError, TypeError, ValueError):
        return
    cases_flagged = "--case" in flags or "--all" in flags or flags.get("--cases")
    assert file_map.get("cases") == [] and not cases_flagged
    assert new[1].startswith("field cases:")


def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().err


def test_a_file_with_no_cases_is_a_configuration_error(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"cases": []}))
    code, err = _run(capsys, ["verify", "--identity", "s-oddness", "--samples", "1",
                              "--config", str(config)])
    assert code == EXIT_CONFIG
    assert "configuration error: field cases: at least one case is required" in err


def test_a_file_value_that_does_not_convert_fails_under_a_flag(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"r": "x"}))
    code, err = _run(capsys, ["verify", "--identity", "s-oddness", "--samples", "1",
                              "--r", "1.5", "--config", str(config)])
    assert code == EXIT_CONFIG
    assert "configuration error: malformed value" in err


@pytest.mark.parametrize("particles", ["1,0,0,0,", "1,0,0", "1,,0,0"])
def test_a_particles_flag_without_four_counts_is_a_configuration_error(capsys, particles):
    code, err = _run(capsys, ["verify", "--identity", "eigen-plain", "--samples", "1",
                              f"--particles={particles}"])
    assert code == EXIT_CONFIG
    assert "configuration error" in err


def test_from_mapping_normalises_mass_tokens():
    cfg = RunConfig.from_mapping({"masses": [" 1/LAM ", "m1", "+1", "-1/lambda"]})
    assert cfg.masses == ("1/lam", "-1", "1", "-1/lam")


def test_flags_replace_fields_of_the_file(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"cases": ["II"], "identities": ["s-oddness"],
                                  "masses": ["1"], "samples": 4, "seed": 2}))

    def resolved(*flags):
        return resolve_config(build_parser().parse_args(["verify", "--config", str(config),
                                                         *flags]))

    assert resolved("--seed", "7", "--masses=-1/lam,1") == RunConfig(
        cases=("II",), identities=("s-oddness",), masses=("-1/lam", "1"), samples=4, seed=7)
    # --case wins over --cases, and both and --identity win over --all
    every = resolved("--all")
    assert (every.cases, every.identities) == (verify.CASES, verify.IDENTITIES)
    narrowed = resolved("--all", "--cases", "III", "--identity", "s-duplication")
    assert (narrowed.cases, narrowed.identities) == (("III",), ("s-duplication",))
    assert resolved("--all", "--cases", "I,III", "--case", "IV").cases == ("IV",)
