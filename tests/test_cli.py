"""Command line: parsing, formatting, subcommands, exit codes."""

import csv
import io
import json
import math
import re
from pathlib import Path

import pytest

from vandiejen.cli import (
    EXIT_CONFIG,
    EXIT_DOMAIN,
    EXIT_FAIL,
    EXIT_PASS,
    RunConfig,
    format_complex,
    main,
    parse_complex,
)
from vandiejen.sfun import DomainError
from vandiejen.verify import _KERNELS, _REGISTRY, payload_lines


# --------------------------------------------------------------------------
# scalar parsing and formatting
# --------------------------------------------------------------------------


def test_parse_complex_forms():
    assert parse_complex("2") == 2
    assert parse_complex("-0.5i") == -0.5j
    assert parse_complex("0.3+0.1i") == 0.3 + 0.1j
    assert parse_complex("i") == 1j
    assert parse_complex("-i") == -1j
    assert parse_complex("1.5j") == 1.5j
    assert parse_complex(" 0.2 - 0.7 i ") == 0.2 - 0.7j


def test_parse_complex_rejects_junk():
    with pytest.raises(DomainError):
        parse_complex("two")
    with pytest.raises(DomainError):
        parse_complex("")


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400", "0.3+1e400i", "infi",
                                   "0.3-nani", "NaN"])
def test_parse_complex_rejects_a_part_that_is_not_finite(token):
    with pytest.raises(DomainError, match=re.escape(f"coordinate '{token}' is not finite")):
        parse_complex(token)


def test_format_complex_forms():
    assert format_complex(2 + 0j) == "2"
    assert format_complex(-2j) == "-2i"
    assert format_complex(1j) == "i"
    assert format_complex(0.5 + 0.1j) == "0.5+0.1i"
    assert format_complex(0.5 - 0.1j) == "0.5-0.1i"
    assert format_complex(complex(3.0, 1e-16)) == "3"
    assert format_complex(complex(float("inf"), 0.0)) == "inf"
    assert format_complex(0j) == "0"
    assert format_complex(complex(float("inf"), float("inf"))) == "inf+infi"


def test_format_complex_keeps_both_parts_of_a_small_value():
    # a part is dropped relative to the larger part, not to 1
    assert format_complex(complex(8.6e-230, -3.6e-230)) == "8.6e-230-3.6e-230i"
    assert format_complex(complex(2e-20, 1e-34)) == "2e-20"
    assert format_complex(complex(1e-40, 3e-20)) == "3e-20i"


def test_eval_prints_both_parts_of_a_tiny_gamma_value(capsys):
    # the value is about 8.63e-230 - 3.58e-230 i (json-lines); the text
    # format once dropped the imaginary part as below 1e-13
    code, out, _ = run_main(capsys, ["eval", "gamma", "--case", "I", "--alpha", "0.01",
                                     "--x", "3-0.1j"])
    assert code == EXIT_PASS
    assert re.search(r"8\.63\d*e-230-3\.58\d*e-230i", out), out


def test_roundtrip_parse_format():
    for z in (2 + 0j, -0.5j, 0.3 + 0.1j, -1.25 - 2j):
        assert parse_complex(format_complex(z)) == pytest.approx(z)


# --------------------------------------------------------------------------
# configuration object
# --------------------------------------------------------------------------


def test_runconfig_mapping_round_trip():
    cfg = RunConfig(cases=("II", "IV"), r=1.2, a=2.1, g=(0.1, 0.2, 0.3, 0.4),
                    lam=1.4, beta=0.3, particles=(1, 1, 0, 0),
                    masses=("1", "-1"), identities=("source", "gamma-fe"),
                    samples=7, seed=3, tol=1e-9, trunc_terms=50,
                    no_balance=False, max_n=2, out="x.txt",
                    fmt="csv")
    blob = json.dumps(cfg.to_mapping())
    back = RunConfig.from_mapping(json.loads(blob))
    assert back == cfg


def test_runconfig_defaults_round_trip():
    cfg = RunConfig()
    assert RunConfig.from_mapping(cfg.to_mapping()) == cfg


@pytest.mark.parametrize("mapping", [
    {"no_balance": "false"},
    {"no_balance": 1},
    {"samples": 2.7},
    {"samples": True},
    {"seed": "3"},
    {"cases": "II"},
    {"particles": [1, 1.5, 0, 0]},
    {"out": 5},
])
def test_runconfig_from_mapping_checks_types(mapping):
    # the same rule as for a config file: no truthy string for a boolean,
    # no truncated float for a count
    with pytest.raises(DomainError, match=f"field {next(iter(mapping))}:"):
        RunConfig.from_mapping(mapping)


@pytest.mark.parametrize("key,message", [
    ("r", "field r: must be a number"),
    ("samples", "field samples: must be an integer"),
    ("format", "field format: must be a string"),
])
def test_runconfig_from_mapping_rejects_null_for_a_field_with_a_default(key, message):
    with pytest.raises(DomainError, match=message):
        RunConfig.from_mapping({key: None})


def test_runconfig_from_mapping_reads_null_as_unset_for_a_field_without_default():
    assert RunConfig.from_mapping({"lambda": None}) == RunConfig()


def test_runconfig_validation_messages():
    with pytest.raises(DomainError, match="field cases"):
        RunConfig(cases=("V",)).validate()
    with pytest.raises(DomainError, match="field identity"):
        RunConfig(identities=("nope",)).validate()
    with pytest.raises(DomainError, match="field samples"):
        RunConfig(samples=0).validate()
    with pytest.raises(DomainError, match="field format"):
        RunConfig(fmt="xml").validate()
    with pytest.raises(DomainError, match="field particles"):
        RunConfig(particles=(1, 2)).validate()
    with pytest.raises(DomainError, match="field no_balance"):
        RunConfig(cases=("II",), no_balance=True).validate()
    RunConfig(cases=("IV",), no_balance=True).validate()


# --------------------------------------------------------------------------
# eval subcommand
# --------------------------------------------------------------------------


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_s_rational_point(capsys):
    code, out, err = run_main(capsys, ["eval", "s", "--x", "2", "--case", "I"])
    assert code == EXIT_PASS
    assert out.strip() == "2"


def test_eval_constant_trigonometric(capsys):
    code, out, _ = run_main(
        capsys, ["eval", "constant", "--case", "II", "--r", "1"])
    assert code == EXIT_PASS
    assert out.strip() == "-2i"


@pytest.mark.parametrize("quantity", ("gamma", "constant"))
def test_eval_alpha_zero_is_rejected(capsys, quantity):
    # --alpha 0 is a given value, not a missing flag; constant reads no point
    points = ["--x", "0.3"] if quantity == "gamma" else []
    code, out, err = run_main(
        capsys, ["eval", quantity, *points, "--alpha", "0", "--case", "I"])
    assert code == EXIT_CONFIG
    assert out == ""
    assert "alpha must have nonzero real part" in err


def test_eval_negative_alpha(capsys):
    code, out, _ = run_main(
        capsys, ["eval", "constant", "--case", "II", "--r", "1", "--alpha", "-0.5"])
    assert (code, out.strip()) == (EXIT_PASS, "2i")
    # G(x; -alpha) is G(-x; alpha)
    code, out, _ = run_main(
        capsys, ["eval", "gamma", "--x", "0.3+0.1i", "--alpha", "-0.7", "--case", "II"])
    code_ref, ref, _ = run_main(
        capsys, ["eval", "gamma", "--x=-0.3-0.1i", "--alpha", "0.7", "--case", "II"])
    assert code == code_ref == EXIT_PASS
    assert out == ref


def test_eval_needs_a_point_in_the_list(capsys):
    code, out, err = run_main(capsys, ["eval", "s", "--x", ",", "--case", "II"])
    assert code == EXIT_CONFIG
    assert out == ""
    assert "flag --x: at least one point is required" in err


def test_eval_takes_one_case(capsys, tmp_path):
    # more than one case, from the flag or from a config file, is an error
    # rather than an evaluation on the first
    config = tmp_path / "run.json"
    config.write_text('{"cases": ["I", "IV"]}')
    for argv, cases in ((["--cases", "I,II"], "I,II"), (["--config", str(config)], "I,IV")):
        code, out, err = run_main(capsys, ["eval", "s", "--x", "1.5", *argv])
        assert code == EXIT_CONFIG
        assert out == ""
        assert f"field cases: eval takes one case, got {cases}" in err


def test_eval_flags_lattice_zero(capsys):
    x = format_complex(complex(math.pi, 0.0))
    code, out, _ = run_main(
        capsys, ["eval", "s", "--x", x, "--case", "II", "--r", "1"])
    assert code == EXIT_PASS
    assert "(zero)" in out


def test_eval_gamma_pole_exits_domain(capsys):
    code, out, err = run_main(
        capsys,
        ["eval", "gamma", "--x=-0.5i", "--alpha", "1", "--case", "I"])
    assert code == EXIT_DOMAIN
    assert "pole" in out or "pole" in err


@pytest.mark.parametrize("argv", [["s", "--case", "II", "--x", "0.3+800i"],
                                  ["gamma", "--case", "IV", "--x", "0.3+300i", "--alpha", "0.7"]])
def test_eval_deep_in_the_strip_writes_only_the_domain_error(capsys, argv):
    # numpy overflows on the way to the value: no RuntimeWarning may reach stderr
    code, out, err = run_main(capsys, ["eval", *argv])
    assert code == EXIT_DOMAIN
    assert "(pole)" in out
    assert err == "numerical domain error: evaluation point sits on a pole\n"


@pytest.mark.parametrize("token", ["1e400", "nan", "inf"])
def test_eval_of_a_coordinate_that_is_not_finite_is_a_configuration_error(capsys, token):
    # not a value at a pole (exit 3): the point is rejected before evaluation
    code, out, err = run_main(capsys, ["eval", "s", "--case", "II", "--x", f"0.3,{token}"])
    assert code == EXIT_CONFIG
    assert f"configuration error: coordinate '{token}' is not finite" in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["gamma", "--case", "II", "--x", "0.3", "--alpha", "nan"],
    ["s", "--case", "III", "--a", "inf", "--x", "0.3"],
    ["coefficients", "--case", "II", "--x", "0.4", "--g", "0.3,0.35,0.4,0.45", "--lambda", "1.45",
     "--beta", "inf"],
    ["coefficients", "--case", "II", "--x", "0.4", "--g", "nan,0.35,0.4,0.45", "--lambda", "1.45",
     "--beta", "0.3"],
    # a scale the case does not use
    ["s", "--case", "I", "--r", "nan", "--x", "0.3"],
])
def test_eval_of_a_parameter_that_is_not_finite_is_a_configuration_error(capsys, argv):
    # neither a traceback nor a value at a pole (exit 3)
    code, out, err = run_main(capsys, ["eval", *argv])
    assert code == EXIT_CONFIG
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert "finite" in err and out == ""


@pytest.mark.parametrize("argv, name", [
    (["constant", "--case", "III", "--a", "1.5", "--g", "0.3,0.4,0.1,0.2", "--lambda", "0.8",
      "--beta", "0.25"], "field g"),
    (["s", "--case", "II", "--x", "0.3", "--masses", "1", "--lambda", "0.8"], "field lambda"),
    (["constant", "--case", "II", "--x", "0.3"], "flag --x"),
    (["theta", "--case", "IV", "--x", "0.3", "--alpha", "0.5"], "flag --alpha"),
    (["eigenfunction", "--case", "II", "--x", "0.4", "--g", "0.3,0.35,0.4,0.45", "--lambda",
      "1.45", "--beta", "0.3", "--masses", "1"], "field masses"),
])
def test_eval_rejects_a_flag_its_quantity_does_not_read(capsys, argv, name):
    code, out, err = run_main(capsys, ["eval", *argv])
    assert code == EXIT_CONFIG
    assert err == f"configuration error: {name}: eval {argv[0]} does not read it\n"
    assert out == ""


def test_eval_rejects_a_config_key_its_quantity_does_not_read(tmp_path, capsys):
    config = tmp_path / "ev.json"
    config.write_text('{"lambda": 0.8, "r": 1.0}')
    code, out, err = run_main(capsys, ["eval", "s", "--case", "II", "--x", "0.3",
                                       "--config", str(config)])
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == "configuration error: field lambda: eval s does not read it\n"


@pytest.mark.parametrize("config", (None, '{"masses": ["1", "-1"]}',
                                    '{"masses": ["1", "-1"], "particles": [0, 2, 0, 0]}'),
                         ids=("flags", "key-and-flag", "keys"))
def test_eval_coefficients_takes_masses_or_particles_not_both(tmp_path, capsys, config):
    # both given, by flags or by config keys, is an error, not the masses
    # table with the particle counts dropped
    argv = ["eval", "coefficients", "--case", "II", "--x", "0.4+0.05i,0.8-0.1i",
            "--g", "0.3,0.35,0.4,0.45", "--lambda", "1.45", "--beta", "0.3"]
    if config is None:
        argv += ["--masses", "1,-1", "--particles", "0,2,0,0"]
    else:
        path = tmp_path / "both.json"
        path.write_text(config)
        argv += ["--config", str(path)]
        if "particles" not in config:
            argv += ["--particles", "0,2,0,0"]
    code, out, err = run_main(capsys, argv)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == ("configuration error: fields masses, particles: "
                   "eval coefficients reads one, not both\n")


def test_eval_coefficients_table(capsys):
    code, out, _ = run_main(capsys, [
        "eval", "coefficients", "--case", "II",
        "--x", "0.4+0.05i,0.8-0.1i",
        "--g", "0.3,0.35,0.4,0.45", "--lambda", "1.45", "--beta", "0.3",
        "--masses", "1,-1"])
    assert code == EXIT_PASS
    lines = out.strip().splitlines()
    names = [ln.split()[0] for ln in lines]
    assert names == ["V0", "V+[0]", "V-[0]", "V+[1]", "V-[1]"]


def test_eval_coefficients_missing_coupling(capsys):
    code, _, err = run_main(capsys, [
        "eval", "coefficients", "--case", "II", "--x", "0.4"])
    assert code == EXIT_CONFIG
    assert "configuration error" in err


@pytest.mark.parametrize("particles, pin", [
    ("2,0,0,0", complex(0.14910817207877805, -0.17413326817917002)),
    ("1,1,0,0", complex(0.16987594788543336, 0.009818628319000279)),
])
def test_eval_eigenfunction_two_species(capsys, particles, pin):
    # two plain coordinates, and one plain and one deformed coordinate: the
    # ground state within 1e-13 of its pinned value, as the CI step pins it
    code, out, _ = run_main(capsys, [
        "eval", "eigenfunction", "--case", "II",
        "--x", "0.4+0.05i,0.9-0.1i",
        "--g", "0.3,0.35,0.4,0.45", "--lambda", "1.45", "--beta", "0.3",
        "--particles", particles, "--format", "json-lines"])
    assert code == EXIT_PASS
    (record,) = [json.loads(line) for line in out.strip().splitlines()]
    assert record["point"] == "psi"
    assert abs(complex(*record["value"]) - pin) <= 1e-13 * abs(pin)


def test_eval_theta_needs_elliptic(capsys):
    code, _, err = run_main(
        capsys, ["eval", "theta", "--x", "0.3", "--case", "II"])
    assert code == EXIT_CONFIG
    assert "elliptic" in err


def test_eval_json_lines_format(capsys):
    code, out, _ = run_main(capsys, [
        "eval", "s", "--x", "0.4,0.7", "--case", "II",
        "--format", "json-lines"])
    assert code == EXIT_PASS
    recs = [json.loads(ln) for ln in out.strip().splitlines()]
    assert len(recs) == 2
    assert all(r["record"] == "eval" and r["quantity"] == "s" for r in recs)
    assert all(len(r["value"]) == 2 for r in recs)


# --------------------------------------------------------------------------
# verify subcommand
# --------------------------------------------------------------------------


def test_verify_text_report_pass(capsys):
    code, out, _ = run_main(capsys, [
        "verify", "--identity", "s-oddness,gamma-fe", "--cases", "I,II",
        "--samples", "4"])
    assert code == EXIT_PASS
    assert "suite verdict: pass" in out
    assert "runtime:" in out


def test_verify_needs_identities(capsys):
    code, _, err = run_main(capsys, ["verify", "--case", "I"])
    assert code == EXIT_CONFIG
    assert "--identity" in err


def test_verify_unknown_identity(capsys):
    code, _, err = run_main(
        capsys, ["verify", "--identity", "mystery", "--case", "I"])
    assert code == EXIT_CONFIG
    assert "configuration error" in err


PINNED_EMPTY = [(ident, "0,0,0,0") for ident in (
    *_KERNELS, "deformed-groundstate", "deformed-constant", "parameter-swap")]


@pytest.mark.parametrize("identity,particles",
                         [*PINNED_EMPTY, ("kernel-cauchy", "0,0,0,1")])
def test_verify_pinned_particles_without_coordinates(capsys, identity, particles):
    # pinned sizes that leave every species empty are a configuration
    # error, not a report with no samples
    code, out, err = run_main(capsys, [
        "verify", "--identity", identity, "--case", "I", "--particles", particles])
    assert code == EXIT_CONFIG
    assert "at least one coordinate is required" in err
    assert "verdict" not in out


def test_verify_impossible_tolerance_fails(capsys):
    code, out, _ = run_main(capsys, [
        "verify", "--identity", "gamma-fe", "--case", "I",
        "--samples", "3", "--tol", "1e-30"])
    assert code == EXIT_FAIL
    assert "suite verdict: FAIL" in out


def test_verify_no_balance_control_passes(capsys):
    code, out, _ = run_main(capsys, [
        "verify", "--identity", "source", "--case", "IV",
        "--samples", "2", "--no-balance"])
    assert code == EXIT_PASS
    assert "suite verdict: pass" in out


def test_verify_all_without_balancing_runs_the_balanced_identities(capsys):
    code, out, err = run_main(capsys, [
        "verify", "--all", "--cases", "IV", "--samples", "1", "--no-balance",
        "--format", "json-lines"])
    assert (code, err) == (EXIT_PASS, "")
    summaries = [json.loads(line) for line in payload_lines(out) if '"summary"' in line]
    assert [s["identity"] for s in summaries] == [
        name for name, spec in _REGISTRY.items() if spec.balanced]


def test_verify_no_balance_rejected_off_elliptic(capsys):
    code, _, err = run_main(capsys, [
        "verify", "--identity", "source", "--case", "II", "--no-balance"])
    assert code == EXIT_CONFIG
    assert "elliptic" in err


def test_trunc_terms_reaches_only_the_theta_product(capsys):
    # one factor cannot reach the theta product's tolerance ...
    code, out, err = run_main(capsys, ["verify", "--identity", "theta-product", "--case", "IV",
                                       "--samples", "2", "--trunc-terms", "1"])
    assert code == EXIT_DOMAIN
    assert "theta product not converged after 1 factors" in err
    # ... while every other identity evaluates theta by its series
    runs = [run_main(capsys, ["verify", "--identity", "source", "--case", "IV", "--samples", "3",
                              "--format", "json-lines", *flag])
            for flag in ([], ["--trunc-terms", "1"])]
    assert runs[0][0] == runs[1][0] == EXIT_PASS
    assert payload_lines(runs[0][1]) == payload_lines(runs[1][1])


def test_eval_does_not_take_trunc_terms(capsys):
    # only the theta-product identity reads the flag, and eval runs none
    with pytest.raises(SystemExit) as exc:
        main(["eval", "theta", "--case", "IV", "--x", "0.3", "--trunc-terms", "1"])
    assert exc.value.code == EXIT_CONFIG
    assert "--trunc-terms" in capsys.readouterr().err


def test_eval_does_not_take_trunc_terms_from_a_config_file(tmp_path, capsys):
    config = tmp_path / "ev.json"
    config.write_text('{"trunc_terms": 1}')
    code, out, err = run_main(capsys, ["eval", "theta", "--case", "IV", "--x", "0.3",
                                       "--config", str(config)])
    assert code == EXIT_CONFIG
    assert "configuration error: field trunc_terms:" in err
    assert out == ""


@pytest.mark.parametrize("argv, file_map, message", [
    (["eval", "s", "--case", "II", "--x", "0.3"], {"samples": 3, "tol": 1e-3},
     "field samples: applies to verify only, not to eval"),
    (["eval", "s", "--case", "II", "--x", "0.3"], {"tol": 1e-3},
     "field tol: applies to verify only, not to eval"),
    (["verify", "--identity", "s-oddness", "--samples", "1"],
     {"g": [0.3, 0.35, 0.4, 0.45], "lambda": 1.4}, "field g: applies to eval only, not to verify"),
    (["verify", "--identity", "s-oddness", "--samples", "1"], {"lambda": 1.4},
     "field lambda: applies to eval only, not to verify"),
    (["report", "r.jsonl"], {"cases": ["II"]},
     "field cases: applies to eval, verify only, not to report"),
], ids=["eval-samples", "eval-tol", "verify-g", "verify-lambda", "report-cases"])
def test_a_config_key_that_is_no_flag_of_the_subcommand_is_rejected(
        tmp_path, capsys, argv, file_map, message):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(file_map))
    code, out, err = run_main(capsys, [*argv, "--config", str(config)])
    assert code == EXIT_CONFIG
    assert f"configuration error: {message} (config file {config})" in err
    assert out == ""


@pytest.mark.parametrize("argv", [["verify", "--identity", "s-oddness", "--samples", "1"],
                                  ["eval", "s", "--case", "II", "--x", "0.3"],
                                  ["report", "r.jsonl"]], ids=["verify", "eval", "report"])
def test_a_config_key_that_names_no_field_is_rejected(tmp_path, capsys, argv):
    # a misspelt key ("sample", "lam") is not ignored; the first one is named
    config = tmp_path / "unk.json"
    config.write_text(json.dumps({"sample": 0, "lam": 1.4}))
    code, out, err = run_main(capsys, [*argv, "--config", str(config)])
    assert code == EXIT_CONFIG
    assert f"configuration error: field sample: unknown key (config file {config})" in err
    assert out == ""


def test_verify_rejects_a_nan_tolerance(capsys):
    # and a negative one
    for tol in ("nan", "-1e-9"):
        code, out, err = run_main(capsys, ["verify", "--identity", "s-oddness", "--samples",
                                           "1", f"--tol={tol}"])
        assert code == EXIT_CONFIG
        assert "configuration error: field tol: must be non-negative" in err
        assert out == ""


def test_verify_takes_a_zero_tolerance_as_the_library_does(capsys):
    # gamma-reflection's own tolerance is zero
    code, out, err = run_main(capsys, ["verify", "--identity", "gamma-reflection",
                                       "--samples", "2", "--tol", "0"])
    assert (code, err) == (EXIT_PASS, "")
    assert "suite verdict: pass" in out


def test_theta_product_convergence_error_names_the_flag_and_the_key(capsys):
    code, _, err = run_main(capsys, ["verify", "--identity", "theta-product", "--cases", "IV",
                                     "--samples", "2", "--trunc-terms", "1"])
    assert code == EXIT_DOMAIN
    assert "--trunc-terms" in err and "trunc_terms" in err


def test_tracker_runs_repeat_their_payload_in_one_process(capsys):
    # the branch tracker's base roots, path arrays and the gamma tables are
    # cached; a second run in the same process must read none of the first
    argv = ["verify", "--identity", "conjugation,kernel-cauchy", "--cases", "I,II",
            "--samples", "8", "--seed", "3", "--format", "json-lines"]
    runs = [run_main(capsys, argv) for _ in range(2)]
    assert runs[0][0] == runs[1][0] == EXIT_PASS
    assert len(payload_lines(runs[0][1])) > 4
    assert payload_lines(runs[0][1]) == payload_lines(runs[1][1])


def test_verify_json_lines_deterministic(tmp_path, capsys):
    argv = ["verify", "--identity", "s-duplication", "--case", "III",
            "--samples", "4", "--seed", "5", "--format", "json-lines"]
    out_a = tmp_path / "a.jsonl"
    out_b = tmp_path / "b.jsonl"
    assert main(argv + ["--out", str(out_a)]) == EXIT_PASS
    assert main(argv + ["--out", str(out_b)]) == EXIT_PASS
    capsys.readouterr()
    assert payload_lines(out_a.read_text()) == payload_lines(out_b.read_text())
    header = json.loads(out_a.read_text().splitlines()[0])
    assert header["record"] == "header" and header["created"]
    assert header["args"]["identities"] == ["s-duplication"]


def test_consecutive_main_calls_are_independent(tmp_path, capsys):
    # the parser is built once per process; a call must not see the flags
    # of the call before it
    first = ["verify", "--identity", "s-oddness", "--case", "II", "--samples", "2",
             "--seed", "7", "--tol", "1e-3", "--format", "json-lines"]
    second = ["verify", "--identity", "s-duplication", "--case", "I", "--samples", "3",
              "--format", "json-lines"]

    def run(argv, name):
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == EXIT_PASS
        lines = out.read_text().splitlines()
        args = json.loads(lines[0])["args"]
        assert args.pop("out") == str(out)
        return args, payload_lines("\n".join(lines))

    runs = [run(first, "a1"), run(second, "b1"), run(second, "b2"), run(first, "a2")]
    capsys.readouterr()
    assert runs[0] == runs[3] and runs[1] == runs[2]
    assert runs[1][0]["seed"] == 0 and "tol" not in runs[1][0]
    assert runs[0][0]["seed"] == 7 and runs[0][0]["tol"] == 1e-3


@pytest.mark.parametrize("identity", ["s-oddness", "source"])
def test_verify_csv_output(tmp_path, capsys, identity):
    # source rows are labelled by their mass multiset, such as m=(1,-1)
    argv = ["verify", "--identity", identity, "--case", "I", "--samples", "6"]
    out = tmp_path / "rows.csv"
    lines = tmp_path / "rows.jsonl"
    code = main([*argv, "--format", "csv", "--out", str(out)])
    assert main([*argv, "--format", "json-lines", "--out", str(lines)]) == code
    capsys.readouterr()
    assert code == EXIT_PASS
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    records = [rec for rec in map(json.loads, payload_lines(lines.read_text()))
               if rec["record"] == "sample"]
    assert len(rows) == len(records) >= 6
    assert rows[0]["identity"] == identity
    assert rows[0]["passed"] == "1"
    for row, rec in zip(rows, records):
        assert (row["label"], int(row["index"]), float(row["residual"]), row["passed"]) == (
            rec["label"], rec["index"], rec["residual"], str(int(rec["passed"])))


def test_config_file_precedence(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(
        {"cases": ["III"], "samples": 3, "seed": 9,
         "identities": ["s-duplication"], "format": "json-lines"}))
    via_file = tmp_path / "file.jsonl"
    via_flags = tmp_path / "flags.jsonl"
    # flags override samples; the file still supplies everything else
    code = main(["verify", "--config", str(config), "--samples", "5",
                 "--out", str(via_file)])
    assert code == EXIT_PASS
    code = main(["verify", "--identity", "s-duplication", "--case", "III",
                 "--samples", "5", "--seed", "9", "--format", "json-lines",
                 "--out", str(via_flags)])
    assert code == EXIT_PASS
    capsys.readouterr()
    assert payload_lines(via_file.read_text()) == payload_lines(
        via_flags.read_text())


@pytest.mark.parametrize("flags,file_map", [
    (["--particles", "1,2,x,4"], None),
    ([], {"lambda": "x"}),
    ([], {"g": "0.1"}),
    ([], {"out": 5}),
])
def test_malformed_values_are_configuration_errors(tmp_path, capsys, flags, file_map):
    # a malformed value exits with the configuration code, not the one of
    # a failed verdict
    if file_map is not None:
        config = tmp_path / "run.json"
        config.write_text(json.dumps(file_map))
        flags = ["--config", str(config)]
    code, out, err = run_main(capsys, [
        "verify", "--identity", "s-oddness", "--samples", "1", *flags])
    assert code == EXIT_CONFIG
    assert "configuration error" in err
    assert "verdict" not in out


@pytest.mark.parametrize("file_map", [
    {"no_balance": "false"},
    {"no_balance": 1},
    {"samples": 2.7},
    {"samples": True},
    {"seed": "3"},
    {"max_n": 2.0},
    {"trunc_terms": 40.5},
    {"particles": [1, 1.5, 0, 0]},
])
def test_config_file_booleans_and_integers_are_typed(tmp_path, capsys, file_map):
    # a string "false" must not switch the elliptic controls-only mode on,
    # and a fractional count must not be truncated
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"cases": ["IV"], **file_map}))
    code, out, err = run_main(capsys, [
        "verify", "--identity", "source", "--samples", "1", "--config", str(config)])
    assert code == EXIT_CONFIG
    assert f"configuration error: field {next(iter(file_map))}:" in err
    assert "verdict" not in out


@pytest.mark.parametrize("key", ["r", "samples", "format", "lambda"])
def test_config_file_null_follows_the_field_default(tmp_path, capsys, key):
    # a null unsets a field whose default is unset (lambda) and is a
    # configuration error for a field with a default
    config = tmp_path / "run.json"
    config.write_text(json.dumps({key: None}))
    code, out, err = run_main(capsys, [
        "verify", "--identity", "s-oddness", "--samples", "1", "--config", str(config)])
    if key == "lambda":
        assert code == EXIT_PASS
        assert "verdict" in out
    else:
        assert code == EXIT_CONFIG
        assert f"configuration error: field {key}: must be " in err
        assert "verdict" not in out


def test_config_file_bad_json(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text("{\n  broken\n}")
    code, _, err = run_main(capsys, [
        "verify", "--identity", "s-oddness", "--config", str(config)])
    assert code == EXIT_CONFIG
    assert "line 2" in err


# --------------------------------------------------------------------------
# report subcommand
# --------------------------------------------------------------------------


def _write_report(tmp_path, name, seed):
    out = tmp_path / name
    code = main(["verify", "--identity", "s-oddness", "--cases", "I,II",
                 "--samples", "4", "--seed", str(seed),
                 "--format", "json-lines", "--out", str(out)])
    assert code == EXIT_PASS
    return out


def test_report_merges_sample_counts(tmp_path, capsys):
    a = _write_report(tmp_path, "a.jsonl", 1)
    b = _write_report(tmp_path, "b.jsonl", 2)
    capsys.readouterr()
    code, out, _ = run_main(capsys, ["report", str(a), str(b)])
    assert code == EXIT_PASS
    assert "samples: 16" in out
    assert "verdict: pass" in out


def test_report_csv_export(tmp_path, capsys):
    a = _write_report(tmp_path, "a.jsonl", 1)
    b = _write_report(tmp_path, "b.jsonl", 2)
    merged = tmp_path / "merged.csv"
    code = main(["report", str(a), str(b), "--format", "csv",
                 "--out", str(merged)])
    capsys.readouterr()
    assert code == EXIT_PASS
    rows = list(csv.DictReader(io.StringIO(merged.read_text())))
    assert len(rows) == 16
    assert {r["case"] for r in rows} == {"I", "II"}

    # one file re-exports byte for byte as the run that wrote it
    single = tmp_path / "single.csv"
    direct = tmp_path / "direct.csv"
    assert main(["report", str(a), "--format", "csv", "--out", str(single)]) == EXIT_PASS
    assert main(["verify", "--identity", "s-oddness", "--cases", "I,II",
                 "--samples", "4", "--seed", "1", "--format", "csv",
                 "--out", str(direct)]) == EXIT_PASS
    capsys.readouterr()
    assert single.read_bytes() == direct.read_bytes()


def test_report_json_lines_round_trip(tmp_path, capsys):
    a = _write_report(tmp_path, "a.jsonl", 1)
    merged = tmp_path / "merged.jsonl"
    code = main(["report", str(a), "--format", "json-lines",
                 "--out", str(merged)])
    capsys.readouterr()
    assert code == EXIT_PASS
    header = json.loads(merged.read_text().splitlines()[0])
    assert header["merged_from"] == 1
    # a merged report is itself a valid input
    code, out, _ = run_main(capsys, ["report", str(merged)])
    assert code == EXIT_PASS
    assert "samples: 8" in out


def test_report_corrupt_record_names_line(tmp_path, capsys):
    a = _write_report(tmp_path, "a.jsonl", 1)
    lines = a.read_text().splitlines()
    lines[3] = "garbage"
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines))
    code, _, err = run_main(capsys, ["report", str(bad)])
    assert code == EXIT_CONFIG
    assert "line 4" in err and "bad.jsonl" in err


@pytest.mark.parametrize("edit", [
    lambda rec: {"record": "summary", "case": "I"},
    lambda rec: {**rec, "residual": "x"},
    lambda rec: {**rec, "residual": None},
], ids=["summary-without-identity", "string-residual", "null-residual"])
def test_report_malformed_record_is_a_configuration_error(tmp_path, capsys, edit):
    # a record of the right kind whose fields merging cannot read names its
    # line and file, as an unreadable line does
    a = _write_report(tmp_path, "a.jsonl", 1)
    lines = a.read_text().splitlines()
    lines[2] = json.dumps(edit(json.loads(lines[2])))
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines))
    code, out, err = run_main(capsys, ["report", str(bad)])
    assert code == EXIT_CONFIG
    assert "configuration error: report file" in err
    assert "bad.jsonl: corrupt record at line 3" in err
    assert "verdict" not in out


def _edited_report(tmp_path, name, kind, edit, seed=1):
    """A report file whose first record of ``kind`` went through ``edit``."""
    lines = _write_report(tmp_path, "src.jsonl", seed).read_text().splitlines()
    at = next(i for i, ln in enumerate(lines) if json.loads(ln)["record"] == kind)
    lines[at] = json.dumps(edit(json.loads(lines[at])))
    out = tmp_path / name
    out.write_text("\n".join(lines))
    return out, at + 1


def _without(key):
    return lambda rec: {k: v for k, v in rec.items() if k != key}


@pytest.mark.parametrize("kind,edit,fmt", [
    ("sample", _without("label"), "csv"),
    ("sample", lambda rec: {**rec, "index": "0"}, "csv"),
    ("sample", _without("control"), "csv"),
    ("summary", lambda rec: {**rec, "seed": [1]}, "text"),
    ("summary", lambda rec: {**rec, "seed": True}, "text"),
    ("summary", lambda rec: {**rec, "seeds": [1, True]}, "json-lines"),
    ("summary", lambda rec: {**rec, "seeds": 1}, "json-lines"),
], ids=["csv-without-label", "csv-string-index", "csv-without-control",
        "list-seed", "bool-seed", "bool-in-seeds", "int-seeds"])
def test_report_field_a_renderer_reads_is_checked(tmp_path, capsys, kind, edit, fmt):
    bad, line = _edited_report(tmp_path, "bad.jsonl", kind, edit)
    code, out, err = run_main(capsys, ["report", str(bad), "--format", fmt])
    assert code == EXIT_CONFIG
    assert f"bad.jsonl: corrupt record at line {line}" in err
    assert "Traceback" not in err and out == ""


def test_report_of_seeds_of_two_types_is_a_configuration_error(tmp_path, capsys):
    good = _write_report(tmp_path, "a.jsonl", 1)
    bad, line = _edited_report(tmp_path, "b.jsonl", "summary",
                               lambda rec: {**rec, "seed": "7"}, seed=7)
    code, _, err = run_main(capsys, ["report", str(good), str(bad)])
    assert code == EXIT_CONFIG
    assert f"b.jsonl: corrupt record at line {line}: field seed" in err


def test_report_takes_a_null_or_missing_seed(tmp_path, capsys):
    a, _ = _edited_report(tmp_path, "a.jsonl", "summary", lambda rec: {**rec, "seed": None})
    b, _ = _edited_report(tmp_path, "b.jsonl", "summary", _without("seed"), seed=2)
    code, out, _ = run_main(capsys, ["report", str(a), str(b), "--format", "json-lines"])
    assert code == EXIT_PASS
    seeds = {tuple(r["seeds"]) for r in map(json.loads, out.splitlines())
             if r["record"] == "summary"}
    # the edited summary (case I) drops its seed, case II keeps both
    assert seeds == {(), (1, 2)}


def test_a_merged_report_merged_again_keeps_its_seeds(tmp_path, capsys):
    a = _write_report(tmp_path, "a.jsonl", 1)
    b = _write_report(tmp_path, "b.jsonl", 2)
    capsys.readouterr()
    code, merged, _ = run_main(capsys, ["report", str(a), str(b), "--format", "json-lines"])
    assert code == EXIT_PASS
    again = tmp_path / "m.jsonl"
    again.write_text(merged)
    code, out, _ = run_main(capsys, ["report", str(again), "--format", "json-lines"])
    assert code == EXIT_PASS
    summaries = [r for r in map(json.loads, out.splitlines()) if r["record"] == "summary"]
    assert [r["seeds"] for r in summaries] == [[1, 2], [1, 2]]
    assert payload_lines(out) == payload_lines(merged)


def test_report_of_a_file_given_twice_is_a_configuration_error(tmp_path, capsys, monkeypatch):
    # its rows would be counted twice; another spelling of the same path is
    # the same file
    a = _write_report(tmp_path, "a.jsonl", 1)
    b = _write_report(tmp_path, "b.jsonl", 2)
    monkeypatch.chdir(tmp_path)
    for argv in (["a.jsonl", "a.jsonl"], ["a.jsonl", str(b), "./a.jsonl"], [str(a), "a.jsonl"]):
        capsys.readouterr()
        code, out, err = run_main(capsys, ["report", *argv])
        assert code == EXIT_CONFIG
        assert f"report file {Path(argv[-1])}: given twice" in err
        assert "samples" not in out
    # a path that cannot be read fails on reading, before it is resolved
    (tmp_path / "loop1").symlink_to("loop2")
    (tmp_path / "loop2").symlink_to("loop1")
    code, _, err = run_main(capsys, ["report", "a.jsonl", "loop1"])
    assert code == EXIT_CONFIG
    assert "report file loop1: " in err


def test_report_missing_file(tmp_path, capsys):
    code, _, err = run_main(capsys, ["report", str(tmp_path / "nope.jsonl")])
    assert code == EXIT_CONFIG
    assert "report file" in err


@pytest.mark.parametrize("command", ["eval", "verify", "report"])
def test_an_unwritable_out_path_is_a_configuration_error(tmp_path, capsys, command):
    argv = {"eval": ["eval", "s", "--x", "0.3", "--case", "I"],
            "verify": ["verify", "--identity", "s-oddness", "--samples", "1"],
            "report": ["report", str(_write_report(tmp_path, "a.jsonl", 1))]}[command]
    capsys.readouterr()
    # a missing directory, and a directory given as the file
    for out in (tmp_path / "missing" / "x.txt", tmp_path):
        code, stdout, err = run_main(capsys, [*argv, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert err.startswith(f"configuration error: output file {out}: ")
        assert err.count("\n") == 1 and "Traceback" not in err and stdout == ""
