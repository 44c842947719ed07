import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import babai_refine
from babai_refine.cli import build_parser, main, resolve_params, _geometry_dict
from babai_refine import InvalidParams, cli, rbar_infinite, schemes
from babai_refine.protocols import DEFAULT_MAX_ROUNDS


def run_cli(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_geometry_text(capsys):
    rc, out, _ = run_cli(["geometry", "--rho", "1", "--theta-deg", "72.542"], capsys)
    assert rc == 0
    fields = dict(
        line.split("=", 1) for line in out.strip().splitlines() if not line.startswith("segment")
    )
    assert math.isclose(float(fields["H1"]), 0.11007, abs_tol=5e-5)
    assert "t_m2" in fields and "tau_1" in fields


def test_geometry_json_roundtrip(capsys):
    argv = ["geometry", "--rcos", "0.3", "--format", "json"]
    rc, out, _ = run_cli(argv, capsys)
    assert rc == 0
    parsed = json.loads(out)
    params = resolve_params(1.0, None, None, 0.3)
    assert parsed == json.loads(json.dumps(_geometry_dict(params)))
    assert list(parsed)[:2] == ["rho", "theta_rad"]


def test_rcos_names_its_lattice_exactly(capsys):
    """--rcos sets c exactly: L0 = c and t_1 = c/2, not the acos/cos round
    trip's 0.29999999999999993 and 0.14999999999999997."""
    rc, out, _ = run_cli(["geometry", "--rcos", "0.3", "--format", "json"], capsys)
    doc = json.loads(out)
    assert rc == 0 and doc["L0"] == 0.3 and doc["t_1"] == 0.15
    assert doc["theta_rad"] == math.acos(0.3)
    assert resolve_params(1.0, None, None, 0.3) == babai_refine.LatticeParams.from_rcos(1.0, 0.3)
    # the angle flags still give c = fl(rho*cos(theta))
    argv = ["geometry", "--theta-rad", repr(math.acos(0.3)), "--format", "json"]
    rc, out, _ = run_cli(argv, capsys)
    assert rc == 0 and json.loads(out)["L0"] == 0.29999999999999993


@pytest.mark.parametrize("rcos", ["-0.1", "0.6", "2", "-3", "inf", "nan"])
def test_rcos_outside_the_region_exits_2_with_the_given_c(rcos, capsys):
    """Every c outside (0, 1/2), past acos's domain too, gets from_rcos's message."""
    rc, out, err = run_cli(["geometry", "--rcos", rcos], capsys)
    assert rc == 2 and out == ""
    want = f"rho*cos(theta) must lie strictly in (0, 1/2), got {float(rcos)}"
    assert err.strip().endswith(want)


def test_rcos_on_the_boundary_still_clamps(capsys):
    rc, out, err = run_cli(["geometry", "--rcos", "0.5", "--format", "json"], capsys)
    assert rc == 0 and "clamped" in err
    assert json.loads(out)["theta_rad"] == math.acos(0.5) + 1e-6
    rc, out, err = run_cli(["geometry", "--rcos", "1e-12", "--format", "json"], capsys)
    assert rc == 0 and "clamped" in err
    assert json.loads(out)["theta_rad"] == math.acos(1e-12) - 1e-6


def test_geometry_invalid_params_exit_2(capsys):
    rc, _, err = run_cli(["geometry", "--rho", "0.5", "--theta-deg", "80"], capsys)
    assert rc == 2
    assert "error" in err


def test_endpoint_clamping(capsys):
    rc, out, err = run_cli(["analyze", "--scheme", "inf", "--theta-deg", "60"], capsys)
    assert rc == 0
    assert "clamped" in err
    doc = json.loads(out)
    assert math.isclose(doc["rbar_bits"], 2.418, abs_tol=5e-3)
    rc, out, err = run_cli(["analyze", "--scheme", "inf", "--theta-deg", "90"], capsys)
    assert rc == 0 and "clamped" in err


def test_analyze_12(capsys):
    rc, out, _ = run_cli(
        ["analyze", "--scheme", "12", "--rcos", "0.3", "--n1", "2", "--n2", "3"], capsys
    )
    assert rc == 0
    doc = json.loads(out)
    assert math.isclose(doc["pe"], 0.0074175, rel_tol=1e-3)
    assert math.isclose(doc["h_u1"], 3.14644, abs_tol=5e-6)
    assert doc["alpha1"] < doc["alpha1_printed"]  # variants differ
    assert doc["alpha_ratio"] > 1.0 > doc["alpha_ratio_printed"]


def test_analyze_21_coarsest(capsys):
    rc, out, _ = run_cli(["analyze", "--scheme", "21", "--rcos", "0.3", "--n", "1"], capsys)
    doc = json.loads(out)
    assert rc == 0
    assert doc["pe"] == doc["beta"]


def test_tradeoff_monotone_and_budget_mark(capsys):
    rc, out, _ = run_cli(
        ["tradeoff", "--scheme", "12", "--rcos", "0.3", "--max-size", "8", "--budget", "3.5"],
        capsys,
    )
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    rates = [float(r["rate_bits"]) for r in rows]
    pes = [float(r["pe"]) for r in rows]
    assert rates == sorted(rates)
    assert pes == sorted(pes, reverse=True)
    marks = [int(r["within_budget"]) for r in rows]
    assert marks == sorted(marks, reverse=True)  # prefix of 1s then 0s
    assert 1 in marks and 0 in marks
    for r in rows:
        for key, val in r.items():
            if key not in ("n1", "n2", "within_budget"):
                assert math.isfinite(float(val))


def test_tradeoff_scaled_column_converges(capsys):
    """The pe_scaled column approaches the scheme's asymptotic constant."""
    rc, out, _ = run_cli(
        ["tradeoff", "--scheme", "12", "--rcos", "0.3", "--max-size", "64"], capsys
    )
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    rc2, out2, _ = run_cli(["analyze", "--scheme", "12", "--rcos", "0.3"], capsys)
    const = json.loads(out2)["asymptotic_constant"]
    tail = float(rows[-1]["pe_scaled"])
    assert abs(tail - const) / const < 0.05
    rc3, out3, _ = run_cli(
        ["tradeoff", "--scheme", "21", "--rcos", "0.3", "--max-size", "8"], capsys
    )
    rows21 = list(csv.DictReader(io.StringIO(out3)))
    rc4, out4, _ = run_cli(["analyze", "--scheme", "21", "--rcos", "0.3"], capsys)
    const21 = json.loads(out4)["asymptotic_constant"]
    for r in rows21:  # exactly constant for the 21 scheme
        assert math.isclose(float(r["pe_scaled"]), const21, rel_tol=1e-9)


def test_trace_infinite_byte_stable(capsys):
    argv = [
        "trace", "--scheme", "inf", "--rcos", "0.3", "--x1", "0.45", "--x2", "0.45",
    ]
    rc1, out1, _ = run_cli(argv, capsys)
    rc2, out2, _ = run_cli(argv, capsys)
    assert rc1 == rc2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert math.isclose(doc["total_bits"], 6.630, abs_tol=5e-4)
    assert doc["decision"] == [0, 1]


def test_trace_out_of_cell_exit_2(capsys):
    rc, _, err = run_cli(
        ["trace", "--scheme", "12", "--rcos", "0.3", "--x1", "0.6", "--x2", "0.0"], capsys
    )
    assert rc == 2 and "error" in err


def test_simulate_json(capsys):
    argv = [
        "simulate", "--scheme", "babai", "--rcos", "0.3",
        "--trials", "20000", "--seed", "7",
    ]
    rc, out, _ = run_cli(argv, capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["scheme"] == "babai_only"
    assert doc["trials"] == 20000 and doc["seed"] == 7
    assert abs(doc["empirical_pe"] - doc["predicted_pe"]) < 5 * doc["empirical_pe_stderr"]
    rc2, out2, _ = run_cli(argv, capsys)
    assert out2 == out


def test_sweep_structure_and_determinism(capsys, tmp_path):
    argv = [
        "sweep", "--rho", "1", "--grid", "5", "--budget", "4.0",
        "--trials", "4000", "--seed", "11",
    ]
    rc, out, _ = run_cli(argv, capsys)
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 5
    header = out.splitlines()[0].split(",")
    assert header[:9] == [
        "theta_rad", "rho", "pe12_below", "pe12_interp", "pe21_below",
        "pe21_interp", "rbar_bits", "nbar_rounds", "pe_babai",
    ]
    assert "pe12_emp" in header and "pe_babai_emp_stderr" in header
    rbars = [float(r["rbar_bits"]) for r in rows]
    assert rbars == sorted(rbars, reverse=True)
    for r in rows:
        assert float(r["pe12_below"]) <= float(r["pe_babai"])
        assert float(r["pe21_below"]) <= float(r["pe_babai"])
        for v in r.values():
            assert math.isfinite(float(v))
    # identical bytes when written to a file with the same flags
    out_path = tmp_path / "sweep.csv"
    rc, _, _ = run_cli(argv + ["--output", str(out_path)], capsys)
    assert rc == 0
    assert out_path.read_text().replace("\r\n", "\n") == out.replace("\r\n", "\n")


def test_sweep_empty_grid_exit_2(capsys):
    rc, _, err = run_cli(["sweep", "--grid", "0"], capsys)
    assert rc == 2 and "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--scheme", "12", "--n1", "0"],
        ["analyze", "--scheme", "12", "--n2", "0"],
        ["analyze", "--scheme", "21", "--n", "0"],
        ["trace", "--scheme", "12", "--x1", "0.1", "--x2", "0", "--n1", "0"],
        ["trace", "--scheme", "12", "--x1", "0.1", "--x2", "0", "--n2", "0"],
        ["trace", "--scheme", "21", "--x1", "0.1", "--x2", "0", "--n", "0"],
        ["tradeoff", "--scheme", "12", "--max-size", "0"],
        ["tradeoff", "--scheme", "21", "--max-size", "0"],
        ["simulate", "--scheme", "inf", "--trials", "1000", "--max-rounds", "0"],
        ["sweep", "--grid", "1", "--trials", "1000", "--max-rounds", "0"],
        ["simulate", "--scheme", "21", "--trials", "1000", "--n", "4", "--n1", "3"],
        ["simulate", "--scheme", "12", "--trials", "1000", "--n1", "2", "--n2", "3", "--n", "4"],
        ["simulate", "--scheme", "inf", "--trials", "1000", "--n", "4"],
        ["simulate", "--scheme", "babai", "--trials", "1000", "--n2", "4"],
        ["simulate", "--scheme", "12", "--trials", "100", "--n1", "2", "--n2", "3", "--max-rounds", "3"],
        ["simulate", "--scheme", "babai", "--trials", "100", "--max-rounds", "3"],
        ["trace", "--scheme", "12", "--x1", "0.1", "--x2", "0", "--n", "5"],
        ["trace", "--scheme", "21", "--x1", "0.1", "--x2", "0", "--n", "2", "--max-rounds", "3"],
        ["trace", "--scheme", "inf", "--x1", "0.1", "--x2", "0", "--n1", "2"],
        ["analyze", "--scheme", "inf", "--n1", "7"],
        ["analyze", "--scheme", "babai", "--n", "2"],
        ["analyze", "--scheme", "21", "--n2", "2"],
    ],
)
def test_zero_sizes_and_rounds_exit_2(argv, capsys):
    """Zero sizes, round limits and sizes a scheme does not take are
    rejected, never coerced to 1 or ignored."""
    angle = [] if argv[0] == "sweep" else ["--rcos", "0.3"]  # sweep rejects an angle
    rc, out, err = run_cli(argv + angle, capsys)
    assert rc == 2 and out == "" and "error" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "--scheme", "12", "--n2", "0"], "n2 must be >= 1, got 0"),
        (["simulate", "--scheme", "12", "--n1", "0", "--n2", "3"], "n1 must be >= 1, got 0"),
        (["simulate", "--scheme", "babai", "--trials", "-1"], "trials must be >= 1, got -1"),
        (
            ["trace", "--scheme", "21", "--x1", "0", "--x2", "0", "--n", "-1"],
            "n must be >= 1, got -1",
        ),
        (
            ["sweep", "--grid", "1", "--trials", "9", "--max-rounds", "0"],
            "max_rounds must be >= 1, got 0",
        ),
    ],
    ids=["analyze-n2", "simulate-n1", "simulate-trials", "trace-n", "sweep-max_rounds"],
)
def test_a_count_below_one_is_named(argv, message, capsys):
    """A size, trial count or round limit below 1 exits 2 with the one
    rule's message, which names the value."""
    angle = [] if argv[0] == "sweep" else ["--rcos", "0.3"]  # sweep rejects an angle
    assert run_cli(argv + angle, capsys) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("target", ["missing directory", "directory"])
def test_output_that_cannot_be_opened_exits_2(target, tmp_path, capsys):
    """An --output path in a missing directory, or a directory itself, is
    invalid input (exit 2 and one error line), not a traceback."""
    path = tmp_path / "missing" / "x.txt" if target == "missing directory" else tmp_path
    rc, out, err = run_cli(["geometry", "--rcos", "0.3", "--output", str(path)], capsys)
    assert rc == 2 and out == "" and not (tmp_path / "missing").exists()
    assert err.startswith(f"error: cannot write --output {str(path)!r}: ") and err.count("\n") == 1


# sizes of 10^15 and more: their arrays (petabytes) cannot be allocated on
# any machine, so the allocation fails at once; 10^400 overflows a float
_HUGE = str(10**15)


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--scheme", "12", "--n1", _HUGE, "--n2", "1"],
        ["trace", "--scheme", "21", "--n", _HUGE, "--x1", "0.1", "--x2", "0.1"],
        ["simulate", "--scheme", "12", "--n1", _HUGE, "--n2", "1", "--trials", "10"],
        ["analyze", "--scheme", "21", "--n", str(10**400)],
    ],
    ids=["analyze-12", "trace-21", "simulate-12", "analyze-21-overflow"],
)
def test_an_oversized_count_exits_2(argv, capsys):
    """A size too large to allocate its arrays (MemoryError) or to convert
    to a float (OverflowError) is invalid input: exit 2 and one error line,
    not a traceback."""
    rc, out, err = run_cli(argv + ["--rcos", "0.3"], capsys)
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--scheme", "babai", "--trials", "1000", "--seed", str(2**64 + 1)],
        ["simulate", "--scheme", "babai", "--trials", "1000", "--seed", str(2**64)],
        ["simulate", "--scheme", "inf", "--trials", "1000", "--seed", "-1"],
        ["sweep", "--grid", "1", "--trials", "1000", "--seed", "-1"],
        ["sweep", "--grid", "1", "--trials", "1000", "--seed", str(2**64 + 1)],
        ["sweep", "--grid", "1", "--trials", "-1"],
        ["geometry", "--rho", "0"],
        ["geometry", "--rho", "-0.0"],
        ["sweep", "--rho", "0", "--grid", "2"],
        ["sweep", "--rho", "-0.0", "--grid", "2"],
    ],
)
def test_out_of_range_seeds_and_counts_exit_2(argv, capsys):
    """A seed outside [0, 2**64), a negative sweep trial count or a rho
    below 1 is rejected, never reduced modulo 2**64, read as no trials or
    divided by."""
    angle = [] if argv[0] == "sweep" else ["--rcos", "0.3"]  # sweep rejects an angle
    rc, out, err = run_cli(argv + angle, capsys)
    assert rc == 2 and out == "" and "error" in err


@pytest.mark.parametrize(
    "angle",
    [
        ["--theta-deg", "70"],
        ["--theta-rad", "1.2"],
        ["--rcos", "0.3"],
        ["--theta-deg", "70", "--rcos", "0.3"],
        ["--theta-rad", "nan"],
    ],
)
@pytest.mark.parametrize("trials", ["0", "1000"])
def test_sweep_rejects_angle_flags(angle, trials, capsys):
    """sweep varies theta itself, so an angle flag is invalid input, never
    ignored: one, two at once, or a NaN."""
    rc, out, err = run_cli(["sweep", "--grid", "2", "--trials", trials] + angle, capsys)
    assert rc == 2 and out == "" and "sweep varies theta itself" in err


@pytest.mark.parametrize(
    "flags",
    [
        ["--seed", "99", "--max-rounds", "3"],
        ["--seed", "5"],
        ["--seed", "0"],
        ["--max-rounds", "3"],
        ["--max-rounds", str(DEFAULT_MAX_ROUNDS)],
        ["--trials", "0", "--seed", "5"],
        ["--trials", "0", "--max-rounds", "0"],
    ],
)
def test_sweep_seed_and_round_limit_need_trials(flags, capsys):
    """--seed and --max-rounds set only the empirical columns, so a sweep
    without trials rejects them, even at their default values, and never
    prints the closed-form table as if they had been used."""
    rc, out, err = run_cli(["sweep", "--grid", "2"] + flags, capsys)
    assert rc == 2 and out == "" and "--trials" in err


def test_sweep_empirical_flags_take_their_defaults(capsys):
    rc, want, _ = run_cli(["sweep", "--grid", "1", "--trials", "1000"], capsys)
    assert rc == 0
    given = ["--seed", "0", "--max-rounds", str(DEFAULT_MAX_ROUNDS)]
    assert run_cli(["sweep", "--grid", "1", "--trials", "1000"] + given, capsys) == (0, want, "")


@pytest.mark.parametrize(
    "omitted,given",
    [
        (["analyze", "--scheme", "12"], ["--n1", "1", "--n2", "1"]),
        (["analyze", "--scheme", "21"], ["--n", "1"]),
        (["trace", "--scheme", "12", "--x1", "-0.3", "--x2", "0.4"], ["--n2", "1", "--n1", "1"]),
        (["trace", "--scheme", "21", "--x1", "-0.3", "--x2", "0.4"], ["--n", "1"]),
        (
            ["trace", "--scheme", "inf", "--x1", "-0.3", "--x2", "0.4"],
            ["--max-rounds", str(DEFAULT_MAX_ROUNDS)],
        ),
        (
            ["simulate", "--scheme", "inf", "--trials", "2000"],
            ["--max-rounds", str(DEFAULT_MAX_ROUNDS)],
        ),
    ],
)
def test_omitted_flags_take_their_defaults(omitted, given, capsys):
    rc, want, _ = run_cli(omitted + given + ["--rcos", "0.3"], capsys)
    assert rc == 0
    assert run_cli(omitted + ["--rcos", "0.3"], capsys) == (0, want, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--grid", "1", "--budget", "nan"],
        ["sweep", "--grid", "1", "--budget", "inf"],
        ["sweep", "--grid", "1", "--budget=-inf"],
        ["tradeoff", "--scheme", "12", "--budget", "nan"],
        ["tradeoff", "--scheme", "21", "--budget", "inf"],
        ["tradeoff", "--scheme", "21", "--budget=-inf"],
    ],
)
def test_non_finite_budget_exit_2(argv, capsys):
    """A nan or infinite budget is rejected before any curve is searched."""
    rc, out, err = run_cli(argv + ["--rcos", "0.3"], capsys)
    assert rc == 2 and out == "" and "rate budget must be finite" in err


def _run_module(argv: list[str]) -> subprocess.CompletedProcess:
    """`python -m babai_refine argv` in a fresh interpreter, on this package."""
    path = [str(Path(babai_refine.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    return subprocess.run(
        [sys.executable, "-m", "babai_refine", *argv], capture_output=True, env=env, timeout=300
    )


def test_module_entry_point_prints_what_main_prints(capsys):
    argv = ["geometry", "--rcos", "0.3"]
    proc = _run_module(argv)
    rc, out, _ = run_cli(argv, capsys)
    assert proc.returncode == rc == 0
    assert proc.stdout == out.encode()


@pytest.mark.parametrize(
    "argv", [["geometry", "--rho", "0", "--rcos", "0.3"], ["sweep", "--rho", "0", "--grid", "2"]]
)
def test_module_entry_point_exits_2_on_invalid_input(argv):
    proc = _run_module(argv)
    assert proc.returncode == 2 and proc.stdout == b""
    assert b"error:" in proc.stderr


def test_quadrature_failure_exit_3(capsys, monkeypatch):
    from babai_refine import QuadratureFailure
    from babai_refine import cli as cli_mod

    def boom(params):
        raise QuadratureFailure("synthetic")

    monkeypatch.setattr(cli_mod.analytics, "kappa_12", boom)
    rc, _, err = run_cli(
        ["analyze", "--scheme", "12", "--rcos", "0.3", "--n1", "1", "--n2", "1"], capsys
    )
    assert rc == 3 and "synthetic" in err


def test_resolve_params_flag_rules():
    with pytest.raises(InvalidParams):
        resolve_params(1.0, 80.0, 1.4, None)  # two angle flags
    with pytest.raises(InvalidParams):
        resolve_params(1.0, None, None, None)  # none
    p = resolve_params(1.0, None, None, 0.3)
    assert math.isclose(p.theta, math.acos(0.3), rel_tol=1e-15)
    assert math.isclose(rbar_infinite(p), 1.80411, abs_tol=5e-6)


def test_scheme_choices_and_size_flags_come_from_the_scheme_table():
    """Each subcommand's --scheme choices and its --n1/--n2/--n flags are the
    sets schemes.SCHEMES implies, and each size flag names its scheme."""
    table = list(schemes.SCHEMES.values())
    aliases = {s.alias for s in table}
    size_flags = {"--" + f: s.alias for s in table for f in s.sizes}
    assert set(size_flags) == {"--n1", "--n2", "--n"}
    want = {
        "geometry": (None, False),
        "analyze": (aliases, True),
        "tradeoff": ({s.alias for s in table if s.sizes}, False),
        "simulate": (aliases, True),
        "trace": ({s.alias for s in table if s.transcript}, True),
        "sweep": (None, False),
    }
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(want)
    for name, parser in sub.choices.items():
        choices, sized = want[name]
        flags = {o: a for a in parser._actions for o in a.option_strings}
        got = flags["--scheme"].choices if "--scheme" in flags else None
        assert (None if got is None else set(got)) == choices, name
        assert set(size_flags) & set(flags) == (set(size_flags) if sized else set()), name
        for flag, alias in size_flags.items() if sized else ():
            assert flags[flag].help.startswith(f"scheme {alias} only"), (name, flag)


_COMMANDS = ("geometry", "analyze", "tradeoff", "simulate", "trace", "sweep")
_ARGV_TABLE = [
    [],
    ["-h"],
    ["--help"],
    ["bogus"],
    ["swee", "--grid", "2"],
    ["sweep", "--grid", "2", "extra"],
    *([c, "--help"] for c in _COMMANDS),
    *([c] for c in _COMMANDS),
    *([c, "--bogus"] for c in _COMMANDS),
    ["geometry", "--rcos", "0.3"],
    ["analyze", "--scheme", "12", "--rcos", "0.3"],
    ["tradeoff", "--scheme", "21", "--rcos", "0.3", "--max-size", "4"],
    ["simulate", "--scheme", "babai", "--rcos", "0.3", "--trials", "1000"],
    ["trace", "--scheme", "12", "--rcos", "0.3", "--n1", "2", "--n2", "3", "--x1", "0.4", "--x2", "0.3"],
    ["sweep", "--grid", "2"],
    ["sweep", "--grid", "0"],
]


def _outcome(argv, capsys):
    """main(argv)'s exit code (returned, or raised as SystemExit), stdout and stderr."""
    try:
        code = ("return", main(argv))
    except SystemExit as exc:
        code = ("exit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", _ARGV_TABLE, ids=lambda argv: " ".join(argv) or "(none)")
def test_output_equals_the_whole_parsers(argv, capsys, monkeypatch):
    """main prints the same bytes and exits with the same code, from argv or
    from sys.argv, as when its parser is the whole build_parser()'s: help,
    usage and errors of the root and of each subcommand, and real runs."""
    monkeypatch.setenv("COLUMNS", "80")
    got = _outcome(argv, capsys)
    monkeypatch.setattr(sys, "argv", ["babai-refine", *argv])
    assert _outcome(None, capsys) == got
    monkeypatch.setattr(cli, "build_parser", lambda command=None: build_parser())
    assert _outcome(argv, capsys) == got


@pytest.mark.parametrize(
    "argv, flagged",
    [
        (["sweep", "--grid", "2"], {"sweep"}),
        *(([c, "--help"], {c}) for c in _COMMANDS),
        *((argv, set(_COMMANDS)) for argv in ([], ["-h"], ["swee", "--grid", "2"], ["bogus"])),
    ],
)
def test_main_adds_the_flags_of_the_named_subcommand_only(argv, flagged, capsys, monkeypatch):
    """main builds every subparser, but adds flags only to the one argv[0]
    names exactly; anything else gets every subparser's flags."""
    built = []

    def spy(*args, **kwargs):
        built.append(build_parser(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", spy)
    with contextlib.suppress(SystemExit):
        main(argv)
    capsys.readouterr()
    (parser,) = built
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(_COMMANDS)
    # a subparser without flags has only its -h action
    assert {name for name, p in sub.choices.items() if len(p._actions) > 1} == flagged


@pytest.mark.parametrize("command", _COMMANDS)
def test_root_usage_and_help_stay_whole(command):
    """The root parser's usage and help name all six subcommands and their
    help lines, whichever subcommand gets its flags."""
    assert build_parser(command).format_help() == build_parser().format_help()
    assert build_parser(command).format_usage() == build_parser().format_usage()
