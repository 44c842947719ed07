"""The scheme table is the one place that holds a scheme's facts.

A copy of the 21 entry, added to the table under a new name, alias and
sweep stem, reaches every subcommand with no other edit and prints the 21
scheme's numbers; the parser's choices and size flags come from the table
as it is when the parser is built.
"""

import csv
import dataclasses
import io
import json

import pytest

from babai_refine import analytics, schemes
from babai_refine.cli import build_parser, main

RCOS = ["--rcos", "0.3"]


@pytest.fixture
def copied_21(monkeypatch):
    entry = dataclasses.replace(
        schemes.SCHEMES["21"],
        name="21copy",
        alias="21c",
        columns=("pe21c_below", "pe21c_interp"),
        sweep=(("pe21c", "empirical_pe"),),
    )
    monkeypatch.setitem(schemes.SCHEMES, entry.name, entry)
    return entry


def _run(argv, capsys) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


def test_copied_entry_analyzes_and_trades_off_as_21(copied_21, capsys):
    argv = ["analyze", *RCOS, "--n", "7", "--scheme"]
    want = json.loads(_run(argv + ["21"], capsys))
    assert json.loads(_run(argv + ["21c"], capsys)) == {**want, "scheme": "21c"}
    argv = ["tradeoff", *RCOS, "--max-size", "12", "--budget", "3", "--scheme"]
    assert _run(argv + ["21c"], capsys) == _run(argv + ["21"], capsys)


def test_copied_entry_simulates_and_traces_as_21(copied_21, capsys):
    argv = ["simulate", *RCOS, "--n", "5", "--trials", "4096", "--seed", "3", "--scheme"]
    want = json.loads(_run(argv + ["21"], capsys))
    assert json.loads(_run(argv + ["21c"], capsys)) == {**want, "scheme": "21copy"}
    argv = ["trace", *RCOS, "--n", "5", "--x1", "0.4", "--x2", "0.3", "--scheme"]
    assert _run(argv + ["21c"], capsys) == _run(argv + ["21"], capsys)


def test_copied_entry_gains_sweep_columns(copied_21, monkeypatch, capsys):
    """The entry comes last in the table, so its closed-form columns follow
    pe_babai and its empirical pair ends the row; the closed-form values are
    the 21 scheme's, found by a budget search on the copy's own entry."""
    searched = set()
    curve_point = analytics.curve_point

    def recorded(params, scheme, size):
        searched.add(scheme)
        return curve_point(params, scheme, size)

    monkeypatch.setattr(analytics, "curve_point", recorded)
    text = _run(["sweep", "--grid", "3", "--budget", "6", "--trials", "2000"], capsys)
    assert searched == {"12", "21", "21copy"}
    rows = list(csv.DictReader(io.StringIO(text)))
    header = list(rows[0])
    at = header.index("pe_babai") + 1
    assert header[at : at + 2] == ["pe21c_below", "pe21c_interp"]
    assert header[-2:] == ["pe21c_emp", "pe21c_emp_stderr"]
    assert len(rows) == 3
    for row in rows:
        assert (row["pe21c_below"], row["pe21c_interp"]) == (row["pe21_below"], row["pe21_interp"])
        assert 0.0 <= float(row["pe21c_emp"]) <= 1.0


def test_shared_size_flag_is_registered_once(copied_21):
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    for name in ("analyze", "simulate", "trace"):
        flags = [a for a in sub.choices[name]._actions if "--n" in a.option_strings]
        assert len(flags) == 1, name
        assert flags[0].help.startswith("scheme 21 or 21c only"), name
        scheme = next(a for a in sub.choices[name]._actions if "--scheme" in a.option_strings)
        assert "21c" in scheme.choices, name
