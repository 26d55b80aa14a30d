"""The CLI's argument parsing: its help, usage and error text, pinned byte
for byte, and the parsers one run builds.

The text goldens (golden/cli_text.json: stdout, stderr and exit code per
case) are taken at a terminal width of 80 columns, where argparse wraps
them; only an intended change of the command line may rewrite them.
"""

import argparse
import importlib
import json
from pathlib import Path

import pytest

import perigrowth.cli
from perigrowth.cli import main

from conftest import data_path

GOLDEN = Path(__file__).parent / "golden" / "cli_text.json"

SQUARE = data_path("square.pg")
Z_PM = data_path("z_pm.pg")
DINF = data_path("dinf.vag")

COMMANDS = {
    "pg": ["validate", "growth", "series", "decompose"],
    "vag": ["cayley", "growth", "solve", "relative"],
}

TEXT_CASES = {
    "help": ["--help"],
    **{f"help-{family}": [family, "--help"] for family in COMMANDS},
    **{
        f"help-{family}-{command}": [family, command, "--help"]
        for family, commands in COMMANDS.items()
        for command in commands
    },
    "no-arguments": [],
    "unknown-command": ["pg", "bogus"],
    "missing-upto": ["pg", "growth", SQUARE],
    "bad-upto": ["pg", "growth", SQUARE, "--upto", "x"],
    "abbreviated-upto": ["pg", "growth", SQUARE, "--up", "3"],
    "bad-threads": ["--threads", "x", "pg", "growth", SQUARE, "--upto", "1"],
    "upto-with-equals": ["pg", "growth", SQUARE, "--upto=3"],
    "abbreviated-canonical": ["pg", "series", SQUARE, "--upto", "30", "--canon"],
    "abbreviated-exhaustive": ["pg", "decompose", Z_PM, "--upto", "2", "--exh"],
    "unknown-option": ["pg", "growth", SQUARE, "--upto", "1", "--bogus"],
    "missing-set": ["vag", "relative", DINF],
    "cap-below-one": ["--max-ball", "0", "pg", "growth", SQUARE, "--upto", "1"],
}


def run_text(capsys, monkeypatch, argv) -> dict:
    """stdout, stderr and exit code of main(argv) at a width of 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(list(argv))
    except SystemExit as exc:  # help and parse errors exit inside argparse
        code = exc.code
    captured = capsys.readouterr()
    return {"out": captured.out, "err": captured.err, "code": code}


@pytest.mark.parametrize("name", sorted(TEXT_CASES))
def test_cli_text_matches_golden(capsys, monkeypatch, name):
    expected = json.loads(GOLDEN.read_text())[name]
    assert run_text(capsys, monkeypatch, TEXT_CASES[name]) == expected


def counting_parsers(monkeypatch) -> list:
    """The prog of every `argparse.ArgumentParser` built from here on."""
    built = []
    real = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return built


RUNS = {
    ("pg", "validate"): [SQUARE],
    ("pg", "growth"): [SQUARE, "--upto", "2"],
    ("pg", "series"): [SQUARE, "--upto", "30"],
    ("pg", "decompose"): [Z_PM, "--upto", "2"],
    ("vag", "cayley"): [DINF],
    ("vag", "growth"): [DINF, "--upto", "2"],
    ("vag", "solve"): [DINF, data_path("involution.eqn"), "--box", "1"],
    ("vag", "relative"): [DINF, data_path("invol.set"), "--upto", "10", "--margin", "5"],
}


@pytest.mark.parametrize(
    "family, command", [(f, c) for f, commands in COMMANDS.items() for c in commands]
)
def test_a_run_builds_only_its_own_command_parser(capsys, monkeypatch, family, command):
    # the top parser, the two family parsers and the one command that runs
    built = counting_parsers(monkeypatch)
    assert main([family, command, *RUNS[family, command]]) == 0
    capsys.readouterr()
    assert sorted(built) == sorted(
        ["perigrowth", "perigrowth pg", "perigrowth vag", f"perigrowth {family} {command}"]
    )


def test_importing_the_cli_builds_no_parser(monkeypatch):
    # parsers are built by `main`, not moved into import
    built = counting_parsers(monkeypatch)
    importlib.reload(perigrowth.cli)
    assert built == []
