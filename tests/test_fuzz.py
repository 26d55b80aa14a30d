"""Token-level mutations of the corpus inputs never crash the CLI.

Each case takes one bundled input file, replaces, deletes or inserts a few
tokens, drawn from the file's own tokens plus some malformed ones, and runs a
command on it through `main()` with small caps.  Whatever the input, the CLI
must answer with exit code 0, 1 or 2 and must not report an internal error.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from perigrowth.cli import main

from conftest import data_path, data_text

CAPS = ["--max-ball", "20000", "--max-cycles", "1000"]
MALFORMED = ["-", "x", "-1", "0", "(-;0)", "[-;0]", "(0;9)", "[0;9]"]

# input file -> commands run on its mutant, with {} standing for the mutant
COMMANDS = {
    "square.pg": [["pg", "validate", "{}"], ["pg", "series", "{}", "--upto", "8"]],
    "honeycomb.pg": [["pg", "growth", "{}", "--upto", "6"],
                     ["pg", "decompose", "{}", "--upto", "4"]],
    "z_pm.pg": [["pg", "decompose", "{}", "--upto", "4"]],
    "z_oneway.pg": [["pg", "series", "{}", "--upto", "8", "--canonical"]],
    "dinf.vag": [["vag", "cayley", "{}"],
                 ["vag", "relative", "{}", data_path("invol.set"), "--upto", "4"]],
    "klein.vag": [["vag", "growth", "{}", "--upto", "5"],
                  ["vag", "solve", "{}", data_path("involution.eqn"), "--box", "1"]],
    "involution.eqn": [["vag", "solve", data_path("dinf.vag"), "{}", "--box", "2"]],
    "invol.set": [["vag", "relative", data_path("dinf.vag"), "{}", "--upto", "4"]],
    "diag.set": [["vag", "relative", data_path("dinf.vag"), "{}", "--upto", "4"]],
}


def lines_of(text: str) -> list[list[str]]:
    """The whitespace tokens of each line, comments and blank lines dropped."""
    lines = [line.split("#", 1)[0].split() for line in text.splitlines()]
    return [tokens for tokens in lines if tokens]


def mutant(rng):
    """A mutated input file and the command to run on it.

    Mutations are drawn uniformly by a seeded generator: Hypothesis's own
    draws favour the first lines and tokens, so a malformed token would
    rarely land on a later line.
    """
    suffix = rng.choice([".pg", ".vag", ".eqn", ".set"])
    name = rng.choice([n for n in sorted(COMMANDS) if n.endswith(suffix)])
    lines = lines_of(data_text(name))
    own = sorted({t for tokens in lines for t in tokens})
    for _ in range(rng.randint(1, 2)):
        tokens = rng.choice(lines)
        # malformed tokens are half the draws, or they would rarely land
        new = rng.choice(MALFORMED if rng.random() < 0.5 else own)
        op = rng.choice(["replace", "delete", "insert"])
        if op == "insert" or not tokens:
            tokens.insert(rng.randint(0, len(tokens)), new)
        elif op == "replace":
            tokens[rng.randrange(len(tokens))] = new
        else:
            del tokens[rng.randrange(len(tokens))]
    text = "".join(" ".join(tokens) + "\n" for tokens in lines)
    return name, text, rng.choice(COMMANDS[name])


@settings(max_examples=600, derandomize=True, deadline=None)
@given(st.randoms(use_true_random=True))
def test_mutated_inputs_exit_cleanly(rng):
    name, text, command = mutant(rng)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(text)
        argv = CAPS + [str(path) if a == "{}" else a for a in command]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    assert "internal error" not in err.getvalue()
