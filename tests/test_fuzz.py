"""Seeded mutants of the README script through both script entry points,
run_script and main(["run", ...]): each exits 0-3, prints at most one failure
line (`error at line N: ...` or `budget exhausted at line N: ...`, and exactly
one when it exits 2 or 3), prints the same bytes both ways and raises nothing."""

import contextlib
import io
import random
import re
from pathlib import Path

import pytest

from froblab.cli import main, run_script

README_SCRIPT = Path(__file__).resolve().parent / "golden" / "readme_script.flb"
# past the checked exponent range, negative, zero, past any machine integer
OUT_OF_RANGE = ["2147483648", "-1", "0", "-2147483649", "9" * 20]
# an unknown statement head, check tag, ideal name, key and value
UNKNOWN = ["frobnicate", "jacobian-bogus", "W", "bogus=1", "n=maybe"]
MUTANTS = 400
FAILURE_LINE = re.compile(r"(error|budget exhausted) at line \d+: ")


def drop_token(lines, rng):
    words = lines[rng.randrange(len(lines))]
    if words:
        del words[rng.randrange(len(words))]


def swap_lines(lines, rng):
    i, j = rng.sample(range(len(lines)), 2)
    lines[i], lines[j] = lines[j], lines[i]


def out_of_range_integer(lines, rng):
    spots = [(words, k) for words in lines for k, word in enumerate(words)
             if re.search(r"\d", word)]
    words, k = rng.choice(spots)
    digits = [m.span() for m in re.finditer(r"\d+", words[k])]
    start, end = rng.choice(digits)
    words[k] = words[k][:start] + rng.choice(OUT_OF_RANGE) + words[k][end:]


def unknown_word(lines, rng):
    words = lines[rng.randrange(len(lines))]
    word = rng.choice(UNKNOWN)
    if words and rng.random() < 0.7:
        words[rng.randrange(len(words))] = word
    else:
        words.append(word)


MUTATIONS = [drop_token, swap_lines, out_of_range_integer, unknown_word]


def mutant(seed):
    """The README script after one or two mutations drawn with seed."""
    rng = random.Random(seed)
    lines = [line.split(" ") for line in README_SCRIPT.read_text().splitlines()]
    for _ in range(rng.randint(1, 2)):
        rng.choice(MUTATIONS)(lines, rng)
    return "".join(" ".join(words) + "\n" for words in lines)


def run_both(path):
    """(exit code, output) of run_script and of main(["run", path]); main
    prints nothing on stderr."""
    out = io.StringIO()
    code = run_script(str(path), out=out)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        assert main(["run", str(path)]) == code
    assert stdout.getvalue() == out.getvalue() and stderr.getvalue() == ""
    return code, out.getvalue()


def test_mutants_keep_the_exit_contract(tmp_path, monkeypatch):
    path = tmp_path / "mutant.flb"
    codes = set()
    for seed in range(MUTANTS):
        # every fourth mutant runs under a one-pair budget, which most exhaust
        monkeypatch.setenv("FROBLAB_MAX_PAIRS", "1" if seed % 4 == 3 else "")
        path.write_text(mutant(seed))
        code, out = run_both(path)
        failures = [line for line in out.splitlines() if FAILURE_LINE.match(line)]
        context = f"seed {seed}:\n{path.read_text()}{out}"
        assert code in (0, 1, 2, 3), context
        assert len(failures) == (code in (2, 3)), context
        codes.add(code)
    assert {0, 2, 3} <= codes  # some mutants run through, some stop at an error or the budget


@pytest.mark.parametrize("name", ["missing.flb", "."], ids=["missing", "directory"])
def test_unreadable_script_is_one_error_line(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = run_both(name)
    assert code == 2 and out.startswith("error: ") and out.count("\n") == 1
