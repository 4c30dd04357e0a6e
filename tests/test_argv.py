"""The reader of plain argvs, ``cli.read_argv``, against argparse: every
argv it accepts gets the attributes ``build_parser().parse_args`` sets, and
every other spelling is left to argparse, so that help, usage errors and
odd spellings keep argparse's bytes and exit codes."""

import importlib
import itertools
import pathlib
import random

import pytest

from rupture_kit.cli import COMMANDS, build_parser, read_argv

from support import fixture_commands

ROOT = pathlib.Path(__file__).resolve().parents[1]
PARSER = build_parser()


def read_as_argparse(argv):
    """The reader's namespace of ``argv``, checked equal to argparse's when
    the reader accepts it."""
    args = read_argv(argv)
    if args is not None:
        assert vars(args) == vars(PARSER.parse_args(argv)), argv
    return args


def units(argv) -> list[tuple]:
    """The words of an argv after its command, an option with its value
    as one."""
    words, rest = [], iter(argv[1:])
    for arg in rest:
        words.append((arg, next(rest)) if arg.startswith("--") and arg != "--json" else (arg,))
    return words


# One plain argv per shape of command: positionals, int options, --json.
PLAIN = [
    ["validate", "a.json"],
    ["validate", "a.json", "--max-dim", "2", "--json"],
    ["horns", "a.json", "--dim", "2", "--missing", "1", "--json"],
    ["transport", "a.json", "--term", "0", "--path", "10"],
    ["product", "a.json", "b.json", "--json"],
]


def test_every_fixture_command_is_read_as_argparse_reads_it():
    for argv in fixture_commands():
        assert read_as_argparse(argv) is not None, argv


def test_every_benchmark_invocation_is_read(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT))
    workloads = importlib.import_module("bench.workloads")
    for argv in workloads.CLI_INVOCATIONS:
        assert read_as_argparse(workloads.resolve(argv, tmp_path)) is not None, argv


@pytest.mark.parametrize("argv", PLAIN, ids=" ".join)
def test_every_order_of_the_words_is_read_as_argparse_reads_it(argv):
    for order in itertools.permutations(units(argv)):
        assert read_as_argparse([argv[0], *itertools.chain(*order)]) is not None, order


# Spellings argparse reads or refuses and the reader leaves to it, each an
# edit of ``horns a.json --dim 2 --missing 1 --json``.
FALLBACK = {
    "no command": lambda argv: [],
    "an unknown command": lambda argv: ["check", *argv[1:]],
    "-h": lambda argv: argv + ["-h"],
    "--help": lambda argv: argv[:1] + ["--help"],
    "--js": lambda argv: [a.replace("--json", "--js") for a in argv],
    "a repeated --json": lambda argv: argv + ["--json"],
    "--opt=N": lambda argv: argv[:2] + [f"{argv[2]}={argv[3]}"] + argv[4:],
    "a repeated option": lambda argv: argv + argv[2:4],
    "a missing option": lambda argv: argv[:2] + argv[4:],
    "a missing value": lambda argv: argv[:3],
    "--opt -1": lambda argv: argv[:3] + ["-1"] + argv[4:],
    "--opt x": lambda argv: argv[:3] + ["x"] + argv[4:],
    "--opt 1_0": lambda argv: argv[:3] + ["1_0"] + argv[4:],
    "--opt ' 2'": lambda argv: argv[:3] + [" 2"] + argv[4:],
    "a 100-digit value": lambda argv: argv[:3] + ["0" * 99 + "2"] + argv[4:],
    "a missing positional": lambda argv: [argv[0], *argv[2:]],
    "an extra positional": lambda argv: argv + ["c.json"],
    "a positional after --": lambda argv: [argv[0], *argv[2:], "--", argv[1]],
    "a positional -1": lambda argv: [argv[0], "-1", *argv[2:]],
    "an unknown option": lambda argv: argv + ["--bogus"],
}
# Unicode digits that are not ASCII: Arabic-Indic, fullwidth, Devanagari,
# superscript.
DIGITS = ["٣", "２", "१", "²"]


@pytest.mark.parametrize("name", FALLBACK)
def test_every_other_spelling_is_left_to_argparse(name):
    argv = FALLBACK[name](["horns", "a.json", "--dim", "2", "--missing", "1", "--json"])
    assert read_argv(argv) is None, argv


@pytest.mark.parametrize("digit", DIGITS, ids=ascii)
def test_a_digit_that_is_not_ascii_is_left_to_argparse(digit):
    assert read_argv(["horns", "a.json", "--dim", digit, "--missing", "1"]) is None
    assert read_argv(["horns", "a.json", "--dim", "2", "--missing", f"1{digit}"]) is None


def test_seeded_argvs_are_read_as_argparse_reads_them():
    """A command's words in a random order, at times with a word from the
    spellings above put in or put in place of one: whatever the reader
    accepts, argparse reads the same."""
    values = ["0", "2", "01", "1_0", " 2", "+1", "-1", "", *DIGITS]
    words = values + ["--json", "--js", "--json=1", "--dim", "--path", "-h", "--", "-",
                      "a b", "a.json", "validate"]
    rng, accepted = random.Random(28), 0
    for _ in range(3000):
        command = rng.choice(list(COMMANDS))
        positionals, options, _, _ = COMMANDS[command]
        words_of = [(rng.choice(["a.json", "", "a b", "-"]),) for _ in positionals]
        words_of += [(flag, rng.choice(values[:3])) for flag, *_ in options]
        words_of += [("--json",)] * rng.randrange(2)
        rng.shuffle(words_of)
        argv = [command, *itertools.chain(*words_of)]
        for _ in range(rng.choice([0, 0, 1, 2])):
            at = rng.randrange(1, len(argv) + 1)
            argv[at:at + rng.randrange(2)] = [rng.choice(words)]  # insert or replace
        accepted += read_as_argparse(argv) is not None
    assert accepted > 1000
