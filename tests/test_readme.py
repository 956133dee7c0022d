"""README.md stays true: its Python examples and its ``gen``, ``solve`` and
``spectrum`` command lines run, every command-line flag it shows is one
the parser accepts, and its suite size is the recorded one."""

import argparse
import re
import shlex
from pathlib import Path

import numpy as np

from kronpcg import cli
from kronpcg.formats import write_tensor
from kronpcg.problems import gen_problem2

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.M | re.S)


def _commands() -> list[list[str]]:
    """The ``kronpcg`` lines of the shell examples, split into words."""
    lines = [line for block in _blocks("sh") for line in block.replace("\\\n", " ").splitlines()]
    words = (shlex.split(line.partition("#")[0]) for line in lines)
    return [w for w in words if w[:1] == ["kronpcg"]]


def _subcommand_flags() -> dict[str, set[str]]:
    """Each subcommand's option strings, as ``cli.build_parser()`` defines them."""
    parser = cli.build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: set(sub._option_string_actions) for name, sub in action.choices.items()}


def test_python_examples_run_in_order_in_one_namespace():
    blocks = _blocks("python")
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_every_shown_flag_is_accepted():
    """Flags on ``kronpcg <subcommand>`` lines of the shell examples are
    checked against that subcommand; a flag quoted in the prose must belong
    to some subcommand."""
    flags = _subcommand_flags()
    commands = _commands()
    for words in commands:
        assert words[1] in flags, words
        shown = {w.partition("=")[0] for w in words[2:] if w.startswith("--")}
        assert shown <= flags[words[1]], (words, sorted(shown - flags[words[1]]))
    assert len(commands) >= 5
    quoted = set(re.findall(r"`(--[A-Za-z][\w-]*)", README))
    known = set().union(*flags.values())
    assert quoted and quoted <= known, sorted(quoted - known)


def test_shown_commands_run(tmp_path, monkeypatch, capsys):
    """Each ``gen``, ``solve`` and ``spectrum`` line exits 0, in order, in a
    fresh directory; the face example's ``h.kten`` is p2's raw band charge.
    The ``experiment`` lines are left to CI's experiment steps."""
    monkeypatch.chdir(tmp_path)
    spec, _ = gen_problem2()
    band = np.zeros(spec.shape)
    start = spec.shape[0] // 3 - 2
    band[start : start + 5] = 1.0
    write_tensor("h.kten", band)
    ran = [w for w in _commands() if w[1] != "experiment"]
    assert {w[1] for w in ran} == {"gen", "solve", "spectrum"}
    for words in ran:
        assert cli.main(words[1:]) == 0, words
    capsys.readouterr()


def test_the_shown_suite_size_is_the_recorded_one():
    """README's "full suite: N tests" counts the PASSED ids of
    ``test_output.txt``, the record CI holds to the collected ids."""
    record = (ROOT / "test_output.txt").read_text(encoding="utf-8").splitlines()
    passed = sum(" PASSED" in line for line in record)
    assert re.findall(r"full suite: (\d+) tests", README) == [str(passed)]
