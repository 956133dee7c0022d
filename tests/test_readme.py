"""README.md stays true: its Python examples run, and every command-line
flag it shows is one the parser accepts."""

import argparse
import re
import shlex
from pathlib import Path

from kronpcg import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.M | re.S)


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
    commands = 0
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line.partition("#")[0])
            if words[:1] != ["kronpcg"]:
                continue
            commands += 1
            assert words[1] in flags, line
            shown = {w.partition("=")[0] for w in words[2:] if w.startswith("--")}
            assert shown <= flags[words[1]], (line, sorted(shown - flags[words[1]]))
    assert commands >= 5
    quoted = set(re.findall(r"`(--[A-Za-z][\w-]*)", README))
    known = set().union(*flags.values())
    assert quoted and quoted <= known, sorted(quoted - known)
