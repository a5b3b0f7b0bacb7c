"""The ``python -m repro`` parser structure is locked by a snapshot (tier-1).

Every subcommand's actions — option strings, dest, default, choices,
metavar and help — are compared against ``tests/data/cli_parser.json``.
The structure is compared rather than ``format_help()`` text because
argparse's help layout differs between Python versions.

Regenerate the snapshot only for an intentional CLI change::

    PYTHONPATH=src python tests/test_cli_snapshot.py > tests/data/cli_parser.json
"""

import argparse
import json
import sys
from pathlib import Path

import pytest

SNAPSHOT = Path(__file__).parent / "data" / "cli_parser.json"


def _jsonable(value):
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def _actions(parser: argparse.ArgumentParser) -> list[dict]:
    return [
        {
            "option_strings": list(action.option_strings),
            "dest": action.dest,
            "default": _jsonable(action.default),
            "choices": _jsonable(action.choices),
            "metavar": _jsonable(action.metavar),
            "help": action.help,
        }
        for action in parser._actions
        if not isinstance(action, argparse._SubParsersAction)
    ]


def parser_structure() -> dict:
    """The comparable structure of the whole CLI."""
    from repro.__main__ import _build_parser

    parser = _build_parser()
    (sub,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    helps = {a.dest: a.help for a in sub._choices_actions}
    return {
        "top": _actions(parser),
        "commands": {
            name: {"help": helps.get(name), "actions": _actions(command)}
            for name, command in sub.choices.items()
        },
    }


def test_parser_matches_snapshot():
    expected = json.loads(SNAPSHOT.read_text())
    actual = parser_structure()
    assert list(actual["commands"]) == list(expected["commands"])
    assert actual["top"] == expected["top"]
    for name, command in expected["commands"].items():
        assert actual["commands"][name] == command, name


def test_retired_bench_command_is_refused(capsys):
    """perfbench is the one benchmark: ``repro bench`` is a usage error."""
    from repro.__main__ import main

    with pytest.raises(SystemExit) as exit_info:
        main(["bench", "--smoke"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err and "'bench'" in err


if __name__ == "__main__":
    json.dump(parser_structure(), sys.stdout, indent=1)
    sys.stdout.write("\n")
