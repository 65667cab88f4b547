"""Flag-surface pin for the command-line parser.

``tests/data/cli_flags.json`` records, for every subcommand of
:func:`repro.cli.build_parser`, each argument's flags, ``dest``, default,
``choices``, ``type`` and ``action``; help text and argument order are
left out.  The test fails when an option is added, dropped, renamed or
given a new default.

Regenerate the fixture after an intended change to the flag surface with::

    PYTHONPATH=src python tests/test_cli_flags.py
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.cli import build_parser

FIXTURE = Path(__file__).parent / "data" / "cli_flags.json"


def _describe(action: argparse.Action) -> dict:
    return {
        "flags": list(action.option_strings),
        "dest": action.dest,
        "default": action.default,
        "choices": None if action.choices is None else list(action.choices),
        "type": None if action.type is None else action.type.__name__,
        "action": type(action).__name__,
    }


def flag_surface() -> dict:
    """``{"repro run": [argument, ...], ...}`` for every (sub)command."""
    surface: dict = {}
    pending = [("repro", build_parser())]
    while pending:
        name, parser = pending.pop()
        entries = []
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub_name, sub in action.choices.items():
                    pending.append((f"{name} {sub_name}", sub))
                entries.append(
                    {"dest": action.dest, "subcommands": sorted(action.choices)}
                )
            else:
                entries.append(_describe(action))
        surface[name] = sorted(entries, key=lambda entry: entry["dest"])
    return surface


def test_flag_surface_matches_fixture():
    with open(FIXTURE, encoding="utf-8") as handle:
        expected = json.load(handle)
    actual = json.loads(json.dumps(flag_surface()))
    assert sorted(actual) == sorted(expected)
    for command in expected:
        assert actual[command] == expected[command], command


if __name__ == "__main__":
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(flag_surface(), handle, indent=1, sort_keys=True)
        handle.write("\n")
