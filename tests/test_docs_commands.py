"""Every ``python -m repro ...`` command line shown in a fenced block of
README.md or ``docs/*.md`` parses with the CLI's own parsers, so a flag
the CLI drops cannot stay in the documentation."""

import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser, build_serve_parser

ROOT = Path(__file__).resolve().parent.parent


def documented_commands(text: str):
    """``(line_number, argv)`` per command line of ``text``'s fenced
    blocks; ``argv`` is what follows ``python -m repro``."""
    fenced, logical, first = False, "", 0
    for number, line in enumerate(text.splitlines(), 1):
        if line.lstrip().startswith("```"):
            fenced, logical = not fenced, ""
            continue
        if not fenced:
            continue
        if not logical:
            first = number
        logical += line
        if logical.endswith("\\"):  # continued on the next line
            logical = logical[:-1] + " "
            continue
        try:
            tokens = shlex.split(logical, comments=True)
        except ValueError:  # prose or a diagram, not a shell line
            tokens = []
        logical = ""
        while tokens and "=" in tokens[0] and not tokens[0].startswith("-"):
            tokens.pop(0)  # PYTHONPATH=src and the like
        if tokens[:3] in (["python", "-m", "repro"], ["python3", "-m", "repro"]):
            yield first, tokens[3:]


def test_extraction_joins_continuations_and_skips_prose():
    text = (
        "python -m repro --not-fenced\n"
        "```sh\n"
        "# a comment\n"
        "PYTHONPATH=src python -m repro serve --db kb \\\n"
        "    --workers 2   # trailing comment\n"
        "cli.py   python -m repro — the wizard\n"
        "python -m repro.other --flag\n"
        "```\n"
    )
    assert list(documented_commands(text)) == [
        (4, ["serve", "--db", "kb", "--workers", "2"])
    ]


def test_documented_command_lines_parse(capsys):
    seen, failures = set(), []
    for path in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        for number, argv in documented_commands(path.read_text()):
            serve = argv[:1] == ["serve"]
            seen.add(serve)
            parser = build_serve_parser() if serve else build_parser()
            try:
                parser.parse_args(argv[1:] if serve else argv)
            except SystemExit:
                error = capsys.readouterr().err.strip().splitlines()[-1]
                failures.append(f"{path.relative_to(ROOT)}:{number}: {error}")
    assert not failures, "\n".join(failures)
    assert seen == {True, False}, "the docs show both verbs; extraction broke"
