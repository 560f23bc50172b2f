"""The README's examples, run as written and compared with the output shown."""

import re
import shlex
from pathlib import Path

import pytest

from cycleres.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w+)\n(.*?)^```$", README, re.S | re.M)


def _shell_examples():
    """(command, expected stdout lines) for each ``$ cycleres ...`` line of a text block."""
    examples = []
    for lang, body in BLOCKS:
        if lang != "text":
            continue
        for chunk in re.split(r"\n\s*\n", body):
            first, *shown = chunk.strip("\n").splitlines()
            if first.startswith("$ cycleres "):
                examples.append((first[2:], shown))
    return examples


EXAMPLES = _shell_examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 3
    assert sum(lang == "python" for lang, _ in BLOCKS) == 1


@pytest.mark.parametrize("command, shown", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_shell_example(command, shown, capsys):
    command, _, pipe = command.partition(" | ")
    assert main(shlex.split(command)[1:]) == 0
    lines = capsys.readouterr().out.splitlines()
    if pipe:
        tail = re.fullmatch(r"tail -(\d+)", pipe)
        assert tail, f"unsupported pipe {pipe!r}"
        lines = lines[-int(tail.group(1)) :]
    assert lines == shown


def test_library_example(capsys):
    [code] = [body for lang, body in BLOCKS if lang == "python"]
    # each print line carries the line it prints as a comment, optionally
    # followed by a space and a gloss
    expected = re.findall(r"^print\(.*#\s*(.+)$", code, re.M)
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(expected)
    for line, comment in zip(printed, expected):
        assert comment == line or comment.startswith(line + " "), (line, comment)
