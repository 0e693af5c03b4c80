"""README.md's examples, run as written: the quick-start snippet and the
`geolin check` report block print what the README shows."""

import re
from pathlib import Path

from geolin.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def _block(lang: str, after: str) -> str:
    """The first fenced `lang` block of README.md past the text `after`."""
    start = README.index(f"```{lang}\n", README.index(after)) + len(lang) + 4
    return README[start:README.index("```", start)]


def test_quick_start_prints_what_its_comments_say(capsys):
    snippet = _block("python", "## Quick start")
    exec(snippet, {})
    printed = capsys.readouterr().out.splitlines()
    # each print call's comment starts with the line it prints
    comments = [line.rsplit("# ", 1)[1] for line in snippet.splitlines()
                if line.startswith("print(")]
    assert len(printed) == len(comments) == 2
    for line, comment in zip(printed, comments):
        assert comment == line or comment.startswith(line + " ")


def test_check_example_prints_the_readme_report(capsys, monkeypatch):
    after = "The same check from the command line"
    command, *shown = _block("text", after).splitlines()
    assert command.startswith("$ geolin ")
    monkeypatch.chdir(ROOT)
    code = main(command.split()[2:])
    printed = capsys.readouterr().out.splitlines()

    def timeless(lines):
        return [line for line in lines if not line.startswith("elapsed:")]

    assert timeless(printed) == timeless(shown)
    assert len(printed) == len(shown)
    stated = re.search(r"Exit code (\d+)", README[README.index(command):])
    assert code == int(stated.group(1))
