"""The README's examples, run as written."""

import pathlib
import re
import shlex

from click.testing import CliRunner

from stackext.cli import main

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(section: str, lang: str) -> str:
    # the first fenced block of the given language under a "## " heading
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


def test_command_line_walkthrough(tmp_path, monkeypatch):
    # each "$ stackext ..." line runs in one shared directory and must
    # print exactly the lines the README shows under it
    monkeypatch.chdir(tmp_path)
    sessions = _block("Command line", "text").strip().split("\n\n")
    assert [s.split()[2] for s in sessions] == ["gen", "stats", "solve", "verify"]
    for session in sessions:
        command, *expected = session.splitlines()
        assert command.startswith("$ stackext ")
        got = CliRunner().invoke(main, shlex.split(command)[2:])
        assert got.exit_code == 0, got.output
        assert got.output.splitlines() == expected, command


def test_library_quick_start(capsys):
    exec(_block("Library quick start", "python"), {})
    spine = capsys.readouterr().out
    assert spine.startswith("[") and spine.endswith("]\n")
