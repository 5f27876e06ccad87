"""Every `$ scalelaw ...` transcript in README.md matches the CLI's output."""

import re
import shlex
from pathlib import Path

import pytest

from scalelaw.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
# a fenced block whose first line is a `$ scalelaw` command; the rest is its stdout
TRANSCRIPT = re.compile(r"^```\n\$ scalelaw ([^\n]*)\n(.*?)^```$", re.MULTILINE | re.DOTALL)
TRANSCRIPTS = TRANSCRIPT.findall(README.read_text())


def test_readme_has_transcripts():
    assert len(TRANSCRIPTS) >= 3


@pytest.mark.parametrize("command, expected", TRANSCRIPTS, ids=[c for c, _ in TRANSCRIPTS])
def test_readme_transcript(capsys, monkeypatch, command, expected):
    monkeypatch.delenv("SCALELAW_SEED", raising=False)
    assert main(shlex.split(command)) == 0
    assert capsys.readouterr().out == expected
