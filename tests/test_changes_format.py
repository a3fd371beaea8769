"""ROADMAP ground rule: a CHANGES.md entry is at most 15 lines of 100 columns."""

import re
from pathlib import Path


def test_entries_from_pr_21_on_are_short():
    text = (Path(__file__).parent.parent / "CHANGES.md").read_text(encoding="utf-8")
    entries = re.split(r"^(?=- PR \d+)", text, flags=re.MULTILINE)
    for entry in entries:
        number = re.match(r"- PR (\d+)", entry)
        if number and int(number.group(1)) >= 21:
            lines = entry.rstrip("\n").split("\n")
            assert len(lines) <= 15, f"PR {number.group(1)}: {len(lines)} lines"
            assert max(map(len, lines)) <= 100, f"PR {number.group(1)}: line too wide"
