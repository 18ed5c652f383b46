"""README.md against the code it documents: well-formed tables, and every
training setting and config key a caller may change named in it."""

import dataclasses
import re
from pathlib import Path

from slowfast_se.engine import SlowFastConfig
from slowfast_se.training.loop import TrainSchedule

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def cells(line):
    """A table row's cells; a pipe inside backticks or escaped is text."""
    text = re.sub(r"`[^`]*`|\\\|", "x", line.strip())
    return text.strip("|").split("|")


def tables(text):
    """Each Markdown table as (line number of its header, its lines)."""
    found, start = [], None
    lines = text.splitlines() + [""]
    for i, line in enumerate(lines):
        if line.startswith("|") and start is None:
            start = i
        elif not line.startswith("|") and start is not None:
            found.append((start + 1, lines[start:i]))
            start = None
    return found


def test_cells_ignore_pipes_in_code_and_escapes():
    assert cells("| `a|b` | c \\| d |") == [" x ", " c x d "]


def test_every_table_row_has_as_many_cells_as_its_header():
    found = tables(README)
    assert found
    for line_no, rows in found:
        width = len(cells(rows[0]))
        assert re.fullmatch(r"\|(\s*:?-+:?\s*\|)+", rows[1]), f"line {line_no + 1}"
        for k, row in enumerate(rows[1:], start=1):
            assert len(cells(row)) == width, f"line {line_no + k}: {row}"


def test_every_schedule_field_is_named():
    missing = [f.name for f in dataclasses.fields(TrainSchedule) if f"`{f.name}`" not in README]
    assert missing == []


def test_every_config_field_is_named():
    missing = [f.name for f in dataclasses.fields(SlowFastConfig) if f"`{f.name}`" not in README]
    assert missing == []
