"""The docs ratchet: the prose may shrink, never grow.

DESIGN.md and EXPERIMENTS.md each have a byte ceiling, and every
CHANGES.md entry (one ``- PR N …`` line) numbered from
:data:`FIRST_CAPPED_ENTRY` on is at most :data:`ENTRY_CEILING` bytes;
the entries before it were written before the cap and stay as they are.
Like the surface probe's allowlists the ceilings only go down: lower one
when a file shrinks, and a change that must raise one says why in
CHANGES.md.  Run it alone with::

    PYTHONPATH=src python -m pytest tests/test_doc_budget.py
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: File -> its byte ceiling.
CEILINGS = {
    "DESIGN.md": 123_049,
    "EXPERIMENTS.md": 248_720,
}
ENTRY_CEILING = 2_000
FIRST_CAPPED_ENTRY = 40
ENTRY = re.compile(r"- PR (\d+)\b")


@pytest.mark.parametrize("name", sorted(CEILINGS))
def test_file_stays_within_its_ceiling(name):
    size = len((ROOT / name).read_bytes())
    assert size <= CEILINGS[name], (
        f"{name} is {size} bytes, over its {CEILINGS[name]}-byte ceiling"
    )


def test_each_capped_changes_entry_stays_short():
    lines = (ROOT / "CHANGES.md").read_text(encoding="utf-8").splitlines()
    over = [
        f"PR {m.group(1)}: {len(line.encode())} bytes"
        for line in lines
        if (m := ENTRY.match(line))
        and int(m.group(1)) >= FIRST_CAPPED_ENTRY
        and len(line.encode()) > ENTRY_CEILING
    ]
    assert not over, f"CHANGES entries over {ENTRY_CEILING} bytes: {over}"
