from __future__ import annotations

from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "tgrkit"


def test_source_lines_fit_in_100_characters():
    long_lines = [
        f"{path.name}:{n}"
        for path in sorted(SRC.glob("*.py"))
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if len(line) > 100
    ]
    assert not long_lines
