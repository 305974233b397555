#!/usr/bin/env python3
"""Size of the package source: lines and code tokens of src/.

Lines are physical lines, as `wc -l` counts them.  Code tokens are the
tokens of Python's `tokenize`, except ENCODING, COMMENT, NL, NEWLINE,
INDENT, DEDENT and ENDMARKER, so comments, docstrings' line breaks and
layout do not count but every name, operator and literal does.
"""

import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
LAYOUT = {
    tokenize.ENCODING,
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def size(path: Path) -> tuple[int, int]:
    """(lines, code tokens) of one Python file."""
    with path.open("rb") as fh:
        lines = fh.read().count(b"\n")
        fh.seek(0)
        tokens = sum(tok.type not in LAYOUT for tok in tokenize.tokenize(fh.readline))
    return lines, tokens


def run():
    total_lines = total_tokens = 0
    for path in sorted(SRC.rglob("*.py")):
        lines, tokens = size(path)
        total_lines += lines
        total_tokens += tokens
        print(f"{lines:6d} {tokens:7d}  {path.relative_to(SRC)}")
    print(f"{total_lines:6d} {total_tokens:7d}  src/ (lines, code tokens)")
    return 0


if __name__ == "__main__":
    sys.exit(run())
