#!/usr/bin/env python3
"""Count the code lines of each module under a package directory (default
src/quasicross) and their total.

A line counts if it holds a token other than a comment, a line break, an
indent or dedent, or a docstring; a docstring is a statement that is a lone
string.  A token spanning several lines counts on each.  Run from the repo
root: python3 scripts/code_lines.py [package_dir]"""

import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    with path.open("rb") as f:
        skip = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL}
        tokens = [t for t in tokenize.tokenize(f.readline) if t.type not in skip]
    lines: set[int] = set()
    for i, tok in enumerate(tokens):
        before = tokens[i - 1].type if i else tokenize.NEWLINE
        lone_string = tok.type == tokenize.STRING and before in LAYOUT and tokens[i + 1].type in LAYOUT
        if tok.type not in LAYOUT and not lone_string:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> None:
    root = Path(argv[0] if argv else "src/quasicross")
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
