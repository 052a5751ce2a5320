"""Code size of each module: Python tokens and lines, without comments,
docstrings or layout.

    python3 tools/code_size.py [PATH ...]

Each PATH is a file or a directory searched for ``*.py`` (default:
``src/astr2``).  A token counts unless it is a comment, a string that forms
a statement on its own (a docstring), or layout (newline, indent, dedent,
end marker), so reformatting code does not change its size.  A code line is
a physical line that holds at least one counted token.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.NEWLINE,
    tokenize.NL,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
    tokenize.COMMENT,
}
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def code_size(path: Path) -> tuple[int, int]:
    """(code tokens, code lines) of one Python source file."""
    with path.open("rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    tokens = [t for t in tokens if t.type not in (tokenize.NL, tokenize.COMMENT)]
    count = 0
    lines: set[int] = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        if (
            tok.type == tokenize.STRING
            and (i == 0 or tokens[i - 1].type in _STATEMENT_START)
            and i + 1 < len(tokens)
            and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)
        ):
            continue  # docstring or other bare string statement
        count += 1
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return count, len(lines)


def main(argv: list[str]) -> int:
    roots = [Path(p) for p in argv] or [Path("src/astr2")]
    files: list[Path] = []
    for root in roots:
        files.extend(sorted(root.rglob("*.py")) if root.is_dir() else [root])
    total_tokens = total_lines = 0
    print(f"{'module':<32} {'tokens':>8} {'lines':>7}")
    for path in files:
        tokens, lines = code_size(path)
        total_tokens += tokens
        total_lines += lines
        print(f"{str(path):<32} {tokens:>8} {lines:>7}")
    print(f"{'total':<32} {total_tokens:>8} {total_lines:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
