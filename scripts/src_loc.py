"""Print the line counts of every module of src/laftr and their total.

    python3 scripts/src_loc.py

One line per module, then one for the total: the path, all lines, and code
lines. A code line holds a token of a statement that is not a docstring;
blank lines, comment-only lines and docstring lines are not code. A
docstring here is a statement made of one string literal alone, as
``tokenize`` splits the source. ``diff`` of two versions' outputs gives a
change's net lines per module.
"""

import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "laftr"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def code_lines(source: str) -> int:
    """Number of lines that hold a token of a statement other than a lone string literal."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NOT_CODE:
            continue
        if token.type not in (tokenize.NEWLINE, tokenize.ENDMARKER):
            statement.append(token)
            continue
        if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
            for part in statement:
                lines.update(range(part.start[0], part.end[0] + 1))
        statement = []
    return len(lines)


def main() -> None:
    total_all = total_code = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        n_all, n_code = len(source.splitlines()), code_lines(source)
        total_all += n_all
        total_code += n_code
        print(path.relative_to(ROOT), n_all, n_code)
    print("total", total_all, total_code)


if __name__ == "__main__":
    main()
