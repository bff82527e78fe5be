"""Count the code lines of Python files: lines holding the start of a token,
leaving out comments, blank lines and docstrings.

    python3 tools/count_lines.py              # src/bitension, with a total
    python3 tools/count_lines.py FILE_OR_DIR ...

A docstring is a statement made of nothing but a string literal, so it is
left out wherever it stands.  A directory counts its ``*.py`` files, not
recursing.  Prints one line per file and the total last.
"""
import argparse
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENCODING, tokenize.ENDMARKER}
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                    tokenize.ENCODING}


def code_lines(path):
    """The number of code lines of one Python file."""
    with open(path, "rb") as source:
        tokens = [t for t in tokenize.tokenize(source.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for k, tok in enumerate(tokens):
        if tok.type in _SKIP:
            continue
        if (tok.type == tokenize.STRING
                and tokens[k - 1].type in _STATEMENT_START
                and tokens[k + 1].type == tokenize.NEWLINE):
            continue  # a docstring
        lines.add(tok.start[0])
    return len(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*",
                        default=[str(Path(__file__).resolve().parents[1]
                                     / "src" / "bitension")])
    args = parser.parse_args(argv)
    files = []
    for name in args.paths:
        path = Path(name)
        files.extend(sorted(path.glob("*.py")) if path.is_dir() else [path])
    total = 0
    for path in files:
        count = code_lines(path)
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
