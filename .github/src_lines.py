"""Count the lines of src/ by kind: code, docstring, comment and blank.

    python3 .github/src_lines.py

Each physical line of every .py file under src/ gets one kind, read from
its tokens: code if any token other than a comment or a docstring touches
it; docstring if a string that is a statement of its own (a module, class
or function docstring) covers it; comment if it holds only a comment; blank
otherwise.  The last row is the total, which a change reports as its src/
delta.
"""

import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def line_kinds(path: str) -> dict:
    """The number of lines of each kind in one source file."""
    with open(path, "rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
        fh.seek(0)
        n_lines = len(fh.read().splitlines())
    kind = {}
    significant = [tok for tok in tokens if tok.type not in (tokenize.COMMENT, tokenize.NL)]
    for i, tok in enumerate(significant):
        if tok.type in _LAYOUT:
            continue
        lines = range(tok.start[0], tok.end[0] + 1)
        statement = significant[i - 1].type in _LAYOUT and significant[i + 1].type in (
            tokenize.NEWLINE, tokenize.ENDMARKER)
        if tok.type == tokenize.STRING and statement:
            for line in lines:
                kind.setdefault(line, "docstring")
        else:
            kind.update(dict.fromkeys(lines, "code"))
    for tok in tokens:
        if tok.type == tokenize.COMMENT:
            kind.setdefault(tok.start[0], "comment")
    counts = dict.fromkeys(KINDS, 0)
    for line in range(1, n_lines + 1):
        counts[kind.get(line, "blank")] += 1
    return counts


def main() -> int:
    paths = sorted(
        os.path.join(dirpath, name)
        for dirpath, _, names in os.walk(os.path.join(ROOT, "src"))
        for name in names
        if name.endswith(".py")
    )
    total = dict.fromkeys(KINDS, 0)
    print(f"{'file':<28}" + "".join(f"{kind:>10}" for kind in KINDS) + f"{'total':>10}")
    for path in paths:
        counts = line_kinds(path)
        for kind in KINDS:
            total[kind] += counts[kind]
        row = [counts[kind] for kind in KINDS] + [sum(counts.values())]
        print(f"{os.path.relpath(path, ROOT):<28}" + "".join(f"{n:>10}" for n in row))
    row = [total[kind] for kind in KINDS] + [sum(total.values())]
    print(f"{'total':<28}" + "".join(f"{n:>10}" for n in row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
