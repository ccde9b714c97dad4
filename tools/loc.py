#!/usr/bin/env python3
"""Count the source lines of the library, per src/ subdirectory.

A counted line is a non-blank line of a .cc or .h file that is not a
comment line: after leading whitespace it does not start with "//" or
"/*", nor with a block-comment continuation "*" followed by a space,
"/" or the end of the line. A code line that starts with a
dereference ("*nnz = count;") is counted. This is the rule ROADMAP.md
and CHANGES.md quote "src/ counted lines" by.

    python3 tools/loc.py            # src/ of this checkout
    python3 tools/loc.py path/src   # any other tree
"""
import os
import re
import sys

COMMENT_LINE = re.compile(r"\s*(//|/\*|\*(\s|/|$))")
SUFFIXES = (".cc", ".h")


def counted_lines(path):
    with open(path, encoding="utf-8") as f:
        return sum(1 for line in f
                   if line.strip() and not COMMENT_LINE.match(line))


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = (sys.argv[1] if len(sys.argv) > 1 else
            os.path.join(here, os.pardir, "src"))
    per_dir = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            if name.endswith(SUFFIXES):
                top = os.path.relpath(dirpath, root).split(os.sep)[0]
                per_dir[top] = (per_dir.get(top, 0) +
                                counted_lines(os.path.join(dirpath, name)))
    width = max([len(d) for d in per_dir] + [5])
    for top in sorted(per_dir):
        print(f"{top:<{width}} {per_dir[top]:>6}")
    print(f"{'total':<{width}} {sum(per_dir.values()):>6}")


if __name__ == "__main__":
    main()
