#!/usr/bin/env python3
"""Check that the documented and the implemented SPIV_* variables agree.

Collects every "SPIV_*" string literal in the C++ sources under src/, bench/
and examples/, and every variable row of README.md's "Environment
variables" table, and fails unless the two sets are equal.

    python3 tests/check_env_docs.py [REPO_ROOT]
"""
import pathlib
import re
import sys

LITERAL = re.compile(r'"(SPIV_[A-Z0-9_]+)"')
ROW = re.compile(r"^\|\s*`(SPIV_[A-Z0-9_]+)`\s*\|")
SOURCE_SUFFIXES = {".cpp", ".hpp", ".h", ".cc"}


def code_variables(root):
    found = set()
    for top in ("src", "bench", "examples"):
        for path in (root / top).rglob("*"):
            if path.suffix in SOURCE_SUFFIXES:
                found.update(LITERAL.findall(path.read_text(encoding="utf-8")))
    return found


def documented_variables(root):
    lines = (root / "README.md").read_text(encoding="utf-8").splitlines()
    try:
        start = lines.index("## Environment variables")
    except ValueError:
        sys.exit('README.md has no "## Environment variables" section')
    found = set()
    for line in lines[start + 1:]:
        if line.startswith("## "):
            break
        match = ROW.match(line)
        if match:
            found.add(match.group(1))
    return found


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else
                        pathlib.Path(__file__).resolve().parent.parent)
    code = code_variables(root)
    docs = documented_variables(root)
    for name in sorted(code - docs):
        print(f"read in code but missing from README's table: {name}")
    for name in sorted(docs - code):
        print(f"in README's table but read nowhere in code: {name}")
    if code != docs:
        return 1
    print(f"{len(code)} SPIV_* variables, code and README agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
