#!/usr/bin/env python3
"""Flag Obs instruments that nothing reads.

Lists every string literal that a file under lib/ registers through
Obs.{counter,histogram,gauge,series}, and fails (exit 1) when a name
occurs nowhere but on the lines that register it.  Readers are searched in the code and CI of the checkout:
.ml and .py files under lib, bin, bench, test and ledger, and the
workflow files.  Names built by concatenation are out of scope.

Usage, from the root of a checkout:  python3 tool/lint/unread_instruments.py
"""

import pathlib
import re
import sys

REGISTER = re.compile(
    r'\bObs\.(?:counter|histogram|gauge|series)'
    r'\s+(?:[a-z_][\w.]*\s+)?"([^"]+)"'
)
READER_DIRS = ("lib", "bin", "bench", "test", "ledger")
READER_SUFFIXES = (".ml", ".py")


def source_lines(root):
    paths = [
        p
        for d in READER_DIRS
        for p in sorted((root / d).rglob("*"))
        if p.suffix in READER_SUFFIXES and "_build" not in p.parts
    ]
    paths += sorted((root / ".github" / "workflows").glob("*.yml"))
    for path in paths:
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            yield path.relative_to(root), number, line


def main():
    root = pathlib.Path.cwd()
    lines = list(source_lines(root))
    registered = {}
    for path, number, line in lines:
        if path.parts[0] == "lib":
            for name in REGISTER.findall(line):
                registered.setdefault(name, set()).add((path, number))
    unread = []
    for name, sites in sorted(registered.items()):
        pattern = re.compile(r"(?<![\w.])" + re.escape(name) + r"(?![\w.])")
        readers = [
            (path, number)
            for path, number, line in lines
            if (path, number) not in sites and pattern.search(line)
        ]
        status = "ok" if readers else "UNREAD"
        print(f"{status:6} {name}  ({len(readers)} reader line(s))")
        if not readers:
            unread.append((name, sites))
    for name, sites in unread:
        for path, number in sorted(sites):
            print(f"{path}:{number}: instrument {name!r} is registered but never read")
    if not registered:
        print("no registered instruments found: is this the root of a checkout?")
        return 1
    return 1 if unread else 0


if __name__ == "__main__":
    sys.exit(main())
