#!/usr/bin/env python3
"""Fails when a document cites a BENCH_*.json that is not in the repository.

    python3 tools/check_bench_citations.py

Run from the root of a git checkout. Every tracked Markdown file except
CHANGES.md (the append-only history, which records what each change
claimed at the time) is split into paragraphs at blank lines. A paragraph
may cite a BENCH_<name>.json that is not tracked at the repository root
only when it also names the bench binary that writes it (a `bench_...`
name) and no sentence citing that file calls it checked in. Exit 0 when
every citation holds, 1 (listing the offenders) otherwise.
"""

import os
import re
import subprocess
import sys

CITATION = re.compile(r"BENCH_[A-Za-z0-9_]+\.json")
WRITER = re.compile(r"\bbench_[a-z0-9_]+")
CHECKED_IN = re.compile(r"checked[- ]in", re.IGNORECASE)
SENTENCE_END = re.compile(r"(?<=[.!?])\s+")
EXEMPT = {"CHANGES.md"}


def tracked_files():
    out = subprocess.run(["git", "ls-files"], check=True,
                         capture_output=True, text=True).stdout
    return out.splitlines()


def paragraphs(path):
    """Yields (first line number, text) for each blank-line-separated block."""
    block, start = [], 0
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            if line.strip():
                if not block:
                    start = number
                block.append(line)
            elif block:
                yield start, "".join(block)
                block = []
    if block:
        yield start, "".join(block)


def called_checked_in(text, citation):
    """True when a sentence of `text` that cites `citation` says checked in."""
    return any(citation in sentence and CHECKED_IN.search(sentence)
               for sentence in SENTENCE_END.split(text))


def offenders(files):
    present = {name for name in files if "/" not in name}
    for path in sorted(f for f in files if f.endswith(".md")):
        if path.rsplit("/", 1)[-1] in EXEMPT or not os.path.exists(path):
            continue
        for line, text in paragraphs(path):
            missing = sorted({c for c in CITATION.findall(text)
                              if c not in present})
            if WRITER.search(text):
                missing = [c for c in missing
                           if called_checked_in(text, c)]
            if missing:
                yield path, line, missing


def main():
    found = list(offenders(tracked_files()))
    for path, line, missing in found:
        print(f"{path}:{line}: cites {', '.join(missing)}, which is not "
              "checked in; name the bench binary that writes it",
              file=sys.stderr)
    if found:
        return 1
    print("every BENCH_*.json citation is checked in or names its writer")
    return 0


if __name__ == "__main__":
    sys.exit(main())
