#!/usr/bin/env python3
"""Fails when src/ defines a function that no shipped binary keeps.

    python3 tools/check_unreached.py [--build-dir DIR] [--jobs N]

Run from the root of a checkout. The shipped binaries are the bench_*
programs, the examples and perfbench. The script configures two trees
under DIR (default build-unreached): the main tree and perfbench/, both
at -O0 -fno-inline -fkeep-inline-functions -ffunction-sections and linked
with -Wl,--gc-sections, so that every inline function is compiled into
each object that sees it and the linker drops every function no binary
calls. It builds the bench and example targets of the first and
perfbench of the second.

It then lists two kinds of corropt:: function that no shipped binary
still contains:

  - every strong (nm type T) symbol defined in the main tree's src/
    static libraries;
  - every weak (nm type W) symbol, an inline function or a template
    instance, that some object of either tree defines and whose debug
    line lies in a src/ file. Special members the compiler defines
    (implicit ones, whose line is the class head, and those declared
    `= default`) and lambda bodies (reported through the function that
    holds them) are skipped.

Exit 0 when that list is empty, 1 (printing it, one symbol a line)
otherwise. File-local helpers are not checked.
"""

import argparse
import glob
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

FLAGS = "-O0 -fno-inline -fkeep-inline-functions -ffunction-sections"
LINK_FLAGS = "-Wl,--gc-sections"
SRC = os.path.abspath("src") + os.sep


def configure_and_build(source, build, targets, jobs):
    subprocess.run(["cmake", "-S", source, "-B", build, "-G", "Ninja",
                    "-DCMAKE_BUILD_TYPE=Debug",
                    f"-DCMAKE_CXX_FLAGS={FLAGS}",
                    f"-DCMAKE_EXE_LINKER_FLAGS={LINK_FLAGS}"],
                   check=True, stdout=subprocess.DEVNULL)
    subprocess.run(["cmake", "--build", build, "-j", str(jobs), "--target",
                    *targets], check=True, stdout=subprocess.DEVNULL)


def defined_symbols(path, lines=False):
    """Yields (nm type, demangled name, file:line or "") per definition."""
    command = ["nm", "-C", "--defined-only"] + (["-l"] if lines else [])
    out = subprocess.run(command + [path], check=True, capture_output=True,
                         text=True).stdout
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and len(parts[1]) == 1:
            name, _, where = parts[2].partition("\t")
            yield parts[1], name, where


def stem(path):
    return os.path.splitext(os.path.basename(path))[0]


def shipped_binaries(main_tree, perf_tree):
    """One bench_* per bench/bench_*.cc, one example per examples/*.cpp."""
    binaries = [os.path.join(main_tree, "bench", stem(path))
                for path in glob.glob("bench/bench_*.cc")]
    binaries += [os.path.join(main_tree, "examples", stem(path))
                 for path in glob.glob("examples/*.cpp")]
    binaries.append(os.path.join(perf_tree, "perfbench"))
    return sorted(binaries)


def compiler_written(name, path, line, source_lines):
    """True for a special member the compiler defines: its line is the
    class head (implicit) or says `= default`."""
    match = re.match(r"(.*?)::(~?\w+|operator==?)\(", name)
    if not match:
        return False
    owner = re.sub(r"<.*>$", "", match.group(1)).rsplit("::", 1)[-1]
    if match.group(2) not in (owner, "~" + owner) and \
            not match.group(2).startswith("operator"):
        return False
    if path not in source_lines:
        with open(path, encoding="utf-8") as handle:
            source_lines[path] = handle.read().splitlines()
    text = source_lines[path][line - 1]
    return "= default" in text or re.search(
        rf"\b(struct|class)\s+{re.escape(owner)}\b", text) is not None


def definition_sites(listing):
    """(name, path, line) per weak corropt:: function of one object
    whose debug line lies in src/.

    nm -l can pair a header's line number with the path of the .cc file
    that includes it: the C1 alias of an inline constructor is listed at
    penalty.cc:41 while its C2 twin says penalty.h:41. A function that
    one object lists at several places is defined in the header among
    them, so the header entry wins."""
    sites = {}
    for kind, name, where in listing:
        # nm -l may append " (discriminator N)" to the line number; the
        # perfbench tree reaches src/ as perfbench/../src/.
        match = re.match(r"(.*):(\d+)", where)
        if kind != "W" or not name.startswith("corropt::") or \
                "{lambda(" in name or not match:
            continue
        path, line = os.path.normpath(match.group(1)), match.group(2)
        if path.startswith(SRC) and (name not in sites or path.endswith(".h")):
            sites[name] = (path, int(line))
    return [(name, path, line) for name, (path, line) in sites.items()]


def weak_src_functions(objects, jobs):
    """Weak corropt:: functions whose debug line lies in src/."""
    found, source_lines = set(), {}
    with ThreadPoolExecutor(jobs) as pool:
        listings = list(pool.map(
            lambda path: list(defined_symbols(path, lines=True)), objects))
    for listing in listings:
        for name, path, line in definition_sites(listing):
            if not compiler_written(name, path, line, source_lines):
                found.add(name)
    return found


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default="build-unreached")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    args = parser.parse_args()

    main_tree = os.path.join(args.build_dir, "main")
    perf_tree = os.path.join(args.build_dir, "perfbench")
    configure_and_build(".", main_tree, ["bench/all", "examples/all"],
                        args.jobs)
    configure_and_build("perfbench", perf_tree, ["perfbench"], args.jobs)

    defined = set()
    for library in glob.glob(os.path.join(main_tree, "src", "**", "*.a"),
                             recursive=True):
        defined.update(name for kind, name, _ in defined_symbols(library)
                       if kind == "T" and name.startswith("corropt::"))
    objects = [path for tree in (main_tree, perf_tree)
               for path in glob.glob(os.path.join(tree, "**", "*.o"),
                                     recursive=True)]
    defined |= weak_src_functions(objects, args.jobs)
    kept = set()
    for binary in shipped_binaries(main_tree, perf_tree):
        kept.update(name for _, name, _ in defined_symbols(binary))

    unreached = sorted(defined - kept)
    for name in unreached:
        print(name)
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main())
