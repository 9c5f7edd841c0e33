#!/usr/bin/env python3
"""Fails when src/ defines a function that no shipped binary keeps.

    python3 tools/check_unreached.py [--build-dir DIR] [--jobs N]

Run from the root of a checkout. The shipped binaries are the bench_*
programs, the examples and perfbench. The script configures two trees
under DIR (default build-unreached): the main tree and perfbench/, both
at -O0 -fno-inline -ffunction-sections and linked with -Wl,--gc-sections,
so that the linker drops every function no binary calls. It builds the
bench and example targets of the first and perfbench of the second.

It then lists every strong (nm type T) corropt:: symbol defined in the
main tree's src/ static libraries that no shipped binary still contains.
Exit 0 when that list is empty, 1 (printing it, one symbol a line)
otherwise. Inline and template functions are weak, so they are not
checked here; file-local helpers are not either.
"""

import argparse
import glob
import os
import subprocess
import sys

FLAGS = "-O0 -fno-inline -ffunction-sections"
LINK_FLAGS = "-Wl,--gc-sections"


def configure_and_build(source, build, targets, jobs):
    subprocess.run(["cmake", "-S", source, "-B", build, "-G", "Ninja",
                    "-DCMAKE_BUILD_TYPE=Debug",
                    f"-DCMAKE_CXX_FLAGS={FLAGS}",
                    f"-DCMAKE_EXE_LINKER_FLAGS={LINK_FLAGS}"],
                   check=True, stdout=subprocess.DEVNULL)
    subprocess.run(["cmake", "--build", build, "-j", str(jobs), "--target",
                    *targets], check=True, stdout=subprocess.DEVNULL)


def defined_symbols(path):
    """Yields (nm type, demangled name) for each symbol `path` defines."""
    out = subprocess.run(["nm", "-C", "--defined-only", path], check=True,
                         capture_output=True, text=True).stdout
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and len(parts[1]) == 1:
            yield parts[1], parts[2]


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
        defined.update(name for kind, name in defined_symbols(library)
                       if kind == "T" and name.startswith("corropt::"))
    kept = set()
    for binary in shipped_binaries(main_tree, perf_tree):
        kept.update(name for _, name in defined_symbols(binary))

    unreached = sorted(defined - kept)
    for name in unreached:
        print(name)
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main())
