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

    python3 tools/check_unreached.py --fields

A text scan that builds nothing: it lists every field of a src/ struct
named *Params, *Config, *Spec or *Options that no bench/, examples/,
perfbench/ or src/ file sets, as Struct::field, one a line, and exits 1
if there is any (0 otherwise). A field counts as set where some file
assigns to `x.f` or `x.f.g` (`=` or a compound assignment; `->` works
like `.`), calls a container mutator on it (`x.f.emplace_back(...)`),
or names it in a designated initializer (`{.f = ...}`). Matching is by
field name, so one set site covers every struct with a field of that
name. A field whose type is another scanned struct is not listed
itself: it is set through its own fields, which are. A config field
nothing sets is a constant: name it next to its reader.
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


CONFIG_STRUCT = re.compile(
    r"\bstruct\s+(\w+(?:Params|Config|Spec|Options))\s*(?:final\s*)?"
    r"(?::[^{;]*)?\{")
SETTER_DIRS = ("bench", "examples", "perfbench", "src")
MUTATORS = ("push_back", "emplace_back", "insert", "emplace", "assign",
            "resize", "clear", "erase", "append")
NON_FIELD = re.compile(r"^(?:static|using|friend|typedef|struct|class|enum|"
                       r"template)\b")


def source_files(directory):
    for root, _, files in os.walk(directory):
        for name in sorted(files):
            if name.endswith((".h", ".cc", ".cpp")):
                yield os.path.join(root, name)


def strip_comments_and_strings(text):
    """The code of one file with comments, string and character literals
    blanked out, so neither can read as a declaration or an assignment."""
    return re.sub(
        r'//[^\n]*|/\*.*?\*/|R"(\w*)\(.*?\)\1"|"(?:\\.|[^"\\\n])*"'
        r"|'(?:\\.|[^'\\\n])*'",
        lambda m: " " if m.group(0).startswith("/") else '""',
        text, flags=re.DOTALL)


def struct_body(code, start):
    """The text between the brace that opens at `start` and its match."""
    depth = 0
    for i in range(start, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return code[start + 1:i]
    return code[start + 1:]


def member_statements(body):
    """The top-level statements of a struct body; a member function's
    body (a brace block not followed by `;`) ends its statement and is
    dropped with it."""
    body = re.sub(r"\b(?:public|private|protected)\s*:(?!:)", " ", body)
    statements, current, depth = [], [], 0
    for i, char in enumerate(body):
        if char == "{":
            depth += 1
        elif char == "}":
            depth -= 1
            if depth == 0 and not body[i + 1:].lstrip().startswith((";", ",")):
                current = []
                continue
        if char == ";" and depth == 0:
            statements.append("".join(current).strip())
            current = []
        else:
            current.append(char)
    return [s for s in statements if s]


def declared_fields(statement):
    """(type, name) per data member a statement declares; [] when it is
    a function, an alias, a static or a nested type."""
    if NON_FIELD.match(statement):
        return []
    declarator = re.split(r"=|\{", statement, maxsplit=1)[0]
    if "(" in re.sub(r"<[^<>]*(?:<[^<>]*>[^<>]*)*>", "", declarator):
        return []
    match = re.match(r"(.*?)\b(\w+)\s*(?:\[[^\]]*\]\s*)?$", declarator.strip(),
                     re.DOTALL)
    return [(match.group(1).strip(), match.group(2))] if match else []


def config_fields():
    """(struct, field, type) per data member of every scanned struct."""
    fields = []
    for path in source_files("src"):
        with open(path, encoding="utf-8") as handle:
            code = strip_comments_and_strings(handle.read())
        for match in CONFIG_STRUCT.finditer(code):
            for statement in member_statements(
                    struct_body(code, match.end() - 1)):
                fields += [(match.group(1), name, kind)
                           for kind, name in declared_fields(statement)]
    return fields


def set_field_names():
    """Every name that some file of SETTER_DIRS assigns, mutates or
    designates as `.name`."""
    # A lookahead, so `a.b.c = 1` sets both b and c.
    setter = re.compile(
        r"(?=(?:\.|->)\s*(\w+)(?:\s*(?:\.|->)\s*\w+|\s*\[[^\]]*\])*\s*"
        r"(?:[-+*/%|&^]|<<|>>)?=(?!=)"
        r"|(?:\.|->)\s*(\w+)\s*\.\s*(?:" + "|".join(MUTATORS) + r")\s*\()")
    names = set()
    for directory in SETTER_DIRS:
        for path in source_files(directory):
            with open(path, encoding="utf-8") as handle:
                code = strip_comments_and_strings(handle.read())
            for match in setter.finditer(code):
                names.add(match.group(1) or match.group(2))
    return names


def unset_config_fields():
    fields = config_fields()
    structs = {struct for struct, _, _ in fields}
    names = set_field_names()
    return sorted(f"{struct}::{name}" for struct, name, kind in fields
                  if name not in names and
                  re.sub(r"^.*::", "", kind) not in structs)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default="build-unreached")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    parser.add_argument("--fields", action="store_true",
                        help="list config fields nothing sets; no build")
    args = parser.parse_args()

    if args.fields:
        unset = unset_config_fields()
        for field in unset:
            print(field)
        return 1 if unset else 0

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
