#!/usr/bin/env python3
"""Reachability gate: every library function a tool links, or an allowlist.

Build the project and perfbench/ with

    CXXFLAGS="-O0 -fno-inline -ffunction-sections -fdata-sections"
    LDFLAGS="-Wl,--gc-sections"

so the linker drops every function section no root reaches. A strong
(`T`) symbol of a libmg_*.a archive that none of the root binaries still
defines is unreached. The gate fails when

  * an unreached function is not on the allowlist,
  * an allowlisted function is reached after all, or
  * an allowlisted function is no longer defined in any archive,

so the allowlist can neither hide new dead code nor go stale.

The allowlist holds one demangled name per line, grouped under a class
header in brackets ("[numerics]"). An entry outside a known class is an
error. Blank lines and lines starting with '#' are ignored.

    python3 tools/reachability.py --allowlist tools/reachability_allowlist.txt \
        --archives build/src/*/libmg_*.a --roots build/tools/mgprof ...
"""

import argparse
import collections
import subprocess
import sys

CLASSES = ("numerics", "oracle", "test-hooks", "readers")


def nm_lines(path, *flags):
    out = subprocess.run(["nm", "-C", "--defined-only", *flags, path],
                         check=True, capture_output=True, text=True).stdout
    return out.splitlines()


def archive_functions(archives):
    """Maps every strong text symbol to the object that defines it."""
    defined = {}
    for archive in archives:
        obj = None
        for line in nm_lines(archive, "-g"):
            if line.endswith(":"):
                obj = line[:-1]
                continue
            parts = line.split(" ", 2)
            if len(parts) == 3 and parts[1] == "T":
                defined[parts[2]] = obj
    return defined


def root_symbols(roots):
    names = set()
    for root in roots:
        for line in nm_lines(root):
            parts = line.split(" ", 2)
            if len(parts) == 3:
                names.add(parts[2])
    return names


def read_allowlist(path):
    entries, errors, cls = {}, [], None
    with open(path, encoding="utf-8") as f:
        for number, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                cls = line[1:-1]
                if cls not in CLASSES:
                    errors.append(f"{path}:{number}: unknown class {line}")
                continue
            if cls not in CLASSES:
                errors.append(f"{path}:{number}: entry outside a known "
                              f"class: {line}")
            entries[line] = cls
    return entries, errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--allowlist", required=True)
    parser.add_argument("--archives", nargs="+", required=True)
    parser.add_argument("--roots", nargs="+", required=True)
    args = parser.parse_args()

    defined = archive_functions(args.archives)
    reached = root_symbols(args.roots)
    allowed, errors = read_allowlist(args.allowlist)

    unreached = {name: obj for name, obj in defined.items()
                 if name not in reached}
    by_object = collections.defaultdict(lambda: [0, 0])
    for name, obj in defined.items():
        by_object[obj][0] += 1
        by_object[obj][1] += name not in reached

    for name in sorted(unreached, key=lambda n: (unreached[n], n)):
        tag = allowed.get(name)
        print(f"{unreached[name]}\t{name}" + (f"\t[{tag}]" if tag else ""))
        if tag is None:
            errors.append(f"unreached and not allowlisted: {name}")
    for name in sorted(allowed):
        if name not in defined:
            errors.append(f"allowlisted but not defined: {name}")
        elif name not in unreached:
            errors.append(f"allowlisted but reached: {name}")

    dead = sorted(obj for obj, (total, missed) in by_object.items()
                  if total == missed)
    print(f"{len(unreached)} of {len(defined)} functions unreached; "
          f"{len(dead)} objects reached by nothing: {' '.join(dead)}")
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
