#!/usr/bin/env python3
"""Fails when any test binary registers the same test name twice.

Runs `cargo test --workspace [ARGS...] -- --list` and groups the listed
tests by the binary cargo announces before them ("Running ..." or
"Doc-tests ..."). A name listed twice in one binary means a macro emitted
two test functions (for example a `#[test]` attribute stacked on a
`proptest!` fn that already registers itself), so the suite runs the case
twice and any copies that share on-disk state race each other.

Usage, from the repository root:

    python3 tools/check_duplicate_tests.py [--locked ...]
"""

import collections
import subprocess
import sys


def duplicates(listing):
    """(binary, test name, count) for every name listed more than once."""
    counts = collections.defaultdict(collections.Counter)
    binary = None
    for line in listing.splitlines():
        stripped = line.strip()
        if stripped.startswith(("Running ", "Doc-tests ")):
            binary = stripped
        elif binary and stripped.endswith((": test", ": bench")):
            counts[binary][stripped.rsplit(": ", 1)[0]] += 1
    return [
        (binary, name, n)
        for binary, names in counts.items()
        for name, n in sorted(names.items())
        if n > 1
    ]


def main():
    cmd = ["cargo", "test", "--workspace", *sys.argv[1:], "--", "--list"]
    run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        sys.exit(f"`{' '.join(cmd)}` failed with status {run.returncode}")
    found = duplicates(run.stdout)
    for binary, name, n in found:
        print(f"{binary}: `{name}` registered {n} times")
    if found:
        sys.exit(f"{len(found)} duplicate test registrations")
    print("no test binary registers a name twice")


if __name__ == "__main__":
    main()
