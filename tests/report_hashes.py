"""Print `<cfg> <content_hash>` for every packaged scenario config, or check
them against a file of such lines.

A refactor that leaves the numerics alone must leave every line of this
output unchanged.  Run from a source checkout:

    PYTHONPATH=src python tests/report_hashes.py
    PYTHONPATH=src python tests/report_hashes.py --check tests/report_hashes.txt

tests/report_hashes.txt holds the current hashes.  --check prints the same
lines, marks every hash that differs from the file's, and ends with one
line that names every config whose hash moved or that only one side has;
it exits 1 if there is any, and 0 otherwise.

Output to a reader that stops early (`| head`) is dropped, not raised, and
the exit status is that of a full run.
"""

import sys

from report_series import emit, packaged_payloads

from gevreyflow import content_hash


def packaged_hashes():
    """Yield (config name, content hash) for every packaged config, by name."""
    for name, payload in packaged_payloads():
        yield name, content_hash(payload)


def check(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        expected = dict(line.split() for line in fh if line.strip())
    moved, seen = [], set()
    for name, digest in packaged_hashes():
        seen.add(name)
        if expected.get(name) == digest:
            emit(f"{name} {digest}")
            continue
        moved.append(name)
        emit(f"{name} {digest} moved, {path} has {expected.get(name, 'no line')}")
    missing = sorted(set(expected) - seen)
    if missing:
        emit(f"in {path} but not packaged: {', '.join(missing)}")
    if moved or missing:
        emit(f"content hashes moved: {', '.join(moved + missing)}")
        return 1
    emit(f"content hashes: all {len(seen)} equal {path}")
    return 0


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--check":
        return check(argv[1])
    if argv:
        print("usage: report_hashes.py [--check FILE]", file=sys.stderr)
        return 2
    for name, digest in packaged_hashes():
        emit(f"{name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
