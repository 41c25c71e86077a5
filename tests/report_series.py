"""Dump the report payloads of every packaged config, or compare two dumps.

A change that reorders floating-point work moves the content hashes but
must keep every report series within 1e-12 of its largest magnitude.
Dump the payloads before and after the change, then compare:

    PYTHONPATH=src python tests/report_series.py dump OUT.json
    python tests/report_series.py compare BEFORE.json AFTER.json

dump prints one `<cfg> <content_hash>` line per packaged config, by name:
the lines of tests/report_hashes.txt, which the acceptance suite checks,
and which a change that moves a hash on purpose replaces by these.

compare prints, for each config, whether its content hash is unchanged,
then one line per numeric series (every list under "series" and every
number under "fits"): its relative deviation, max|b - a| / max|a|, and
its largest magnitude, worst first.  Then it prints every verdict of both
dumps side by side with its margin, and last one line that says whether
every content hash is unchanged, so a refactor that must leave the
numerics alone is checked by the last line alone.  The exit status is 1
when a config, series or verdict is missing from one side, a series
changed length, or a verdict fails, and 0 otherwise; the 1e-12 rule
itself is for the reader, since round-off series (drifts, residuals) are
expected to move by more.  A reader that stops early (`| head`) does not
change either: output to a closed pipe is dropped, and the run finishes.
"""

from __future__ import annotations

import json
import math
import os
import sys
from importlib import resources


def emit(line: str) -> None:
    """Print one line to stdout.  Once the reader has closed the pipe, the
    rest of the output goes to os.devnull instead of raising, so the run
    does the same work and exits with the same status as a full one."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def packaged_payloads():
    """Yield (config name, report payload) for every packaged config, by
    name."""
    from gevreyflow import RUNNERS, parse_config, report_payload

    configs = resources.files("gevreyflow") / "configs"
    for path in sorted(configs.iterdir(), key=lambda p: p.name):
        if not path.name.endswith(".cfg"):
            continue
        cfg = parse_config(path)
        yield path.name.removesuffix(".cfg"), report_payload(RUNNERS[cfg.scenario](cfg))


def dump(path: str) -> None:
    from gevreyflow import content_hash

    payloads = {}
    for name, payload in packaged_payloads():
        payloads[name] = {"hash": content_hash(payload), "payload": payload}
        emit(f"{name} {payloads[name]['hash']}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payloads, fh, sort_keys=True)


def _numeric(values) -> bool:
    return all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)


def numeric_series(payload: dict) -> dict:
    """{dotted name: list of floats} for every numeric list under "series"
    and every number under "fits", nested dicts flattened."""
    found = {}

    def walk(prefix, node):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(f"{prefix}.{key}", value)
        elif isinstance(node, list) and node and _numeric(node):
            found[prefix] = [float(v) for v in node]
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            found[prefix] = [float(node)]

    walk("series", payload["series"])
    walk("fits", payload["fits"])
    return found


def compare(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    problems = []
    rows = []
    verdicts = []
    moved = []
    for cfg in sorted(set(a) | set(b)):
        if cfg not in a or cfg not in b:
            problems.append(f"{cfg}: only in {path_a if cfg in a else path_b}")
            continue
        same = "same" if a[cfg]["hash"] == b[cfg]["hash"] else "moved"
        if same == "moved":
            moved.append(cfg)
        emit(f"{cfg:18s} hash {same:5s} {a[cfg]['hash'][:12]} -> {b[cfg]['hash'][:12]}")
        sa, sb = numeric_series(a[cfg]["payload"]), numeric_series(b[cfg]["payload"])
        for name in sorted(set(sa) | set(sb)):
            if name not in sa or name not in sb:
                problems.append(f"{cfg} {name}: only on one side")
                continue
            xa, xb = sa[name], sb[name]
            if len(xa) != len(xb):
                problems.append(f"{cfg} {name}: length {len(xa)} -> {len(xb)}")
                continue
            scale = max(abs(x) for x in xa)
            dev = max(abs(y - x) for x, y in zip(xa, xb))
            rel = dev / scale if scale > 0 else (0.0 if dev == 0 else math.inf)
            rows.append((rel, cfg, name, scale))
        va, vb = a[cfg]["payload"]["verdicts"], b[cfg]["payload"]["verdicts"]
        for name in sorted(set(va) | set(vb)):
            if name not in va or name not in vb:
                problems.append(f"{cfg} verdict {name}: only on one side")
                continue
            verdicts.append((cfg, name, va[name], vb[name]))
            for side, v in ((path_a, va[name]), (path_b, vb[name])):
                if not v["passed"]:
                    problems.append(f"{cfg} verdict {name} fails in {side}")

    emit("\nrelative deviation  max|a|      config             series")
    for rel, cfg, name, scale in sorted(rows, key=lambda r: -r[0]):
        emit(f"{rel:18.3e}  {scale:10.3e}  {cfg:18s} {name}")
    emit("\nconfig             verdict                    pass  margin a                margin b                tolerance")
    for cfg, name, va, vb in verdicts:
        passed = f"{'P' if va['passed'] else 'F'}/{'P' if vb['passed'] else 'F'}"
        emit(f"{cfg:18s} {name:26s} {passed:5s} {va['margin']!r:23s} {vb['margin']!r:23s} {vb['tolerance']!r}")
    for problem in problems:
        emit(f"problem: {problem}")
    common = len(set(a) & set(b))
    if moved:
        emit(f"\ncontent hashes: {common - len(moved)} of {common} unchanged; moved: {', '.join(moved)}")
    else:
        emit(f"\ncontent hashes: all {common} unchanged")
    return 1 if problems else 0


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "dump":
        dump(argv[1])
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print(__doc__.strip().splitlines()[0], file=sys.stderr)
    print("usage: report_series.py dump OUT.json | compare A.json B.json", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
