"""Print `<cfg> <content_hash>` for every packaged scenario config.

A refactor that leaves the numerics alone must leave every line of this
output unchanged.  Run from a source checkout:

    PYTHONPATH=src python tests/report_hashes.py

Output to a reader that stops early (`| head`) is dropped, not raised, and
the exit status is that of a full run.
"""

from importlib import resources

from report_series import emit

from gevreyflow import RUNNERS, content_hash, parse_config, report_payload


def main() -> None:
    configs = resources.files("gevreyflow") / "configs"
    for path in sorted(configs.iterdir(), key=lambda p: p.name):
        if not path.name.endswith(".cfg"):
            continue
        cfg = parse_config(path)
        report = RUNNERS[cfg.scenario](cfg)
        emit(f"{path.name.removesuffix('.cfg')} {content_hash(report_payload(report))}")


if __name__ == "__main__":
    main()
