"""Print `<cfg> <content_hash>` for every packaged scenario config.

A refactor that leaves the numerics alone must leave every line of this
output unchanged.  Run from a source checkout:

    PYTHONPATH=src python tests/report_hashes.py
"""

from importlib import resources

from gevreyflow import RUNNERS, content_hash, parse_config, report_payload


def main() -> None:
    configs = resources.files("gevreyflow") / "configs"
    for path in sorted(configs.iterdir(), key=lambda p: p.name):
        if not path.name.endswith(".cfg"):
            continue
        cfg = parse_config(path)
        report = RUNNERS[cfg.scenario](cfg)
        print(path.name.removesuffix(".cfg"), content_hash(report_payload(report)), flush=True)


if __name__ == "__main__":
    main()
