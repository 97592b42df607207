"""Regenerate named goldens: ``python -m tests.golden <name> ... [--out-dir DIR]``."""

import argparse
from pathlib import Path

from tests.golden import DATA_DIR, GOLDENS, computed, document, dumps


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(prog="python -m tests.golden", description=__doc__)
    parser.add_argument("names", nargs="+", choices=GOLDENS, metavar="name")
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=DATA_DIR,
        help="write here instead of tests/data (e.g. a CI artifact directory); "
        "the committed goldens are only touched by the default",
    )
    options = parser.parse_args(argv)
    options.out_dir.mkdir(parents=True, exist_ok=True)
    for name in options.names:
        for file, tree in document(name, computed).items():
            path = options.out_dir / file
            path.write_text(dumps(name, tree), encoding="utf-8")
            print(f"wrote {path}")


if __name__ == "__main__":
    main()
