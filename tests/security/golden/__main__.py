"""Golden-fixture maintenance CLI.

Check the committed fixture against a fresh run::

    PYTHONPATH=src python -m tests.security.golden

Regenerate after an intentional numerical change::

    PYTHONPATH=src python -m tests.security.golden --regen
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from tests.security.golden import (
    FIXTURE_PATH,
    compute_golden,
    compute_golden_sweep,
    load_fixture,
    write_fixture,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.security.golden")
    parser.add_argument(
        "--regen",
        action="store_true",
        help="overwrite the committed fixture with freshly computed tables",
    )
    args = parser.parse_args(argv)

    if args.regen:
        path = write_fixture()
        print(f"golden fixture regenerated -> {path}")
        return 0

    if not FIXTURE_PATH.exists():
        print(f"no fixture at {FIXTURE_PATH}; run with --regen to create it")
        return 1
    fresh = compute_golden()
    sweep = compute_golden_sweep()
    pinned = load_fixture()
    failures = [
        f"h={h} {name}: the h sweep differs from the per-h call"
        for h, tables in fresh["tables"].items()
        for name, table in tables.items()
        if sweep[h][name] != table
    ]
    for h, tables in pinned["tables"].items():
        for name in ("avg_correct", "avg_incorrect"):
            want = np.asarray(tables[name])
            got = np.asarray(fresh["tables"][h][name])
            if not np.allclose(got, want, rtol=1e-9, atol=1e-12):
                failures.append(
                    f"h={h} {name}: max abs diff {np.abs(got - want).max():g}"
                )
    if failures:
        print("golden fixture MISMATCH:")
        for line in failures:
            print(f"  {line}")
        return 1
    print(f"golden fixture OK ({FIXTURE_PATH})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
