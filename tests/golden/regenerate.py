"""Rewrite the golden records from the divkit on the import path.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regenerate.py [--out PATH]

The commands run in a new temporary directory that holds the inputs.  On an
unchanged divkit and platform the output is the records file byte for byte.
Each command whose record moved against the committed records is printed
first, with its exit codes or the largest ulp distance of its numbers.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import battery  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=battery.RECORDS)
    out = parser.parse_args().out
    with tempfile.TemporaryDirectory() as directory:
        records = battery.record_all(Path(directory))
    if battery.RECORDS.exists():  # what moved against the committed records
        for line in battery.moves(json.loads(battery.RECORDS.read_text()), records):
            print(line)
    out.write_text(battery.dumps(records))
    print(f"{out}: {len(records['records'])} records")


if __name__ == "__main__":
    main()
