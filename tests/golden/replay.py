"""Replay every golden record, each command in a fresh interpreter.

Run from the repository root::

    PYTHONPATH=src python tests/golden/replay.py

The commands run in a new temporary directory that holds the inputs, each as
``python -m divkit`` (``battery.run_fresh``).  Each command that does not
replay its record is printed, and the script then exits 1.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import battery  # noqa: E402


def main() -> int:
    recorded = json.loads(battery.RECORDS.read_text())
    with tempfile.TemporaryDirectory() as directory:
        battery.write_inputs(Path(directory))
        mismatched = battery.fresh_mismatches(recorded, recorded["records"], Path(directory))
    for line in mismatched:
        print(line)
    print(f"{len(recorded['records'])} records, {len(mismatched)} mismatched")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
