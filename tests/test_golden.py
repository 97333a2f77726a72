"""Replay the golden CLI battery (tests/golden) against its records.

On the platform the records were taken on, every command must give the
recorded exit code, standard output and standard error byte for byte, and
the whole records file must come out again.  On another platform the exit
codes and the text between the numbers must match (``battery.replays``).  A
few records are also replayed in fresh interpreters, as ``replay.py`` replays
every record.
"""

import json

import pytest

from golden import battery


@pytest.fixture(scope="module")
def recorded():
    return json.loads(battery.RECORDS.read_text())


def test_the_battery_runs_the_recorded_commands(recorded):
    assert [r["argv"] for r in recorded["records"]] == [argv for argv, _ in battery.commands()]


def test_every_command_replays_its_record(recorded, tmp_path):
    replayed = battery.record_all(tmp_path)
    here, there = replayed["platform"], recorded["platform"]
    mismatched = [" ".join(old["argv"]) for old, new in zip(recorded["records"],
                                                            replayed["records"])
                  if not battery.replays(old, new, there, here)]
    assert mismatched == [], ("byte for byte" if here == there
                              else "exit codes and the text between the numbers")
    if here == there:
        assert battery.dumps(replayed) == battery.RECORDS.read_text()


# argparse's help at the given COLUMNS, a cold read by path, a two-phase fit, an exit 3
FRESH = ["--help",
         "compute --family fdpd --gamma 0.5 --phi identity --g g.csv --f f.csv",
         "estimate --family fdpd --phi identity --gamma 0.5 --samples s-20000.csv --seed 0",
         "compute --family fdpd --phi identity --gamma 0.5 --g bad.csv --f f.csv"]


def test_a_fresh_interpreter_replays_the_records(recorded, tmp_path):
    records = [r for r in recorded["records"] if " ".join(r["argv"]) in FRESH]
    assert sorted(r["exit"] for r in records) == [0, 0, 0, 3]
    battery.write_inputs(tmp_path)
    assert battery.fresh_mismatches(recorded, records, tmp_path) == []


REPORT = {"argv": ["verify"], "argparse": False, "exit": 0,
          "stdout": '{"D_value": 1.1102230246251565e-16, "trials": [1, 2]}\n', "stderr": ""}
HELP = {"argv": ["--help"], "argparse": True, "exit": 0, "stdout": "usage: divkit\n",
        "stderr": ""}


@pytest.mark.parametrize("record, change, platform, same", [
    (REPORT, {}, {}, True),
    (REPORT, {"stdout": '{"D_value": 0.0, "trials": [1, 2]}\n'}, {}, False),
    # a residual where the exact value is 0, and a count
    (REPORT, {"stdout": '{"D_value": 0.0, "trials": [1, 2]}\n'}, {"numpy": "1.24.4"}, True),
    (REPORT, {"stdout": '{"D_value": -3e-15, "trials": [1, 7]}\n'}, {"numpy": "1.24.4"}, True),
    (REPORT, {"stdout": '{"D_value": 1e-16, "trials": [1, 2, 3]}\n'}, {"numpy": "1.24.4"}, False),
    (REPORT, {"stdout": '{"D_value": Infinity, "trials": [1, 2]}\n'}, {"numpy": "1.24.4"}, False),
    (REPORT, {"stdout": '{"E_value": 1e-16, "trials": [1, 2]}\n'}, {"numpy": "1.24.4"}, False),
    (REPORT, {"stderr": "divkit: 1e-16\n"}, {"numpy": "1.24.4"}, False),
    (REPORT, {"exit": 1}, {"numpy": "1.24.4"}, False),
    (HELP, {"stdout": "usage: divkit [-h]\n"}, {"numpy": "1.24.4"}, False),
    (HELP, {"stdout": "usage: divkit [-h]\n"}, {"python": "3.10"}, True),
    (HELP, {"exit": 2}, {"python": "3.10"}, False),
], ids=["same", "residual-here", "residual", "numbers", "count", "infinity", "key", "stderr",
        "exit", "help-numpy", "help-python", "help-exit"])
def test_a_replay_compares_bytes_here_and_exit_codes_and_text_elsewhere(
        recorded, record, change, platform, same):
    there = recorded["platform"]
    assert battery.replays(record, dict(record, **change), there,
                           dict(there, **platform)) is same


def test_regeneration_reports_what_moved():
    old = {"records": [REPORT, HELP]}
    one_ulp = dict(REPORT, stdout=REPORT["stdout"].replace("65e-16", "68e-16"))
    new = {"records": [one_ulp, dict(HELP, exit=2, stdout=""), dict(HELP, argv=["-h"])]}
    assert battery.moves(old, new) == ["divkit verify: stdout 1 ulps",
                                       "divkit --help: exit 0 -> 2, stdout text",
                                       "divkit -h: new command"]
    assert battery.moves(old, old) == []


def test_regeneration_reports_moved_counts_as_counts():
    # a fit that takes one more evaluation and step, and ends one ulp away:
    # its counts are not floats 1e15 ulps apart
    fit = dict(REPORT, stdout='{"evaluations": [5, 6, 2], "iterations": 17, "mu_hat": 0.5}\n')
    moved = {"evaluations": [5, 7, 2], "iterations": 18, "mu_hat": 0.5000000000000001}
    counts_only = {"evaluations": [5, 6, 3], "iterations": 17, "mu_hat": 0.5}
    new = [dict(fit, stdout=json.dumps(moved) + "\n"),
           dict(fit, argv=["-h"], stdout=json.dumps(counts_only) + "\n")]
    assert battery.moves({"records": [fit, dict(fit, argv=["-h"])]}, {"records": new}) == [
        "divkit verify: stdout count 6 -> 7, count 17 -> 18, 1 ulps",
        "divkit -h: stdout count 2 -> 3, 0 ulps"]
