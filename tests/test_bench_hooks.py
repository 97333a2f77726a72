"""The benchmark's hooks into divkit: a renamed or removed name fails here.

``bench/tracing.py`` wraps every ``TARGETS`` name at its module in round 0 of
every run, and ``bench/workloads.py`` sets an interpreter up through
``divkit.cli``, so a missing name would otherwise crash the benchmark.
"""

import importlib
import sys
from pathlib import Path

import pytest

from divkit import cli

BENCH = str(Path(__file__).resolve().parent.parent / "bench")


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, BENCH)
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(BENCH)


def test_every_target_resolves(tracing):
    missing = [f"{module}.{attr}" for module, attr, _, _ in tracing.TARGETS
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_install_and_uninstall_restore_the_originals(tracing):
    targets = [(importlib.import_module(module), attr) for module, attr, _, _ in tracing.TARGETS]
    originals = [getattr(module, attr) for module, attr in targets]
    tracer = tracing.Tracer(keep=False)
    tracer.install()
    try:
        assert all(getattr(module, attr) is not original
                   for (module, attr), original in zip(targets, originals))
    finally:
        tracer.uninstall()
    assert all(getattr(module, attr) is original
               for (module, attr), original in zip(targets, originals))


def test_setup_calls_resolve():
    # the (function, args) shapes of the workloads' setup_calls
    assert cli.parse_phi("power:0.5").label() == "power:0.5"
    assert cli.parse_xi("power:0.5").label() == "power:0.5"
    spec = cli.build_spec("xi_holder", 0.5, "dpd", None, "power:0.5", None)
    assert spec.describe() == {"family": "xi_holder", "gamma": 0.5, "eta": "dpd",
                               "xi": "power:0.5"}
