"""Model fingerprint: the exact simulated numbers, pinned.

The product of this repository is the simulated evaluation, so every
(workload, configuration, system) cell at a small scale is pinned bit for
bit: ``repr()`` of the cell's seconds and energy and of every
``DeviceReport`` field, summed over the cell's constructs in run order,
plus a digest of the per-construct reports.  The cells are the eval
harness's columns (CPU, the four GPU configurations, HYBRID) on both
systems on the compiled engine, and GPU+ALL on the vector engine.

A change to any of these numbers is a deliberate re-bless, recorded in
CHANGES.md::

    PYTHONPATH=src python tests/test_model_fingerprint.py --bless
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import warnings
from pathlib import Path

import pytest

from repro.gpu.timing import DeviceReport
from repro.passes import OptConfig
from repro.runtime.system import desktop, ultrabook
from repro.workloads import all_workloads

GOLDEN = Path(__file__).with_name("golden") / "model_fingerprint.json"
SCALE = 0.05
SYSTEMS = {"ultrabook": ultrabook, "desktop": desktop}
REPORT_FIELDS = [f.name for f in dataclasses.fields(DeviceReport) if f.name != "extra"]


def _cells():
    """``(key, run)`` for every pinned cell; ``run(workload)`` executes it."""
    gpu_configs = {config.label: config for config in OptConfig.all_configs()}
    for system in SYSTEMS:
        yield f"CPU/{system}", dict(config=OptConfig.gpu_all(), on_cpu=True)
        for label, config in gpu_configs.items():
            yield f"{label}/{system}", dict(config=config)
        yield f"HYBRID/{system}", dict(config=OptConfig.gpu_all(), policy="hybrid")
    yield "GPU+ALL/ultrabook/vector", dict(config=OptConfig.gpu_all(), engine="vector")


def _fingerprint(outcome) -> dict:
    reports = [r.report for r in outcome.reports]
    total = sum(reports, DeviceReport(device="", seconds=0.0, energy_joules=0.0))
    digest = hashlib.sha256()
    for r in outcome.reports:
        row = [r.device, r.n, repr(r.jit_seconds)]
        row += [repr(getattr(r.report, name)) for name in REPORT_FIELDS]
        digest.update(repr(row).encode())
    doc = {
        "seconds": repr(outcome.seconds),
        "energy_joules": repr(outcome.energy_joules),
        "constructs": len(reports),
        "reports_digest": digest.hexdigest()[:16],
    }
    for name in REPORT_FIELDS[1:]:
        doc[name] = repr(getattr(total, name))
    return doc


def _cell_fingerprint(workload: str, cell: str) -> dict:
    system = cell.split("/")[1]
    kwargs = dict(dict(_cells())[cell])
    config = kwargs.pop("config")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        outcome = all_workloads()[workload]().execute(
            config, SYSTEMS[system](), scale=SCALE, **kwargs
        )
    return _fingerprint(outcome)


def compute() -> dict:
    return {
        workload: {cell: _cell_fingerprint(workload, cell) for cell, _ in _cells()}
        for workload in sorted(all_workloads())
    }


def _golden() -> dict:
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", sorted(all_workloads()))
def test_model_fingerprint(workload):
    golden = _golden()
    assert golden["scale"] == SCALE
    expected = golden["cells"][workload]
    assert set(expected) == {cell for cell, _ in _cells()}
    for cell in expected:
        assert _cell_fingerprint(workload, cell) == expected[cell], (workload, cell)


if __name__ == "__main__":
    if sys.argv[1:] != ["--bless"]:
        sys.exit("usage: test_model_fingerprint.py --bless")
    GOLDEN.parent.mkdir(exist_ok=True)
    with open(GOLDEN, "w") as handle:
        json.dump({"scale": SCALE, "cells": compute()}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"blessed {GOLDEN}")
