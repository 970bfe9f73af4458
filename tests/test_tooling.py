"""Guards on the names the benchmark harness in perfbench/ binds.

The traced mode wraps each `drivecoach_targets()` entry by replacing
`owner.__dict__[attr]`, and the metrics.csv digest drops one wall-clock
column by name. A rename on the drivecoach side breaks every traced or
training operation, so both are checked here.
"""

import importlib
from pathlib import Path

import pytest

from drivecoach.trainer import METRICS_HEADER

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module


def test_every_span_target_binds(perfbench):
    targets = perfbench("spans").drivecoach_targets()
    assert targets
    missing = [f"{t.name}: {t.owner!r}.{t.attr}" for t in targets
               if t.attr not in t.owner.__dict__]
    assert missing == []


def test_wall_clock_column_is_a_metrics_column(perfbench):
    assert perfbench("ops").WALL_CLOCK_COLUMN in METRICS_HEADER.split(",")
