"""Guards on the names the benchmark harness in perfbench/ binds, on the
declared dependencies, and on the one record reader.

The traced mode wraps each `drivecoach_targets()` entry by replacing
`owner.__dict__[attr]`, and the metrics.csv digest drops one wall-clock
column by name. A rename on the drivecoach side breaks every traced or
training operation, so both are checked here.
"""

import ast
import importlib
import importlib.metadata
import re
import sys
from pathlib import Path

import pytest

from drivecoach.trainer import METRICS_HEADER

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


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


def _distribution(name: str) -> str:
    return re.sub(r"[-_.]+", "-", name).lower()


def test_imports_match_declared_dependencies():
    """Every non-stdlib package src/ imports, function-local imports included,
    is declared in pyproject.toml, and nothing else is."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {_distribution(re.match(r"[\w.-]+", dep).group())
                for dep in project["dependencies"]}
    imported = set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"drivecoach"}
    # import names map to distribution names, e.g. yaml to PyYAML
    dists = importlib.metadata.packages_distributions()
    assert {_distribution(dists.get(name, [name])[0]) for name in third_party} == declared


def test_records_are_read_by_the_one_reader():
    """Records come back through `records.build_section`, not hand-written
    `from_dict` readers. Telemetry keeps its own: only `build_prompt` writes
    that line, and its nulls stand for infinities."""
    readers = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and node.name != "Telemetry":
                readers += [f"{path.relative_to(ROOT)}: {node.name}.from_dict"
                            for item in node.body
                            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and item.name == "from_dict"]
    assert readers == []
