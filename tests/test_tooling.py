"""Guards on the names the benchmark harness in perfbench/ binds, on its
self-test, on the declared dependencies, on the one record reader, and on
the CI workflow's tier-1 command.

The traced mode wraps each `drivecoach_targets()` entry by replacing
`owner.__dict__[attr]`, and the metrics.csv digest drops one wall-clock
column by name. A rename on the drivecoach side breaks every traced or
training operation, so both are checked here.
"""

import ast
import importlib
import importlib.metadata
import re
import subprocess
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


def test_benchmark_selftest_passes():
    """The benchmark's own self-test trains, resumes the final checkpoint and
    evaluates it, so a checkpoint or resume change that breaks the benchmark
    fails here first."""
    run = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]


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
    `from_dict` readers."""
    readers = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                readers += [f"{path.relative_to(ROOT)}: {node.name}.from_dict"
                            for item in node.body
                            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and item.name == "from_dict"]
    assert readers == []


def test_misspelt_marker_fails_collection(tmp_path):
    """Under the project's pytest settings an undeclared marker is an error,
    so a misspelt `slow` cannot let a training-length gate into the
    `-m "not slow"` loop."""
    test = tmp_path / "test_marker.py"
    test.write_text("import pytest\n\n\n@pytest.mark.slwo\ndef test_x():\n    pass\n")
    run = subprocess.run([sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
                          "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "--collect-only",
                          "-q", str(test)],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode != 0
    assert "'slwo' not found in `markers` configuration option" in run.stdout + run.stderr


def test_ci_runs_the_roadmaps_tier1_command():
    """The CI workflow parses and its one test step runs exactly ROADMAP's
    tier-1 command, on Python 3.11 with the declared packages and pytest."""
    yaml = pytest.importorskip("yaml")
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (ROOT / "ROADMAP.md").read_text()).group(1)
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    steps = [step for job in workflow["jobs"].values() for step in job["steps"]]
    runs = [step["run"] for step in steps if "run" in step]
    assert [run for run in runs if "pytest -" in run] == [tier1]
    assert [step["with"]["python-version"] for step in steps
            if step.get("uses", "").startswith("actions/setup-python")] == ["3.11"]
    install = next(run for run in runs if "pip install" in run).split()
    assert {"numpy", "pyyaml", "pytest"} <= set(install)
