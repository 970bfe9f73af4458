"""Guards on the names the benchmark harness in perfbench/ binds, on its
self-test, on the declared dependencies, on the one record reader, on
functions nothing in the program names, on the simulator's imports, and on
the CI workflow's tier-1 command and benchmark smoke run.

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


# called by Python itself, not by name: the enum's lookup hook (dunders aside)
CALLED_BY_PYTHON = {"Maneuver._missing_"}


def test_every_function_is_named_in_the_program():
    """Every function and method defined under src/drivecoach/ is named by a
    `Name` or `Attribute` node somewhere in src/, so the program keeps no
    function that only tests reach. An import alone does not count. Dunders
    and `CALLED_BY_PYTHON` are exempt. The walk matches by name, so it
    cannot see a dead branch, nor a method whose name another one shares."""
    defined, named = [], set()
    for path in sorted((ROOT / "src" / "drivecoach").rglob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {id(item): node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                 for item in node.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{owner[id(node)]}.{node.name}" if id(node) in owner else node.name
                defined.append((f"{path.relative_to(ROOT)}:{node.lineno}", node.name, qualname))
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    unnamed = [f"{where}: {qualname}" for where, name, qualname in defined
               if name not in named and qualname not in CALLED_BY_PYTHON
               and not (name.startswith("__") and name.endswith("__"))]
    assert unnamed == []


# the layers built on the simulator, which it must not import
ABOVE_THE_SIMULATOR = {f"drivecoach.{name}" for name in
                       ("risk", "teacher", "trainer", "policy", "nn", "config", "cli")}


def test_simulator_imports_no_layer_above_it():
    """No module under src/drivecoach/sim/ imports drivecoach.risk or a layer
    that builds on the simulator, function-local imports included."""
    sim = ROOT / "src" / "drivecoach" / "sim"
    found = []
    for path in sorted(sim.rglob("*.py")):
        package = ["drivecoach", "sim", *path.parent.relative_to(sim).parts]
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = package[:len(package) - node.level + 1] if node.level else []
                module = ".".join(base + ([node.module] if node.module else []))
                names = [module] + [f"{module}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [f"{path.relative_to(ROOT)}:{node.lineno}: {name}" for name in names
                      if ".".join(name.split(".")[:2]) in ABOVE_THE_SIMULATOR]
    assert found == []


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
    # the versions the pinned digests hold for
    install = next(run for run in runs if "pip install" in run).split()
    assert {"numpy==2.4.6", "pyyaml==6.0.3", "pytest==9.0.3"} <= set(install)
    # the OpenBLAS core, which keys FINAL_CHECKPOINT_DIGESTS, is printed first,
    # with the thread count, on which the headline gate's figures also depend
    core = next(i for i, run in enumerate(runs) if "openblas_core()" in run)
    assert "openblas_threads()" in runs[core]
    assert core < runs.index(tier1)


def test_ci_runs_the_benchmark_smoke_steps():
    """CI runs the benchmark's self-test and one short traced highway-free run
    whose last line must read `"correct": true`, so a rename of an entry point
    that perfbench/spans.py wraps fails CI rather than the benchmark."""
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    steps = [step for job in workflow["jobs"].values() for step in job["steps"]]
    lines = [line.strip() for step in steps for line in step.get("run", "").splitlines()]
    assert "python3 perfbench/selftest.py" in lines
    smoke = [line for line in lines if line.startswith("python3 perfbench/run.py ")]
    assert len(smoke) == 1
    assert "--workload highway-free --seed 0 --seconds 1 --trace 1 | tail -n 1" in smoke[0]
    assert any('["correct"] is not True' in line for line in lines)
    smoke_step = next(step for step in steps if smoke[0] in step.get("run", ""))
    assert smoke_step.get("shell") == "bash"  # pipefail: a failing run fails the step
