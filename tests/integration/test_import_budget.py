"""What a fresh process imports: neither SciPy nor a graph library.

The game solver and the campaign's Student-t quantile run on NumPy alone,
and the graphs are plain dicts, so importing the front doors, planning a
spec and running any example spec load neither.  Every simulation runs on the
batched engine, so no front door or run loads any other simulation module,
nor the scalar reference simulator of ``tests/scalar_reference/`` (which
the fresh interpreter could import: ``tests/`` is on its path).  The result
store is loaded only by a run that uses one.  And a pool task imports
nothing at all: a pool is kept for the life of the process, so whatever a
task imports lazily, and its parent had not imported when the pool forked,
every worker imports on its own.  Each case runs in a fresh interpreter,
since the test session itself has long imported all of these.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPECS = sorted((ROOT / "examples" / "specs").glob("*.json"))

#: Appended to each case: prints, as its last line, the sorted names of the
#: loaded modules whose top-level package is in ``roots``.
_REPORT = """
import json, sys
print(json.dumps(sorted(
    name for name in sys.modules if name.split(".")[0] in {roots!r}
)))
"""

#: Every module of the simulator: the entry point and the batched engine.
SIMULATION_MODULES = {
    "repro.simulation",
    "repro.simulation.runner",
    "repro.simulation.batched",
    "repro.simulation.batched.engine",
    "repro.simulation.batched.kernels",
}


def _loaded_after(code: str, roots=("scipy", "networkx")) -> list:
    """The modules under ``roots`` a fresh interpreter holds after ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT / "tests"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", code + _REPORT.format(roots=tuple(roots))],
        cwd=str(ROOT),
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("module", ["repro.cli", "repro.api", "repro.service"])
def test_front_doors_import_neither_scipy_nor_networkx(module):
    assert _loaded_after(f"import {module}") == []


def test_plan_only_loads_no_scipy():
    specs = [str(spec.relative_to(ROOT)) for spec in SPECS]
    code = (
        "from repro.cli import main\n"
        f"for spec in {specs!r}:\n"
        "    assert main(['run', spec, '--plan-only']) == 0\n"
    )
    assert _loaded_after(code) == []


@pytest.mark.parametrize("spec", ["validate.json", "validate_scpmac.json"])
def test_validate_spec_loads_no_scipy(spec):
    code = (
        "from repro.cli import main\n"
        f"assert main(['run', 'examples/specs/{spec}', '--no-cache']) == 0\n"
    )
    assert _loaded_after(code) == []


@pytest.mark.parametrize(
    "code",
    [
        "import repro.cli",
        "import repro.api",
        "import repro.service",
        "from repro.cli import main\n"
        "assert main(['run', 'examples/specs/validate.json', '--no-cache']) == 0\n",
        "from repro.cli import main\n"
        "assert main(['run', 'examples/specs/campaign.json', '--no-cache']) == 0\n",
    ],
    ids=["import-cli", "import-api", "import-service", "run-validate", "run-campaign"],
)
def test_only_the_batched_simulator_is_loaded(code):
    loaded = _loaded_after(code, roots=("repro", "scalar_reference"))
    simulation = {name for name in loaded if name.startswith("repro.simulation")}
    assert simulation <= SIMULATION_MODULES
    assert [name for name in loaded if name.startswith("scalar_reference")] == []


@pytest.mark.parametrize(
    "code",
    [
        "import repro.api",
        "from repro.cli import main\n"
        "assert main(['run', 'examples/specs/solve.json', '--no-cache']) == 0\n",
    ],
    ids=["import-api", "run-solve-no-cache"],
)
def test_only_a_run_with_a_store_loads_the_store(code):
    loaded = _loaded_after(code, roots=("repro",))
    assert [name for name in loaded if name.startswith("repro.store")] == []


def test_every_src_module_is_loaded_by_a_front_door():
    """No orphan module: the CLI, the service and the two ``-m`` generators
    load every module under ``src/repro``, so code that no run can reach
    does not sit in the package."""
    src = ROOT / "src"
    modules = set()
    for path in src.rglob("*.py"):
        parts = path.relative_to(src).with_suffix("").parts
        modules.add(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    code = "import repro.cli, repro.service, repro.validation.report, repro.scenarios.docs\n"
    loaded = _loaded_after(code, roots=("repro",))
    assert sorted(modules - set(loaded)) == []


@pytest.mark.parametrize("workers", [1, 2])
def test_no_example_spec_loads_scipy(workers):
    # Cold, so every game is solved and every campaign quantile computed;
    # two workers fork a pool, whose workers would inherit SciPy.
    specs = [str(spec.relative_to(ROOT)) for spec in SPECS]
    code = (
        "import contextlib, io\n"
        "from repro.cli import main\n"
        f"for spec in {specs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        assert main(['run', spec, '--no-cache', '--workers', '{workers}']) == 0\n"
    )
    assert _loaded_after(code) == []


#: Wraps each pool task function in place, by its module attribute (so a
#: forked worker unpickles the wrapper), to log the pid and the modules each
#: task imported; then runs the specs on two workers with SciPy shadowed.
_POOL_TASKS = """
import contextlib, functools, io, json, os, sys
import repro.runtime.batch, repro.validation.campaign
from repro.cli import main

def record(module, name):
    task = getattr(module, name)

    @functools.wraps(task)
    def wrapper(payload):
        before = set(sys.modules)
        try:
            return task(payload)
        finally:
            with open({log!r}, "a") as log:
                imported = sorted(set(sys.modules) - before)
                log.write(json.dumps([name, os.getpid(), imported]) + "\\n")

    setattr(module, name, wrapper)

record(repro.runtime.batch, "_solve_chunk")
record(repro.validation.campaign, "_simulate_payload")
print(os.getpid())
for spec in {specs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", spec, "--no-cache", "--workers", "2"]) == 0
"""


def test_pool_tasks_import_nothing(tmp_path):
    shadow = tmp_path / "noscipy" / "scipy"
    shadow.mkdir(parents=True)
    (shadow / "__init__.py").write_text("raise ImportError('SciPy is shadowed')\n")
    log = tmp_path / "tasks.jsonl"
    # The suite forks the pool, before any simulation has run in this
    # process: the replications that follow run on workers forked then.
    specs = [f"examples/specs/{name}.json" for name in ("suite", "campaign", "validate")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(shadow.parent), str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", _POOL_TASKS.format(log=str(log), specs=specs)],
        cwd=str(ROOT),
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    parent = int(completed.stdout.split()[0])
    tasks = [json.loads(line) for line in log.read_text().splitlines()]
    assert {name for name, _, _ in tasks} == {"_solve_chunk", "_simulate_payload"}
    assert all(pid != parent for _, pid, _ in tasks)
    assert [(name, imported) for name, _, imported in tasks if imported] == []
