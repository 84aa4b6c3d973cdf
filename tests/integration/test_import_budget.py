"""What a fresh process imports: SciPy only when a game solve needs it.

SciPy is imported by the SLSQP polish on first use, and no graph library
is imported at all, so importing the front doors, planning a spec and
running a validation spot check load neither.  Every simulation runs on the
batched engine, so no front door or run loads any other simulation module,
nor the scalar reference simulator of ``tests/scalar_reference/`` (which
the fresh interpreter could import: ``tests/`` is on its path).  Each case
runs in a fresh interpreter, since the test session itself has long
imported all of these.
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


def test_pooled_solve_batch_preloads_scipy_in_the_parent():
    # The pool forks fresh workers for every batch; SciPy is loaded in the
    # parent before the fork so the workers inherit it instead of each
    # importing it again.  Without that preload no solve runs in this
    # process, and scipy.optimize would never appear here.
    code = (
        "import sys\n"
        "from repro.core.requirements import ApplicationRequirements\n"
        "from repro.runtime import SolveTask, build_runner\n"
        "from repro.scenario import default_scenario\n"
        "assert not [n for n in sys.modules if n.split('.')[0] == 'scipy']\n"
        "requirements = ApplicationRequirements(energy_budget=0.06, max_delay=6.0)\n"
        "tasks = [\n"
        "    SolveTask.build(protocol, default_scenario(), requirements,\n"
        "                    {'grid_points_per_dimension': 12})\n"
        "    for protocol in ('xmac', 'dmac')\n"
        "]\n"
        "outcomes = build_runner(workers=2, use_cache=False).run(tasks)\n"
        "assert all(outcome.ok for outcome in outcomes)\n"
    )
    assert "scipy.optimize" in _loaded_after(code)
