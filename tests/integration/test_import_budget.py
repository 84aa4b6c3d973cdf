"""What a fresh process imports: neither SciPy nor a graph library.

The game solver and the campaign's Student-t quantile run on NumPy alone,
and the graphs are plain dicts, so importing the front doors, planning a
spec and running any example spec load neither.  Every simulation runs on the
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
