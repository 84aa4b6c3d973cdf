"""The end-to-end benchmark's layer trace still finds the program's layers.

``perfbench/tracing.py`` times each layer by wrapping a module or class
attribute named in its ``HOOKS``, and skips a hook the program no longer
has, so a refactor that renames one, or routes around it, silently reads
zero in that layer.  These tests read the benchmark's tables without
editing them.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from repro.api import ExperimentSpec, run

ROOT = Path(__file__).resolve().parents[2]

#: Layers the program no longer has: ``op`` is the benchmark's own root
#: span, and the multistart was replaced by the polish.
RETIRED = {"op", "multistart"}


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(module_name: str, path: str) -> bool:
    """Whether the tracer would find a callable to wrap at ``path``."""
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return False
    if isinstance(owner, type):
        return callable(owner.__dict__.get(attribute))
    return callable(getattr(owner, attribute, None))


TRACING = _tracing()


@pytest.mark.parametrize("layer", [layer for layer in TRACING.LAYERS if layer not in RETIRED])
def test_every_layer_has_a_hook_that_resolves(layer):
    hooks = [(module, path) for name, module, path in TRACING.HOOKS if name == layer]
    assert any(_resolves(module, path) for module, path in hooks), hooks


def test_a_traced_game_reaches_every_solver_layer():
    spec = ExperimentSpec.from_dict(
        {
            "kind": "solve",
            "name": "traced",
            "scenario": "paper-default",
            "protocols": ["lmac"],
            "requirements": {"energy_budget": 0.06, "max_delay": 6.0},
            "solver": {"grid_points": 24},
            "runtime": {"cache": False},
        }
    )
    tracer = TRACING.Tracer()
    tracer.install()
    try:
        with tracer.span("op"):
            run(spec)
    finally:
        tracer.uninstall()
    snapshot = tracer.snapshot()
    calls = {layer: snapshot[layer]["calls"] for layer in TRACING.LAYERS}
    # One game: three problems, each one grid scan and one polish.
    assert calls["game"] == 1
    assert calls["problem"] == calls["grid"] == calls["polish"] == 3
    assert calls["plan"] >= 1 and calls["batch"] >= 1 and calls["executor"] >= 1
