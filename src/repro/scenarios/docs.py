"""Render the scenario registry into ``docs/scenarios.md``.

The preset descriptions in :mod:`repro.scenarios.presets` are the single
source of truth; this module turns them into a markdown page so the docs can
never drift from the code.  Regenerate (from the repository root) with::

    PYTHONPATH=src python -m repro.scenarios.docs

and verify freshness (CI's docs job and ``tests/docs`` do this) with::

    PYTHONPATH=src python -m repro.scenarios.docs --check
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.scenarios.presets import scenario_presets

#: Marker the freshness check looks for; proves the file is generated.
GENERATED_MARKER = "<!-- generated by `python -m repro.scenarios.docs` — do not edit by hand -->"


def _format_period(seconds: float) -> str:
    if seconds >= 3600 and seconds % 3600 == 0:
        return f"{int(seconds // 3600)} h"
    if seconds >= 60 and seconds % 60 == 0:
        return f"{int(seconds // 60)} min"
    return f"{seconds:g} s"


def render_scenarios_markdown() -> str:
    """Render every registered preset into one markdown document."""
    lines = [
        "# Scenario library",
        "",
        GENERATED_MARKER,
        "",
        "Named evaluation environments for the energy-delay bargaining game.",
        "Each preset bundles a frozen `Scenario` (topology, workload, radio,",
        "burstiness) with suggested application requirements `(Ebudget, Lmax)`;",
        "a `suite` spec runs every (scenario × protocol) pair through the",
        "batch runner. List them with `repro-mac-game scenarios`, run them",
        "with `repro-mac-game suite`.",
        "",
        "| Preset | Rings D | Density C | Sampling | Burstiness | Radio | Ebudget [J/s] | Lmax [s] |",
        "| --- | --- | --- | --- | --- | --- | --- | --- |",
    ]
    presets = scenario_presets()
    for preset in presets:
        scenario = preset.scenario
        lines.append(
            f"| [`{preset.name}`](#{preset.name}) | {scenario.depth} | {scenario.density} "
            f"| 1 / {_format_period(scenario.sampling_period)} | {scenario.burstiness:g} "
            f"| {scenario.radio.name} | {preset.energy_budget:g} | {preset.max_delay:g} |"
        )
    lines.append("")
    for preset in presets:
        lines.extend(
            [
                f"## {preset.name}",
                "",
                f"**{preset.title}**",
                "",
                preset.description,
                "",
                f"*Tags: {', '.join(preset.tags) if preset.tags else '—'}*",
                "",
            ]
        )
    lines.extend(
        [
            "---",
            "",
            "Presets are defined in `src/repro/scenarios/presets.py`; register",
            "deployment-specific ones with",
            "`repro.scenarios.register_scenario_preset(...)` (see",
            "`examples/scenario_suite.py`).",
            "",
        ]
    )
    return "\n".join(lines)


def default_output_path() -> Path:
    """``docs/scenarios.md`` relative to the repository root."""
    return Path(__file__).resolve().parents[3] / "docs" / "scenarios.md"


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Write (or ``--check``) the generated scenario documentation."""
    parser = argparse.ArgumentParser(
        description="Render the scenario preset registry into markdown."
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="output path (default: docs/scenarios.md at the repo root)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) if the file on disk differs from the rendering",
    )
    args = parser.parse_args(list(argv) if argv is not None else None)
    path = args.output if args.output is not None else default_output_path()
    content = render_scenarios_markdown()
    if args.check:
        on_disk = path.read_text(encoding="utf-8") if path.exists() else ""
        if on_disk != content:
            print(
                f"{path} is stale; regenerate with "
                "`PYTHONPATH=src python -m repro.scenarios.docs`",
                file=sys.stderr,
            )
            return 1
        print(f"{path} is up to date")
        return 0
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
