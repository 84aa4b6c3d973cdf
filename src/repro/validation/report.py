"""Render a campaign artifact into ``docs/validation.md``.

The committed campaign artifact (``docs/validation_campaign.json``) is the
single source of truth; this module turns it into the human-readable
validation report, the same way :mod:`repro.scenarios.docs` renders the
scenario registry.  Regenerate (from the repository root) with::

    PYTHONPATH=src python -m repro.validation.report

and verify freshness (CI's docs job, ``tools/check_docs.py`` and
``tests/docs`` do) with::

    PYTHONPATH=src python -m repro.validation.report --check

Rendering is a pure function of the artifact, so the page regenerates
byte-identically from the committed JSON on any machine.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Mapping, Optional, Sequence

from repro.validation.artifacts import load_campaign_dict

#: Marker the freshness check looks for; proves the file is generated.
GENERATED_MARKER = (
    "<!-- generated by `python -m repro.validation.report` — do not edit by hand -->"
)


def _fmt(value: object, precision: int = 4) -> str:
    """One number for the report tables; ``—`` for missing data."""
    if value is None or value == "":
        return "—"
    if isinstance(value, float):
        return f"{value:.{precision}g}"
    return str(value)


def _fmt_interval(aggregate: Mapping[str, object]) -> str:
    """``mean [lower, upper]`` or just ``mean`` when the CI is undefined."""
    mean = aggregate.get("mean")
    if mean is None:
        return "—"
    lower, upper = aggregate.get("ci_lower"), aggregate.get("ci_upper")
    if lower is None or upper is None:
        return f"{_fmt(mean)} (CI undefined)"
    return f"{_fmt(mean)} [{_fmt(lower)}, {_fmt(upper)}]"


def _fmt_percent(value: object) -> str:
    if value is None or value == "":
        return "—"
    return f"{float(value) * 100.0:.1f}%"


def _fmt_settings(settings: Mapping[str, object]) -> str:
    """``name`` = value pairs, in name order."""
    return ", ".join(f"`{name}` = {_fmt(value)}" for name, value in sorted(settings.items()))


def render_validation_markdown(artifact: Mapping[str, object]) -> str:
    """Render a loaded campaign artifact into the validation report page.

    Args:
        artifact: Payload from
            :func:`repro.validation.artifacts.load_campaign_dict` (or
            ``CampaignResult.as_dict()``).

    Returns:
        The complete markdown document.
    """
    spec = artifact["spec"]
    summary = artifact["summary"]
    cells = artifact["cells"]
    confidence = _fmt_percent(spec["confidence"])
    lines: List[str] = [
        "# Monte-Carlo validation report",
        "",
        GENERATED_MARKER,
        "",
        "The paper defends its closed-form energy/delay models analytically;",
        "this report is the reproduction's replicated experimental check.  For",
        "every (scenario preset × protocol) cell the bargaining game is",
        "solved, the packet-level simulator replays the Nash bargaining point",
        "under independently seeded replications, and the analytical",
        "predictions are gated against the simulated means with per-metric",
        "tolerances.  Disagreement shows up below as a failed check — data,",
        "not a crash.",
        "",
        "Regenerate from the committed artifact with",
        "`PYTHONPATH=src python -m repro.validation.report`; rerun the",
        "campaign itself with `repro-mac-game validate-campaign` (see",
        "[docs/simulation.md](simulation.md) for the simulator this drives).",
        "",
        "## Campaign",
        "",
        "| Setting | Value |",
        "| --- | --- |",
        f"| Scenarios | {', '.join(f'`{name}`' for name in spec['scenarios'])} |",
        f"| Protocols | {', '.join(f'`{name}`' for name in spec['protocols'])} |",
        f"| Replications per cell | {spec['replications']} |",
        f"| Base seed | {spec['base_seed']} |",
        f"| Horizon | {_fmt(spec['horizon_s'])} s |",
        f"| Confidence level | {confidence} |",
        f"| Energy tolerance | {_fmt_percent(spec['energy_tolerance'])} relative |",
        f"| Delay tolerance | {_fmt_percent(spec['delay_tolerance'])} relative |",
        f"| Delivery floor | {_fmt_percent(spec['min_delivery_ratio'])} |",
        *(
            [f"| Requirement overrides | {_fmt_settings(spec['requirements'])} |"]
            if "requirements" in spec
            else []
        ),
        "",
        f"**{summary['cells']}** cells ({summary['feasible_cells']} feasible), "
        f"**{summary['checks_pass']}** checks passed, "
        f"**{summary['checks_fail']}** failed, "
        f"**{summary['checks_skipped']}** skipped.",
        "",
        "## Results",
        "",
        "Energy is the mean ring-1 per-node power in J/s, delay the mean",
        f"end-to-end delay of the farthest delivering ring in seconds; the",
        f"brackets are {confidence} Student-t confidence intervals over the",
        "replications (undefined for a single replication).",
        "",
        "| Scenario | Protocol | E model | E sim | E err | L model | L sim | L err | Delivery | Status |",
        "| --- | --- | --- | --- | --- | --- | --- | --- | --- | --- |",
    ]
    for cell in cells:
        if not cell["feasible"]:
            lines.append(
                f"| `{cell['scenario']}` | `{cell['protocol']}` "
                f"| — | — | — | — | — | — | — | infeasible |"
            )
            continue
        metrics = cell["metrics"]
        checks = {check["metric"]: check for check in cell["checks"]}
        failed = any(check["status"] == "fail" for check in cell["checks"])
        lines.append(
            f"| `{cell['scenario']}` | `{cell['protocol']}` "
            f"| {_fmt(cell['analytical_energy_j_per_s'])} "
            f"| {_fmt_interval(metrics['energy'])} "
            f"| {_fmt_percent(checks['energy'].get('error'))} "
            f"| {_fmt(cell['analytical_delay_s'])} "
            f"| {_fmt_interval(metrics['delay'])} "
            f"| {_fmt_percent(checks['delay'].get('error'))} "
            f"| {_fmt_percent(metrics['delivery_ratio'].get('mean'))} "
            f"| {'fail' if failed else 'pass'} |"
        )
    lines.append("")

    findings = _findings(cells)
    lines.extend(["## Findings", ""])
    if findings:
        lines.extend(findings)
    else:
        lines.append(
            "Every feasible cell agrees with its analytical prediction within "
            "tolerance."
        )
    lines.extend(
        [
            "",
            "---",
            "",
            "Artifact: `docs/validation_campaign.json` (schema "
            f"`{artifact['schema']}` v{artifact['schema_version']}).  The",
            "campaign machinery lives in `src/repro/validation/`; CI reruns a",
            "seeded campaign on every push and checks this page regenerates",
            "byte-identically from the committed artifact.",
            "",
        ]
    )
    return "\n".join(lines)


def _findings(cells: Sequence[Mapping[str, object]]) -> List[str]:
    """Bullet list of infeasible cells and failed/skipped checks."""
    findings: List[str] = []
    for cell in cells:
        label = f"`{cell['scenario']}/{cell['protocol']}`"
        if not cell["feasible"]:
            findings.append(f"- {label}: infeasible — {cell['solve_error']}")
            continue
        for check in cell["checks"]:
            if check["status"] == "fail":
                findings.append(f"- {label}: {check['metric']} check failed — {check['detail']}")
            elif check["status"] == "skipped":
                findings.append(
                    f"- {label}: {check['metric']} check skipped — {check['detail']}"
                )
    return findings


def default_artifact_path() -> Path:
    """``docs/validation_campaign.json`` relative to the repository root."""
    return Path(__file__).resolve().parents[3] / "docs" / "validation_campaign.json"


def default_output_path() -> Path:
    """``docs/validation.md`` relative to the repository root."""
    return Path(__file__).resolve().parents[3] / "docs" / "validation.md"


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Write (or ``--check``) the generated validation report."""
    parser = argparse.ArgumentParser(
        description="Render a campaign artifact into the validation report."
    )
    parser.add_argument(
        "--artifact",
        type=Path,
        default=None,
        help="campaign artifact (default: docs/validation_campaign.json)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="output path (default: docs/validation.md at the repo root)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) if the file on disk differs from the rendering",
    )
    args = parser.parse_args(list(argv) if argv is not None else None)
    artifact_path = args.artifact if args.artifact is not None else default_artifact_path()
    path = args.output if args.output is not None else default_output_path()
    content = render_validation_markdown(load_campaign_dict(artifact_path))
    if args.check:
        on_disk = path.read_text(encoding="utf-8") if path.exists() else ""
        if on_disk != content:
            print(
                f"{path} is stale; regenerate with "
                "`PYTHONPATH=src python -m repro.validation.report`",
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
