"""Repository records that must agree: one version string, no idle bench, no
markdown page named in the program that the repository does not have."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


def test_pyproject_takes_its_version_from_the_package():
    # The package's __version__ is what /v1/healthz serves; a second version
    # written into pyproject.toml drifts from it.
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "repro.__version__"}


def _bench_smoke_pytest_steps() -> str:
    """The text of the steps of CI's bench-smoke job that run pytest."""
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    job = re.split(r"\n  [\w-]+:\n", workflow.split("\n  bench-smoke:\n", 1)[1], 1)[0]
    return "".join(step for step in job.split("\n      - name:") if "-m pytest" in step)


def test_ci_bench_smoke_runs_every_bench():
    # A bench that no CI step runs gates nothing: its assertions never fail.
    steps = _bench_smoke_pytest_steps()
    benches = sorted(path.name for path in (ROOT / "benchmarks").glob("bench_*.py"))
    assert benches
    assert [name for name in benches if f"benchmarks/{name}" not in steps] == []


#: A markdown page named in program text: a path or a bare file name.
_MARKDOWN_NAME = re.compile(r"[\w./-]*\w\.md\b")


def test_every_markdown_page_named_in_the_program_exists():
    # A docstring or message that sends its reader to a page the repository
    # does not have points nowhere.
    pages = [
        path.relative_to(ROOT).as_posix()
        for path in ROOT.rglob("*.md")
        if not any(part.startswith(".") for part in path.relative_to(ROOT).parts)
    ]
    missing = []
    for folder in ("src", "examples", "benchmarks", "tools"):
        for source in sorted((ROOT / folder).rglob("*.py")):
            text = source.read_text(encoding="utf-8")
            for name in sorted(set(_MARKDOWN_NAME.findall(text))):
                if not any(page == name or page.endswith("/" + name) for page in pages):
                    missing.append(f"{source.relative_to(ROOT)}: {name}")
    assert missing == []
