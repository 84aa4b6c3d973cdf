"""Documentation checks: resolvable links + executable code blocks.

Run from the repository root (CI's docs job and ``tests/docs`` both do)::

    PYTHONPATH=src python tools/check_docs.py

Checks, over ``README.md`` and ``docs/*.md``:

1. **Links resolve** — every relative markdown link points at an existing
   file (or directory), and every anchor (``#fragment``, same-file or
   cross-file) matches a heading in the target document using GitHub's
   slug rules.  External (``http(s)://``, ``mailto:``) links are not
   fetched.
2. **Doctests pass** — every fenced ```` ```python ```` block containing
   interpreter examples (``>>>``) is executed with :mod:`doctest`, exactly
   as ``python -m doctest`` would run a text file.
3. **Generated pages are fresh** — ``docs/scenarios.md`` matches the
   rendering of the scenario registry, and ``docs/validation.md``
   regenerates byte-identically from the committed campaign artifact
   ``docs/validation_campaign.json``.
4. **Spec snippets parse** — every fenced ```` ```json ```` block in
   ``docs/api.md`` is a valid experiment spec: it must load with
   ``json.loads`` and construct through ``ExperimentSpec.from_dict``.

Exit status 0 when everything passes, 1 otherwise (with one line per
problem).
"""

from __future__ import annotations

import doctest
import re
import sys
from pathlib import Path
from typing import Iterable, List, Tuple

#: ``[text](target)`` markdown links (images share the syntax via ``![``).
_LINK_PATTERN = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
#: ATX headings, used to build the set of valid anchors per document.
_HEADING_PATTERN = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
#: Fenced code blocks with an info string.
_FENCE_PATTERN = re.compile(r"^```(\w*)\n(.*?)^```\s*$", re.MULTILINE | re.DOTALL)


def repo_root() -> Path:
    """The repository root (this file lives in ``<root>/tools/``)."""
    return Path(__file__).resolve().parents[1]


def documentation_files(root: Path) -> List[Path]:
    """The markdown files the checks cover."""
    files = [root / "README.md"]
    files.extend(sorted((root / "docs").glob("*.md")))
    return [path for path in files if path.exists()]


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading text.

    Lowercase, punctuation dropped, spaces become hyphens; existing hyphens
    survive (so ``--workers`` contributes ``--workers``).
    """
    text = heading.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_slugs(markdown: str) -> set:
    """All valid anchor slugs of a markdown document."""
    slugs = set()
    for match in _HEADING_PATTERN.finditer(markdown):
        slugs.add(github_slug(match.group(1)))
    return slugs


def _is_external(target: str) -> bool:
    return target.startswith(("http://", "https://", "mailto:"))


def check_links(path: Path, root: Path) -> List[str]:
    """Problems with the markdown links of one file (empty when clean)."""
    problems: List[str] = []
    markdown = path.read_text(encoding="utf-8")
    for match in _LINK_PATTERN.finditer(markdown):
        target = match.group(1)
        if _is_external(target):
            continue
        file_part, _, anchor = target.partition("#")
        if file_part:
            resolved = (path.parent / file_part).resolve()
            if not resolved.exists():
                problems.append(f"{path.relative_to(root)}: broken link -> {target}")
                continue
            anchor_source = resolved if resolved.is_file() else None
        else:
            anchor_source = path  # same-document anchor
        if anchor and anchor_source is not None and anchor_source.suffix == ".md":
            slugs = heading_slugs(anchor_source.read_text(encoding="utf-8"))
            if anchor.lower() not in slugs:
                problems.append(
                    f"{path.relative_to(root)}: broken anchor -> {target} "
                    f"(no heading slug {anchor!r} in {anchor_source.name})"
                )
    return problems


def python_doctest_blocks(markdown: str) -> Iterable[Tuple[int, str]]:
    """Yield ``(line_number, source)`` for python blocks with ``>>>`` examples."""
    for match in _FENCE_PATTERN.finditer(markdown):
        language, body = match.group(1), match.group(2)
        if language not in ("python", "pycon"):
            continue
        if ">>>" not in body:
            continue
        line = markdown.count("\n", 0, match.start()) + 1
        yield line, body


def check_doctests(path: Path, root: Path) -> List[str]:
    """Doctest failures in one file's python code blocks (empty when clean)."""
    problems: List[str] = []
    markdown = path.read_text(encoding="utf-8")
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner(verbose=False, optionflags=doctest.ELLIPSIS)
    for line, body in python_doctest_blocks(markdown):
        name = f"{path.relative_to(root)}:{line}"
        test = parser.get_doctest(body, {}, name, str(path), line)
        output: List[str] = []
        runner.run(test, out=output.append)
        if runner.failures:
            problems.append(f"{name}: doctest failed\n{''.join(output)}")
            runner = doctest.DocTestRunner(
                verbose=False, optionflags=doctest.ELLIPSIS
            )  # fresh counters for the next block
    return problems


def check_generated(root: Path) -> List[str]:
    """Stale generated pages under ``root`` (empty when clean).

    Each generated page is only checked when it exists under ``root``, so
    the checker stays usable on synthetic documentation trees (the unit
    tests exercise it on temporary directories).
    """
    problems: List[str] = []

    scenarios_page = root / "docs" / "scenarios.md"
    if scenarios_page.exists():
        from repro.scenarios.docs import render_scenarios_markdown

        if scenarios_page.read_text(encoding="utf-8") != render_scenarios_markdown():
            problems.append(
                f"{scenarios_page.relative_to(root)}: stale; regenerate with "
                "`PYTHONPATH=src python -m repro.scenarios.docs`"
            )

    validation_page = root / "docs" / "validation.md"
    if validation_page.exists():
        artifact = root / "docs" / "validation_campaign.json"
        if not artifact.exists():
            problems.append(
                f"{validation_page.relative_to(root)}: campaign artifact "
                f"{artifact.relative_to(root)} is missing"
            )
        else:
            from repro.exceptions import ValidationError
            from repro.validation.artifacts import load_campaign_dict
            from repro.validation.report import render_validation_markdown

            try:
                rendering = render_validation_markdown(load_campaign_dict(artifact))
            except ValidationError as error:
                problems.append(
                    f"{artifact.relative_to(root)}: unreadable campaign "
                    f"artifact — {error}"
                )
            else:
                if validation_page.read_text(encoding="utf-8") != rendering:
                    problems.append(
                        f"{validation_page.relative_to(root)}: not regenerable from "
                        f"{artifact.relative_to(root)}; regenerate with "
                        "`PYTHONPATH=src python -m repro.validation.report`"
                    )
    return problems


def json_spec_blocks(markdown: str) -> Iterable[Tuple[int, str]]:
    """Yield ``(line_number, source)`` for fenced ``json`` blocks."""
    for match in _FENCE_PATTERN.finditer(markdown):
        language, body = match.group(1), match.group(2)
        if language != "json":
            continue
        line = markdown.count("\n", 0, match.start()) + 1
        yield line, body


#: Pages whose fenced ``json`` blocks must all be loadable experiment
#: specs.  Response payloads and other non-spec JSON on these pages use a
#: ``jsonc`` fence instead, which this check deliberately skips.
_SPEC_SNIPPET_PAGES = ("docs/api.md", "docs/service.md")


def check_spec_snippets(root: Path) -> List[str]:
    """Invalid experiment-spec snippets in the spec pages (empty when clean).

    The API and service documentation promise that every JSON block is a
    loadable :class:`~repro.api.spec.ExperimentSpec`; this check keeps the
    promise honest by constructing each one through
    ``ExperimentSpec.from_dict``.
    """
    import json

    from repro.api import ExperimentSpec
    from repro.exceptions import ReproError

    problems: List[str] = []
    for page_name in _SPEC_SNIPPET_PAGES:
        page = root / page_name
        if not page.exists():
            continue
        markdown = page.read_text(encoding="utf-8")
        for line, body in json_spec_blocks(markdown):
            name = f"{page.relative_to(root)}:{line}"
            try:
                payload = json.loads(body)
            except json.JSONDecodeError as error:
                problems.append(f"{name}: spec snippet is not valid JSON — {error}")
                continue
            try:
                ExperimentSpec.from_dict(payload)
            except ReproError as error:
                problems.append(f"{name}: spec snippet does not parse — {error}")
    return problems


def run_checks(root: Path) -> List[str]:
    """All documentation problems under ``root`` (empty when clean)."""
    problems: List[str] = []
    for path in documentation_files(root):
        problems.extend(check_links(path, root))
        problems.extend(check_doctests(path, root))
    problems.extend(check_generated(root))
    problems.extend(check_spec_snippets(root))
    return problems


def main() -> int:
    root = repo_root()
    files = documentation_files(root)
    problems = run_checks(root)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"docs check: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print(f"docs check: {len(files)} file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
