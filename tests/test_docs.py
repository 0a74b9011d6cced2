"""The docs tier: generated-section drift, dead local links, CHANGES entry size.

``docs/CLI.md`` is generated (``repro-dgnn docs``), so the drift test is
exact equality against a fresh render -- regenerate with::

    PYTHONPATH=src python -m repro.cli docs --output docs/CLI.md

``docs/ARCHITECTURE.md`` embeds the model capability table between two
markers; it is what ``repro-dgnn list-models`` prints
(``repro.models.registry.capability_table``) and must match it byte for byte.
Its "Priced constants" table must name every host-work price of
``hw/spec.py``, in order, with its value.

The link check walks every markdown file in ``docs/`` plus the README and
resolves each relative link target against the repository tree; external
``http(s)``/``mailto`` links are skipped (CI must not depend on the
network).
"""

import os
import re

import pytest

from repro.cli import main, render_cli_docs
from repro.models.registry import capability_table

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS_DIR = os.path.join(REPO_ROOT, "docs")

_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)]+)\)")


def _doc_files():
    paths = [os.path.join(REPO_ROOT, "README.md")]
    for name in sorted(os.listdir(DOCS_DIR)):
        if name.endswith(".md"):
            paths.append(os.path.join(DOCS_DIR, name))
    return paths


def test_docs_tier_exists():
    names = {os.path.basename(path) for path in _doc_files()}
    assert {"README.md", "ARCHITECTURE.md", "CLI.md", "INVARIANTS.md"} <= names


def test_cli_reference_matches_the_parser():
    """docs/CLI.md must be regenerated whenever the argparse tree changes."""
    with open(os.path.join(DOCS_DIR, "CLI.md"), encoding="utf-8") as handle:
        committed = handle.read()
    assert committed == render_cli_docs(), (
        "docs/CLI.md drifted from the parser; regenerate with "
        "`PYTHONPATH=src python -m repro.cli docs --output docs/CLI.md`"
    )


def test_architecture_embeds_the_capability_table_the_cli_prints(capsys):
    with open(os.path.join(DOCS_DIR, "ARCHITECTURE.md"), encoding="utf-8") as handle:
        text = handle.read()
    begin, end = "<!-- capability-table:begin -->\n", "<!-- capability-table:end -->"
    embedded = text[text.index(begin) + len(begin) : text.index(end)]
    assert embedded == capability_table(), (
        "docs/ARCHITECTURE.md's capability table drifted from the model table; paste the "
        "output of `PYTHONPATH=src python -m repro.cli list-models` between the markers"
    )
    assert main(["list-models"]) == 0
    assert capsys.readouterr().out == embedded


def test_architecture_prices_table_matches_the_record_in_hw_spec():
    """The "Priced constants" table lists every host-work price of
    ``hw/spec.py`` -- the same names, in the module's order, with its values."""
    from repro.hw import spec

    with open(os.path.join(DOCS_DIR, "ARCHITECTURE.md"), encoding="utf-8") as handle:
        text = handle.read()
    begin, end = "<!-- priced-constants:begin -->\n", "<!-- priced-constants:end -->"
    table = text[text.index(begin) + len(begin) : text.index(end)]
    documented = re.findall(r"^\| `(\w+)` \| ([^|]+?) \|", table, re.MULTILINE)
    price = re.compile(r"(_US|_FACTOR)$|_US_PER_|_MS_PER_")
    record = [
        (name, repr(value))
        for name, value in vars(spec).items()
        if name.isupper() and price.search(name)
    ]
    assert len(record) == 13
    assert documented == record, (
        "docs/ARCHITECTURE.md's priced-constants table drifted from the host-work prices "
        "in src/repro/hw/spec.py"
    )


#: Cap on a CHANGES.md entry; the per-file ledger belongs in the PR body.
CHANGES_ENTRY_LIMIT = 1500


def test_newest_changes_entry_is_short():
    """Only the newest entry is held to the cap (older ones predate it)."""
    with open(os.path.join(REPO_ROOT, "CHANGES.md"), encoding="utf-8") as handle:
        text = handle.read()
    newest = text[text.rindex("\n- PR ") + 1 :]
    assert len(newest) <= CHANGES_ENTRY_LIMIT, (
        f"the newest CHANGES.md entry is {len(newest)} characters; keep it under "
        f"{CHANGES_ENTRY_LIMIT} and move the ledger to the PR body"
    )


def test_cli_reference_is_terminal_width_independent(monkeypatch):
    """The renderer must not fall back to argparse's wrapping formatter."""
    monkeypatch.setenv("COLUMNS", "40")
    narrow = render_cli_docs()
    monkeypatch.setenv("COLUMNS", "200")
    assert narrow == render_cli_docs()


@pytest.mark.parametrize(
    "path", _doc_files(), ids=[os.path.basename(p) for p in _doc_files()]
)
def test_markdown_links_resolve(path):
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    broken = []
    for match in _LINK.finditer(text):
        target = match.group(1).strip()
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        target = target.split("#", 1)[0]
        if not target:
            continue
        resolved = os.path.normpath(os.path.join(os.path.dirname(path), target))
        if not os.path.exists(resolved):
            broken.append(target)
    assert not broken, f"dead local links in {os.path.basename(path)}: {broken}"
