"""Tier-1 gate: the library itself passes its own invariant checker.

This is the test that makes the contracts *enforced*: any new
wall-clock read, global RNG draw, dropped event, or boundary leak in
``src/`` fails CI here unless it carries a justified pragma (or, as a
last resort, a baseline entry — the committed baseline is empty and
should stay that way).
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.project import audit_paths
from repro.analysis.reporting import load_baseline, split_by_baseline

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
)


@pytest.fixture(scope="module")
def audit():
    """One whole-program pass over ``src`` shared by every test here:
    its findings are the per-file rules' plus the project rules'."""
    cwd = os.getcwd()
    os.chdir(REPO_ROOT)
    try:
        return audit_paths(["src"])
    finally:
        os.chdir(cwd)


@pytest.fixture(scope="module")
def baseline():
    return load_baseline(os.path.join(REPO_ROOT, "lint-baseline.json"))


def test_src_has_zero_unbaselined_violations(audit, baseline):
    _findings, project = audit
    fresh, _known = split_by_baseline(project.file_findings, baseline)
    assert fresh == [], "\n" + "\n".join(f.render() for f in fresh)


def test_baseline_carries_no_stale_debt(audit, baseline):
    # Every baseline entry must still correspond to a real finding;
    # fixed violations must be removed from the baseline, not hoarded.
    findings, _project = audit
    stale = baseline - {f.key for f in findings}
    assert stale == set(), f"stale baseline entries: {sorted(stale)}"


def test_src_is_clean_under_the_whole_program_audit(audit, baseline):
    # The `make audit` gate as a tier-1 test: per-file rules plus the
    # call-graph taint, concurrency, and protocol packs, zero findings.
    findings, project = audit
    fresh, _known = split_by_baseline(findings, baseline)
    assert fresh == [], "\n" + "\n".join(f.render() for f in fresh)
    assert project.stats["files"] > 100  # the pass saw the whole tree
