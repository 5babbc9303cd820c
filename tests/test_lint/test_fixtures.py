"""Golden fixture tests: every rule, exact rule-ids and line numbers.

Each rule has a ``fixtures/<rule>_bad.py`` whose violations are marked
in-line with ``# EXPECT: <rule-id>`` comments, and a
``fixtures/<rule>_good.py`` that must lint clean; a rule may own further
pairs, named by case in ``EXTRA_FIXTURES``.  The tests compare
the *exact* ``(line, rule)`` set against the markers, so a rule that
fires on the wrong line — or stops firing — fails loudly.

The fixtures directory is in the engine's default excludes: the bad
files are deliberate violations and must never reach a real lint run.
"""

from __future__ import annotations

from pathlib import Path
from typing import Set, Tuple

import pytest

from repro.lint import iter_rule_ids, lint_source
from repro.lint.engine import DEFAULT_EXCLUDES

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]

#: dotted module name each rule's fixtures are linted as — this is what
#: routes the snippet into the rule's package scope (hot packages,
#: src-only, sketch substrate, the designated blocking site).
MODULE_FOR_RULE = {
    "broad-except": "repro.service.example",
    "except-pass": "repro.service.example",
    "blocking-get": "repro.runtime.worker",
    "spawn-safety": "repro.runtime.example",
    "unbounded-async-queue": "repro.replica.example",
    "wall-clock": "repro.core.example",
    "unseeded-rng": "repro.streams.example",
    "mergeable-protocol": "repro.sketch.example",
    "mutable-default": "repro.service.example",
    "assert-stmt": "repro.core.example",
    "hot-loop-alloc": "repro.sketch.example",
    "missing-slots": "repro.sketch.example",
    "span-unclosed": "repro.service.example",
    # contract families (project-wide rules, run against a one-module
    # project whose module name routes them into the right package)
    "command-protocol": "repro.runtime.example",
    "wire-frames": "repro.replica.example",
    "metric-surface": "repro.obs.example",
    "snapshot-variants": "repro.core.example",
    "surface-drift": "repro.service.example",
}

ALL_RULES = sorted(MODULE_FOR_RULE)

#: extra fixture pairs, ``fixtures/<case>_bad.py``/``_good.py``: case ->
#: the rule that lints them.  ``metric-name`` holds the literal-name
#: sites ``metric-surface`` checks beside its constant-resolved ones.
EXTRA_FIXTURES = {"metric-name": "metric-surface"}

#: case -> rule, one case per rule plus the extra pairs.
RULE_FOR_CASE = {**{rule_id: rule_id for rule_id in ALL_RULES}, **EXTRA_FIXTURES}
ALL_CASES = sorted(RULE_FOR_CASE)


def _expected_markers(source: str) -> Set[Tuple[int, str]]:
    """(line, rule-id) pairs declared by ``# EXPECT:`` comments."""
    expected = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        marker = line.partition("# EXPECT:")[2]
        for rule_id in marker.split(","):
            if rule_id.strip():
                expected.add((lineno, rule_id.strip()))
    return expected


def _lint_fixture(name: str, rule_id: str):
    source = (FIXTURES / f"{name}.py").read_text(encoding="utf-8")
    findings = lint_source(
        source,
        module_name=MODULE_FOR_RULE[rule_id],
        path=f"{name}.py",
        enable=[rule_id],
        root=REPO_ROOT,
    )
    return source, findings


def test_rule_registry_matches_fixture_table():
    assert list(iter_rule_ids()) == ALL_RULES


def test_every_rule_has_fixture_pair():
    for rule_id in ALL_RULES:
        stem = rule_id.replace("-", "_")
        assert (FIXTURES / f"{stem}_bad.py").is_file(), rule_id
        assert (FIXTURES / f"{stem}_good.py").is_file(), rule_id


def test_fixtures_are_excluded_from_default_runs():
    assert any(
        part in str(FIXTURES).replace("\\", "/") for part in DEFAULT_EXCLUDES
    )


@pytest.mark.parametrize("case", ALL_CASES)
def test_bad_fixture_findings_match_markers_exactly(case):
    rule_id = RULE_FOR_CASE[case]
    stem = case.replace("-", "_")
    source, findings = _lint_fixture(f"{stem}_bad", rule_id)
    expected = _expected_markers(source)
    assert expected, f"{stem}_bad.py declares no EXPECT markers"
    actual = {(finding.line, finding.rule) for finding in findings}
    assert actual == expected
    assert all(finding.rule == rule_id for finding in findings)


@pytest.mark.parametrize("case", ALL_CASES)
def test_good_fixture_is_clean(case):
    stem = case.replace("-", "_")
    source, findings = _lint_fixture(f"{stem}_good", RULE_FOR_CASE[case])
    assert not _expected_markers(source), "good fixtures carry no markers"
    assert findings == []


@pytest.mark.parametrize("case", ALL_CASES)
def test_findings_carry_addressable_positions(case):
    rule_id = RULE_FOR_CASE[case]
    stem = case.replace("-", "_")
    _, findings = _lint_fixture(f"{stem}_bad", rule_id)
    for finding in findings:
        assert finding.line >= 1
        assert finding.symbol
        assert f"[{rule_id}]" in finding.render()
