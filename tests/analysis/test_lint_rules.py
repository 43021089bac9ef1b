"""Per-rule coverage for the static conformance lint.

Each PHX rule has a seeded-violation fixture module under ``fixtures/``
(lint input only, never imported).  Violating lines carry an
``# expect: PHX00x`` marker; a sibling line shows the ``# phx: disable``
pragma silencing the same construct.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.analysis.lint import lint_file, lint_paths, lint_source
from repro.analysis.rules import RULES

FIXTURES = Path(__file__).parent / "fixtures"
REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

ALL_RULES = sorted(RULES)
#: rules fired by the AST lint itself; PHX010-012 come from the
#: whole-program inference engine (tests/analysis/test_infer.py),
#: PHX013 from the durability-site/yield-point scan
#: (tests/analysis/test_sites.py)
LINT_RULES = [f"PHX{n:03d}" for n in range(1, 8)]
INFER_RULES = ["PHX010", "PHX011", "PHX012"]
SITES_RULES = ["PHX013"]
#: rules fired by the shard planner on whole-app wiring — no
#: single-file fixture applies; covered in tests/analysis/test_plan.py
PLAN_RULES = ["PHX015", "PHX016"]


def fixture_for(rule_id: str) -> Path:
    return FIXTURES / f"fixture_{rule_id.lower()}.py"


def marked_lines(path: Path, marker: str) -> list[int]:
    return [
        number
        for number, text in enumerate(
            path.read_text().splitlines(), start=1
        )
        if marker in text
    ]


class TestRegistry:
    def test_rule_ids_are_wellformed_and_documented(self):
        assert (
            ALL_RULES
            == LINT_RULES + INFER_RULES + SITES_RULES + PLAN_RULES
        )
        for rule in RULES.values():
            assert rule.fixit
            assert rule.paper_ref

    def test_every_rule_has_a_fixture(self):
        for rule_id in ALL_RULES:
            if rule_id in PLAN_RULES:
                continue
            assert fixture_for(rule_id).exists()


class TestRulesFire:
    @pytest.mark.parametrize("rule_id", LINT_RULES)
    def test_fires_with_right_id_and_line(self, rule_id):
        fixture = fixture_for(rule_id)
        expected = marked_lines(fixture, f"# expect: {rule_id}")
        assert expected, f"{fixture.name} has no seeded violation"
        fired = [
            (finding.rule_id, finding.line)
            for finding in lint_file(fixture)
        ]
        for line in expected:
            assert (rule_id, line) in fired

    @pytest.mark.parametrize("rule_id", LINT_RULES)
    def test_no_findings_beyond_the_seeded_ones(self, rule_id):
        fixture = fixture_for(rule_id)
        expected = set(marked_lines(fixture, "# expect:"))
        for finding in lint_file(fixture):
            assert finding.line in expected

    def test_render_includes_fixit(self):
        finding = lint_file(fixture_for("PHX001"))[0]
        rendered = finding.render()
        assert "PHX001" in rendered
        assert "[fix:" in rendered
        assert f":{finding.line}:" in rendered


class TestSuppression:
    @pytest.mark.parametrize("rule_id", LINT_RULES)
    def test_pragma_suppresses(self, rule_id):
        fixture = fixture_for(rule_id)
        source = fixture.read_text()
        pragma_lines = marked_lines(fixture, "phx: disable")
        assert pragma_lines, f"{fixture.name} has no pragma example"
        for finding in lint_file(fixture):
            assert finding.line not in pragma_lines
        # Stripping the pragmas (same line count) resurfaces the finding
        stripped = re.sub(r"#\s*phx:\s*disable[^\n]*", "", source)
        resurfaced = lint_source(stripped, str(fixture))
        assert any(
            finding.rule_id == rule_id and finding.line in pragma_lines
            for finding in resurfaced
        )

    def test_bare_pragma_suppresses_all_rules(self):
        source = (
            "import random\n"
            "@persistent\n"
            "class C(PersistentComponent):\n"
            "    def m(self):\n"
            "        return random.random()  # phx: disable\n"
        )
        assert lint_source(source) == []

    def test_def_line_pragma_covers_the_body(self):
        source = (
            "import random\n"
            "@persistent\n"
            "class C(PersistentComponent):\n"
            "    def m(self):  # phx: disable=PHX001\n"
            "        return random.random()\n"
        )
        assert lint_source(source) == []
        # ...but only for the listed rule
        wrong = source.replace("PHX001", "PHX002")
        assert [f.rule_id for f in lint_source(wrong)] == ["PHX001"]


class TestScope:
    def test_non_component_classes_are_not_linted_for_determinism(self):
        source = (
            "import random\n"
            "class Plain:\n"
            "    def m(self):\n"
            "        return random.random()\n"
        )
        assert lint_source(source) == []

    def test_inherited_component_classes_are_linted(self):
        source = (
            "import random\n"
            "class Base(PersistentComponent):\n"
            "    pass\n"
            "class Derived(Base):\n"
            "    def m(self):\n"
            "        return random.random()\n"
        )
        assert [f.rule_id for f in lint_source(source)] == ["PHX001"]


class TestCrossModule:
    """Regression: the old per-module fixpoint missed component bases
    imported from other modules, so subclasses went unlinted."""

    def test_base_imported_from_another_module_is_resolved(self, tmp_path):
        (tmp_path / "base_mod.py").write_text(
            "from repro.core import PersistentComponent, functional\n"
            "@functional\n"
            "class Base(PersistentComponent):\n"
            "    pass\n"
        )
        (tmp_path / "derived_mod.py").write_text(
            "import random\n"
            "from base_mod import Base\n"
            "class Derived(Base):\n"
            "    def m(self):\n"
            "        self.x = random.random()\n"
        )
        ids = sorted(f.rule_id for f in lint_paths([tmp_path]))
        # PHX006 proves the inherited @functional declaration crossed
        # the module boundary; PHX001 proves Derived was linted at all.
        assert ids == ["PHX001", "PHX006"]

    def test_derived_module_linted_alone_still_misses_nothing_new(
        self, tmp_path
    ):
        # Without the base module in the set the subclass cannot be
        # recognized (no decorator, unresolvable base) — pin that the
        # whole-set invocation is what closes the gap.
        (tmp_path / "derived_mod.py").write_text(
            "import random\n"
            "from base_mod import Base\n"
            "class Derived(Base):\n"
            "    def m(self):\n"
            "        self.x = random.random()\n"
        )
        assert lint_paths([tmp_path / "derived_mod.py"]) == []


class TestShippingTreeIsClean:
    """Satellite: the analyzer surfaced no violation left in apps/ or
    core/ (the one it did surface — a crash-unwind bug in the
    interceptor — is fixed in this PR); pin the clean state."""

    def test_apps_and_core_lint_clean(self):
        findings = lint_paths([REPO_SRC / "apps", REPO_SRC / "core"])
        assert findings == [], "\n".join(f.render() for f in findings)
