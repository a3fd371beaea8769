"""Unit tests for the reprolint rules, suppressions and output formats."""

import json
import os
import re
import textwrap

import pytest

from repro.errors import AnalysisError
from tools.reprolint import all_rules, get_rule, run_lint

#: Codes of rules retired with their tests; never reused.
RETIRED_CODES = (
    *(f"REP{n:03d}" for n in range(1, 17)),
    "REP019",
)


def lint_snippet(tmp_path, source, rel_path="mod.py"):
    """Write ``source`` at ``rel_path`` under a tmp root and lint the root.

    ``rel_path`` controls the path-scoping rules see (scoped and exempt
    file names), so tests can place snippets 'inside' core/executor.py
    or compress/registry.py.
    """
    target = tmp_path / rel_path
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    return run_lint([str(tmp_path)])


def lint_executor(tmp_path, source):
    """Lint ``source`` as core/executor.py, where REP017 applies."""
    return lint_snippet(tmp_path, source, rel_path="core/executor.py")


class TestSuppressions:
    def test_line_suppression_silences(self, tmp_path):
        report = lint_executor(
            tmp_path,
            """
            def f(future):
                return future.result()  # reprolint: disable=REP017 -- test
            """,
        )
        assert report.ok
        assert report.suppressed == 1

    def test_suppression_on_other_line_does_not_apply(self, tmp_path):
        report = lint_executor(
            tmp_path,
            """
            # reprolint: disable=REP017 -- wrong line
            def f(future):
                return future.result()
            """,
        )
        assert report.codes() == {"REP017"}

    def test_file_suppression_silences_whole_module(self, tmp_path):
        report = lint_executor(
            tmp_path,
            """
            # reprolint: disable-file=REP017 -- demo module
            def f(future, worker):
                worker.join()
                return future.result()
            """,
        )
        assert report.ok
        assert report.suppressed == 2

    def test_suppressing_one_code_leaves_others(self, tmp_path):
        report = lint_executor(
            tmp_path,
            """
            def f(future):
                return future.result(), get_codec("zippy")  # reprolint: disable=REP018
            """,
        )
        assert report.codes() == {"REP017"}
        assert report.suppressed == 1


class TestFingerprints:
    def test_fingerprint_survives_reindentation_and_line_shifts(self, tmp_path):
        first = lint_executor(
            tmp_path,
            """
            def f(future):
                return future.result()
            """,
        ).findings[0]
        (tmp_path / "core" / "executor.py").unlink()
        second = lint_executor(
            tmp_path,
            """
            # a new leading comment moves every line number
            UNRELATED = 1


            def f(future):
                return future.result()
            """,
        ).findings[0]
        assert first.fingerprint == second.fingerprint
        assert first.symbol == second.symbol == "f"
        assert first.where != second.where  # lines moved; identity didn't

    def test_same_symbol_occurrences_get_distinct_fingerprints(self, tmp_path):
        report = lint_executor(
            tmp_path,
            """
            def f(flag, future):
                if flag:
                    return future.result()
                return future.result()
            """,
        )
        prints = [f.fingerprint for f in report.findings]
        assert len(prints) == 2
        assert len(set(prints)) == 2

    def test_fingerprint_and_symbol_in_json(self, tmp_path):
        report = lint_executor(
            tmp_path,
            """
            class C:
                def f(self, future):
                    return future.result()
            """,
        )
        payload = json.loads(report.to_json())
        finding = payload["findings"][0]
        assert finding["symbol"] == "C.f"
        assert len(finding["fingerprint"]) == 12


class TestUnboundedFutureWait:
    # REP017 is scoped to core/executor.py — the snippets must carry
    # that basename for the only_files match to apply.

    def test_bare_result_flagged(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def collect(future):
                return future.result()
            """,
            rel_path="core/executor.py",
        )
        assert report.codes() == {"REP017"}
        assert ".result()" in report.findings[0].message

    def test_bare_join_flagged(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def drain(worker):
                worker.join()
            """,
            rel_path="core/executor.py",
        )
        assert report.codes() == {"REP017"}
        assert ".join()" in report.findings[0].message

    def test_bounded_waits_allowed(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def collect(future, worker, deadline):
                worker.join(timeout=deadline)
                worker.join(deadline)
                return future.result(timeout=deadline)
            """,
            rel_path="core/executor.py",
        )
        assert report.ok

    def test_str_join_never_matches(self, tmp_path):
        # str.join always takes its iterable argument, so the
        # zero-argument pattern cannot catch it.
        report = lint_snippet(
            tmp_path,
            """
            def describe(parts):
                return ", ".join(parts)
            """,
            rel_path="core/executor.py",
        )
        assert report.ok

    def test_other_modules_exempt(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def collect(future):
                return future.result()
            """,
            rel_path="distributed/cluster.py",
        )
        assert report.ok

    def test_suppression_with_reason_honoured(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def collect(future):
                return future.result()  # reprolint: disable=REP017 -- thread workers cannot be killed
            """,
            rel_path="core/executor.py",
        )
        assert report.ok


class TestHardcodedCodecName:
    def test_registry_call_literal_flagged(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            from repro.compress.registry import get_codec

            def pick():
                return get_codec("zippy")
            """,
            rel_path="storage/cold.py",
        )
        assert report.codes() == {"REP018"}
        assert "'zippy'" in report.findings[0].message

    def test_codec_keyword_literal_flagged(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def build(make_store):
                return make_store(codec="lzo")
            """,
            rel_path="storage/cold.py",
        )
        assert report.codes() == {"REP018"}

    def test_codec_assignment_and_comparison_flagged(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def demote(self, field):
                self.codec_name = "rle"
                if field.codec == "huffman":
                    return True
            """,
            rel_path="storage/cold.py",
        )
        assert len(report.findings) == 2
        assert report.codes() == {"REP018"}

    def test_parameter_default_is_declared(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def write(path, codec="zippy"):
                return path, codec
            """,
            rel_path="formats/columnio.py",
        )
        assert report.ok

    def test_module_constant_is_declared(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            STATIC_CODEC = "zippy"

            def baseline():
                return STATIC_CODEC
            """,
            rel_path="workload/bench.py",
        )
        assert report.ok

    def test_lowercase_module_binding_still_flagged(self, tmp_path):
        # Only ALL_CAPS module constants are sanctioned declarations.
        report = lint_snippet(
            tmp_path,
            """
            default_codec = "zippy"
            """,
            rel_path="workload/bench.py",
        )
        assert report.codes() == {"REP018"}

    def test_unregistered_strings_ignored(self, tmp_path):
        # "auto" and unknown names are not registry codecs, and literals
        # outside codec-selecting positions are always fine.
        report = lint_snippet(
            tmp_path,
            """
            def route(store, mode):
                store.codec = "auto"
                label = "zippy"
                return mode == "zstd", label
            """,
            rel_path="storage/cold.py",
        )
        assert report.ok

    def test_registry_and_advisor_modules_exempt(self, tmp_path):
        snippet = """
            def register_defaults(register):
                register(codec="zippy")
        """
        for rel_path in ("compress/registry.py", "compress/advisor.py"):
            report = lint_snippet(
                tmp_path, snippet, rel_path=rel_path
            )
            assert report.ok, rel_path

    def test_suppression_with_reason_honoured(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def pin(store):
                store.codec = "zippy"  # reprolint: disable=REP018 -- golden-file fixture pins the layout
            """,
            rel_path="storage/cold.py",
        )
        assert report.ok


def _design_md() -> str:
    design = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "DESIGN.md",
    )
    with open(design, encoding="utf-8") as handle:
        return handle.read()


class TestCatalogConsistency:
    def test_every_rule_has_a_catalog_entry(self):
        from tools.reprolint.catalog import LINT_CATALOG

        catalog_codes = [entry.code for entry in LINT_CATALOG]
        registered = [rule.code for rule in all_rules()]
        assert sorted(catalog_codes) == registered

    def test_every_rule_has_a_design_md_section(self):
        table = re.findall(r"^\| (REP\d{3}) \|", _design_md(), re.MULTILINE)
        registered = [rule.code for rule in all_rules()]
        assert sorted(table) == registered, (
            "DESIGN.md's rule table and the registered rules differ"
        )

    def test_rules_docstring_mentions_current_range(self):
        import tools.reprolint.rules as rules_module

        last = max(rule.code for rule in all_rules())
        assert last in rules_module.__doc__

    def test_retired_codes_are_unknown_not_reused(self):
        # Retired with their rules; never renumbered, so a code in an
        # old suppression or CI log cannot alias a newer rule.
        registered = [rule.code for rule in all_rules()]
        assert len(registered) == 2
        for code in RETIRED_CODES:
            with pytest.raises(AnalysisError) as raised:
                get_rule(code)
            error = str(raised.value)
            assert f"unknown rule {code!r}" in error
            assert error.count("REP0") == 1 + len(registered)
            assert all(known in error for known in registered)


class TestEngine:
    def test_registry_is_complete_and_ordered(self):
        codes = [rule.code for rule in all_rules()]
        assert codes == ["REP017", "REP018"]

    def test_get_rule_unknown_raises(self):
        with pytest.raises(AnalysisError):
            get_rule("REP999")

    def test_missing_path_raises(self):
        with pytest.raises(AnalysisError):
            run_lint(["/nonexistent/lint/root"])

    def test_json_output_shape(self, tmp_path):
        report = lint_executor(
            tmp_path,
            """
            def f(future):
                return future.result()
            """,
        )
        payload = json.loads(report.to_json())
        assert payload["tool"] == "reprolint"
        assert payload["ok"] is False
        assert payload["findings"][0]["code"] == "REP017"
        assert payload["findings"][0]["severity"] == "error"
        assert "core/executor.py" in payload["findings"][0]["where"]

    def test_findings_carry_location(self, tmp_path):
        report = lint_executor(
            tmp_path,
            """
            def f(future):
                return future.result()
            """,
        )
        where = report.findings[0].where
        assert where.startswith("core/executor.py:")
        line = int(where.split(":")[1])
        assert line == 3  # dedented snippet keeps the leading newline

    def test_syntax_error_raises_analysis_error(self, tmp_path):
        with pytest.raises(AnalysisError):
            lint_snippet(tmp_path, "def broken(:\n")
