"""CLI tests: import / query / info / demo / fsck paths and the runtime flags."""

import argparse

import pytest

from repro.cli import build_parser, main
from repro.formats import write_csv
from repro.storage.serde import load_store
from tools.reprolint.cli import main as lint_main


@pytest.fixture()
def csv_path(log_table, tmp_path):
    path = str(tmp_path / "logs.csv")
    write_csv(log_table, path)
    return path


class TestImport:
    def test_import_creates_loadable_store(self, csv_path, tmp_path, capsys):
        out = str(tmp_path / "s.pds")
        code = main(
            [
                "import", csv_path, out,
                "--partition", "country,table_name",
                "--chunk-rows", "200",
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "imported" in text
        assert "import phases:" in text
        assert "factorize" in text
        assert "rows/s" in text
        store = load_store(out)
        assert store.n_chunks > 1
        assert store.options.reorder_rows

    def test_import_without_partition(self, csv_path, tmp_path):
        out = str(tmp_path / "s.pds")
        assert main(["import", csv_path, out]) == 0
        assert load_store(out).n_chunks == 1

    def test_unsupported_format(self, tmp_path, capsys):
        bad = str(tmp_path / "data.xyz")
        open(bad, "w").write("")
        code = main(["import", bad, str(tmp_path / "s.pds")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_csv_type_sniffing(self, tmp_path):
        path = str(tmp_path / "typed.csv")
        open(path, "w").write("a,b,c\n1,1.5,x\n2,\\N,y\n")
        out = str(tmp_path / "typed.pds")
        assert main(["import", path, out]) == 0
        store = load_store(out)
        assert store.field("a").dictionary.values() == [1, 2]
        assert store.field("b").dictionary.values() == [None, 1.5]
        assert store.field("c").dictionary.values() == ["x", "y"]


class TestQuery:
    @pytest.fixture()
    def store_path(self, csv_path, tmp_path):
        out = str(tmp_path / "s.pds")
        main(["import", csv_path, out, "--partition", "country,table_name",
              "--chunk-rows", "200"])
        return out

    def test_query_prints_rows_and_stats(self, store_path, capsys):
        code = main(
            [
                "query", store_path,
                "SELECT country, COUNT(*) c FROM data "
                "GROUP BY country ORDER BY c DESC LIMIT 3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "country" in out
        assert "skipped" in out

    def test_quiet_suppresses_stats(self, store_path, capsys):
        main(["query", store_path, "SELECT COUNT(*) FROM data", "--quiet"])
        out = capsys.readouterr().out
        assert "skipped" not in out

    def test_bad_sql_is_an_error(self, store_path, capsys):
        code = main(["query", store_path, "SELEKT nope"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestInfoAndDemo:
    def test_info(self, csv_path, tmp_path, capsys):
        out = str(tmp_path / "s.pds")
        main(["import", csv_path, out, "--partition", "country"])
        assert main(["info", out]) == 0
        text = capsys.readouterr().out
        assert "table_name" in text
        assert "total encoded" in text

    def test_demo_runs_paper_queries(self, capsys):
        assert main(["demo", "--rows", "2000"]) == 0
        text = capsys.readouterr().out
        assert text.count("--") >= 3  # three query banners


class TestQueryRuntimeFlags:
    """``--workers`` / ``--cache-policy`` / ``--cache-capacity-kb`` go
    through ``DataStore.configure_runtime``; a tiny store proves the
    flags parse, apply and leave the answer and the cache report in
    place."""

    @pytest.fixture()
    def store_path(self, csv_path, tmp_path):
        out = str(tmp_path / "s.pds")
        assert (
            main(
                [
                    "import", csv_path, out,
                    "--partition", "country,table_name",
                    "--chunk-rows", "300",
                ]
            )
            == 0
        )
        return out

    def test_query_with_runtime_flags(self, store_path, capsys):
        code = main(
            [
                "query", store_path,
                "SELECT country, COUNT(*) AS c FROM data "
                "GROUP BY country ORDER BY c DESC LIMIT 3",
                "--workers", "4",
                "--cache-policy", "arc",
                "--cache-capacity-kb", "256",
            ]
        )
        assert code == 0
        assert "rows in" in capsys.readouterr().out

    def test_bad_cache_policy_rejected(self, store_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "query", store_path,
                    "SELECT COUNT(*) FROM data",
                    "--cache-policy", "fifo",
                ]
            )

    def test_demo_reports_cache_counters(self, capsys):
        assert main(["demo", "--rows", "1500", "--workers", "2"]) == 0
        assert "chunk-result cache:" in capsys.readouterr().out


def registered_subcommands() -> set[str]:
    """The subcommand names ``repro`` accepts, read off the parser."""
    (subparsers,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return set(subparsers.choices)


class TestSubcommandSet:
    def test_exactly_the_system_subcommands(self):
        assert registered_subcommands() == {
            "import", "query", "repl", "info", "describe", "demo", "fsck",
        }

    @pytest.mark.parametrize("retired", ["bench", "chaos", "serve"])
    def test_retired_subcommands_are_usage_errors(self, retired, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([retired])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestUnreadablePath:
    """A path the CLI cannot open is an ``error:`` line, not a traceback."""

    @pytest.fixture(params=["missing", "directory"])
    def bad_path(self, request, tmp_path):
        return str(tmp_path / "missing.pds") if request.param == "missing" else str(tmp_path)

    @pytest.mark.parametrize(
        "argv",
        [["query", "SELECT COUNT(*) FROM data"], ["info"]],
        ids=["query", "info"],
    )
    def test_store_commands_report_an_error(self, argv, bad_path, capsys):
        assert main([argv[0], bad_path, *argv[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert bad_path in captured.err
        assert "Traceback" not in captured.out + captured.err

    def test_fsck_reports_one_unreadable_finding(self, bad_path, capsys):
        assert main(["fsck", bad_path]) == 1
        captured = capsys.readouterr()
        assert captured.out.count("FSCK010") == 1
        assert "advisor codec choices" not in captured.out
        assert "Traceback" not in captured.out + captured.err


class TestLintJson:
    """reprolint's JSON output, through its ``python -m tools.reprolint`` entry."""

    def test_lint_json_smoke(self, tmp_path, capsys):
        import json

        bad = tmp_path / "mod.py"
        bad.write_text('def f():\n    raise ValueError("x")\n')
        code = lint_main([str(bad), "--json", "--select", "REP001"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "reprolint"
        finding = payload["findings"][0]
        assert finding["code"] == "REP001"
        assert finding["symbol"] == "f"
        assert len(finding["fingerprint"]) == 12

    def test_lint_json_fingerprints_are_stable_across_line_shifts(
        self, tmp_path, capsys
    ):
        import json

        bad = tmp_path / "mod.py"
        bad.write_text('def f():\n    raise ValueError("x")\n')
        lint_main([str(bad), "--json", "--select", "REP001"])
        first = json.loads(capsys.readouterr().out)["findings"][0]
        bad.write_text('# moved\n\ndef f():\n    raise ValueError("x")\n')
        lint_main([str(bad), "--json", "--select", "REP001"])
        second = json.loads(capsys.readouterr().out)["findings"][0]
        assert first["fingerprint"] == second["fingerprint"]
        assert first["where"] != second["where"]

    def test_lint_clean_path_exits_zero(self, tmp_path, capsys):
        good = tmp_path / "mod.py"
        good.write_text("def f() -> int:\n    return 1\n")
        assert lint_main([str(good), "--json"]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["findings"] == []
