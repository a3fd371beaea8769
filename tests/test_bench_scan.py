"""The runtime flags of ``query`` and ``demo`` reconfigure the store.

``--workers`` / ``--cache-policy`` / ``--cache-capacity-kb`` go through
``DataStore.configure_runtime``; a tiny store proves the flags parse,
apply and leave the answer and the cache report in place. (The file
keeps the name it had when it also smoke-tested the retired scan sweep,
so these test ids stay stable.)
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.formats import write_csv


class TestQueryRuntimeFlags:
    @pytest.fixture()
    def store_path(self, log_table, tmp_path):
        csv = str(tmp_path / "logs.csv")
        write_csv(log_table, csv)
        out = str(tmp_path / "s.pds")
        assert (
            main(
                [
                    "import", csv, out,
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
