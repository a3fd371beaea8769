"""fsck tests: clean stores pass; injected corruption is caught, with a
distinct finding code per corruption class."""

import copy
import json

import numpy as np
import pytest

from repro.analysis import fsck_file, fsck_store
from repro.core.datastore import DataStore, DataStoreOptions
from repro.monitoring import counters
from repro.storage.elements import ConstantElements, PackedElements, encode_elements
from repro.storage.serde import save_store
from repro.workload.generator import LogsConfig, generate_query_logs


@pytest.fixture(scope="module")
def pristine() -> DataStore:
    """A small partitioned store; tests deepcopy it before corrupting."""
    table = generate_query_logs(
        LogsConfig(n_rows=800, n_days=20, n_teams=8, seed=13)
    )
    return DataStore.from_table(
        table,
        DataStoreOptions(
            partition_fields=("country", "table_name"),
            max_chunk_rows=100,
            reorder_rows=True,
            optimized_dicts=False,
        ),
    )


@pytest.fixture
def store(pristine) -> DataStore:
    return copy.deepcopy(pristine)


def _chunk_with_dict_size(store, field_name, minimum=2):
    field = store.field(field_name)
    for chunk in field.chunks:
        if chunk.chunk_dict.size >= minimum:
            return field, chunk
    raise AssertionError(
        f"no chunk of {field_name!r} has >= {minimum} distinct values"
    )


class TestCleanStore:
    def test_pristine_store_is_clean(self, pristine):
        report = fsck_store(pristine)
        assert report.ok, "\n" + report.to_text()
        assert report.items_checked > 50

    def test_store_without_partitioning_is_clean(self):
        table = generate_query_logs(LogsConfig(n_rows=300, seed=5))
        basic = DataStore.from_table(
            table,
            DataStoreOptions(
                partition_fields=None,
                optimized_columns=False,
                optimized_dicts=False,
            ),
        )
        assert fsck_store(basic).ok

    def test_optimized_store_is_clean(self, log_store):
        # The session-wide optimized store (tries, bitsets, constants).
        assert fsck_store(log_store).ok

    def test_clean_file_round_trip(self, pristine, tmp_path):
        path = str(tmp_path / "clean.pds")
        save_store(pristine, path)
        assert fsck_file(path).ok

    def test_counters_advance(self, pristine):
        before = counters.get("analysis.fsck.stores_checked")
        checks_before = counters.get("analysis.fsck.checks_run")
        fsck_store(pristine)
        assert counters.get("analysis.fsck.stores_checked") == before + 1
        assert counters.get("analysis.fsck.checks_run") > checks_before

    def test_json_output_shape(self, pristine):
        payload = json.loads(fsck_store(pristine).to_json())
        assert payload["tool"] == "fsck"
        assert payload["ok"] is True
        assert payload["findings"] == []


class TestCorruptionDetection:
    """Each injected corruption class yields its own finding code."""

    def test_unsorted_global_dictionary(self, store):
        dictionary = store.field("country").dictionary
        values = dictionary._values
        assert len(values) >= 2
        values[0], values[1] = values[1], values[0]
        report = fsck_store(store, check_serde=False)
        assert "FSCK001" in report.codes()

    def test_unsorted_chunk_dictionary(self, store):
        _, chunk = _chunk_with_dict_size(store, "table_name")
        chunk.chunk_dict = chunk.chunk_dict[::-1].copy()
        report = fsck_store(store, check_serde=False)
        assert "FSCK003" in report.codes()

    def test_chunk_dict_exceeds_global_dictionary(self, store):
        field, chunk = _chunk_with_dict_size(store, "table_name", minimum=1)
        chunk.chunk_dict = chunk.chunk_dict.copy()
        chunk.chunk_dict[-1] = len(field.dictionary) + 7
        report = fsck_store(store, check_serde=False)
        assert "FSCK004" in report.codes()

    def test_element_chunk_id_out_of_range(self, store):
        _, chunk = _chunk_with_dict_size(store, "table_name", minimum=1)
        n = chunk.elements.n_rows
        chunk.elements = PackedElements(
            np.full(n, chunk.chunk_dict.size + 3, dtype=np.uint32), 4
        )
        report = fsck_store(store, check_serde=False)
        assert "FSCK005" in report.codes()

    def test_stale_min_max_bounds(self, store):
        # Rows no longer reference the last chunk-dict slot, so the
        # chunk's max_global_id bound is stale.
        _, chunk = _chunk_with_dict_size(store, "table_name")
        n = chunk.elements.n_rows
        chunk.elements = encode_elements(
            np.zeros(n, dtype=np.uint32), chunk.chunk_dict.size, optimized=False
        )
        report = fsck_store(store, check_serde=False)
        assert "FSCK006" in report.codes()
        [finding] = [f for f in report if f.code == "FSCK006"][:1]
        assert "stale" in finding.message

    def test_row_count_mismatch(self, store):
        field = store.field("latency")
        chunk = field.chunks[0]
        chunk.elements = ConstantElements(chunk.elements.n_rows + 3, 0)
        report = fsck_store(store, check_serde=False)
        assert "FSCK007" in report.codes()

    def test_partition_range_overlap(self, store):
        # Stretch one chunk's first-partition-field range over its
        # neighbour's: composite range partitioning forbids overlap.
        field = store.field("country")
        intervals = sorted(
            (int(c.chunk_dict[0]), int(c.chunk_dict[-1]), i)
            for i, c in enumerate(field.chunks)
            if c.chunk_dict.size
        )
        pair = next(
            (a, b)
            for a, b in zip(intervals, intervals[1:])
            if (a[0], a[1]) != (b[0], b[1])
        )
        (lo_a, _, index), (_, hi_b, _) = pair
        chunk = field.chunks[index]
        chunk.chunk_dict = np.array(
            sorted({lo_a, hi_b}), dtype=np.uint32
        )
        n = chunk.elements.n_rows
        chunk.elements = encode_elements(
            np.arange(n, dtype=np.uint32) % chunk.chunk_dict.size,
            int(chunk.chunk_dict.size),
            optimized=False,
        )
        report = fsck_store(store, check_serde=False)
        assert "FSCK008" in report.codes()

    def test_truncated_store_file(self, pristine, tmp_path):
        path = str(tmp_path / "trunc.pds")
        size = save_store(pristine, path)
        with open(path, "r+b") as handle:
            handle.truncate(size // 2)
        report = fsck_file(path)
        assert report.codes() == {"FSCK010"}

    def test_unreadable_file(self, tmp_path):
        report = fsck_file(str(tmp_path / "missing.pds"))
        assert report.codes() == {"FSCK010"}

    def test_distinct_codes_per_corruption_class(self):
        # The acceptance bar: >= 5 corruption classes, each with its own
        # stable code (documented in repro.analysis.catalog).
        from repro.analysis.catalog import FSCK_CATALOG

        exercised = {
            "FSCK001",  # unsorted global dictionary
            "FSCK003",  # unsorted chunk-dictionary
            "FSCK004",  # chunk-dict id beyond the global dictionary
            "FSCK005",  # element chunk-id out of range
            "FSCK006",  # stale min/max bounds (unused edge slot)
            "FSCK007",  # row-count disagreement
            "FSCK008",  # partition range overlap
            "FSCK010",  # unparseable store file
        }
        assert len(exercised) >= 5
        assert exercised <= {entry.code for entry in FSCK_CATALOG}


class TestFindingsNeverRaise:
    def test_heavily_corrupted_store_still_reports(self, store):
        # Multiple simultaneous corruptions: fsck must return findings,
        # not raise.
        dictionary = store.field("country").dictionary
        dictionary._values[0], dictionary._values[1] = (
            dictionary._values[1],
            dictionary._values[0],
        )
        field = store.field("table_name")
        for chunk in field.chunks[:2]:
            chunk.chunk_dict = chunk.chunk_dict[::-1].copy()
        store.n_rows += 11
        report = fsck_store(store, check_serde=False)
        assert not report.ok
        assert len(report.codes()) >= 2
