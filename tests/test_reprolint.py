"""Unit tests for the reprolint rules, suppressions and output formats."""

import json
import os
import textwrap

import pytest

from repro.analysis import Severity, all_rules, get_rule, run_lint
from repro.errors import AnalysisError


def lint_snippet(tmp_path, source, rel_path="mod.py", select=None, **kwargs):
    """Write ``source`` at ``rel_path`` under a tmp root and lint the root.

    ``rel_path`` controls the path-scoping rules see (top-level dir,
    exempt file names), so tests can place snippets 'inside' storage/,
    compress/ or cli.py.
    """
    target = tmp_path / rel_path
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    return run_lint([str(tmp_path)], select=select, **kwargs)


class TestRaiseHierarchy:
    def test_foreign_exception_flagged(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def f():
                raise ValueError("nope")
            """,
            select=["REP001"],
        )
        assert report.codes() == {"REP001"}
        assert "ValueError" in report.findings[0].message

    def test_repro_errors_allowed(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            from repro.errors import StorageError

            def f():
                raise StorageError("corrupt")
            """,
            select=["REP001"],
        )
        assert report.ok

    def test_bare_reraise_allowed(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def f():
                try:
                    g()
                except KeyError:
                    raise
            """,
            select=["REP001"],
        )
        assert report.ok

    def test_not_implemented_allowed(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def f():
                raise NotImplementedError
            """,
            select=["REP001"],
        )
        assert report.ok

    def test_dynamic_raise_flagged(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def f(error):
                raise error
            """,
            select=["REP001"],
        )
        assert report.codes() == {"REP001"}


class TestBroadExcept:
    def test_except_exception_flagged(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            try:
                f()
            except Exception:
                pass
            """,
            select=["REP002"],
        )
        assert report.codes() == {"REP002"}

    def test_bare_except_flagged(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            try:
                f()
            except:
                pass
            """,
            select=["REP002"],
        )
        assert report.codes() == {"REP002"}

    def test_tuple_with_exception_flagged(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            try:
                f()
            except (ValueError, Exception):
                pass
            """,
            select=["REP002"],
        )
        assert report.codes() == {"REP002"}

    def test_narrow_except_allowed(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            try:
                f()
            except (ValueError, KeyError):
                pass
            """,
            select=["REP002"],
        )
        assert report.ok

    def test_cli_module_exempt(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            try:
                f()
            except Exception:
                pass
            """,
            rel_path="cli.py",
            select=["REP002"],
        )
        assert report.ok


class TestCodecImports:
    def test_direct_codec_import_flagged(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            from repro.compress.zippy import zippy_compress
            """,
            select=["REP003"],
        )
        assert report.codes() == {"REP003"}

    def test_registry_import_allowed(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            from repro.compress import compress, decompress
            """,
            select=["REP003"],
        )
        assert report.ok

    def test_compress_package_itself_exempt(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            from repro.compress.huffman import huffman_compress
            """,
            rel_path="compress/registry.py",
            select=["REP003"],
        )
        assert report.ok


class TestPrivateMutation:
    def test_foreign_private_write_flagged(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def f(store):
                store._cache = {}
            """,
            select=["REP004"],
        )
        assert report.codes() == {"REP004"}

    def test_self_write_allowed(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            class C:
                def __init__(self):
                    self._cache = {}
            """,
            select=["REP004"],
        )
        assert report.ok

    def test_owned_attr_constructor_pattern_allowed(self, tmp_path):
        # A classmethod constructor poking an instance of its own class
        # (the bitset.py pattern) is fine: the module owns the attr.
        report = lint_snippet(
            tmp_path,
            """
            class BitSet:
                def __init__(self):
                    self._buf = bytearray()

                @classmethod
                def from_bits(cls, bits):
                    out = cls.__new__(cls)
                    out._buf = bytearray(bits)
                    return out
            """,
            select=["REP004"],
        )
        assert report.ok

    def test_dunder_not_flagged(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def f(obj):
                obj.__dict__ = {}
            """,
            select=["REP004"],
        )
        assert report.ok


class TestAnnotations:
    def test_unannotated_public_function_in_storage_flagged(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def encode(values):
                return bytes(values)
            """,
            rel_path="storage/codec.py",
            select=["REP005"],
        )
        assert report.codes() == {"REP005"}

    def test_fully_annotated_allowed(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def encode(values: list) -> bytes:
                return bytes(values)

            class Store:
                def get(self, key: str) -> int:
                    return 0
            """,
            rel_path="storage/codec.py",
            select=["REP005"],
        )
        assert report.ok

    def test_private_function_skipped(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def _helper(values):
                return values
            """,
            rel_path="core/util.py",
            select=["REP005"],
        )
        assert report.ok

    def test_other_directories_not_in_scope(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def loose(values):
                return values
            """,
            rel_path="workload/gen.py",
            select=["REP005"],
        )
        assert report.ok


class TestNoPrint:
    def test_print_flagged(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def f():
                print("debugging")
            """,
            select=["REP006"],
        )
        assert report.codes() == {"REP006"}

    def test_cli_exempt(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            print("usage: ...")
            """,
            rel_path="cli.py",
            select=["REP006"],
        )
        assert report.ok


class TestChunkPartialMutation:
    def test_self_attribute_assignment_flagged(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            class Agg:
                def run_partial(self, data):
                    self.total = self.total + 1
                    return data
            """,
            select=["REP007"],
        )
        assert report.codes() == {"REP007"}

    def test_augmented_assignment_flagged(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            class Agg:
                def run_partial(self, data):
                    self.total += 1
                    return data
            """,
            select=["REP007"],
        )
        assert report.codes() == {"REP007"}

    def test_self_subscript_assignment_flagged(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            class Agg:
                def run_partial(self, data):
                    self.partials[data.chunk_index] = 1
                    return data
            """,
            select=["REP007"],
        )
        assert report.codes() == {"REP007"}

    def test_mutating_method_call_flagged(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            class Agg:
                def run_partial(self, data):
                    self.seen.append(data)
                    return data
            """,
            select=["REP007"],
        )
        assert report.codes() == {"REP007"}

    def test_nested_attribute_mutation_flagged(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            class Agg:
                def run_partial(self, data):
                    self.state.counts.update({1: 2})
                    return data
            """,
            select=["REP007"],
        )
        assert report.codes() == {"REP007"}

    def test_local_mutation_allowed(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            class Agg:
                def run_partial(self, data):
                    counts = []
                    counts.append(data)
                    total = self.offset + 1
                    return counts, total
            """,
            select=["REP007"],
        )
        assert report.ok

    def test_mutation_in_apply_allowed(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            class Agg:
                def run_partial(self, data):
                    return data

                def apply(self, partials, chunk_index):
                    self.partials[chunk_index] = partials
                    self.total += 1
            """,
            select=["REP007"],
        )
        assert report.ok

    def test_run_partial_outside_class_ignored(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def run_partial(state, data):
                state.total += 1
                return data
            """,
            select=["REP007"],
        )
        assert report.ok


class TestSleepRetry:
    def test_time_sleep_flagged(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            import time

            def f():
                time.sleep(0.5)
            """,
            select=["REP008"],
        )
        assert report.codes() == {"REP008"}
        assert "backoff_delay" in report.findings[0].message

    def test_bare_sleep_flagged(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            from time import sleep

            def f():
                sleep(1)
            """,
            select=["REP008"],
        )
        assert report.codes() == {"REP008"}

    def test_while_retry_loop_flagged(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def f(op):
                while True:
                    try:
                        return op()
                    except OSError:
                        continue
            """,
            select=["REP008"],
        )
        assert report.codes() == {"REP008"}

    def test_range_retry_loop_flagged(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def f(op):
                for attempt in range(3):
                    try:
                        return op()
                    except OSError:
                        continue
            """,
            select=["REP008"],
        )
        assert report.codes() == {"REP008"}

    def test_data_fallback_loop_allowed(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def sniff(values):
                for kind in (int, float):
                    try:
                        return [kind(v) for v in values]
                    except ValueError:
                        continue
                return values
            """,
            select=["REP008"],
        )
        assert report.ok

    def test_faults_module_exempt(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def backoff(op):
                while True:
                    try:
                        return op()
                    except OSError:
                        continue
            """,
            rel_path="distributed/faults.py",
            select=["REP008"],
        )
        assert report.ok

    def test_plain_loop_without_retry_allowed(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def f(items):
                total = 0
                while items:
                    total += items.pop()
                return total
            """,
            select=["REP008"],
        )
        assert report.ok


class TestScalarImportLoop:
    def test_values_loop_flagged_in_hot_module(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def f(column):
                out = []
                for v in column.values:
                    out.append(v)
                return out
            """,
            rel_path="partition/codes.py",
            select=["REP009"],
        )
        assert report.codes() == {"REP009"}
        assert "per-row loop over .values" in report.findings[0].message

    def test_values_comprehension_flagged(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def f(column):
                return [v for v in column.values if v is not None]
            """,
            rel_path="storage/subdict.py",
            select=["REP009"],
        )
        assert report.codes() == {"REP009"}

    def test_value_call_in_loop_flagged(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def f(dictionary, gids):
                out = {}
                for gid in gids:
                    out[gid] = dictionary.value(gid)
                return out
            """,
            rel_path="storage/trie.py",
            select=["REP009"],
        )
        assert report.codes() == {"REP009"}
        assert "per-id .value() call" in report.findings[0].message

    def test_value_call_in_comprehension_flagged_once(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def f(dictionary, gids):
                return {g: dictionary.value(g) for g in gids}
            """,
            rel_path="storage/subdict.py",
            select=["REP009"],
        )
        assert len(report.findings) == 1

    def test_values_method_call_not_flagged(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def f(mapping, dictionary):
                for v in mapping.values():
                    pass
                return dictionary.values()
            """,
            rel_path="partition/codes.py",
            select=["REP009"],
        )
        assert report.ok

    def test_value_call_outside_loop_not_flagged(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def f(dictionary, gid):
                return dictionary.value(gid)
            """,
            rel_path="storage/trie.py",
            select=["REP009"],
        )
        assert report.ok

    def test_rule_scoped_to_hot_modules(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def f(column):
                return [v for v in column.values]
            """,
            rel_path="core/restriction.py",
            select=["REP009"],
        )
        assert report.ok

    def test_basename_match_for_direct_file_lint(self, tmp_path):
        target = tmp_path / "codes.py"
        target.write_text(
            "def f(column):\n    return [v for v in column.values]\n"
        )
        report = run_lint([str(target)], select=["REP009"])
        assert report.codes() == {"REP009"}

    def test_justified_suppression_silences(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def f(column):
                out = []
                for v in column.values:  # reprolint: disable=REP009 -- oracle
                    out.append(v)
                return out
            """,
            rel_path="partition/codes.py",
            select=["REP009"],
        )
        assert report.ok
        assert report.suppressed == 1

    def test_src_hot_modules_lint_clean(self):
        root = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src",
            "repro",
        )
        report = run_lint([root], select=["REP009"])
        assert report.ok, [f.where for f in report.findings]


class TestPerByteCodecLoop:
    def test_cursor_while_loop_flagged(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def decode(data):
                out = []
                pos = 0
                while pos < len(data):
                    out.append(data[pos])
                    pos += 1
                return out
            """,
            rel_path="compress/varint.py",
            select=["REP010"],
        )
        assert report.codes() == {"REP010"}
        assert "while loop advances a cursor" in report.findings[0].message

    def test_for_range_subscript_flagged(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def encode(values, out):
                for i in range(len(values)):
                    out[i] = values[i] * 2
            """,
            rel_path="compress/rle.py",
            select=["REP010"],
        )
        assert report.codes() == {"REP010"}
        assert "for-range loop subscripts" in report.findings[0].message

    def test_one_finding_per_loop_header(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def decode(data):
                pos = 0
                while pos < len(data):
                    a = data[pos]
                    b = data[pos + 1]
                    pos += 2
            """,
            rel_path="compress/zippy.py",
            select=["REP010"],
        )
        assert len(report.findings) == 1

    def test_slice_only_loop_allowed(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def compress(data):
                out = []
                pos = 0
                while pos < len(data):
                    out.append(data[pos : pos + 8])
                    pos += 8
                return out
            """,
            rel_path="compress/zippy.py",
            select=["REP010"],
        )
        assert report.ok

    def test_while_without_cursor_allowed(self, tmp_path):
        # No AugAssign cursor: a heap-merge style loop is not a byte walk.
        report = lint_snippet(
            tmp_path,
            """
            def merge(heap, lengths):
                while len(heap) > 1:
                    item = heap.pop()
                    lengths.append(item)
            """,
            rel_path="compress/huffman.py",
            select=["REP010"],
        )
        assert report.ok

    def test_fancy_index_allowed(self, tmp_path):
        # Numpy-style gathers (call or attribute indexes) are the bulk
        # kernels' idiom, not a per-byte walk. (An index built from
        # bare name arithmetic like ``arr[starts + k]`` *is* flagged —
        # statically indistinguishable from a scalar walk — which is
        # why compress/bulk.py carries a justified suppression.)
        report = lint_snippet(
            tmp_path,
            """
            def kernel(arr, starts, mask, k):
                total = 0
                while total < 5:
                    total += int(arr[starts.clip(0)].sum())
                    lane = arr[mask.nonzero()]
                return total
            """,
            rel_path="compress/bulk.py",
            select=["REP010"],
        )
        assert report.ok

    def test_for_over_range_with_foreign_index_allowed(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def chunked(arr, chunk, mask):
                for lo in range(0, len(arr), chunk):
                    block = arr[lo : lo + chunk]
                    lane = block[mask.nonzero()]
            """,
            rel_path="compress/huffman.py",
            select=["REP010"],
        )
        assert report.ok

    def test_no_file_under_compress_is_exempt(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def decode(data):
                pos = 0
                while pos < len(data):
                    byte = data[pos]
                    pos += 1
            """,
            rel_path="compress/reference.py",
            select=["REP010"],
        )
        assert report.codes() == {"REP010"}

    def test_outside_compress_not_in_scope(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def walk(data):
                pos = 0
                while pos < len(data):
                    byte = data[pos]
                    pos += 1
            """,
            rel_path="storage/serde.py",
            select=["REP010"],
        )
        assert report.ok

    def test_nested_loop_judged_at_its_own_header(self, tmp_path):
        # The outer while only does slice work; the inner while is the
        # byte walk and the finding lands on *its* header line.
        report = lint_snippet(
            tmp_path,
            """
            def compress(data):
                pos = 0
                while pos < len(data):
                    chunk = data[pos : pos + 16]
                    i = 0
                    while i < len(chunk):
                        byte = chunk[i]
                        i += 1
                    pos += 16
            """,
            rel_path="compress/lzo_like.py",
            select=["REP010"],
        )
        assert len(report.findings) == 1
        assert ":7:" in report.findings[0].where

    def test_repo_compress_modules_clean(self):
        root = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src",
            "repro",
        )
        report = run_lint([root], select=["REP010"])
        assert report.ok, [f.where for f in report.findings]
        # The deliberate scalar loops carry justified suppressions.
        assert report.suppressed >= 5


class TestSuppressions:
    def test_line_suppression_silences(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def f():
                raise ValueError("x")  # reprolint: disable=REP001 -- test
            """,
            select=["REP001"],
        )
        assert report.ok
        assert report.suppressed == 1

    def test_suppression_on_other_line_does_not_apply(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            # reprolint: disable=REP001 -- wrong line
            def f():
                raise ValueError("x")
            """,
            select=["REP001"],
        )
        assert report.codes() == {"REP001"}

    def test_file_suppression_silences_whole_module(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            # reprolint: disable-file=REP006 -- demo module
            print("one")
            print("two")
            """,
            select=["REP006"],
        )
        assert report.ok
        assert report.suppressed == 2

    def test_suppressing_one_code_leaves_others(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def f():
                print("x"); raise ValueError("y")  # reprolint: disable=REP006
            """,
            select=["REP001", "REP006"],
        )
        assert report.codes() == {"REP001"}
        assert report.suppressed == 1


class TestUnusedSuppressions:
    def test_stale_suppression_flagged_on_full_runs(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def f():
                x = 1  # reprolint: disable=REP006 -- never fires
                return x
            """,
        )
        assert report.codes() == {"REP016"}
        assert "matches no finding" in report.findings[0].message
        assert report.findings[0].severity is Severity.WARNING

    def test_used_suppression_not_flagged(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def f():
                print("x")  # reprolint: disable=REP006 -- demo output
            """,
        )
        assert "REP016" not in report.codes()
        assert report.suppressed == 1

    def test_selective_runs_never_fire_rep016(self, tmp_path):
        # With --select, most rules don't run, so an unmatched
        # suppression proves nothing about staleness.
        report = lint_snippet(
            tmp_path,
            """
            def f():
                x = 1  # reprolint: disable=REP001 -- justified elsewhere
                return x
            """,
            select=["REP006"],
        )
        assert report.ok

    def test_rep016_is_itself_suppressible(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def f():
                x = 1  # reprolint: disable=REP006,REP016 -- kept for doc parity
                return x
            """,
        )
        assert "REP016" not in report.codes()


class TestFingerprints:
    def test_fingerprint_survives_reindentation_and_line_shifts(self, tmp_path):
        first = lint_snippet(
            tmp_path,
            """
            def f():
                raise ValueError("x")
            """,
            select=["REP001"],
        ).findings[0]
        (tmp_path / "mod.py").unlink()
        second = lint_snippet(
            tmp_path,
            """
            # a new leading comment moves every line number
            UNRELATED = 1


            def f():
                raise ValueError("x")
            """,
            select=["REP001"],
        ).findings[0]
        assert first.fingerprint == second.fingerprint
        assert first.symbol == second.symbol == "f"
        assert first.where != second.where  # lines moved; identity didn't

    def test_same_symbol_occurrences_get_distinct_fingerprints(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def f(flag):
                if flag:
                    raise ValueError("a")
                raise ValueError("b")
            """,
            select=["REP001"],
        )
        prints = [f.fingerprint for f in report.findings]
        assert len(prints) == 2
        assert len(set(prints)) == 2

    def test_fingerprint_and_symbol_in_json(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            class C:
                def f(self):
                    raise ValueError("x")
            """,
            select=["REP001"],
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
            select=["REP017"],
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
            select=["REP017"],
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
            select=["REP017"],
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
            select=["REP017"],
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
            select=["REP017"],
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
            select=["REP017"],
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
            select=["REP018"],
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
            select=["REP018"],
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
            select=["REP018"],
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
            select=["REP018"],
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
            select=["REP018"],
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
            select=["REP018"],
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
            select=["REP018"],
        )
        assert report.ok

    def test_registry_and_advisor_modules_exempt(self, tmp_path):
        snippet = """
            def register_defaults(register):
                register(codec="zippy")
        """
        for rel_path in ("compress/registry.py", "compress/advisor.py"):
            report = lint_snippet(
                tmp_path, snippet, rel_path=rel_path, select=["REP018"]
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
            select=["REP018"],
        )
        assert report.ok


class TestCatalogConsistency:
    def test_every_rule_has_a_catalog_entry(self):
        from repro.analysis.catalog import LINT_CATALOG

        catalog_codes = {entry.code for entry in LINT_CATALOG}
        for rule in all_rules():
            assert rule.code in catalog_codes, rule.code

    def test_every_rule_has_a_design_md_section(self):
        design = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "DESIGN.md",
        )
        with open(design, encoding="utf-8") as handle:
            text = handle.read()
        for rule in all_rules():
            assert f"| {rule.code} |" in text, (
                f"{rule.code} missing from the DESIGN.md rule table"
            )

    def test_rules_docstring_mentions_current_range(self):
        import repro.analysis.rules as rules_module

        last = max(rule.code for rule in all_rules())
        assert last in rules_module.__doc__

    def test_retired_codes_are_unknown_not_reused(self, tmp_path, capsys):
        # Retired with their rules; never renumbered, so a code in an
        # old suppression or CI log cannot alias a newer rule.
        from repro.cli import main

        registered = [rule.code for rule in all_rules()]
        assert len(registered) == 13
        for code in ("REP011", "REP012", "REP013", "REP014", "REP015", "REP019"):
            assert main(["lint", "--select", code, str(tmp_path)]) == 1
            error = capsys.readouterr().err
            assert f"unknown rule {code!r}" in error
            assert error.count("REP0") == 1 + len(registered)
            assert all(known in error for known in registered)


class TestEngine:
    def test_registry_is_complete_and_ordered(self):
        codes = [rule.code for rule in all_rules()]
        assert codes == sorted(codes)
        assert {
            "REP001",
            "REP002",
            "REP003",
            "REP004",
            "REP005",
            "REP006",
            "REP007",
            "REP008",
            "REP009",
        } <= set(codes)

    def test_get_rule_unknown_raises(self):
        with pytest.raises(AnalysisError):
            get_rule("REP999")

    def test_missing_path_raises(self):
        with pytest.raises(AnalysisError):
            run_lint(["/nonexistent/lint/root"])

    def test_severity_override(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def f():
                print("x")
            """,
            select=["REP006"],
            severity_overrides={"REP006": Severity.WARNING},
        )
        assert len(report.findings) == 1
        assert report.findings[0].severity is Severity.WARNING
        assert not report.has_errors

    def test_severity_override_unknown_code_raises(self, tmp_path):
        with pytest.raises(AnalysisError):
            lint_snippet(
                tmp_path,
                "x = 1\n",
                severity_overrides={"NOPE01": Severity.ERROR},
            )

    def test_json_output_shape(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def f():
                raise ValueError("x")
            """,
            select=["REP001"],
        )
        payload = json.loads(report.to_json())
        assert payload["tool"] == "reprolint"
        assert payload["ok"] is False
        assert payload["findings"][0]["code"] == "REP001"
        assert payload["findings"][0]["severity"] == "error"
        assert "mod.py" in payload["findings"][0]["where"]

    def test_findings_carry_location(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def f():
                raise ValueError("x")
            """,
            select=["REP001"],
        )
        where = report.findings[0].where
        assert where.startswith("mod.py:")
        line = int(where.split(":")[1])
        assert line == 3  # dedented snippet keeps the leading newline

    def test_syntax_error_raises_analysis_error(self, tmp_path):
        with pytest.raises(AnalysisError):
            lint_snippet(tmp_path, "def broken(:\n")
