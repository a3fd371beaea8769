"""The encoding advisor: data-driven per-column codec selection (PR 9).

The paper gets its space/speed wins by choosing the right representation
per column (dictionary codes, Zippy blocks, the Section 6 optimized
layouts). This module makes that choice *data-driven* in the spirit of
LEA ("A Learned Encoding Advisor for Column Stores", PAPERS.md): instead
of a learned model we keep LEA's *feature set* and pair it with either
cheap trial encodes or a deterministic cost table.

Three pieces:

- :func:`profile_values` — samples a column and extracts the LEA-style
  features (cardinality ratio, run structure, value width, null
  fraction, string prefix sharing, sortedness) into a
  :class:`ColumnProfile`.
- :func:`sample_window` — a seeded, size-bounded byte sample of the
  encoded payload the trial encodes run against.
- :func:`choose_codec` — scores candidate codecs/cascades on
  ``compression_ratio ** size_weight * (decode_mbps / reference)
  ** speed_weight`` and returns a :class:`CodecChoice`. In ``trial``
  mode the decode throughput is *measured* via the registry's
  per-codec :class:`~repro.compress.registry.CompressionStats` deltas
  (PR 5's telemetry becomes the signal); in the default ``stats`` mode
  a fixed nominal-throughput table is used instead, so a fixed sample
  seed yields byte-identical advisor output across machines — the
  determinism contract the property tests and fsck rely on.

Candidates that fail to encode, decode, or round-trip the sample are
skipped (never chosen), so a bad candidate list degrades to the
baseline rather than corrupting data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from os.path import commonprefix

import numpy as np

from repro.compress.registry import (
    cascade_stages,
    compression_stats,
    get_codec,
)
from repro.errors import CompressionError

#: Candidate codecs the advisor scores by default. A deliberate subset
#: of the registry: ``huffman``-family codecs decode far too slowly to
#: ever win under the default weights, and trialling them would only
#: slow imports down.
DEFAULT_CANDIDATES: tuple[str, ...] = (
    "none",
    "zippy",
    "lzo",
    "rle",
    "delta+varint",
    "delta+rle",
    "delta+zippy",
    "rle+zippy",
    "dict+rle+varint",
)

#: Nominal decode throughput (decompressed MB/s) per *atomic* stage for
#: the deterministic ``stats`` scoring mode. Calibrated once against
#: this repo's pure-python kernels on the PR 5 bench corpus; the exact
#: values matter less than their order, and they must never be read
#: from the live machine (that would break cross-machine determinism).
_NOMINAL_DECODE_MBPS: dict[str, float] = {
    "none": 4096.0,
    "dict": 1200.0,
    "delta": 900.0,
    "rle": 700.0,
    "varint": 250.0,
    "lzo": 160.0,
    "zippy": 110.0,
    "huffman": 30.0,
}

#: Reference decode throughput: the speed factor is ``mbps / _REF_MBPS``
#: so a codec at the reference speed scores purely on ratio.
_REF_MBPS = 64.0

_VALUE_KINDS = ("empty", "int", "float", "string", "mixed")

#: Cap on how much of each sampled string feeds the prefix-sharing
#: feature — table names share prefixes in their first bytes.
_PREFIX_PROBE_CHARS = 512


@dataclass(frozen=True)
class ColumnProfile:
    """LEA-style summary statistics of a sampled column."""

    n_total: int
    n_sample: int
    null_fraction: float
    cardinality_ratio: float
    mean_run_length: float
    sortedness: float
    value_kind: str
    int_width_bytes: int
    avg_string_len: float
    prefix_share: float

    def as_dict(self) -> dict[str, float | int | str]:
        return {
            "n_total": self.n_total,
            "n_sample": self.n_sample,
            "null_fraction": self.null_fraction,
            "cardinality_ratio": self.cardinality_ratio,
            "mean_run_length": self.mean_run_length,
            "sortedness": self.sortedness,
            "value_kind": self.value_kind,
            "int_width_bytes": self.int_width_bytes,
            "avg_string_len": self.avg_string_len,
            "prefix_share": self.prefix_share,
        }


@dataclass(frozen=True)
class AdvisorConfig:
    """Advisor knobs; the importer builds one from ``DataStoreOptions``.

    ``mode`` selects how decode speed enters the score: ``stats``
    (default) uses the nominal throughput table and is deterministic
    under a fixed ``seed``; ``trial`` measures the sample decodes via
    the registry stats and tracks the host machine.
    """

    sample_rows: int = 4096
    sample_budget_bytes: int = 64 * 1024
    seed: int = 2012
    size_weight: float = 1.0
    speed_weight: float = 0.15
    mode: str = "stats"
    candidates: tuple[str, ...] = DEFAULT_CANDIDATES

    def __post_init__(self) -> None:
        if self.sample_rows < 1:
            raise CompressionError(
                f"advisor sample_rows must be >= 1, got {self.sample_rows}"
            )
        if self.sample_budget_bytes < 1024:
            raise CompressionError(
                "advisor sample_budget_bytes must be >= 1024, got "
                f"{self.sample_budget_bytes}"
            )
        if self.size_weight < 0 or self.speed_weight < 0:
            raise CompressionError(
                "advisor weights must be non-negative, got "
                f"size={self.size_weight} speed={self.speed_weight}"
            )
        if self.mode not in ("stats", "trial"):
            raise CompressionError(
                f"advisor mode must be 'stats' or 'trial', got {self.mode!r}"
            )
        if not self.candidates:
            raise CompressionError("advisor candidate list is empty")


@dataclass(frozen=True)
class CodecChoice:
    """The advisor's verdict for one column/payload."""

    codec: str
    predicted_ratio: float
    sample_bytes: int
    mode: str
    #: ``(candidate, ratio, score)`` per scored candidate, sorted by
    #: descending score — kept for ``repro describe``.
    scores: tuple[tuple[str, float, float], ...] = field(default=())

    def as_dict(self) -> dict[str, object]:
        return {
            "codec": self.codec,
            "predicted_ratio": self.predicted_ratio,
            "sample_bytes": self.sample_bytes,
            "mode": self.mode,
            "scores": [list(row) for row in self.scores],
        }


def _rng(config: AdvisorConfig) -> np.random.Generator:
    return np.random.default_rng(config.seed)


def _sample_indices(n: int, k: int, config: AdvisorConfig) -> list[int]:
    """``k`` sorted distinct indices into ``range(n)``, seeded."""
    if n <= k:
        return list(range(n))
    picked = _rng(config).choice(n, size=k, replace=False)
    picked.sort()
    return picked.tolist()


def profile_values(values, config: AdvisorConfig) -> ColumnProfile:
    """Profile a column (any indexable sequence, ``None`` for NULL)."""
    n_total = len(values)
    idx = _sample_indices(n_total, config.sample_rows, config)
    sample = list(map(values.__getitem__, idx))
    n_sample = len(sample)
    if not n_sample:
        return ColumnProfile(
            n_total=n_total,
            n_sample=0,
            null_fraction=0.0,
            cardinality_ratio=0.0,
            mean_run_length=0.0,
            sortedness=0.0,
            value_kind="empty",
            int_width_bytes=0,
            avg_string_len=0.0,
            prefix_share=0.0,
        )

    nulls = sum(1 for v in sample if v is None)
    null_fraction = nulls / n_sample
    present = [v for v in sample if v is not None]

    kinds = {type(v) for v in present}
    if not present:
        value_kind = "empty"
    elif kinds <= {int, bool}:
        value_kind = "int"
    elif kinds <= {int, bool, float}:
        value_kind = "float" if float in kinds else "int"
    elif kinds == {str}:
        value_kind = "string"
    else:
        value_kind = "mixed"

    distinct = len(set(sample))
    cardinality_ratio = distinct / n_sample

    runs = 1 + sum(1 for a, b in zip(sample, sample[1:]) if a != b)
    mean_run_length = n_sample / runs

    # Fraction of adjacent sampled pairs already in order. Mixed-type
    # columns are incomparable — call them unsorted rather than raising.
    if n_sample > 1:
        try:
            in_order = sum(
                1
                for a, b in zip(present, present[1:])
                if a <= b
            )
            pairs = max(1, len(present) - 1)
            sortedness = in_order / pairs if len(present) > 1 else 0.0
        except TypeError:
            sortedness = 0.0
    else:
        sortedness = 1.0

    int_width_bytes = 0
    if value_kind == "int" and present:
        top = max(abs(int(v)) for v in present)
        int_width_bytes = max(1, (int(top).bit_length() + 8) // 8)

    avg_string_len = 0.0
    prefix_share = 0.0
    if value_kind == "string" and present:
        avg_string_len = sum(map(len, present)) / len(present)
        # Prefix sharing over *sorted* strings mirrors how the
        # dictionary stores them; adjacent pairs share the longest
        # prefixes, so this is a tight upper-bound estimate.
        probe = sorted(s[:_PREFIX_PROBE_CHARS] for s in present)
        shared = sum(
            len(commonprefix((a, b)))
            for a, b in zip(probe, probe[1:])
        )
        total = sum(map(len, probe[1:]))
        prefix_share = shared / total if total else 0.0

    return ColumnProfile(
        n_total=n_total,
        n_sample=n_sample,
        null_fraction=null_fraction,
        cardinality_ratio=cardinality_ratio,
        mean_run_length=mean_run_length,
        sortedness=sortedness,
        value_kind=value_kind,
        int_width_bytes=int_width_bytes,
        avg_string_len=avg_string_len,
        prefix_share=prefix_share,
    )


def sample_window(data: bytes, config: AdvisorConfig) -> bytes:
    """A seeded byte sample of ``data``, at most ``sample_budget_bytes``.

    Small payloads are returned whole; large ones are sampled as sorted
    1 KiB windows so the sample preserves local run/delta structure the
    candidate codecs exploit.
    """
    budget = config.sample_budget_bytes
    if len(data) <= budget:
        return data
    window = 1024
    n_windows = budget // window
    n_starts = max(1, (len(data) - window) // window + 1)
    picked = _rng(config).choice(
        n_starts, size=min(n_windows, n_starts), replace=False
    )
    picked.sort()
    starts = (picked * window).tolist()
    return b"".join(data[s : s + window] for s in starts)


def _candidates_for(
    profile: ColumnProfile | None, config: AdvisorConfig
) -> tuple[str, ...]:
    """Prune the candidate list using the column profile.

    Without a profile every configured candidate is trialled. With one,
    only the families the features point at are — always keeping the
    baselines so pruning can never make the choice worse than static.
    """
    if profile is None:
        return config.candidates
    keep = []
    run_heavy = (
        profile.mean_run_length >= 1.5 or profile.cardinality_ratio <= 0.1
    )
    delta_friendly = (
        profile.sortedness >= 0.4 or profile.value_kind in ("int", "float")
    )
    stringish = profile.value_kind in ("string", "mixed")
    for name in config.candidates:
        stages = set(cascade_stages(name)) or {name}
        if "rle" in stages and not run_heavy:
            continue
        if "delta" in stages and not (delta_friendly or run_heavy):
            continue
        if "huffman" in stages and not stringish:
            continue
        keep.append(name)
    return tuple(keep) if keep else config.candidates


def _nominal_mbps(name: str) -> float:
    """Deterministic decode-throughput estimate for ``stats`` mode.

    Cascades compose harmonically: each stage processes roughly the
    whole payload, so the pipeline's rate is the harmonic combination
    of its stages' rates.
    """
    stages = cascade_stages(name) or (name,)
    inv = 0.0
    for stage in stages:
        inv += 1.0 / _NOMINAL_DECODE_MBPS.get(stage, _REF_MBPS)
    return 1.0 / inv


def choose_codec(
    sample: bytes,
    config: AdvisorConfig,
    profile: ColumnProfile | None = None,
    candidates: tuple[str, ...] | None = None,
) -> CodecChoice:
    """Score candidates on the sample and return the winner.

    Every candidate is round-trip verified on the sample; candidates
    that raise :class:`~repro.errors.CompressionError` or fail the
    round-trip are skipped. Score is
    ``ratio ** size_weight * (decode_mbps / 64) ** speed_weight``; ties
    break on codec name so the choice is total-ordered.
    """
    if candidates is None:
        candidates = _candidates_for(profile, config)
    if not sample:
        # Nothing to measure — identity is the only sane answer.
        return CodecChoice(
            codec="none",
            predicted_ratio=1.0,
            sample_bytes=0,
            mode=config.mode,
        )

    scored: list[tuple[float, str, float]] = []
    for name in candidates:
        try:
            codec = get_codec(name)
            if config.mode == "trial":
                stats = compression_stats(name)
                before_s = stats.decode_seconds
                before_b = stats.decode_bytes_out
                encoded = codec.compress(sample)
                decoded = codec.decompress(encoded)
                trial_s = stats.decode_seconds - before_s
                trial_b = stats.decode_bytes_out - before_b
                mbps = (
                    trial_b / trial_s / (1 << 20)
                    if trial_s > 0
                    else _nominal_mbps(name)
                )
            else:
                encoded = codec.compress(sample)
                decoded = codec.decompress(encoded)
                mbps = _nominal_mbps(name)
        except CompressionError:
            continue
        if decoded != sample or not encoded:
            continue
        ratio = len(sample) / len(encoded)
        score = (ratio ** config.size_weight) * (
            (mbps / _REF_MBPS) ** config.speed_weight
        )
        scored.append((score, name, ratio))

    if not scored:
        raise CompressionError(
            "advisor: no candidate codec round-tripped the sample "
            f"(candidates: {', '.join(candidates)})"
        )
    scored.sort(key=lambda row: (-row[0], row[1]))
    best_score, best_name, best_ratio = scored[0]
    return CodecChoice(
        codec=best_name,
        predicted_ratio=best_ratio,
        sample_bytes=len(sample),
        mode=config.mode,
        scores=tuple((name, ratio, score) for score, name, ratio in scored),
    )
