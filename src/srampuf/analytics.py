"""Evaluation reports: block stability, threshold sweeps, flip-rate summaries.

All reports are plain dataclass rows with CSV emitters; plotting stays out of
tree. Row order is deterministic (condition, then threshold, then block) so
reports diff cleanly. Each report marks stability once over all of its blocks
and reads per-block figures off that one map.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .bitvec import BitVector
from .enroll import (
    DEFAULT_WINDOW_LENGTH,
    Mask,
    mark_stability,
    weight_positions,
)
from .fuzzy import N
from .keygen import apply_mask

DEFAULT_THRESHOLDS = (1, 2, 3, 4, 5)


@dataclass(frozen=True)
class BlockReport:
    block_index: int
    stable_count: int
    unstable_count: int

    @property
    def stable_fraction(self) -> float:
        return self.stable_count / (self.stable_count + self.unstable_count)


def _full_blocks(samples: list[BitVector], block_size: int) -> int:
    """Number of whole ``block_size``-bit blocks in the first sample; at least 1."""
    if block_size < 1:
        raise ValueError("block size must be >= 1")
    num_blocks = len(samples[0]) // block_size
    if num_blocks < 1:
        raise ValueError(f"samples of {len(samples[0])} bits hold no full {block_size}-bit block")
    return num_blocks


def block_stability(samples: list[BitVector],
                    block_size: int = DEFAULT_WINDOW_LENGTH) -> list[BlockReport]:
    """Stability statistics per full block; a trailing partial block is skipped."""
    if len(samples) < 2:
        raise ValueError("block statistics need at least 2 samples")
    num_blocks = _full_blocks(samples, block_size)
    stable = mark_stability(samples, range(0, num_blocks * block_size))
    counts = np.count_nonzero(stable.reshape(num_blocks, block_size), axis=1)
    return [BlockReport(block_index=b, stable_count=int(c), unstable_count=block_size - int(c))
            for b, c in enumerate(counts)]


@dataclass(frozen=True)
class SweepRow:
    """Flip behavior of one block's selected positions under one condition."""

    condition: str
    threshold: int
    block_index: int
    selected_count: int
    max_flips: int
    sample_count: int
    samples_zero_flips: int
    samples_one_flip: int
    samples_multi_flips: int

    @property
    def pct_zero(self) -> float:
        return 100.0 * self.samples_zero_flips / self.sample_count

    @property
    def pct_one(self) -> float:
        return 100.0 * self.samples_one_flip / self.sample_count

    @property
    def pct_multi(self) -> float:
        return 100.0 * self.samples_multi_flips / self.sample_count


@dataclass(frozen=True)
class SweepReport:
    rows: list[SweepRow]

    def max_flips(self, threshold: int, condition: str | None = None) -> int:
        rows = [r for r in self.rows
                if r.threshold == threshold and (condition is None or r.condition == condition)]
        return max((r.max_flips for r in rows), default=0)

    def mean_selected(self, threshold: int) -> float:
        counts = {r.block_index: r.selected_count for r in self.rows if r.threshold == threshold}
        return float(np.mean(list(counts.values()))) if counts else 0.0


def threshold_sweep(enroll_samples: list[BitVector],
                    test_samples: dict[str, list[BitVector]],
                    thresholds: tuple[int, ...] = DEFAULT_THRESHOLDS,
                    block_size: int = DEFAULT_WINDOW_LENGTH) -> SweepReport:
    """Per block and threshold: how many positions qualify, and how the
    selected bits flip across each condition's test samples.

    The reference value of every selected position is its (constant) value in
    the enrollment samples; flips are counted per test sample against it.
    """
    if len(enroll_samples) < 2:
        raise ValueError("sweep needs at least 2 enrollment samples")
    if any(t < 1 for t in thresholds):
        raise ValueError("threshold must be >= 1")
    num_blocks = _full_blocks(enroll_samples, block_size)
    span = num_blocks * block_size
    stable = mark_stability(enroll_samples, range(0, span))
    weights = weight_positions(stable.reshape(num_blocks, block_size))
    # selected[j, b]: positions of block b whose weight reaches thresholds[j]
    selected = np.count_nonzero(weights >= np.array(thresholds)[:, None, None], axis=2)
    weights = weights.ravel()
    reference = enroll_samples[0].bits[:span]

    rows = []
    for condition in sorted(test_samples):
        samples = test_samples[condition]
        if not samples:
            raise ValueError(f"condition {condition!r} has no test samples")
        if any(len(s) < span for s in samples):
            raise ValueError(f"condition {condition!r} has samples shorter than the "
                             f"enrolled {num_blocks} block(s)")
        # flips[i, j, b]: selected bits of block b at thresholds[j] that sample i flipped
        flips = np.empty((len(samples), len(thresholds), num_blocks), dtype=np.int32)
        for i, sample in enumerate(samples):
            # every selected position is stable, at any threshold
            flipped = np.flatnonzero((sample.bits[:span] != reference) & stable)
            depth, block = weights[flipped], flipped // block_size
            for j, t in enumerate(thresholds):
                flips[i, j] = np.bincount(block[depth >= t], minlength=num_blocks)
        max_flips = flips.max(axis=0)
        zero = np.count_nonzero(flips == 0, axis=0)
        one = np.count_nonzero(flips == 1, axis=0)
        multi = np.count_nonzero(flips >= 2, axis=0)
        rows += [SweepRow(condition=condition, threshold=t, block_index=b,
                          selected_count=int(selected[j, b]), max_flips=int(max_flips[j, b]),
                          sample_count=len(samples), samples_zero_flips=int(zero[j, b]),
                          samples_one_flip=int(one[j, b]), samples_multi_flips=int(multi[j, b]))
                 for j, t in enumerate(thresholds) for b in range(num_blocks)]
    return SweepReport(rows=rows)


@dataclass(frozen=True)
class FlipRateSummary:
    """How often a condition's masked responses strayed from the reference."""

    condition: str
    sample_count: int
    flipped_samples: int
    max_flips: int

    @property
    def flipped_sample_pct(self) -> float:
        return 100.0 * self.flipped_samples / self.sample_count


def flip_rate_summary(mask: Mask, reference_response: bytes,
                      test_samples: dict[str, list[BitVector]]) -> dict[str, FlipRateSummary]:
    """Per condition: share of raw test samples whose masked response differs
    from the 16-byte reference at all, plus the worst-case differing bit count."""
    if len(reference_response) != N // 8:
        raise ValueError(f"reference response must be {N // 8} bytes, "
                         f"got {len(reference_response)}")
    reference = int.from_bytes(reference_response, "big")
    summaries = {}
    for condition in sorted(test_samples):
        samples = test_samples[condition]
        if not samples:
            raise ValueError(f"condition {condition!r} has no test samples")
        distances = [(int.from_bytes(apply_mask(s, mask), "big") ^ reference).bit_count()
                     for s in samples]
        summaries[condition] = FlipRateSummary(
            condition=condition,
            sample_count=len(samples),
            flipped_samples=sum(1 for d in distances if d > 0),
            max_flips=max(distances),
        )
    return summaries


def window_flip_rate(samples: list[BitVector]) -> float:
    """Fraction of positions where some sample differs from the first one:
    the share of positions an enrollment pass over the set would refuse to
    trust."""
    if len(samples) < 2:
        raise ValueError("need at least 2 samples")
    stable = mark_stability(samples)
    return float(np.count_nonzero(~stable)) / len(samples[0])


def block_reports_to_csv(reports: list[BlockReport]) -> str:
    out = io.StringIO()
    out.write("block_index,stable_count,unstable_count,stable_fraction\n")
    for r in reports:
        out.write(f"{r.block_index},{r.stable_count},{r.unstable_count},{r.stable_fraction:.6f}\n")
    return out.getvalue()


def sweep_to_csv(report: SweepReport) -> str:
    out = io.StringIO()
    out.write("condition,threshold,block_index,selected_count,max_flips,"
              "pct_samples_0_flips,pct_samples_1_flip,pct_samples_2plus_flips\n")
    for r in report.rows:
        out.write(f"{r.condition},{r.threshold},{r.block_index},{r.selected_count},"
                  f"{r.max_flips},{r.pct_zero:.4f},{r.pct_one:.4f},{r.pct_multi:.4f}\n")
    return out.getvalue()
