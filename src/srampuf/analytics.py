"""Evaluation reports: block stability, threshold sweeps, flip-rate summaries.

All reports are plain immutable rows (``NamedTuple``) with CSV emitters;
plotting stays out of tree. Row order is deterministic (condition, then
threshold, then block) so reports diff cleanly. Stability is marked once per
sample set: a :class:`~srampuf.bitvec.SampleSet` caches its map, and reports
slice the marks of all its bits; a list of readings of one length is stacked
into a set once per call.
"""

from __future__ import annotations

import io
from collections.abc import Sequence
from itertools import repeat
from typing import NamedTuple

import numpy as np

from ._kv import clip
from .bitvec import BitVector, SampleSet
from .enroll import (
    DEFAULT_WINDOW_LENGTH,
    Mask,
    check_minimums,
    mark_stability,
    weight_positions,
)
from .fuzzy import N, require_size
from .keygen import apply_mask

DEFAULT_THRESHOLDS = (1, 2, 3, 4, 5)


class BlockReport(NamedTuple):
    block_index: int
    stable_count: int
    unstable_count: int

    @property
    def stable_fraction(self) -> float:
        return self.stable_count / (self.stable_count + self.unstable_count)


def _full_blocks(samples: Sequence[BitVector], block_size: int) -> tuple[SampleSet, int]:
    """2+ samples as one SampleSet, and its number of whole ``block_size``-bit blocks (>= 1)."""
    if len(samples) < 2:
        raise ValueError("stability reports need at least 2 samples")
    if block_size < 1:
        raise ValueError("block size must be >= 1")
    samples = SampleSet.of(samples)
    num_blocks = samples.length // block_size
    if num_blocks < 1:
        raise ValueError(f"samples of {samples.length} bits hold no full {block_size}-bit block")
    return samples, num_blocks


def block_stability(samples: Sequence[BitVector],
                    block_size: int = DEFAULT_WINDOW_LENGTH) -> list[BlockReport]:
    """Stability statistics per full block; a trailing partial block is skipped."""
    samples, num_blocks = _full_blocks(samples, block_size)
    stable = mark_stability(samples)[:num_blocks * block_size]
    counts = np.count_nonzero(stable.reshape(num_blocks, block_size), axis=1)
    return [BlockReport(block_index=b, stable_count=int(c), unstable_count=block_size - int(c))
            for b, c in enumerate(counts)]


class SweepRow(NamedTuple):
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


# Rows per chunk: 64 rows of a 120,000-bit reading, about 1 MB, stay in cache
# from the XOR to the word scan, where one buffer for all samples does not.
_FLIP_ROWS = 64


def _flipped_bits(rows: np.ndarray, reference: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Flat indices ``i * 8 * keep.size + position``, in no set order, of the
    bits set in ``(rows[i] ^ reference) & keep``. ``keep`` is zero padded to
    whole 64-bit words, so the rows are scanned a word at a time."""
    used = reference.size
    buffer = np.empty((min(len(rows), _FLIP_ROWS), keep.size), dtype=np.uint8)
    found = [np.zeros(0, dtype=np.int64)]
    for lo in range(0, len(rows), _FLIP_ROWS):
        chunk = rows[lo:lo + _FLIP_ROWS]
        flipped = buffer[:len(chunk)]
        np.bitwise_xor(chunk, reference, out=flipped[:, :used])
        flipped &= keep                     # also clears the pad bytes left unset
        words = np.flatnonzero(flipped.view(np.uint64) != 0)
        # Little-endian words, so bit k of a word is bit k % 8 of its byte k // 8.
        values = flipped.view("<u8").ravel()[words]
        words += lo * keep.size // 8
        # Peel each word's set bits off, lowest first: w & -w isolates the
        # lowest, and frexp reads its index off the exponent, exactly.
        while words.size:
            lowest = values & -values
            found.append(64 * words + np.frexp(lowest.astype(np.float64))[1] - 1)
            values ^= lowest
            left = values != 0
            words, values = words[left], values[left]
    return np.concatenate(found)


def threshold_sweep(enroll_samples: Sequence[BitVector],
                    test_samples: dict[str, Sequence[BitVector]],
                    thresholds: tuple[int, ...] = DEFAULT_THRESHOLDS,
                    block_size: int = DEFAULT_WINDOW_LENGTH) -> list[SweepRow]:
    """Per block and threshold: how many positions qualify, and how the
    selected bits flip across each condition's test samples.

    The reference value of every selected position is its (constant) value in
    the enrollment samples; flips are counted per test sample against it.
    """
    for t in thresholds:
        check_minimums(threshold=t)
        if thresholds.count(t) > 1:
            raise ValueError(f"threshold {t} is given more than once")
    enroll, num_blocks = _full_blocks(enroll_samples, block_size)
    span = num_blocks * block_size
    stable = mark_stability(enroll)[:span]
    weights = weight_positions(stable.reshape(num_blocks, block_size))
    # at_least[b, w]: positions of block b whose weight reaches w; none reaches top
    top = int(weights.max()) + 1
    keys = weights + (top + 1) * np.arange(num_blocks)[:, None]
    per_block = np.bincount(keys.ravel(), minlength=num_blocks * (top + 1))
    at_least = per_block.reshape(num_blocks, top + 1)[:, ::-1].cumsum(axis=1)[:, ::-1]
    # selected[j, b]: positions of block b whose weight reaches thresholds[j]
    selected = at_least[:, [min(t, top) for t in thresholds]].T
    weights = weights.ravel()
    # keep has a bit set at every stable position, which includes every
    # selected position at any threshold; it is padded with zero bytes to
    # whole 64-bit words, so no pad bit ever counts as a flip.
    used = -(-span // 8)
    keep = np.zeros(8 * -(-span // 64), dtype=np.uint8)
    keep[:used] = np.packbits(stable, bitorder="little")
    reference = enroll.packed[0, :used]
    row_thresholds = [t for t in thresholds for _ in range(num_blocks)]
    row_blocks = list(range(num_blocks)) * len(thresholds)

    rows = []
    for condition in sorted(test_samples):
        samples, shown = test_samples[condition], repr(clip(condition))
        # sweep_to_csv writes the name as one field, unquoted
        if not (condition and condition.isascii() and condition.isprintable()) or (
                "," in condition or '"' in condition):
            raise ValueError(f"condition {shown} cannot be one CSV field: a name must be "
                             f"non-empty printable ASCII without ',' or '\"'")
        if not samples:
            raise ValueError(f"condition {shown} has no test samples")
        samples = SampleSet.of(samples)
        if samples.length < span:
            raise ValueError(f"condition {shown} has samples shorter than the "
                             f"enrolled {num_blocks} block(s)")
        # Sorted flat indices run through samples, and positions within one,
        # in order, so each (sample, block) cell's flips lie next to each other.
        flips = np.sort(_flipped_bits(samples.packed[:, :used], reference, keep))
        hit, position = np.divmod(flips, 8 * keep.size)
        depth, cell = weights[position], hit * num_blocks + position // block_size
        worst, one, multi = np.zeros((3, len(thresholds), num_blocks), dtype=np.int64)
        for j, t in enumerate(thresholds):
            # The cells of the flips selected at threshold t, in runs of equal
            # cells: run k is cells[bounds[k]:bounds[k + 1]]. No other cell had a flip.
            cells = cell[depth >= t]
            edges = np.concatenate(([cells.size > 0], cells[1:] != cells[:-1], [True]))
            bounds = np.flatnonzero(edges)
            counts = bounds[1:] - bounds[:-1]
            block = cells[bounds[:-1]] % num_blocks
            np.maximum.at(worst[j], block, counts)
            one[j] = np.bincount(block[counts == 1], minlength=num_blocks)
            multi[j] = np.bincount(block[counts >= 2], minlength=num_blocks)
        n = len(samples)
        columns = np.stack([selected, worst, np.full_like(worst, n), n - one - multi, one, multi])
        rows += map(SweepRow, repeat(condition), row_thresholds, row_blocks,
                    *columns.reshape(6, -1).tolist())
    return rows


class FlipRateSummary(NamedTuple):
    """How often a condition's masked responses strayed from the reference."""

    condition: str
    sample_count: int
    flipped_samples: int
    max_flips: int


def flip_rate_summary(mask: Mask, reference_response: bytes,
                      test_samples: dict[str, Sequence[BitVector]]) -> dict[str, FlipRateSummary]:
    """Per condition: share of raw test samples whose masked response differs
    from the 16-byte reference at all, plus the worst-case differing bit count."""
    require_size("reference response", reference_response, N // 8)
    byte, bit = mask.packed_index
    summaries = {}
    for condition in sorted(test_samples):
        samples = test_samples[condition]
        if not samples:
            raise ValueError(f"condition {condition!r} has no test samples")
        samples = SampleSet.of(samples)
        # apply_mask refuses a mask without N positions, or too long for the
        # samples, before the gather below reads past them.
        apply_mask(samples[0], mask)
        # expected[k]: the k-th masked bit's one-bit byte mask where the reference
        # holds a 1, else 0; responses pack bit 0 into the MSB, as apply_mask does.
        expected = np.unpackbits(np.frombuffer(reference_response, dtype=np.uint8)) * bit
        # distances[i]: the masked bits of sample i that differ from the reference
        gathered = samples.packed[:, byte] & bit
        distances = np.count_nonzero(gathered != expected, axis=1)
        summaries[condition] = FlipRateSummary(
            condition=condition,
            sample_count=len(samples),
            flipped_samples=int(np.count_nonzero(distances)),
            max_flips=int(distances.max()),
        )
    return summaries


def window_flip_rate(samples: Sequence[BitVector]) -> float:
    """Fraction of positions where some sample differs from the first one:
    the share of positions an enrollment pass over the set would refuse to
    trust."""
    stable = mark_stability(samples)
    return float(np.count_nonzero(~stable)) / stable.size


def block_reports_to_csv(reports: list[BlockReport]) -> str:
    out = io.StringIO()
    out.write("block_index,stable_count,unstable_count,stable_fraction\n")
    for r in reports:
        out.write(f"{r.block_index},{r.stable_count},{r.unstable_count},{r.stable_fraction:.6f}\n")
    return out.getvalue()


def sweep_to_csv(rows: list[SweepRow]) -> str:
    lines = ["condition,threshold,block_index,selected_count,max_flips,"
             "pct_samples_0_flips,pct_samples_1_flip,pct_samples_2plus_flips\n"]
    # tails[(n, zero, one, multi)]: the percentage fields, formatted once each
    tails: dict[tuple[int, ...], str] = {}
    for row in rows:
        tail = tails.get(key := row[5:])
        if tail is None:
            n, *counts = key
            tail = tails[key] = ",".join(f"{100.0 * k / n:.4f}" for k in counts) + "\n"
        lines.append(f"{row[0]},{row[1]},{row[2]},{row[3]},{row[4]},{tail}")
    return "".join(lines)
