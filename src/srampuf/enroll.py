"""Stable-bit selection: stability marks, cluster weights, threshold masks.

Enrollment watches a window of cells across many power-up samples, marks each
position stable (S) when its value never changed, and weights every position
by its distance to the nearest unstable cell or window edge: 0 when unstable,
``min(offset + 1, run_length - offset)`` inside a run of stable cells. The
simulator's flip decay reads the same :func:`distance_to_unstable`.
:func:`mark_stability` takes no window: it marks every bit of a SampleSet (a
list of readings of one length is stacked into one once per call), and
callers slice the marks. Runs end at window edges, so windows are weighted in
doubling chunks (1, 2, 4, ... windows) until enough positions qualify; the
lowest-index positions whose weight reaches a threshold form a fixed-size
mask of bit positions that later filters raw power-up dumps into a response.
"""

from __future__ import annotations

import hashlib
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._kv import (TextFormatError, atomic_write_text, format_kv_block, parse_int, read_record,
                  read_text)
from .bitvec import BitVector, SampleSet
from .fuzzy import N

DEFAULT_WINDOW_LENGTH = 1216
MASK_FORMAT = "srampuf-mask-v1"


class InsufficientStableBitsError(Exception):
    """Not enough positions met the threshold; reports the per-window yield."""

    def __init__(self, needed: int, collected: int, window_counts: list[int]):
        self.needed = needed
        self.collected = collected
        self.window_counts = window_counts
        per_window = ", ".join(f"window {i}: {c}" for i, c in enumerate(window_counts))
        super().__init__(
            f"selected {collected} of {needed} required positions ({per_window}); "
            f"lower the threshold or provide more windows"
        )


def mark_stability(samples: Sequence[BitVector]) -> np.ndarray:
    """Read-only bool marks, one per bit: True (S) where all of 2+ samples
    agree, False (U) elsewhere, read off the set's cached map of differing bits."""
    if len(samples) < 2:
        raise ValueError("stability needs at least 2 samples")
    samples = SampleSet.of(samples)
    stable = np.unpackbits(samples.unstable, count=samples.length, bitorder="little") == 0
    stable.flags.writeable = False
    return stable


def distance_to_unstable(unstable: np.ndarray) -> np.ndarray:
    """Per cell of a 1-D bool array, the smaller gap to the last True at or
    before it and to the next at or after it, as int64. A side with no True
    counts as a True at index -F or F: F = 2**30 below 2**30 cells, where the
    scans run in int32 and cannot overflow, else 2**62. The two scans start from
    ``(index + F) * unstable - F`` and ``(index - F) * unstable + F``, made in place."""
    index = np.arange(unstable.size, dtype=np.int32 if unstable.size < 2**30 else np.int64)
    far = np.iinfo(index.dtype).max // 2 + 1
    last = index + far
    last *= unstable
    last -= far
    np.maximum.accumulate(last, out=last)
    following = index - far
    following *= unstable
    following += far
    np.minimum.accumulate(following[::-1], out=following[::-1])
    np.subtract(index, last, out=last)
    following -= index
    return np.minimum(last, following, out=last).astype(np.int64, copy=False)


def weight_positions(stable: np.ndarray) -> np.ndarray:
    """Weight each position by its distance to the nearest unstable cell or
    window edge; returns a read-only int64 array shaped like the bool marks.

    For 2-D marks every row is a window. One unstable cell padded on each side
    of every row ends its runs there, so the rows are scanned as one.
    """
    unstable = np.ones((*stable.shape[:-1], stable.shape[-1] + 2), dtype=bool)
    np.logical_not(stable, out=unstable[..., 1:-1])
    weights = distance_to_unstable(unstable.ravel()).reshape(unstable.shape)[..., 1:-1]
    weights.flags.writeable = False
    return weights


# Least value of each integer Mask field, in file order; a negative
# base_offset would read bits wrapped from the end of a dump.
_FIELD_MINIMUMS = {"base_offset": 0, "window_length": 1, "num_windows": 1,
                   "threshold": 1, "sample_count": 2}
# The mask file's keys, in the order mask_to_text writes them
MASK_KEYS = ("format", "device_id", *_FIELD_MINIMUMS, "target_len", "positions")


def check_minimums(**values: int) -> None:
    """Refuse the first value below its field's least value in ``_FIELD_MINIMUMS``."""
    for name, value in values.items():
        if value < _FIELD_MINIMUMS[name]:
            raise ValueError(f"{name} must be >= {_FIELD_MINIMUMS[name]}")


@dataclass(frozen=True, eq=False)
class Mask:
    """Selected bit positions (relative to base_offset) plus how they were chosen.

    Two masks are equal when their canonical texts are, so equality and hash
    go through :attr:`fingerprint`, which covers every field.
    """

    device_id: str
    positions: np.ndarray
    threshold: int
    sample_count: int
    base_offset: int = 0
    window_length: int = DEFAULT_WINDOW_LENGTH
    num_windows: int = 1

    def __post_init__(self):
        check_minimums(**{name: getattr(self, name) for name in _FIELD_MINIMUMS})
        if int(self.base_offset) + int(self.num_windows) * int(self.window_length) > 2**63 - 1:
            raise ValueError("base_offset + num_windows * window_length must not pass 2**63 - 1")
        # A copy: a view would let writes to the caller's array change the mask.
        pos = np.array(self.positions, dtype=np.int64)
        if pos.size and (np.any(np.diff(pos) <= 0) or pos[0] < 0):
            raise ValueError("mask positions must be strictly ascending and non-negative")
        if pos.size and pos[-1] >= self.num_windows * self.window_length:
            raise ValueError("mask positions exceed the enrolled windows")
        pos.flags.writeable = False
        object.__setattr__(self, "positions", pos)

    @property
    def target_len(self) -> int:
        return int(self.positions.size)

    @cached_property
    def fingerprint(self) -> str:
        """SHA-256 of the canonical mask file text, whatever form was read; computed once."""
        return hashlib.sha256(mask_to_text(self).encode("ascii")).hexdigest()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mask):
            return NotImplemented
        return self.fingerprint == other.fingerprint

    def __hash__(self) -> int:
        return hash(self.fingerprint)

    @cached_property
    def packed_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Per position, in mask order: the byte of a packed dump that holds
        it and the one-bit ``uint8`` mask of its bit in that byte, computed
        once per mask."""
        absolute = self.base_offset + self.positions
        byte, bit = absolute >> 3, np.left_shift(1, absolute & 7).astype(np.uint8)
        byte.flags.writeable = bit.flags.writeable = False
        return byte, bit

    @cached_property
    def _bits_needed(self) -> int:
        """Bits a dump must hold to reach the last position, computed once per mask."""
        return self.base_offset + int(self.positions[-1]) + 1


def build_mask(samples: Sequence[BitVector], threshold: int,
               window_length: int = DEFAULT_WINDOW_LENGTH,
               base_offset: int = 0,
               device_id: str = "") -> Mask:
    """Select one response's ``fuzzy.N`` positions from consecutive windows.

    Every bit is marked once; windows from ``base_offset`` on are weighted in
    doubling chunks (1, 2, 4, ... windows), runs ending at window edges, until
    ``fuzzy.N`` positions reach ``threshold``; the lowest-index qualifying
    positions win, and ``num_windows`` counts the windows they reach. Raises
    :class:`InsufficientStableBitsError` when all available windows together
    fall short.
    """
    check_minimums(threshold=threshold, window_length=window_length, base_offset=base_offset)
    samples = SampleSet.of(samples)
    available = (samples.length - base_offset) // window_length
    if available < 1:
        raise ValueError(
            f"samples of {samples.length} bits hold no full {window_length}-bit window "
            f"past offset {base_offset}"
        )

    # Runs end at window edges, so each chunk stands alone. found[k]: the
    # qualifying positions of chunk k, relative to base_offset.
    stable = mark_stability(samples)[base_offset:]
    found, scanned = [], 0
    while scanned < available and sum(f.size for f in found) < N:
        chunk = min(scanned + 1, available - scanned)     # 1, 2, 4, ... windows
        lo = scanned * window_length
        marks = stable[lo:lo + chunk * window_length].reshape(chunk, window_length)
        found.append(np.flatnonzero(weight_positions(marks) >= threshold) + lo)
        scanned += chunk
    chosen = np.concatenate(found)
    if chosen.size < N:
        # Every window was scanned, so the counts cover them all.
        window_counts = np.bincount(chosen // window_length, minlength=available)
        raise InsufficientStableBitsError(N, int(chosen.size), window_counts.tolist())
    positions = chosen[:N]
    return Mask(
        device_id=device_id,
        positions=positions,
        threshold=threshold,
        sample_count=len(samples),
        base_offset=base_offset,
        window_length=window_length,
        num_windows=int(positions[-1]) // window_length + 1,
    )


def mask_to_text(mask: Mask) -> str:
    values = [MASK_FORMAT, mask.device_id, *(str(getattr(mask, key)) for key in _FIELD_MINIMUMS),
              str(mask.target_len), ",".join(map(str, mask.positions.tolist()))]
    return format_kv_block(zip(MASK_KEYS, values, strict=True))


def mask_from_text(text: str) -> Mask:
    """The mask ``text`` holds, read by the line parser in any form it accepts;
    an empty item in ``positions`` is refused. Its fingerprint is that of the
    canonical text, whatever form was read."""
    fields = read_record(text, MASK_KEYS, MASK_FORMAT, what="mask")
    items = fields["positions"].split(",") if fields["positions"] else []
    try:
        positions = np.array(items, dtype=np.int64)
    except (ValueError, OverflowError):
        raise TextFormatError("mask: positions must be comma-separated integers") from None
    target_len = parse_int(fields, "target_len", what="mask")
    if positions.size != target_len:
        raise TextFormatError(f"mask: target_len says {target_len} but {positions.size} positions given")
    values = {name: parse_int(fields, name, what="mask") for name in _FIELD_MINIMUMS}
    try:
        return Mask(device_id=fields["device_id"], positions=positions, **values)
    except ValueError as exc:
        raise TextFormatError(f"mask: {exc}") from None


# SHA-256 of the canonical mask file text, read through Mask.fingerprint's cache
mask_fingerprint = operator.attrgetter("fingerprint")


def save_mask(path, mask: Mask) -> None:
    atomic_write_text(path, mask_to_text(mask))


def load_mask(path) -> Mask:
    return mask_from_text(read_text(path))
