"""Stable-bit selection: stability marks, cluster weights, threshold masks.

Enrollment watches a window of cells across many power-up samples, marks each
position stable (S) when its value never changed, and weights every stable
position by how deep it sits inside its run of consecutive stable cells: the
ends of a run weigh 1 and the weight grows by 1 per step toward the middle,
i.e. ``min(offset + 1, run_length - offset)``. Runs end at window edges, so
windows are marked and weighted in doubling chunks (1, 2, 4, ... windows)
until enough positions qualify; the lowest-index positions whose weight
reaches a threshold form a fixed-size mask of bit positions that later
filters raw power-up dumps into a response.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._kv import (TextFormatError, atomic_write_text, format_kv_block, parse_int, read_record,
                  read_text)
from .bitvec import BitVector

DEFAULT_WINDOW_LENGTH = 1216
DEFAULT_TARGET_LEN = 128
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


def mark_stability(samples: list[BitVector], window: range | None = None) -> np.ndarray:
    """Read-only bool marks over the window: True (S) where all samples agree,
    False (U) elsewhere. Needs at least 2 samples.

    The samples are compared byte by byte over the packed bytes that cover
    the window; only the result is unpacked and cut to the window.
    """
    if len(samples) < 2:
        raise ValueError("stability needs at least 2 samples")
    length = len(samples[0])
    if any(len(s) != length for s in samples):
        raise ValueError("samples must all have the same length")
    if window is None:
        window = range(0, length)
    if window.step != 1:
        raise ValueError("window must be a contiguous range")
    if window.start < 0 or window.stop > length:
        raise ValueError(f"window {window} does not fit samples of length {length}")
    lo, hi = window.start // 8, -(-window.stop // 8)
    reference = samples[0].packed[lo:hi]
    differs = np.zeros(hi - lo, dtype=np.uint8)
    scratch = np.empty_like(differs)
    for s in samples[1:]:
        np.bitwise_xor(s.packed[lo:hi], reference, out=scratch)
        differs |= scratch
    unstable = np.unpackbits(differs, bitorder="little")
    start = window.start - 8 * lo
    stable = unstable[start:start + len(window)] == 0
    stable.flags.writeable = False
    return stable


def _run_position_counts(stable: np.ndarray) -> np.ndarray:
    """Per position: how many consecutive True values end here (inclusive),
    counted along the last axis, so runs restart on every row."""
    counts = np.cumsum(stable, axis=-1, dtype=np.int64)
    # last_reset is the running count at the latest unstable position so far.
    # On an unstable position it equals the count itself, so the result is 0
    # there. Both steps run in place, holding one temporary at full size.
    last_reset = np.where(stable, 0, counts)
    np.maximum.accumulate(last_reset, axis=-1, out=last_reset)
    counts -= last_reset
    return counts


def weight_positions(stable: np.ndarray) -> np.ndarray:
    """Weight each stable position by its depth inside its run of S cells;
    returns a read-only array shaped like the bool marks.

    For 2-D marks every row is a window and runs end at its edges.
    """
    forward = _run_position_counts(stable)
    backward = _run_position_counts(stable[..., ::-1])[..., ::-1]
    weights = np.minimum(forward, backward, out=forward)
    weights.flags.writeable = False
    return weights


def select_positions(weights: np.ndarray, threshold: int) -> np.ndarray:
    """Ascending indices of all positions whose weight reaches the threshold."""
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    return np.flatnonzero(weights >= threshold)


# Least value of each integer Mask field, in file order; a negative
# base_offset would read bits wrapped from the end of a dump.
_FIELD_MINIMUMS = {"base_offset": 0, "window_length": 1, "num_windows": 1,
                   "threshold": 1, "sample_count": 2}
# The mask file's keys, in the order mask_to_text writes them
MASK_KEYS = ("format", "device_id", *_FIELD_MINIMUMS, "target_len", "positions")


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
        for name, least in _FIELD_MINIMUMS.items():
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")
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
        """SHA-256 of the canonical mask file text, computed once per mask."""
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

    def required_dump_bits(self) -> int:
        return self.base_offset + int(self.positions[-1]) + 1 if self.positions.size else self.base_offset


def build_mask(samples: list[BitVector], threshold: int,
               target_len: int = DEFAULT_TARGET_LEN,
               window_length: int = DEFAULT_WINDOW_LENGTH,
               base_offset: int = 0,
               device_id: str = "") -> Mask:
    """Select ``target_len`` positions from consecutive windows of the samples.

    Windows from ``base_offset`` on are marked and weighted in doubling
    chunks (1, 2, 4, ... windows), runs ending at window edges, until
    ``target_len`` positions qualify; the lowest-index qualifying positions
    win, and ``num_windows`` counts the windows they reach. Raises
    :class:`InsufficientStableBitsError` when all available windows together
    fall short.
    """
    if not samples:
        raise ValueError("no samples provided")
    if target_len < 1:
        raise ValueError("target_len must be >= 1")
    if window_length < 1:
        raise ValueError("window_length must be >= 1")
    total_bits = len(samples[0])
    available = (total_bits - base_offset) // window_length
    if available < 1:
        raise ValueError(
            f"samples of {total_bits} bits hold no full {window_length}-bit window "
            f"past offset {base_offset}"
        )

    # Runs end at window edges, so each chunk stands alone. found[k]: the
    # qualifying positions of chunk k, relative to base_offset.
    found, scanned = [], 0
    while scanned < available and sum(f.size for f in found) < target_len:
        chunk = min(scanned + 1, available - scanned)     # 1, 2, 4, ... windows
        lo = base_offset + scanned * window_length
        stable = mark_stability(samples, range(lo, lo + chunk * window_length))
        weights = weight_positions(stable.reshape(chunk, window_length))
        found.append(select_positions(weights, threshold) + scanned * window_length)
        scanned += chunk
    chosen = np.concatenate(found)
    if chosen.size < target_len:
        # Every window was scanned, so the counts cover them all.
        window_counts = np.bincount(chosen // window_length, minlength=available)
        raise InsufficientStableBitsError(target_len, int(chosen.size), window_counts.tolist())
    positions = chosen[:target_len]
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
    fields = read_record(text, MASK_KEYS, (MASK_FORMAT,), what="mask")
    try:
        positions = np.array([int(p) for p in fields["positions"].split(",") if p != ""],
                             dtype=np.int64)
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


def mask_fingerprint(mask: Mask) -> str:
    """SHA-256 of the canonical mask file text; ties helper data to its mask."""
    return mask.fingerprint


def save_mask(path, mask: Mask) -> None:
    atomic_write_text(path, mask_to_text(mask))


def load_mask(path) -> Mask:
    return mask_from_text(read_text(path))
