"""Power-up readings and the dump format every other module builds on.

Addressing convention
---------------------
Raw SRAM dumps are sequences of 32-bit words in ascending address order. The
global index of a bit is ``word_index * 32 + bit_within_word`` where bit 0 of
a word is its least-significant bit. A dump file is one uppercase 8-hex-digit
word per line; that layout is the canonical form, and parsing then serializing
any valid dump reproduces it exactly.

A reading is a :class:`BitVector`: a read-only 0/1 array (``.bits``), its
length and :meth:`~BitVector.with_flips`. Everything else is numpy on
``.bits``; two readings are equal when ``np.array_equal(a.bits, b.bits)``.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

import numpy as np

from ._kv import TextFormatError, atomic_write_text

WORD_BITS = 32
_WORD_HEX_DIGITS = WORD_BITS // 4
_HEX_RE = re.compile("[0-9A-Fa-f]+")


class BitVector:
    """One power-up reading: a read-only ``uint8`` array of 0/1 values,
    safe to share across threads."""

    __slots__ = ("_bits",)

    def __init__(self, bits: Sequence[int] | np.ndarray | Iterable[int]):
        arr = np.array(bits, dtype=np.uint8)
        if arr.ndim != 1:
            raise ValueError(f"bits must be one-dimensional, got shape {arr.shape}")
        if arr.max(initial=0) > 1:
            raise ValueError("bits must contain only 0 and 1")
        arr.flags.writeable = False
        self._bits = arr

    @property
    def bits(self) -> np.ndarray:
        """Read-only view of the underlying 0/1 array."""
        return self._bits

    def __len__(self) -> int:
        return self._bits.size

    def with_flips(self, positions: Sequence[int] | np.ndarray) -> "BitVector":
        """Copy with the bits at the given indices inverted; an index may
        appear only once."""
        idx = np.asarray(positions, dtype=np.int64)
        if np.unique(idx).size != idx.size:
            raise ValueError("flip positions must not repeat")
        arr = self._bits.copy()
        arr[idx] ^= 1
        return BitVector(arr)


def parse_hex_dump(text: str, *, what: str = "dump") -> BitVector:
    """Parse a dump of 8-hex-digit words, one per line, into a BitVector.

    Bit layout follows the module addressing convention: word ``i`` occupies
    global bits ``32*i .. 32*i+31`` with the word's LSB first. Blank lines are
    ignored; anything else that is not exactly 8 hex digits raises
    :class:`~srampuf._kv.TextFormatError` naming ``what`` and the line.
    """
    lines = [line for raw in text.splitlines() if (line := raw.strip())]
    try:
        packed = bytes.fromhex("".join(lines))
    except ValueError:
        packed = b""
    # All lines 8 digits long and 4 bytes each: no line held a non-hex character or space.
    if len(packed) != 4 * len(lines) or any(len(line) != _WORD_HEX_DIGITS for line in lines):
        raise _malformed_line(text, what)
    # Each line is a big-endian word; little-endian byte order + unpackbits(bitorder="little")
    # gives LSB-first per word.
    as_bytes = np.frombuffer(packed, dtype=">u4").astype("<u4").view(np.uint8)
    return BitVector(np.unpackbits(as_bytes, bitorder="little"))


def _malformed_line(text: str, what: str) -> TextFormatError:
    """The error for the first line of a dump that is neither blank nor one word."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and len(line) != _WORD_HEX_DIGITS:
            return TextFormatError(
                f"{what}: line {lineno}: expected {_WORD_HEX_DIGITS} hex digits, got {line!r}")
        if line and not _HEX_RE.fullmatch(line):
            return TextFormatError(f"{what}: line {lineno}: not hexadecimal: {line!r}")
    raise AssertionError("no malformed line")


def format_hex_dump(vector: BitVector) -> str:
    """Serialize to the canonical dump form: uppercase 8-hex-digit lines."""
    if len(vector) % WORD_BITS:
        raise ValueError(f"length {len(vector)} is not a multiple of {WORD_BITS}")
    packed = np.packbits(vector.bits, bitorder="little").view("<u4")
    # Big-endian bytes hex to the word's digits; a newline after every 4 bytes.
    text = packed.astype(">u4").tobytes().hex("\n", 4).upper()
    return text + "\n" if text else ""


def load_dump(path) -> BitVector:
    with open(path, "r", encoding="ascii") as fh:
        return parse_hex_dump(fh.read(), what=str(path))


def save_dump(path, vector: BitVector) -> None:
    atomic_write_text(path, format_hex_dump(vector))
