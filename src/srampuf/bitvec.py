"""Bit sequences and the dump format every other module builds on.

Addressing convention
---------------------
Raw SRAM dumps are sequences of 32-bit words in ascending address order. The
global index of a bit is ``word_index * 32 + bit_within_word`` where bit 0 of
a word is its least-significant bit. A dump file is one uppercase 8-hex-digit
word per line; that layout is the canonical form, and parsing then serializing
any valid dump reproduces it exactly.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ._kv import atomic_write_text

WORD_BITS = 32
_WORD_HEX_DIGITS = WORD_BITS // 4


class DumpFormatError(ValueError):
    """A hex dump file cannot be parsed; carries the offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class BitVector:
    """Immutable ordered sequence of bits.

    Wraps a read-only ``uint8`` array of 0/1 values. XOR requires equal
    lengths; instances are safe to share across threads.
    """

    __slots__ = ("_bits",)

    def __init__(self, bits: Sequence[int] | np.ndarray | Iterable[int]):
        arr = np.asarray(bits, dtype=np.uint8)
        if arr.ndim != 1:
            raise ValueError(f"bits must be one-dimensional, got shape {arr.shape}")
        if arr.size and arr.max(initial=0) > 1:
            raise ValueError("bits must contain only 0 and 1")
        arr = arr.copy()
        arr.flags.writeable = False
        self._bits = arr

    @classmethod
    def zeros(cls, length: int) -> "BitVector":
        return cls(np.zeros(length, dtype=np.uint8))

    @classmethod
    def from01(cls, text: str) -> "BitVector":
        """Build from a string of '0'/'1' characters."""
        if text and set(text) - {"0", "1"}:
            raise ValueError(f"not a 0/1 string: {text!r}")
        return cls(np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0"))

    @property
    def bits(self) -> np.ndarray:
        """Read-only view of the underlying 0/1 array."""
        return self._bits

    def __len__(self) -> int:
        return self._bits.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return BitVector(self._bits[index])
        return int(self._bits[index])

    def __xor__(self, other: "BitVector") -> "BitVector":
        if not isinstance(other, BitVector):
            return NotImplemented
        if len(self) != len(other):
            raise ValueError(f"length mismatch: {len(self)} vs {len(other)}")
        return BitVector(np.bitwise_xor(self._bits, other._bits))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return len(self) == len(other) and bool(np.array_equal(self._bits, other._bits))

    def __hash__(self) -> int:
        return hash((self._bits.size, self._bits.tobytes()))

    def __repr__(self) -> str:
        shown = self.to01() if len(self) <= 64 else self.to01()[:61] + "..."
        return f"BitVector({shown!r}, length={len(self)})"

    def to01(self) -> str:
        return self._bits.tobytes().translate(bytes.maketrans(b"\x00\x01", b"01")).decode("ascii")

    def with_flips(self, positions: Sequence[int] | np.ndarray) -> "BitVector":
        """Copy with the bits at the given indices inverted."""
        arr = self._bits.copy()
        idx = np.asarray(positions, dtype=np.int64)
        arr[idx] ^= 1
        return BitVector(arr)


def parse_hex_dump(text: str) -> BitVector:
    """Parse a dump of 8-hex-digit words, one per line, into a BitVector.

    Bit layout follows the module addressing convention: word ``i`` occupies
    global bits ``32*i .. 32*i+31`` with the word's LSB first. Blank lines are
    ignored; anything else that is not exactly 8 hex digits raises
    :class:`DumpFormatError` with the line number.
    """
    words = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if len(line) != _WORD_HEX_DIGITS:
            raise DumpFormatError(lineno, f"expected {_WORD_HEX_DIGITS} hex digits, got {line!r}")
        try:
            words.append(int(line, 16))
        except ValueError:
            raise DumpFormatError(lineno, f"not hexadecimal: {line!r}") from None
    if not words:
        return BitVector.zeros(0)
    arr = np.array(words, dtype=np.uint32)
    # Little-endian byte order + unpackbits(bitorder="little") gives LSB-first per word.
    as_bytes = arr.astype("<u4").view(np.uint8)
    return BitVector(np.unpackbits(as_bytes, bitorder="little"))


def format_hex_dump(vector: BitVector) -> str:
    """Serialize to the canonical dump form: uppercase 8-hex-digit lines."""
    if len(vector) % WORD_BITS:
        raise ValueError(f"length {len(vector)} is not a multiple of {WORD_BITS}")
    packed = np.packbits(vector.bits, bitorder="little").view("<u4")
    return "".join(f"{int(word):08X}\n" for word in packed)


def load_dump(path) -> BitVector:
    with open(path, "r", encoding="ascii") as fh:
        return parse_hex_dump(fh.read())


def save_dump(path, vector: BitVector) -> None:
    atomic_write_text(path, format_hex_dump(vector))
