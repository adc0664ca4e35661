"""Power-up readings and the dump format every other module builds on.

Addressing convention
---------------------
Raw SRAM dumps are sequences of 32-bit words in ascending address order. The
global index of a bit is ``word_index * 32 + bit_within_word`` where bit 0 of
a word is its least-significant bit. A dump file is one uppercase 8-hex-digit
word per line; that layout is the canonical form, and parsing then serializing
any valid dump reproduces it exactly.

A reading is a :class:`BitVector`. It stores its bits packed eight to a byte
in that same order (``packed``: bit ``i`` is bit ``i % 8`` of byte ``i // 8``,
LSB first, trailing pad bits zero), so a 120,000-bit reading holds 15,000
bytes. ``bits`` unpacks a fresh read-only 0/1 array on every call; the
library's own passes (stability marks, sweeps, masking, dumps) work on the
packed bytes. ``BitVector`` defines no ``__eq__``, so ``==`` is identity; two
readings hold the same bits when their lengths are equal and so are their
``packed`` bytes. A run of readings from the sampler is a :class:`SampleSet`,
one read-only matrix of those bytes with a row per reading; the passes that
take samples stack a list of readings of one length into one once per call.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._kv import TextFormatError, atomic_write_text, read_text

WORD_BITS = 32
_WORD_HEX_DIGITS = WORD_BITS // 4
_WORD_RE = re.compile(f"[0-9A-Fa-f]{{{_WORD_HEX_DIGITS}}}")


class BitVector:
    """One power-up reading: its bits packed in dump order plus its length,
    read-only and safe to share across threads."""

    __slots__ = ("_packed", "_length")

    def __init__(self, bits: Sequence[int] | np.ndarray | Iterable[int]):
        arr = np.array(bits, dtype=np.uint8)
        if arr.ndim != 1:
            raise ValueError(f"bits must be one-dimensional, got shape {arr.shape}")
        if arr.max(initial=0) > 1:
            raise ValueError("bits must contain only 0 and 1")
        self._set(np.packbits(arr, bitorder="little"), arr.size)

    def _set(self, packed: np.ndarray, length: int) -> None:
        packed.flags.writeable = False
        self._packed = packed
        self._length = length

    @classmethod
    def from_packed(cls, packed: np.ndarray, length: int) -> "BitVector":
        """Adopt ``uint8`` bytes already packed in dump order, pad bits zero;
        the caller hands them over and must not write them again."""
        vector = cls.__new__(cls)
        vector._set(packed, length)
        return vector

    @property
    def packed(self) -> np.ndarray:
        """The read-only packed bytes, ``ceil(len / 8)`` of them."""
        return self._packed

    @property
    def bits(self) -> np.ndarray:
        """A fresh read-only 0/1 ``uint8`` array, unpacked on every call."""
        arr = np.unpackbits(self._packed, count=self._length, bitorder="little")
        arr.flags.writeable = False
        return arr

    def __len__(self) -> int:
        return self._length

    def with_flips(self, positions: Sequence[int] | np.ndarray) -> "BitVector":
        """Copy with the bits at the given indices inverted; an index may
        appear only once."""
        idx = np.asarray(positions, dtype=np.int64)
        if np.unique(idx).size != idx.size:
            raise ValueError("flip positions must not repeat")
        if idx.size and not -self._length <= idx.min() <= idx.max() < self._length:
            raise IndexError(f"flip positions out of range for {self._length} bits")
        idx = idx % max(self._length, 1)     # a negative index counts from the end
        packed = self._packed.copy()
        # ufunc.at applies each flip, also when two fall in one byte.
        np.bitwise_xor.at(packed, idx >> 3, (1 << (idx & 7)).astype(np.uint8))
        return BitVector.from_packed(packed, self._length)


@dataclass(frozen=True, eq=False)
class SampleSet(Sequence):
    """Readings of ``length`` bits as one read-only packed matrix, a row per
    reading. An int index gives a reading that owns a copy of its row, so it
    does not keep the matrix alive; a slice gives a SampleSet, ``+`` a list."""

    packed: np.ndarray
    length: int

    def __post_init__(self):
        self.packed.flags.writeable = False

    def __len__(self) -> int:
        return self.packed.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SampleSet(self.packed[index], self.length)
        return BitVector.from_packed(self.packed[operator.index(index)].copy(), self.length)

    def __add__(self, other) -> list[BitVector]:
        return [*self, *other]

    @classmethod
    def of(cls, samples: Sequence[BitVector]) -> "SampleSet":
        """``samples`` unchanged if it is a SampleSet, else its readings'
        packed bytes stacked once; an empty or mixed-length list is refused."""
        if isinstance(samples, SampleSet):
            return samples
        if not samples:
            raise ValueError("no samples provided")
        length = len(samples[0])
        if any(len(s) != length for s in samples):
            raise ValueError("samples must all have the same length")
        return cls(np.stack([s.packed for s in samples]), length)

    @cached_property
    def unstable(self) -> np.ndarray:
        """Read-only packed map of the bits that differ between readings (the
        OR of the rows without their AND), computed once per set."""
        differs = np.bitwise_or.reduce(self.packed, 0) ^ np.bitwise_and.reduce(self.packed, 0)
        differs.flags.writeable = False
        return differs


def parse_hex_dump(text: str, *, what: str = "dump") -> BitVector:
    """Parse a dump of 8-hex-digit words, one per line, into a BitVector.

    Bit layout follows the module addressing convention: word ``i`` occupies
    global bits ``32*i .. 32*i+31`` with the word's LSB first. Blank lines are
    ignored; anything else that is not exactly 8 hex digits raises
    :class:`~srampuf._kv.TextFormatError` naming ``what`` and the line.
    """
    packed = _writer_form(text)
    if packed is None:
        packed = _parse_lines(text, what)
    # Each line is a big-endian word; in little-endian byte order its bytes are
    # the packed form, LSB first per word.
    words = np.frombuffer(packed, dtype=">u4").astype("<u4")
    return BitVector.from_packed(words.view(np.uint8), WORD_BITS * words.size)


def _writer_form(text: str) -> bytes | None:
    """The word bytes of ``text`` if every line is exactly 8 hex digits and a
    ``\\n``, as :func:`format_hex_dump` writes it, else None; never raises."""
    lines, rest = divmod(len(text), _WORD_HEX_DIGITS + 1)
    if rest or text[_WORD_HEX_DIGITS::_WORD_HEX_DIGITS + 1] != "\n" * lines:
        return None
    try:
        packed = bytes.fromhex(text)
    except ValueError:
        return None
    # fromhex skips whitespace, so 4 bytes a line leave no room for any but the newlines
    return packed if len(packed) == 4 * lines else None


def _parse_lines(text: str, what: str) -> bytes:
    """The word bytes of any dump ``text``: its non-blank lines, stripped, in
    the writer's form; raises naming the first line that is not one word."""
    lines = [line for raw in text.splitlines() if (line := raw.strip())]
    packed = _writer_form("\n".join([*lines, ""]))
    if packed is not None:
        return packed
    # The joined lines miss the writer's form only if one is not a word, which next() finds.
    lineno, line = next((n, line) for n, raw in enumerate(text.splitlines(), start=1)
                        if (line := raw.strip()) and not _WORD_RE.fullmatch(line))
    if len(line) != _WORD_HEX_DIGITS:
        raise TextFormatError(
            f"{what}: line {lineno}: expected {_WORD_HEX_DIGITS} hex digits, got {line!r}")
    raise TextFormatError(f"{what}: line {lineno}: not hexadecimal: {line!r}")


def format_hex_dump(vector: BitVector) -> str:
    """Serialize to the canonical dump form: uppercase 8-hex-digit lines."""
    if len(vector) % WORD_BITS:
        raise ValueError(f"length {len(vector)} is not a multiple of {WORD_BITS}")
    # Big-endian bytes hex to the word's digits; a newline after every 4 bytes.
    text = vector.packed.view("<u4").astype(">u4").tobytes().hex("\n", 4).upper()
    return text + "\n" if text else ""


def load_dump(path) -> BitVector:
    return parse_hex_dump(read_text(path), what=str(path))


def save_dump(path, vector: BitVector) -> None:
    atomic_write_text(path, format_hex_dump(vector))
