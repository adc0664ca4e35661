"""Independent reference implementations the tests check the library against.

These stay deliberately different from the library's algorithms: the weight
oracle looks up the nearest unstable boundary per position instead of
counting run prefixes, the syndrome oracle walks the bits instead of
looking up bytes, the dump formatter writes one word at a time, and the
helpers for packed 16-byte words and 0/1 strings work byte by byte or
character by character in plain Python.
"""

import numpy as np

from srampuf.bitvec import BitVector
from srampuf.fuzzy import COLUMN_CODES


def oracle_weights(stable: np.ndarray) -> np.ndarray:
    """Expected weight per position: distance to the nearest unstable cell or
    window edge, zero on unstable positions."""
    n = stable.size
    bounds = np.concatenate(([-1], np.flatnonzero(~stable), [n]))
    idx = np.arange(n)
    j = np.searchsorted(bounds, idx)
    left = idx - bounds[j - 1]
    right = bounds[np.minimum(j, bounds.size - 1)] - idx
    return np.where(stable, np.minimum(left, right), 0).astype(np.int64)


def random_bits(rng: np.random.Generator, n: int) -> BitVector:
    return BitVector(rng.integers(0, 2, n, dtype=np.uint8))


def from01(text: str) -> BitVector:
    """Reading from a string of '0'/'1' characters."""
    if set(text) - {"0", "1"}:
        raise ValueError(f"not a 0/1 string: {text!r}")
    return BitVector([int(c) for c in text])


def to01(reading: BitVector) -> str:
    return "".join(str(int(b)) for b in reading.bits)


def random_bytes(rng: np.random.Generator, n: int) -> bytes:
    """The draws of ``random_bits(rng, n)``, packed bit 0 into the MSB of byte 0."""
    return np.packbits(rng.integers(0, 2, n, dtype=np.uint8)).tobytes()


def flip_bits(word: bytes, positions) -> bytes:
    """Copy of a packed word with the given bit indices inverted."""
    out = bytearray(word)
    for i in positions:
        out[int(i) // 8] ^= 0x80 >> (int(i) % 8)
    return bytes(out)


def xor(a: bytes, b: bytes) -> bytes:
    assert len(a) == len(b)
    return bytes(x ^ y for x, y in zip(a, b))


def weight(word: bytes) -> int:
    """Number of set bits."""
    return sum(bin(x).count("1") for x in word)


def oracle_syndrome(word: bytes) -> int:
    """XOR of the column codes of the word's set bits, bit by bit."""
    s = 0
    for i in range(8 * len(word)):
        if word[i // 8] & (0x80 >> (i % 8)):
            s ^= int(COLUMN_CODES[i])
    return s


def oracle_hex_dump(vector: BitVector) -> str:
    """Canonical dump text, one formatted 32-bit word per line."""
    packed = np.packbits(vector.bits, bitorder="little").view("<u4")
    return "".join(f"{int(word):08X}\n" for word in packed)
