"""Independent reference implementations the tests check the library against.

These stay deliberately different from the library's algorithms: the weight
oracle looks up the nearest unstable boundary per position by binary search
instead of scanning for it, the syndrome oracle walks the bits instead of
looking up bytes, the encoder completes a message with the parity byte that
zeroes that bitwise syndrome, the code-offset decoders correct reading XOR
an explicit offset and XOR the offset back instead of correcting in the
syndrome domain (one of them from the bitwise syndrome and a scan of the
column codes alone), the dump
formatter writes one word at a time, and the helpers for packed 16-byte
words and 0/1 strings work byte by byte or character by character in plain
Python. The sweep CSV oracle formats each
row's percentages as it writes the row. Readings are stored packed; the
oracles for stability marks, sweeps, masking and flips work on the unpacked
``.bits`` of each reading instead.
"""

import io

import numpy as np

from srampuf.bitvec import BitVector
from srampuf.fuzzy import COLUMN_CODES, ReproduceFailure, correct


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


def outcome(decode, noisy: bytes, side):
    """What a decoder gives for a reading and its helper or offset: the
    response, or its refusal's message."""
    try:
        return decode(noisy, side)
    except ReproduceFailure as exc:
        return str(exc)


def code_offset_definition(noisy: bytes, offset: bytes) -> bytes:
    """The code-offset decoder as defined: correct reading XOR offset, then XOR the offset back."""
    return xor(offset, correct(xor(noisy, offset)))


def weight(word: bytes) -> int:
    """Number of set bits."""
    return sum(bin(x).count("1") for x in word)


def oracle_syndrome(word: bytes) -> int:
    """XOR of the column codes of the word's set bits, bit by bit."""
    s = 0
    for i in range(8 * len(word)):
        if word[i // 8] & (0x80 >> (i % 8)):
            s ^= COLUMN_CODES[i]
    return s


def oracle_encode(message: bytes) -> bytes:
    """The codeword of a 15-byte message: the message, then the parity byte
    whose bit ``b`` (column code ``2**b``, at mask ``0x80 >> b``) cancels bit
    ``b`` of the message's bitwise syndrome."""
    assert len(message) == 15
    s = oracle_syndrome(message)
    return message + bytes([sum(0x80 >> b for b in range(8) if s >> b & 1)])


def oracle_code_offset_decode(noisy: bytes, offset: bytes) -> bytes:
    """The code-offset decoder from ``oracle_syndrome`` and ``COLUMN_CODES`` alone:
    flip the bit of reading XOR offset whose column code is its syndrome, or
    refuse with the library's message when no column code is, then XOR the
    offset back."""
    word = xor(noisy, offset)
    s = oracle_syndrome(word)
    if s:
        bits = [i for i, code in enumerate(COLUMN_CODES) if code == s]
        if not bits:
            raise ReproduceFailure(f"correction failed (syndrome {s}); re-sample the device")
        word = flip_bits(word, bits)
    return xor(word, offset)


def oracle_hex_dump(vector: BitVector) -> str:
    """Canonical dump text, one formatted 32-bit word per line."""
    packed = np.packbits(vector.bits, bitorder="little").view("<u4")
    return "".join(f"{int(word):08X}\n" for word in packed)


def oracle_parse_dump(text: str) -> np.ndarray:
    """The 0/1 bits of a dump, word by word, LSB first."""
    words = [int(line, 16) for line in text.split()]
    return np.array([(w >> k) & 1 for w in words for k in range(32)], dtype=np.uint8)


def oracle_with_flips(reading: BitVector, positions) -> np.ndarray:
    """The unpacked bits of a reading with the given positions inverted."""
    bits = reading.bits.copy()
    for i in positions:
        bits[int(i)] ^= 1
    return bits


def oracle_stability(samples, lo: int, hi: int) -> np.ndarray:
    """True where every sample equals the first one, over bits lo..hi-1."""
    stack = np.stack([s.bits[lo:hi] for s in samples])
    return (stack == stack[0]).all(axis=0)


def oracle_apply_mask(raw: BitVector, mask) -> bytes:
    """The masked response gathered from the unpacked bits."""
    return np.packbits(raw.bits[mask.base_offset + mask.positions]).tobytes()


def oracle_threshold_sweep(enroll_samples, test_samples, thresholds, block_size) -> list[tuple]:
    """Sweep rows as (condition, threshold, block, selected, max_flips, zero,
    one, multi), from unpacked bits one test sample at a time: the flipped
    stable positions of each sample are tallied with one bincount per
    threshold."""
    num_blocks = len(enroll_samples[0]) // block_size
    span = num_blocks * block_size
    stable = oracle_stability(enroll_samples, 0, span)
    weights = np.concatenate([oracle_weights(stable[b * block_size:(b + 1) * block_size])
                              for b in range(num_blocks)])
    reference = enroll_samples[0].bits[:span]
    rows = []
    for condition in sorted(test_samples):
        samples = test_samples[condition]
        flips = np.empty((len(samples), len(thresholds), num_blocks), dtype=np.int64)
        for i, sample in enumerate(samples):
            flipped = np.flatnonzero((sample.bits[:span] != reference) & stable)
            depth, block = weights[flipped], flipped // block_size
            for j, t in enumerate(thresholds):
                flips[i, j] = np.bincount(block[depth >= t], minlength=num_blocks)
        for j, t in enumerate(thresholds):
            for b in range(num_blocks):
                f = flips[:, j, b]
                rows.append((condition, t, b,
                             int(np.count_nonzero(weights[b * block_size:(b + 1) * block_size] >= t)),
                             int(f.max()), int(np.count_nonzero(f == 0)),
                             int(np.count_nonzero(f == 1)), int(np.count_nonzero(f >= 2))))
    return rows


def oracle_sweep_to_csv(rows) -> str:
    """Sweep CSV text written one row at a time, each percentage formatted
    where it is written."""
    out = io.StringIO()
    out.write("condition,threshold,block_index,selected_count,max_flips,"
              "pct_samples_0_flips,pct_samples_1_flip,pct_samples_2plus_flips\n")
    for condition, threshold, block, selected, most, n, zero, one, multi in rows:
        out.write(f"{condition},{threshold},{block},{selected},{most},{100.0 * zero / n:.4f},"
                  f"{100.0 * one / n:.4f},{100.0 * multi / n:.4f}\n")
    return out.getvalue()
