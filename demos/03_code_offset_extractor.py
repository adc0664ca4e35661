"""The SEC-DED code-offset fuzzy extractor.
===========================================

A masked response is stable to within one bit, but "within one bit" is not
good enough for a hash input. The fix: XOR the response against a random
codeword of a single-error-correcting, double-error-detecting code and
publish only that offset. Anyone holding the offset and a fresh response can
cancel a one-bit error, and a two-bit error is always refused; the offset
alone reveals at most the code's 8 redundancy bits.
"""

import itertools

import numpy as np

from srampuf import ReproduceFailure, generate, reproduce
from srampuf.fuzzy import COLUMN_CODES, K, N, R, correct, encode, syndrome


def random_word(rng, bits: int) -> bytes:
    """Random bits packed into bytes, bit 0 into the MSB of byte 0."""
    return np.packbits(rng.integers(0, 2, bits, dtype=np.uint8)).tobytes()


def with_flips(word: bytes, positions) -> bytes:
    flipped = bytearray(word)
    for i in positions:
        flipped[i // 8] ^= 0x80 >> (i % 8)
    return bytes(flipped)


rng = np.random.default_rng(2026)
print(f"code: n={N}, k={K}, r={R} (Hsiao SEC-DED: every column code has odd weight)")

# Encoding appends a parity byte (parity bit b at index 120 + b); any codeword
# has syndrome 0.
codeword = encode(random_word(rng, K))
weight = int.from_bytes(codeword, "big").bit_count()
print(f"codeword weight {weight}, syndrome {syndrome(codeword)}")

# One flipped bit produces that bit's own column code as the syndrome.
flipped = with_flips(codeword, [57])
print(f"flip bit 57 -> syndrome {syndrome(flipped)} "
      f"(column code of position 57 is {COLUMN_CODES[57]})")
print(f"corrected back? {correct(flipped) == codeword}")

# Two flips XOR two odd-weight columns into an even-weight syndrome, which is
# no column code, so every one of the 8,128 double flips is detected.
detected = 0
for j, k in itertools.combinations(range(N), 2):
    try:
        correct(with_flips(codeword, [j, k]))
    except ReproduceFailure:
        detected += 1
print(f"double flips detected as uncorrectable: {detected}/{N * (N - 1) // 2}")

# Three flips can land on a column code: bits 0, 1 and 2 carry codes 7, 11 and
# 13, whose XOR is 1, the code of parity bit 120. Distance 4 cannot catch that.
triple = with_flips(codeword, [0, 1, 2])
print(f"flip bits 0+1+2 -> syndrome {syndrome(triple)}, silently miscorrected to "
      f"a different codeword: {correct(triple) != codeword}")

# The extractor. Enrollment: commit a random codeword against the response.
response = random_word(rng, N)
helper = generate(response, seed=int(rng.integers(2**63)))
print(f"\nhelper data (public, {len(helper.code_offset) * 8} bits): "
      f"{helper.code_offset.hex().upper()}")

# Reproduction: a fresh reading differing in at most one bit recovers the
# enrolled response exactly, for every possible flip position.
recovered = sum(reproduce(with_flips(response, [j]), helper) == response for j in range(N))
print(f"single-bit flips recovered exactly: {recovered}/128")

# Two flips are always refused; beyond that the key check downstream is the
# last guard.
survived = 0
for _ in range(500):
    j, k = rng.choice(128, size=2, replace=False)
    try:
        if reproduce(with_flips(response, [j, k]), helper) == response:
            survived += 1
    except ReproduceFailure:
        pass
print(f"double-bit flips that sneaked through: {survived}/500")
