"""The SEC-DED syndrome fuzzy extractor.
=====================================

A masked response is stable to within one bit, but "within one bit" is not
good enough for a hash input. The classic fix is the code offset: XOR the
response against a random codeword of a single-error-correcting,
double-error-detecting code and publish that offset. For a linear code all
the decoder ever uses of the offset is its syndrome, which is the response's
own syndrome, so srampuf publishes just that 8-bit syndrome (the syndrome
construction). Anyone holding it and a fresh response can cancel a one-bit
error, a two-bit error is always refused, and the helper reveals exactly the
code's 8 redundancy bits. Nothing is drawn at random.
"""

import itertools

import numpy as np

from srampuf import ReproduceFailure, generate, reproduce
from srampuf.fuzzy import COLUMN_CODES, K, N, R, correct, helper_to_text, syndrome


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

# The syndrome is the XOR of the column codes of a word's set bits, so it is
# linear: the syndrome of a word XOR another is the XOR of their syndromes.
# A reading's syndrome XOR the enrolled response's is the syndrome of the
# error pattern between them. The zero word is a codeword, and error
# patterns are shown against it below.
zero = bytes(N // 8)
a, b = random_word(rng, N), random_word(rng, N)
print(f"syndrome(a ^ b) == syndrome(a) ^ syndrome(b)? "
      f"{syndrome(bytes(x ^ y for x, y in zip(a, b))) == syndrome(a) ^ syndrome(b)}")

# One flipped bit produces that bit's own column code as the syndrome.
flipped = with_flips(zero, [57])
print(f"flip bit 57 -> syndrome {syndrome(flipped)} "
      f"(column code of position 57 is {COLUMN_CODES[57]})")
print(f"corrected back? {correct(flipped) == zero}")

# Two flips XOR two odd-weight columns into an even-weight syndrome, which is
# no column code, so every one of the 8,128 double flips is detected.
detected = 0
for j, k in itertools.combinations(range(N), 2):
    try:
        correct(with_flips(zero, [j, k]))
    except ReproduceFailure:
        detected += 1
print(f"double flips detected as uncorrectable: {detected}/{N * (N - 1) // 2}")

# Three flips can land on a column code: bits 0, 1 and 2 carry codes 7, 11 and
# 13, whose XOR is 1, the code of parity bit 120. Distance 4 cannot catch that.
triple = with_flips(zero, [0, 1, 2])
print(f"flip bits 0+1+2 -> syndrome {syndrome(triple)}, silently miscorrected to "
      f"a different codeword: {correct(triple) != zero}")

# The extractor. Enrollment publishes the response's syndrome, and draws
# nothing: the same response always gives the same helper. A helper file
# holds that syndrome and the fingerprint of its mask; this response was
# read through none, so its mask_sha256 is empty.
response = random_word(rng, N)
helper = generate(response)
print(f"\nhelper data (public, {R} bits), again the same? {generate(response) == helper}")
print(helper_to_text(helper), end="")

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
