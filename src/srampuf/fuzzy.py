"""Syndrome fuzzy extractor over a 128-bit SEC-DED code with 120 message bits.

``generate`` makes the helper data of an enrolled 128-bit response: its 8-bit
syndrome, bound to the fingerprint of the mask it was read through. It draws
no random value. ``reproduce`` recovers the
enrolled response from any later reading that differs in at most one bit,
and refuses every reading that differs in exactly two. This is the syndrome
construction (Dodis, Ostrovsky, Reyzin, Smith, SIAM J. Comput. 38(1), 2008):
the helper reveals exactly the response's syndrome, the code redundancy
(8 bits), which is what a code offset on a uniform random codeword reveals.

Responses and words are 16 bytes; bit ``i`` sits in byte ``i // 8`` at mask
``0x80 >> (i % 8)`` (bit 0 in the most-significant bit of byte 0).

Code layout
-----------
Every codeword bit ``i`` carries an 8-bit column code, and the syndrome of a
word is the XOR of the column codes of its set bits. Parity bit ``b`` sits at
index ``120 + b``, in byte 15, with column code ``2**b``; bits 0..119 (bytes
0..14) hold the message. The code is ``hsiao-128-120``: the message columns
are the 8-bit values of odd weight 3 or more, in ascending order (Hsiao, IBM
J. R&D 14(4), 1970). Every column then has odd weight, so a single flip
yields its own column code, while a double flip yields an even-weight
nonzero syndrome that is no column code, and is refused. Minimum distance is
4, and every odd-weight byte is a column code, so every triple flip (all
341,376 of them) is corrected to a wrong codeword; only a key check catches it.

A helper file holds only what ``reproduce_key`` reads: ``format``,
``mask_sha256`` and ``syndrome``. Only ``srampuf-helper-v4`` is read, and
that format fixes the code, so no helper names it. Older helpers are refused
by their format line: v3 also stated the device id and the code and its
parameters, v2 held a 16-byte code offset (the response XOR a random
codeword, whose syndrome is the response's), and v1 used a distance-3
Hamming code.

``COLUMN_CODES`` is the one definition of the code; ``correct`` refuses any
syndrome that is not a column code. Two read-only tables are derived from it at
import: per byte position, the syndrome of each of the 256 byte values, so a
syndrome is one written-out XOR of 16 per-byte lookups; and the bit index of
each column code, so a correction is one lookup. The syndrome is linear, so
``reproduce`` XORs the reading's syndrome into the helper's to get that of the
error pattern, and flips the reading's bit with that column code. For every
codeword ``c`` the outcome, refusal or miscorrection, is the code-offset
construction's ``o ^ correct(reading ^ o)`` with ``o = response ^ c``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._kv import (TextFormatError, atomic_write_text, format_kv_block, parse_int, read_record,
                  read_text)

HELPER_FORMAT = "srampuf-helper-v4"
HELPER_KEYS = ("format", "mask_sha256", "syndrome")   # in helper_to_text's order
N, K, R = 128, 120, 8   # codeword, message and parity bits


class ReproduceFailure(Exception):
    """The noisy response is too far from the enrolled one; re-sample the SRAM."""


# column codes: the message columns, then parity columns 2**b
COLUMN_CODES = (*(v for v in range(256) if bin(v).count("1") % 2 and v & (v - 1)),
                *(1 << b for b in range(R)))


def _byte_syndromes(codes: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Per byte position, the syndrome of each byte value at that position."""
    tables = []
    for j in range(N // 8):
        table = [0]
        # Bits 7, 6, ..., 0 of the byte sit at masks 0x01, 0x02, ..., 0x80;
        # each doubles the table with its code XORed in.
        for code in reversed(codes[8 * j:8 * j + 8]):
            table += [s ^ code for s in table]
        tables.append(tuple(table))
    return tuple(tables)


_BYTE_SYNDROMES = _byte_syndromes(COLUMN_CODES)
_BIT_OF_CODE = {code: i for i, code in enumerate(COLUMN_CODES)}


def require_size(what: str, value: bytes, size: int) -> None:
    if len(value) != size:
        raise ValueError(f"{what} must be {size} bytes, got {len(value)}")


def _lookups(word: bytes) -> int:
    """Syndrome of a 16-byte word: one written-out XOR of its 16 per-byte lookups."""
    b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15 = word
    t = _BYTE_SYNDROMES
    return (t[0][b0] ^ t[1][b1] ^ t[2][b2] ^ t[3][b3] ^ t[4][b4] ^ t[5][b5]
            ^ t[6][b6] ^ t[7][b7] ^ t[8][b8] ^ t[9][b9] ^ t[10][b10]
            ^ t[11][b11] ^ t[12][b12] ^ t[13][b13] ^ t[14][b14] ^ t[15][b15])


def syndrome(word: bytes) -> int:
    """XOR of the column codes of the word's set bits; 0 for a codeword."""
    require_size("word", word, N // 8)
    return _lookups(word)


def _flip_column(word: bytes, s: int) -> bytes:
    """``word`` with the bit of column code ``s`` flipped; refuses any other nonzero ``s``."""
    if (i := _BIT_OF_CODE.get(s)) is None:
        raise ReproduceFailure(f"correction failed (syndrome {s}); re-sample the device")
    return (int.from_bytes(word, "big") ^ (1 << (N - 1 - i))).to_bytes(N // 8, "big")


def correct(word: bytes) -> bytes:
    """Return the nearest codeword, fixing at most one flipped bit.

    Raises :class:`ReproduceFailure` when the syndrome is no column code,
    which proves two or more flips: every double flip does. A triple flip
    lands on a column code and is corrected to a different codeword.
    """
    s = syndrome(word)
    return _flip_column(word, s) if s else word


@dataclass(frozen=True)
class HelperData:
    """Public data for one enrolled response: its syndrome and its mask binding.

    ``syndrome`` is the response's ``R``-bit syndrome (0..255); publishing it
    reveals those ``R`` bits about the response and nothing more.
    ``mask_sha256`` is the fingerprint of the mask the response was read
    through, which ``reproduce_key`` requires of the mask it is given.
    """

    syndrome: int
    mask_sha256: str = ""


def generate(response: bytes, *, mask_sha256: str = "") -> HelperData:
    """Helper data for an enrolled 16-byte response: its syndrome, bound to
    ``mask_sha256``; nothing is drawn."""
    require_size("response", response, N // 8)
    return HelperData(syndrome=_lookups(response), mask_sha256=mask_sha256)


def reproduce(noisy_response: bytes, helper: HelperData) -> bytes:
    """Recover the enrolled response from a reading within distance 1 of it.

    Flips the reading's bit whose column code is the syndrome of reading XOR
    response, the helper's syndrome XOR the reading's own; for any codeword
    ``c`` every outcome, refusal or miscorrection, is ``o ^ correct(reading ^ o)``
    with ``o = response ^ c``.

    Raises :class:`ReproduceFailure` when correction detects that more bits
    flipped than the code can repair; callers should re-sample rather than
    continue with a wrong key.
    """
    require_size("noisy response", noisy_response, N // 8)
    s = helper.syndrome ^ _lookups(noisy_response)
    return _flip_column(noisy_response, s) if s else noisy_response


def helper_to_text(helper: HelperData) -> str:
    values = (HELPER_FORMAT, helper.mask_sha256, str(helper.syndrome))
    return format_kv_block(zip(HELPER_KEYS, values, strict=True))


def helper_from_text(text: str) -> HelperData:
    fields = read_record(text, HELPER_KEYS, HELPER_FORMAT, what="helper data",
                         remedy="; run genkey again")
    value = parse_int(fields, "syndrome", what="helper data")
    if not 0 <= value < 1 << R:
        raise TextFormatError(f"helper data: key 'syndrome' must be 0..{(1 << R) - 1}, "
                              f"got {value}")
    return HelperData(syndrome=value, mask_sha256=fields["mask_sha256"])


def save_helper(path, helper: HelperData) -> None:
    atomic_write_text(path, helper_to_text(helper))


def load_helper(path) -> HelperData:
    return helper_from_text(read_text(path))
