"""Code-offset fuzzy extractor over a shortened Hamming(128, 120) code.

``generate`` commits a random codeword against an enrolled 128-bit response
and publishes only their XOR (the helper data). ``reproduce`` recovers the
enrolled response from any later reading that differs in at most one bit.
The helper reveals at most the code redundancy (8 bits) about the response.

Code layout
-----------
A binary Hamming code with 8 parity bits shortened to length 128. Every
codeword index ``i`` carries a column code: indices 0..119 map, in ascending
order, to the non-powers-of-two in 1..128 and hold the message bits; indices
120..127 map to the powers of two 1, 2, 4, ..., 128 and hold parity. The
syndrome of a word is the XOR of the column codes of its set bits, so a
single flipped bit yields its own column code (1..128) and any value above
128 proves at least two flips. Minimum distance is 3.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass

import numpy as np

from ._kv import (
    TextFormatError,
    atomic_write_text,
    format_kv_block,
    parse_int,
    parse_kv_block,
    require_keys,
)
from .bitvec import BitVector

HELPER_FORMAT = "srampuf-helper-v1"


class UncorrectableError(ValueError):
    """The word's syndrome matches no single-bit error (at least two flips)."""

    def __init__(self, syndrome: int):
        super().__init__(f"syndrome {syndrome} is outside the valid position set")
        self.syndrome = syndrome


class ReproduceFailure(Exception):
    """The noisy response is too far from the enrolled one; re-sample the SRAM."""


def _column_codes() -> tuple[np.ndarray, np.ndarray]:
    parity = [1 << b for b in range(8)]
    message = [p for p in range(1, 129) if p not in parity]
    codes = np.array(message + parity, dtype=np.int64)
    index_of = np.full(129, -1, dtype=np.int64)
    index_of[codes] = np.arange(codes.size)
    return codes, index_of


class HammingCode:
    """Single-error-correcting (n=128, k=120) systematic block code."""

    n = 128
    k = 120
    r = 8

    def __init__(self):
        self._codes, self._index_of_code = _column_codes()

    @property
    def column_codes(self) -> np.ndarray:
        """Column code per codeword index; documents the parity layout."""
        return self._codes.copy()

    def syndrome(self, word: BitVector) -> int:
        if len(word) != self.n:
            raise ValueError(f"word length must be {self.n}, got {len(word)}")
        set_codes = self._codes[word.bits.astype(bool)]
        return int(np.bitwise_xor.reduce(set_codes)) if set_codes.size else 0

    def encode(self, message: BitVector) -> BitVector:
        """Append the 8 parity bits that zero the syndrome."""
        if len(message) != self.k:
            raise ValueError(f"message length must be {self.k}, got {len(message)}")
        set_codes = self._codes[:self.k][message.bits.astype(bool)]
        acc = int(np.bitwise_xor.reduce(set_codes)) if set_codes.size else 0
        parity = [(acc >> b) & 1 for b in range(self.r)]
        return BitVector(np.concatenate([message.bits, np.array(parity, dtype=np.uint8)]))

    def correct(self, word: BitVector) -> BitVector:
        """Return the nearest codeword, fixing at most one flipped bit.

        Raises :class:`UncorrectableError` when the syndrome proves two or
        more flips. A double flip whose syndrome lands on a valid column is
        miscorrected to a different codeword; that limit is inherent to a
        distance-3 code.
        """
        s = self.syndrome(word)
        if s == 0:
            return word
        if s > self.n:
            raise UncorrectableError(s)
        return word.with_flips([int(self._index_of_code[s])])


_CODE = HammingCode()
CODE_NAME = "hamming-128-120"


@dataclass(frozen=True)
class HelperData:
    """Public error-correction data for one enrolled response.

    ``code_offset`` is response XOR random-codeword; publishing it leaks at
    most ``r`` bits about the response.
    """

    code_offset: BitVector
    code_name: str = CODE_NAME
    n: int = HammingCode.n
    k: int = HammingCode.k
    r: int = HammingCode.r
    device_id: str = ""
    mask_sha256: str = ""

    def __post_init__(self):
        if len(self.code_offset) != self.n:
            raise ValueError(f"code offset must be {self.n} bits, got {len(self.code_offset)}")


def generate(response: BitVector, seed: int | None = None, *, device_id: str = "",
             mask_sha256: str = "") -> HelperData:
    """Commit a fresh random codeword against an enrolled response.

    The codeword is independent of the response. Its 120 message bits come
    from the OS CSPRNG unless ``seed`` asks for reproducible PCG64 bits, which
    are for tests and benchmarks only: they carry no secrecy.
    """
    if len(response) != _CODE.n:
        raise ValueError(f"response must be {_CODE.n} bits, got {len(response)}")
    if seed is None:
        message = BitVector.from_bytes(secrets.token_bytes(_CODE.k // 8))
    else:
        rng = np.random.default_rng(seed)
        message = BitVector(rng.integers(0, 2, size=_CODE.k, dtype=np.uint8))
    codeword = _CODE.encode(message)
    return HelperData(code_offset=response ^ codeword, device_id=device_id,
                      mask_sha256=mask_sha256)


def reproduce(noisy_response: BitVector, helper: HelperData) -> BitVector:
    """Recover the enrolled response from a reading within distance 1 of it.

    Raises :class:`ReproduceFailure` when correction detects that more bits
    flipped than the code can repair; callers should re-sample rather than
    continue with a wrong key.
    """
    if len(noisy_response) != helper.n:
        raise ValueError(f"response must be {helper.n} bits, got {len(noisy_response)}")
    shifted = noisy_response ^ helper.code_offset
    try:
        corrected = _CODE.correct(shifted)
    except UncorrectableError as exc:
        raise ReproduceFailure(
            f"correction failed (syndrome {exc.syndrome}); re-sample the device"
        ) from exc
    return helper.code_offset ^ corrected


def helper_to_text(helper: HelperData) -> str:
    pairs = [
        ("format", HELPER_FORMAT),
        ("device_id", helper.device_id),
        ("code", helper.code_name),
        ("n", str(helper.n)),
        ("k", str(helper.k)),
        ("r", str(helper.r)),
        ("mask_sha256", helper.mask_sha256),
        ("code_offset", helper.code_offset.to_bytes().hex().upper()),
    ]
    return format_kv_block(pairs)


def helper_from_text(text: str) -> HelperData:
    fields = parse_kv_block(text, what="helper data")
    require_keys(fields, ["format", "device_id", "code", "n", "k", "r",
                          "mask_sha256", "code_offset"], what="helper data")
    if fields["format"] != HELPER_FORMAT:
        raise TextFormatError(f"helper data: unsupported format {fields['format']!r}")
    if fields["code"] != CODE_NAME:
        raise TextFormatError(f"helper data: key 'code' must be {CODE_NAME!r}, got {fields['code']!r}")
    for key in ("n", "k", "r"):
        if parse_int(fields, key, what="helper data") != getattr(HammingCode, key):
            raise TextFormatError(
                f"helper data: key {key!r} must be {getattr(HammingCode, key)} for {CODE_NAME}")
    offset_hex = fields["code_offset"]
    if len(offset_hex) != HammingCode.n // 4:
        raise TextFormatError(f"helper data: code_offset must be {HammingCode.n // 4} hex digits")
    try:
        offset = BitVector.from_bytes(bytes.fromhex(offset_hex))
    except ValueError:
        raise TextFormatError("helper data: code_offset is not hexadecimal") from None
    return HelperData(code_offset=offset, device_id=fields["device_id"],
                      mask_sha256=fields["mask_sha256"])


def save_helper(path, helper: HelperData) -> None:
    atomic_write_text(path, helper_to_text(helper))


def load_helper(path) -> HelperData:
    with open(path, "r", encoding="ascii") as fh:
        return helper_from_text(fh.read())
