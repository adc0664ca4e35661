"""End-to-end key pipeline: mask a raw dump, extract, hash, split.

A raw power-up dump (a :class:`~srampuf.bitvec.BitVector`) filtered through
an enrollment mask gives a 128-bit response, carried as 16 bytes. Key
generation commits helper data against it; key reproduction uses that helper
data to cancel up to one flipped bit out of a later dump.
Either way the recovered response is hashed with SHA-256 into 256 key bits,
handed out as two 128-bit halves. Keys are a pure function of the response;
helper data never enters the hash.

``apply_mask`` gathers the masked bits from the dump's packed bytes and packs
the response big-endian (bit 0 into the MSB of byte 0); those 16 bytes are
the hash input. That choice is arbitrary but pinned by test vectors so
independent implementations interoperate.
"""

from __future__ import annotations

from dataclasses import dataclass

import hashlib

import numpy as np

from .enroll import Mask, mask_fingerprint
from .fuzzy import N, HelperData, generate, reproduce, require_size

KEY_BITS = 256


@dataclass(frozen=True)
class KeyMaterial:
    """A 256-bit derived key, split into two 128-bit halves."""

    digest: bytes

    def __post_init__(self):
        require_size("digest", self.digest, KEY_BITS // 8)

    @property
    def key1(self) -> bytes:
        return self.digest[:16]

    @property
    def key2(self) -> bytes:
        return self.digest[16:]

    def hex(self) -> str:
        return self.digest.hex()


def apply_mask(raw, mask: Mask) -> bytes:
    """Filter a raw dump down to the 16-byte masked response, in mask order."""
    if mask.target_len != N:
        raise ValueError(f"mask selects {mask.target_len} positions; a response needs {N}")
    needed = mask.base_offset + int(mask.positions[-1]) + 1
    if len(raw) < needed:
        raise ValueError(
            f"dump has {len(raw)} bits but the mask needs bits "
            f"{mask.base_offset}..{needed - 1}"
        )
    byte, bit = mask.packed_index
    # packbits packs every nonzero value as a 1.
    return np.packbits(raw.packed[byte] & bit).tobytes()


def derive_key(response: bytes) -> KeyMaterial:
    """Hash a recovered 16-byte response into key material."""
    require_size("response", response, N // 8)
    return KeyMaterial(digest=hashlib.sha256(response).digest())


def generate_key(raw, mask: Mask,
                 seed: int | None = None) -> tuple[HelperData, KeyMaterial]:
    """Enroll a dump: returns public helper data and the derived keys."""
    response = apply_mask(raw, mask)
    helper = generate(response, seed, device_id=mask.device_id,
                      mask_sha256=mask_fingerprint(mask))
    return helper, derive_key(response)


def reproduce_key(raw, mask: Mask, helper: HelperData) -> KeyMaterial:
    """Re-derive the enrolled keys from a fresh dump of the same device.

    The helper's ``mask_sha256`` must be this mask's fingerprint, never empty.
    Propagates :class:`~srampuf.fuzzy.ReproduceFailure` when the dump is too noisy.
    """
    if helper.mask_sha256 != mask_fingerprint(mask):
        raise ValueError("helper data was generated for a different mask")
    response = apply_mask(raw, mask)
    recovered = reproduce(response, helper)
    return derive_key(recovered)
