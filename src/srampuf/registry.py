"""Flat-file enrollment registry.

One structured text file lists every enrolled device with references to its
mask and helper files (stored as siblings) and the SHA-256 of each referenced
file. Hashes are re-checked whenever the registry or a referenced file is
loaded, so any corruption of a mask or helper is caught before a key is
derived from it. Keys themselves are never persisted; at most an opt-in
debug key hash is recorded for cross-checking reproduction.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone

from ._kv import TextFormatError, atomic_write_text, parse_int, parse_kv_block, require_keys

REGISTRY_FORMAT = "srampuf-registry-v1"

_REQUIRED_ENTRY_KEYS = [
    "device_id", "mask_file", "mask_sha256", "threshold", "sample_count",
    "base_offset", "window_length", "num_windows", "created",
]
_OPTIONAL_ENTRY_KEYS = ["helper_file", "helper_sha256", "key_sha256"]


class RegistryError(Exception):
    """The registry file or a referenced artifact is missing or inconsistent."""


def file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def utc_timestamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


@dataclass(frozen=True)
class RegistryEntry:
    """One enrolled device and the files that reproduce its key."""

    device_id: str
    mask_file: str
    mask_sha256: str
    threshold: int
    sample_count: int
    base_offset: int
    window_length: int
    num_windows: int
    created: str
    helper_file: str = ""
    helper_sha256: str = ""
    key_sha256: str = ""      # debug only, opt-in

    def to_pairs(self) -> list[tuple[str, str]]:
        pairs = [
            ("device_id", self.device_id),
            ("mask_file", self.mask_file),
            ("mask_sha256", self.mask_sha256),
            ("threshold", str(self.threshold)),
            ("sample_count", str(self.sample_count)),
            ("base_offset", str(self.base_offset)),
            ("window_length", str(self.window_length)),
            ("num_windows", str(self.num_windows)),
            ("created", self.created),
        ]
        for key in _OPTIONAL_ENTRY_KEYS:
            value = getattr(self, key)
            if value:
                pairs.append((key, value))
        return pairs


@dataclass
class Registry:
    """In-memory view of one registry file; device ids are unique."""

    entries: dict[str, RegistryEntry] = field(default_factory=dict)

    def add(self, entry: RegistryEntry) -> None:
        if entry.device_id in self.entries:
            raise RegistryError(f"device {entry.device_id!r} is already enrolled")
        self.entries[entry.device_id] = entry

    def get(self, device_id: str) -> RegistryEntry:
        try:
            return self.entries[device_id]
        except KeyError:
            raise RegistryError(f"device {device_id!r} is not enrolled") from None

    def update(self, entry: RegistryEntry) -> None:
        if entry.device_id not in self.entries:
            raise RegistryError(f"device {entry.device_id!r} is not enrolled")
        self.entries[entry.device_id] = entry


def registry_to_text(registry: Registry) -> str:
    blocks = [f"format = {REGISTRY_FORMAT}\n"]
    for device_id in sorted(registry.entries):
        entry = registry.entries[device_id]
        blocks.append("".join(f"{k} = {v}\n" for k, v in entry.to_pairs()))
    return "\n".join(blocks)


def registry_from_text(text: str) -> Registry:
    blocks = [b for b in text.split("\n\n") if b.strip()]
    if not blocks:
        raise TextFormatError("registry: empty file")
    header = parse_kv_block(blocks[0], what="registry header")
    if header.get("format") != REGISTRY_FORMAT:
        raise TextFormatError(f"registry: unsupported format {header.get('format')!r}")
    registry = Registry()
    for block in blocks[1:]:
        fields = parse_kv_block(block, what="registry entry")
        require_keys(fields, _REQUIRED_ENTRY_KEYS, what="registry entry")
        for key in ("mask_file", "helper_file"):  # names of files next to the registry
            name = fields.get(key)
            if name is not None and (name in ("", ".", "..") or "/" in name or "\\" in name):
                raise TextFormatError(f"registry entry: key {key!r} must be a bare file name: {name!r}")
        entry = RegistryEntry(
            device_id=fields["device_id"],
            mask_file=fields["mask_file"],
            mask_sha256=fields["mask_sha256"],
            threshold=parse_int(fields, "threshold", what="registry entry"),
            sample_count=parse_int(fields, "sample_count", what="registry entry"),
            base_offset=parse_int(fields, "base_offset", what="registry entry"),
            window_length=parse_int(fields, "window_length", what="registry entry"),
            num_windows=parse_int(fields, "num_windows", what="registry entry"),
            created=fields["created"],
            helper_file=fields.get("helper_file", ""),
            helper_sha256=fields.get("helper_sha256", ""),
            key_sha256=fields.get("key_sha256", ""),
        )
        registry.add(entry)
    return registry


def save_registry(path, registry: Registry) -> None:
    atomic_write_text(path, registry_to_text(registry))


def load_registry(path, verify_files: bool = True) -> Registry:
    """Load a registry; with ``verify_files`` every referenced mask/helper
    must exist next to the registry and hash to its recorded value."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            registry = registry_from_text(fh.read())
    except FileNotFoundError:
        raise RegistryError(f"registry file not found: {path}") from None
    if verify_files:
        base = os.path.dirname(os.fspath(path))
        for entry in registry.entries.values():
            _verify_reference(base, entry.device_id, "mask", entry.mask_file, entry.mask_sha256)
            if entry.helper_file:
                _verify_reference(base, entry.device_id, "helper",
                                  entry.helper_file, entry.helper_sha256)
    return registry


def _verify_reference(base: str, device_id: str, what: str, name: str, expected: str) -> None:
    path = os.path.join(base, name)
    if not os.path.exists(path):
        raise RegistryError(f"device {device_id!r}: {what} file {name!r} is missing")
    actual = file_sha256(path)
    if actual != expected:
        raise RegistryError(
            f"device {device_id!r}: {what} file {name!r} does not match its recorded "
            f"fingerprint (expected {expected[:12]}.., found {actual[:12]}..)"
        )


def with_helper(entry: RegistryEntry, helper_file: str, helper_sha256: str,
                key_sha256: str = "") -> RegistryEntry:
    return replace(entry, helper_file=helper_file, helper_sha256=helper_sha256,
                   key_sha256=key_sha256 or entry.key_sha256)
