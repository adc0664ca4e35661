"""Flat-file enrollment registry.

One structured text file lists every enrolled device with references to its
mask and helper files (stored as siblings) and the SHA-256 of each referenced
file. The mask file is the only record of how a device was enrolled; the
registry holds no copy of its parameters. A referenced file is read through
:func:`read_verified`, which hashes the same bytes it returns, so any
corruption of a mask or helper is caught before a key is derived from it,
and only the files a command reads are checked. Commands that change the
registry do their load -> change -> save under :func:`locked`, so concurrent
writers do not drop each other's entries. Keys themselves are never
persisted; at most an opt-in debug key hash is recorded for cross-checking
reproduction.
"""

from __future__ import annotations

import fcntl
import hashlib
import os
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields
from datetime import datetime, timezone

from ._kv import TextFormatError, atomic_write_text, format_kv_block, parse_kv_block, require_keys

REGISTRY_FORMAT = "srampuf-registry-v2"
# v1 entries also repeated five of the mask's enrollment parameters; they are
# read past, since the fingerprinted mask file holds them.
_READABLE_FORMATS = (REGISTRY_FORMAT, "srampuf-registry-v1")


class RegistryError(Exception):
    """The registry file or a referenced artifact is missing or inconsistent."""


def file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def utc_timestamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


@dataclass(frozen=True)
class RegistryEntry:
    """One enrolled device and the files that reproduce its key.

    The fields are the entry's keys, in file order: those without a default
    are required, and the rest are written only when non-empty.
    """

    device_id: str
    mask_file: str
    mask_sha256: str
    created: str
    helper_file: str = ""
    helper_sha256: str = ""
    key_sha256: str = ""      # debug only, opt-in

    def to_pairs(self) -> list[tuple[str, str]]:
        # vars() holds the fields in declaration order, the order __init__ sets them in
        return [(key, value) for key, value in vars(self).items() if value or _ENTRY_KEYS[key]]


# RegistryEntry's keys in file order, each mapped to whether every entry
# must hold it
_ENTRY_KEYS = {f.name: f.default is MISSING for f in fields(RegistryEntry)}
_REQUIRED_ENTRY_KEYS = [key for key, required in _ENTRY_KEYS.items() if required]


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
    blocks = [format_kv_block([("format", REGISTRY_FORMAT)])]
    for device_id in sorted(registry.entries):
        blocks.append(format_kv_block(registry.entries[device_id].to_pairs()))
    return "\n".join(blocks)


def registry_from_text(text: str) -> Registry:
    blocks = [b for b in text.split("\n\n") if b.strip()]
    if not blocks:
        raise TextFormatError("registry: empty file")
    header = parse_kv_block(blocks[0], what="registry header")
    if header.get("format") not in _READABLE_FORMATS:
        raise TextFormatError(f"registry: unsupported format {header.get('format')!r}")
    registry = Registry()
    for block in blocks[1:]:
        values = parse_kv_block(block, what="registry entry")
        require_keys(values, _REQUIRED_ENTRY_KEYS, what="registry entry")
        for key in ("mask_file", "helper_file"):  # names of files next to the registry
            name = values.get(key)
            if name is not None and (name in ("", ".", "..") or "/" in name or "\\" in name):
                raise TextFormatError(f"registry entry: key {key!r} must be a bare file name: {name!r}")
        # "" fills only optional keys, as the required ones are present; keys
        # that are no field, such as a v1 entry's mask parameters, are read past
        registry.add(RegistryEntry(*[values.get(key, "") for key in _ENTRY_KEYS]))
    return registry


def save_registry(path, registry: Registry) -> None:
    atomic_write_text(path, registry_to_text(registry))


def load_registry(path) -> Registry:
    """Parse a registry file; referenced files are checked when they are read."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise RegistryError(f"registry file not found: {path}") from None
    return registry_from_text(text)


@contextmanager
def locked(registry_path):
    """Hold an exclusive ``flock`` on the sibling ``<registry>.lock`` file."""
    with open(f"{os.fspath(registry_path)}.lock", "a") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        yield


def sibling_path(registry_path, name: str) -> str:
    """Path of the file ``name`` in the directory of the registry file."""
    return os.path.join(os.path.dirname(os.path.abspath(registry_path)), name)


def read_verified(registry_path, entry: RegistryEntry, what: str) -> str:
    """Read ``entry``'s ``"mask"`` or ``"helper"`` file once and return its
    text, after checking those bytes against the recorded SHA-256."""
    name, expected = getattr(entry, f"{what}_file"), getattr(entry, f"{what}_sha256")
    try:
        with open(sibling_path(registry_path, name), "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise RegistryError(f"device {entry.device_id!r}: {what} file {name!r} is missing") from None
    actual = hashlib.sha256(data).hexdigest()
    if actual != expected:
        raise RegistryError(
            f"device {entry.device_id!r}: {what} file {name!r} does not match its recorded "
            f"fingerprint (expected {expected[:12]}.., found {actual[:12]}..)"
        )
    return data.decode("ascii")
