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
import re
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields
from datetime import datetime, timezone

from ._kv import (VALUE_PATTERN, TextFormatError, atomic_write_text, format_kv_block,
                  parse_kv_block, read_text, require_keys)

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
        pairs = registry.entries[device_id].to_pairs()
        _check_file_names(dict(pairs), f"registry entry {device_id!r}")
        blocks.append(format_kv_block(pairs))
    return "\n".join(blocks)


def registry_from_text(text: str) -> Registry:
    registry = _writer_form(text)
    return _parse_registry(text) if registry is None else registry


_HEADER = f"format = {REGISTRY_FORMAT}\n"
# One entry exactly as registry_to_text writes it: a blank line, then its keys
# in field order, the optional ones only when set.
_ENTRY_RE = re.compile("\n" + "".join(
    f"{key} = ({VALUE_PATTERN})\n" if required else f"(?:{key} = ({VALUE_PATTERN})\n)?"
    for key, required in _ENTRY_KEYS.items()))


def _bare_name(name: str) -> bool:
    """Whether ``name`` names a file in the registry's own directory."""
    return name not in ("", ".", "..") and "/" not in name and "\\" not in name


def _check_file_names(values: dict[str, str], what: str) -> None:
    """Refuse a ``mask_file`` or ``helper_file`` in ``values`` that is no bare name."""
    for key in ("mask_file", "helper_file"):
        name = values.get(key)
        if name is not None and not _bare_name(name):
            raise TextFormatError(f"{what}: key {key!r} must be a bare file name: {name!r}")


def _writer_form(text: str) -> Registry | None:
    """The registry ``text`` holds if it is exactly in the writer's form, else None.

    Never raises: any other text goes to :func:`_parse_registry`, which reads
    every accepted form and names the line of any fault."""
    if not text.startswith(_HEADER):
        return None
    pos = len(_HEADER)
    entries = []
    for match in _ENTRY_RE.finditer(text, pos):
        if match.start() != pos:
            return None
        pos = match.end()
        entry = RegistryEntry(*match.groups(""))
        if not _bare_name(entry.mask_file) or entry.helper_file and not _bare_name(entry.helper_file):
            return None
        entries.append(entry)
    by_id = {entry.device_id: entry for entry in entries}
    if pos != len(text) or len(by_id) != len(entries):
        return None
    return Registry(by_id)


def _blocks(text: str):
    """Yield each block of ``text`` as its first line's number and its lines;
    lines that are empty or hold only whitespace separate blocks."""
    lines = text.split("\n")
    start = 0
    for i, line in enumerate([*lines, ""]):
        if not line.strip():
            if i > start:
                yield start + 1, lines[start:i]
            start = i + 1


def _parse_registry(text: str) -> Registry:
    blocks = _blocks(text)
    first_line, lines = next(blocks, (0, None))
    if lines is None:
        raise TextFormatError("registry: empty file")
    header = parse_kv_block("\n".join(lines), what="registry header", first_line=first_line)
    if header.get("format") not in _READABLE_FORMATS:
        raise TextFormatError(f"registry: unsupported format {header.get('format')!r}")
    entries: dict[str, RegistryEntry] = {}
    first_lines: dict[str, int] = {}
    for first_line, lines in blocks:
        values = parse_kv_block("\n".join(lines), what="registry entry", first_line=first_line)
        what = f"registry entry at line {first_line}"
        require_keys(values, _REQUIRED_ENTRY_KEYS, what=what)
        _check_file_names(values, what)
        device_id = values["device_id"]
        if device_id in first_lines:
            raise TextFormatError(f"{what}: device_id {device_id!r} is also listed at line "
                                  f"{first_lines[device_id]}")
        first_lines[device_id] = first_line
        # "" fills only optional keys, as the required ones are present; keys
        # that are no field, such as a v1 entry's mask parameters, are read past
        entries[device_id] = RegistryEntry(*[values.get(key, "") for key in _ENTRY_KEYS])
    return Registry(entries)


def save_registry(path, registry: Registry) -> None:
    atomic_write_text(path, registry_to_text(registry))


def load_registry(path) -> Registry:
    """Parse a registry file; referenced files are checked when they are read."""
    try:
        text = read_text(path)
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
    path = sibling_path(registry_path, name)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise RegistryError(f"device {entry.device_id!r}: {what} file {name!r} is missing") from None
    actual = hashlib.sha256(data).hexdigest()
    if actual != expected:
        raise RegistryError(
            f"device {entry.device_id!r}: {what} file {name!r} does not match its recorded "
            f"fingerprint (expected {expected[:12]}.., found {actual[:12]}..)"
        )
    return read_text(path, data)
