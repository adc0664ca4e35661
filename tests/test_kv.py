"""The contract every text file shares: one ASCII reader that names the file
and line of a fault, one rule for what a value may hold, and writers that
write only what their readers read back."""

import ast
import hashlib
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from srampuf import bitvec, registry as registry_module
from srampuf._kv import (TextFormatError, atomic_write_text, format_kv_block, parse_kv_block,
                         to_int)
from srampuf.bitvec import BitVector, load_dump, parse_hex_dump, save_dump
from srampuf.cli import EXIT_OK, EXIT_USAGE, main
from srampuf.enroll import MASK_KEYS, Mask, load_mask, mask_from_text, mask_to_text, save_mask
from srampuf.fuzzy import (HELPER_KEYS, HelperData, helper_from_text, helper_to_text, load_helper,
                           save_helper)
from srampuf.registry import (
    Registry,
    RegistryEntry,
    file_sha256,
    load_registry,
    read_verified,
    registry_from_text,
    registry_to_text,
    save_registry,
)
from srampuf.simulate import Calibration, calibration_to_text, load_calibration, parse_calibration

# Any text, and ASCII text with its control characters
VALUES = st.text() | st.text(st.characters(max_codepoint=127))


def entry(device_id, **overrides):
    fields = dict(device_id=device_id, mask_file=f"{device_id}.mask", mask_sha256="0" * 64,
                  created="2026-08-10T00:00:00Z")
    return RegistryEntry(**dict(fields, **overrides))


def registry_of(*entries):
    registry = Registry()
    for e in entries:
        registry.add(e)
    return registry


def writable(value: str) -> bool:
    try:
        format_kv_block([("key", value)])
    except TextFormatError:
        return False
    return True


class TestValueRule:
    @given(VALUES)
    def test_writer_writes_exactly_what_the_parser_returns_unchanged(self, value):
        try:
            unchanged = parse_kv_block(f"key = {value}\n", keys=("key",)) == {"key": value}
        except TextFormatError:
            unchanged = False
        assert writable(value) == unchanged

    @given(VALUES)
    def test_registry_fast_path_reads_exactly_the_writable_values(self, value):
        text = (f"format = srampuf-registry-v2\n\ndevice_id = dev-a\nmask_file = dev-a.mask\n"
                f"mask_sha256 = {'0' * 64}\ncreated = {value}\n")
        read = registry_module._writer_ids(text) == ["dev-a"]
        assert read == writable(value)
        if read:
            assert registry_from_text(text).get("dev-a").created == value

    # Besides any text, names built from the characters the bare-name rule is about
    @given(VALUES | st.text(".\\/ a", max_size=4))
    def test_registry_fast_path_reads_exactly_the_writable_bare_names(self, name):
        text = (f"format = srampuf-registry-v2\n\ndevice_id = dev-a\nmask_file = {name}\n"
                f"mask_sha256 = {'0' * 64}\ncreated = 2026-08-10T00:00:00Z\n")
        read = registry_module._writer_ids(text) == ["dev-a"]
        bare = name not in (".", "..") and "/" not in name and "\\" not in name
        assert read == (name != "" and writable(name) and bare)
        if read:
            assert registry_from_text(text).get("dev-a").mask_file == name

    @given(VALUES)
    def test_mask_round_trips_exactly_the_writable_device_ids(self, value):
        mask = Mask(device_id=value, positions=np.arange(8), threshold=4, sample_count=40)
        if not writable(value):
            with pytest.raises(TextFormatError, match="'device_id'"):
                mask_to_text(mask)
            return
        text = mask_to_text(mask)
        read = mask_from_text(text)
        assert read.device_id == value and mask_to_text(read) == text
        assert read.fingerprint == hashlib.sha256(text.encode("ascii")).hexdigest()

    def test_non_ascii_value_refused_on_write(self):
        with pytest.raises(TextFormatError, match="'device_id'"):
            format_kv_block([("device_id", "café")])

    def test_tab_in_a_mask_value_names_the_line(self, tmp_path):
        mask = Mask(device_id="dev-a", positions=np.arange(8), threshold=4, sample_count=40)
        path = tmp_path / "dev-a.mask"
        path.write_text(mask_to_text(mask).replace("dev-a", "dev\ta"))
        with pytest.raises(TextFormatError, match="^mask: line 2: key 'device_id'"):
            load_mask(path)

    def test_keys_are_the_stated_tuples(self):
        mask = Mask(device_id="dev-a", positions=np.arange(8), threshold=4, sample_count=40)
        helper = HelperData(syndrome=0)
        for text, keys in ((mask_to_text(mask), MASK_KEYS), (helper_to_text(helper), HELPER_KEYS)):
            assert tuple(line.split(" = ")[0] for line in text.splitlines()) == keys

    @pytest.mark.parametrize("key", MASK_KEYS)
    def test_every_mask_key_is_required(self, key):
        mask = Mask(device_id="dev-a", positions=np.arange(8), threshold=4, sample_count=40)
        text = re.sub(f"^{key} = .*\n", "", mask_to_text(mask), flags=re.M)
        with pytest.raises(TextFormatError, match=f"^mask: missing keys: {key}$"):
            mask_from_text(text)

    @pytest.mark.parametrize("key", HELPER_KEYS)
    def test_every_helper_key_is_required(self, key):
        text = re.sub(f"^{key} = .*\n", "", helper_to_text(HelperData(syndrome=0)),
                      flags=re.M)
        with pytest.raises(TextFormatError, match=f"^helper data: missing keys: {key}$"):
            helper_from_text(text)


class TestRegistryWriter:
    # A whitespace-only line now separates entries, so an entry that holds
    # one is read as two blocks.
    @pytest.mark.parametrize("blank", [" ", "\t", " \t "])
    def test_whitespace_only_lines_separate_entries(self, blank):
        registry = registry_of(entry("dev-a"), entry("dev-b", helper_file="dev-b.helper",
                                                     helper_sha256="1" * 64))
        text = registry_to_text(registry).replace("\n\n", f"\n{blank}\n")
        assert registry_from_text(text) == registry

    @pytest.mark.parametrize("key", ["mask_file", "helper_file"])
    def test_writer_refuses_a_name_its_reader_refuses(self, tmp_path, key):
        path = tmp_path / "registry.txt"
        registry = registry_of(entry("dev-a"))
        save_registry(path, registry)
        before = path.read_bytes()
        registry.add(entry("dev-b", **{key: "../b.mask"}))
        with pytest.raises(TextFormatError, match=f"^registry entry 'dev-b': key '{key}'"):
            save_registry(path, registry)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["registry.txt"]


@pytest.fixture()
def files(tmp_path):
    """One file of every format, the helper and mask enrolled in the registry."""
    save_dump(tmp_path / "reading.hex", BitVector(np.random.default_rng(5).integers(0, 2, 256)))
    save_mask(tmp_path / "dev-a.mask",
              Mask(device_id="dev-a", positions=np.arange(128), threshold=4, sample_count=40))
    save_helper(tmp_path / "dev-a.helper", HelperData(syndrome=0))
    (tmp_path / "device.cal").write_text(calibration_to_text(Calibration()))
    save_registry(tmp_path / "registry.txt", registry_of(enrolled_entry(tmp_path)))
    return tmp_path


def enrolled_entry(directory):
    return entry("dev-a", mask_sha256=file_sha256(directory / "dev-a.mask"),
                 helper_file="dev-a.helper",
                 helper_sha256=file_sha256(directory / "dev-a.helper"))


LOADERS = {
    "dump": ("reading.hex", lambda d: load_dump(d / "reading.hex")),
    "mask": ("dev-a.mask", lambda d: load_mask(d / "dev-a.mask")),
    "helper": ("dev-a.helper", lambda d: load_helper(d / "dev-a.helper")),
    "calibration": ("device.cal", lambda d: load_calibration(d / "device.cal")),
    "registry": ("registry.txt", lambda d: load_registry(d / "registry.txt")),
    "verified-mask": ("dev-a.mask", lambda d: mask_from_text(
        read_verified(d / "registry.txt", enrolled_entry(d), "mask"))),
    "verified-helper": ("dev-a.helper", lambda d: helper_from_text(
        read_verified(d / "registry.txt", enrolled_entry(d), "helper"))),
}


class TestOneReader:
    @pytest.mark.parametrize("name, load", LOADERS.values(), ids=list(LOADERS))
    @pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_non_ascii_byte_names_file_and_line(self, files, name, load, line_end):
        path = files / name
        lines = path.read_text().split("\n")
        lines[2] = "\xe9" + lines[2]
        path.write_bytes(line_end.join(lines).encode("latin-1"))
        with pytest.raises(TextFormatError, match=f"^{re.escape(str(path))}: line 3: byte 0xe9 "):
            load(files)

    @pytest.mark.parametrize("name, load", LOADERS.values(), ids=list(LOADERS))
    def test_crlf_files_read_as_written(self, files, name, load):
        def loaded():
            value = load(files)
            return value.packed.tobytes() if isinstance(value, BitVector) else value

        written = loaded()
        path = files / name
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert loaded() == written

    def test_crlf_dump_takes_the_fast_path(self, files, monkeypatch):
        path = files / "reading.hex"
        written = load_dump(path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))

        def general_path(*args, **kwargs):
            raise AssertionError("the general parser read a writer-form dump")

        monkeypatch.setattr(bitvec, "_parse_lines", general_path)
        assert np.array_equal(load_dump(path).packed, written.packed)

    def test_cli_names_the_file_and_line(self, files, capsys):
        path = files / "reading.hex"
        path.write_bytes(path.read_bytes().replace(b"\n", b"\n\xe9", 1))
        assert main(["flip", "--dump", str(path), "--out", str(files / "x.hex"),
                     "--positions", "0"]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {path}: line 2: byte 0xe9 is not ASCII\n"

    @pytest.mark.parametrize("key, value", [
        ("positions", "99999999999999999999999," + ",".join(map(str, range(1, 128)))),
        ("base_offset", "99999999999999999999999"),
        ("window_length", str(2**63)),
        ("base_offset", str(2**63 - 1)),     # fits, but the enrolled windows run past it
    ])
    def test_integer_beyond_64_bits_is_a_format_error(self, files, capsys, key, value):
        path = files / "dev-a.mask"
        path.write_text(re.sub(f"^{key} = .*$", f"{key} = {value}", path.read_text(), flags=re.M))
        assert main(["flip", "--dump", str(files / "reading.hex"), "--out", str(files / "x.hex"),
                     "--count", "2", "--seed", "1", "--mask", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: mask: ") and key in err
        assert not (files / "x.hex").exists()


def test_genkey_refuses_a_registry_it_could_not_write_back(tmp_path, capsys):
    registry_path = tmp_path / "registry.txt"
    dumps = tmp_path / "dumps"
    assert main(["simulate", "--out-dir", str(dumps), "--device-seed", "77", "-n", "40",
                 "--num-bits", "4864"]) == EXIT_OK
    for device_id in ("dev-a", "dev-b"):
        assert main(["enroll", "--dumps", str(dumps), "--registry", str(registry_path),
                     "--device-id", device_id]) == EXIT_OK
    genkey = ["genkey", "--dump", str(dumps / "sample-00000.hex"),
              "--registry", str(registry_path), "--device-id", "dev-a"]
    assert main(genkey) == EXIT_OK
    lines = registry_path.read_text().split("\n")
    line = next(i for i, text in enumerate(lines)
                if text.startswith("created = ") and i > lines.index("device_id = dev-b"))
    lines[line] = lines[line].replace("T", "\tT")
    registry_path.write_text("\n".join(lines))
    registry_bytes = registry_path.read_bytes()
    helper = tmp_path / "dev-a.helper"
    # genkey of one dump writes the same bytes, so its inode shows a rewrite
    helper_state = (helper.read_bytes(), helper.stat().st_ino)
    capsys.readouterr()

    assert main(genkey) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(
        f"error: registry entry: line {line + 1}: key 'created': value ")
    assert registry_path.read_bytes() == registry_bytes
    assert (helper.read_bytes(), helper.stat().st_ino) == helper_state


MASK_TEXT = mask_to_text(Mask(device_id="dev-a", positions=np.arange(8), threshold=4,
                              sample_count=40))
HELPER_TEXT = helper_to_text(HelperData(syndrome=0))
# Line 7 holds the entry's helper_file key.
REGISTRY_TEXT = registry_to_text(registry_of(entry("dev-a", helper_file="dev-a.helper",
                                                   helper_sha256="1" * 64)))
REFUSALS = {
    "empty-key": (lambda text: parse_kv_block(text, keys=("a",)), "a = 1\n = 2\n",
                  "^file: line 2: empty key$"),
    "unknown-key": (lambda text: parse_kv_block(text, keys=("a",)), "a = 1\nb = 2\n",
                    "^file: line 2: unknown key 'b'$"),
    "mask-extra-key": (mask_from_text, MASK_TEXT + "note = x\n",
                       f"^mask: line {len(MASK_KEYS) + 1}: unknown key 'note'$"),
    "helper-extra-key": (helper_from_text, HELPER_TEXT + "note = x\n",
                         f"^helper data: line {len(HELPER_KEYS) + 1}: unknown key 'note'$"),
    "calibration-extra-key": (parse_calibration, calibration_to_text(Calibration()) + "note = x\n",
                              r"^calibration: line \d+: unknown key 'note'$"),
    "registry-header-key": (registry_from_text, "format = srampuf-registry-v2\nnote = x\n",
                            "^registry header: line 2: unknown key 'note'$"),
    "registry-misspelled-key": (registry_from_text,
                                REGISTRY_TEXT.replace("helper_file", "helper_fiel"),
                                "^registry entry: line 7: unknown key 'helper_fiel'$"),
    "registry-v2-legacy-key": (registry_from_text,
                               REGISTRY_TEXT.replace("helper_file", "threshold = 4\nhelper_file"),
                               "^registry entry: line 7: unknown key 'threshold'$"),
    "duplicate-key": (lambda text: parse_kv_block(text, keys=("a",)), "a = 1\n\na = 2\n",
                      "^file: line 3: duplicate key 'a'$"),
    "mask-positions": (mask_from_text, MASK_TEXT.replace("positions = 0,", "positions = x,"),
                       "^mask: positions must be comma-separated integers$"),
    # A position past 64 bits
    "mask-position-overflow": (mask_from_text,
                               MASK_TEXT.replace("positions = 0,", f"positions = {2**64},"),
                               "^mask: positions must be comma-separated integers$"),
    # a v2 or v3 helper's key left in a v4 helper
    "helper-code-offset": (helper_from_text, HELPER_TEXT + "code_offset = " + "0" * 32 + "\n",
                           f"^helper data: line {len(HELPER_KEYS) + 1}: unknown key 'code_offset'$"),
    "helper-code": (helper_from_text, HELPER_TEXT + "code = hsiao-128-120\n",
                    f"^helper data: line {len(HELPER_KEYS) + 1}: unknown key 'code'$"),
    "helper-n": (helper_from_text, HELPER_TEXT + "n = 128\n",
                 f"^helper data: line {len(HELPER_KEYS) + 1}: unknown key 'n'$"),
    "helper-device-id": (helper_from_text, "format = srampuf-helper-v4\ndevice_id = dev-a\n"
                         + HELPER_TEXT.partition("\n")[2],
                         "^helper data: line 2: unknown key 'device_id'$"),
    "helper-syndrome-negative": (helper_from_text,
                                 HELPER_TEXT.replace("syndrome = 0", "syndrome = -1"),
                                 "^helper data: key 'syndrome' must be 0..255, got -1$"),
    "helper-syndrome-256": (helper_from_text, HELPER_TEXT.replace("syndrome = 0", "syndrome = 256"),
                            "^helper data: key 'syndrome' must be 0..255, got 256$"),
    "helper-syndrome-hex": (helper_from_text, HELPER_TEXT.replace("syndrome = 0", "syndrome = 0x10"),
                            "^helper data: key 'syndrome' is not an integer: '0x10'$"),
    "helper-syndrome-empty": (helper_from_text, HELPER_TEXT.replace("syndrome = 0", "syndrome ="),
                              "^helper data: key 'syndrome' is not an integer: ''$"),
    "helper-syndrome-5000-digits": (helper_from_text,
                                    HELPER_TEXT.replace("syndrome = 0", "syndrome = " + "1" * 5000),
                                    f"^helper data: key 'syndrome' is too large: '{'1' * 40}...'$"),
    "mask-format": (mask_from_text, MASK_TEXT.replace("srampuf-mask-v1", "srampuf-mask-v9"),
                    "^mask: unsupported format 'srampuf-mask-v9'$"),
    "helper-format": (helper_from_text, HELPER_TEXT.replace("srampuf-helper-v4", "x"),
                      "^helper data: unsupported format 'x'; run genkey again$"),
    # refused by its format, before its code_offset key is read as unknown
    "helper-v2": (helper_from_text, HELPER_TEXT.replace("srampuf-helper-v4", "srampuf-helper-v2")
                  .replace("syndrome = 0", "code_offset = " + "0" * 32),
                  "^helper data: unsupported format 'srampuf-helper-v2'; run genkey again$"),
    # and a v3 helper, before its device_id and code keys are
    "helper-v3": (helper_from_text,
                  "format = srampuf-helper-v3\ndevice_id = dev-a\ncode = hsiao-128-120\n"
                  "n = 128\nk = 120\nr = 8\n" + HELPER_TEXT.partition("\n")[2],
                  "^helper data: unsupported format 'srampuf-helper-v3'; run genkey again$"),
    "mask-format-first": (mask_from_text,
                          MASK_TEXT.replace("srampuf-mask-v1", "srampuf-mask-v0") + "note = x\n",
                          "^mask: unsupported format 'srampuf-mask-v0'$"),
    "empty-registry": (registry_from_text, "\n \n", "^registry: empty file$"),
    "registry-format": (registry_from_text, "format = srampuf-registry-v9\n",
                        "^registry: unsupported format 'srampuf-registry-v9'$"),
}


@pytest.mark.parametrize("read, text, message", REFUSALS.values(), ids=list(REFUSALS))
def test_reader_refusal_names_what_is_wrong(read, text, message):
    """A refusal names what is wrong in one short line: the CLI exits 2 with
    ``error:`` and the message."""
    with pytest.raises(TextFormatError, match=message) as caught:
        read(text)
    assert "\n" not in str(caught.value) and len(f"error: {caught.value}\n") <= 400


# Each reader that echoes its input: how it reads, the text around the
# echoed input, the message around its echo and a character it refuses there
ECHOES = {
    "dump-line": (lambda text: parse_hex_dump(text, what="dump"), "00000000\n{}\n",
                  "dump: line 2: expected 8 hex digits, got {}", "x"),
    "kv-line": (lambda text: parse_kv_block(text, keys=("a",)), "{}\n",
                "file: line 1: expected 'key = value', got {}", "x"),
    "kv-unknown-key": (lambda text: parse_kv_block(text, keys=("a",)), "{} = 1\n",
                       "file: line 1: unknown key {}", "x"),
    "kv-value": (lambda text: parse_kv_block(text, keys=("a",)), "a = {}\n",
                 "file: line 1: key 'a': value {} is not printable ASCII", "\x01"),
    "mask-integer": (mask_from_text, MASK_TEXT.replace("threshold = 4", "threshold = {}"),
                     "mask: key 'threshold' is not an integer: {}", "x"),
    "record-format": (mask_from_text, MASK_TEXT.replace("srampuf-mask-v1", "{}"),
                      "mask: unsupported format {}", "x"),
    "registry-format": (registry_from_text, "format = {}\n", "registry: unsupported format {}",
                        "x"),
    "helper-syndrome": (helper_from_text, HELPER_TEXT.replace("syndrome = 0", "syndrome = {}"),
                        "helper data: key 'syndrome' is not an integer: {}", "x"),
    "condition": (Calibration().condition, "{}",
                  "unknown condition kind {}; expected one of NTNA, HTNA, NTWA", "x"),
    "device-id": (registry_module.check_device_id, "{}",
                  "device id {} must match ^[A-Za-z0-9._-]+$", "/"),
}


@pytest.mark.parametrize("size", [40, 41, 10**5])
@pytest.mark.parametrize("read, text, message, char", ECHOES.values(), ids=list(ECHOES))
def test_error_echoes_at_most_40_characters_of_input(read, text, message, char, size):
    """Input of up to 40 characters is echoed whole, as it always was; longer
    input is cut after 40, then ``...``. The condition kind and the device id
    are refused as plain ValueError, the files' faults as TextFormatError."""
    with pytest.raises(ValueError) as caught:
        read(text.replace("{}", char * size))
    echo = char * min(size, 40) + ("..." if size > 40 else "")
    assert str(caught.value) == message.format(repr(echo))


@pytest.mark.parametrize("text, value", [("1_000", 1000), (" -12 ", -12), ("+7", 7),
                                         ("0" * 5000 + "1_2", 12), ("-" + "0" * 5000, 0)],
                         ids=["underscore", "spaces", "plus", "zero-padded", "negative-zero"])
def test_to_int_reads_what_int_reads(text, value):
    assert to_int(text, "n") == value


@pytest.mark.parametrize("text, reason", [
    ("1" * 5000, "too large"), ("+1" + "_1" * 4400, "too large"), ("-" + "9" * 4301, "too small"),
], ids=["digits", "underscores", "negative"])
def test_to_int_past_the_digit_limit_is_out_of_range(text, reason):
    with pytest.raises(TextFormatError, match=f"^n is {reason}: '"):
        to_int(text, "n")


@pytest.mark.parametrize("text", ["", "1__0", "_1", "1_", "0x10", "1.0", "1" * 5000 + "x"],
                         ids=["empty", "two-underscores", "leading-underscore",
                              "trailing-underscore", "hex", "float", "long-not-digits"])
def test_to_int_refuses_what_int_refuses(text):
    with pytest.raises(TextFormatError, match="^n is not an integer: '"):
        to_int(text, "n")


def test_integer_too_long_for_int_is_too_large(files, capsys):
    path = files / "dev-a.mask"
    path.write_text(path.read_text().replace("threshold = 4\n", f"threshold = {'1' * 5000}\n"))
    assert main(["flip", "--dump", str(files / "reading.hex"), "--out", str(files / "x.hex"),
                 "--count", "2", "--seed", "1", "--mask", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err == (f"error: mask: key 'threshold' is too large: "
                                       f"'{'1' * 40}...'\n")
    assert not (files / "x.hex").exists()


def test_zero_padded_integers_read_as_their_value():
    padded = "0" * 5000
    assert parse_calibration(f"cluster_radius = {padded}3\n").cluster_radius == 3
    assert mask_from_text(MASK_TEXT.replace("threshold = 4", f"threshold = {padded}4")) == \
        mask_from_text(MASK_TEXT)


# The calls that open a file; a second module calling one would be a second
# way to open a file, with its own rules for FIFOs, directories and links
OPENERS = {("open",), ("os", "open"), ("os", "fdopen"), ("tempfile", "mkstemp")}


def test_only_kv_opens_files():
    calls = {}
    for path in (Path(__file__).resolve().parent.parent / "src" / "srampuf").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = ((func.id,) if isinstance(func, ast.Name) else
                        (func.value.id, func.attr) if isinstance(func, ast.Attribute)
                        and isinstance(func.value, ast.Name) else None)
                if name in OPENERS:
                    calls.setdefault(path.stem, []).append(f"{'.'.join(name)}:{node.lineno}")
    assert sorted(calls) == ["_kv"], calls


def test_missing_registry_is_a_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["reproduce", "--dump", "x.hex", "--registry", "nope.txt",
                 "--device-id", "dev-a"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: registry file not found: nope.txt\n"


def test_failed_write_leaves_the_old_file(tmp_path):
    path = tmp_path / "registry.txt"
    path.write_text("format = srampuf-registry-v2\n")
    before = path.read_bytes()
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(path, "created = caf\xe9\n")
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["registry.txt"]


def test_failed_cleanup_lets_the_write_error_through(tmp_path, monkeypatch):
    def fail(name):
        def refuse(*args):
            raise OSError(name)
        return refuse

    monkeypatch.setattr(os, "replace", fail("replace failed"))
    monkeypatch.setattr(os, "unlink", fail("unlink failed"))
    with pytest.raises(OSError, match="^replace failed$"):
        atomic_write_text(tmp_path / "registry.txt", "format = srampuf-registry-v2\n")
    assert not (tmp_path / "registry.txt").exists()
