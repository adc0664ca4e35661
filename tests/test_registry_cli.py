import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from srampuf.cli import (
    EXIT_INSUFFICIENT_BITS,
    EXIT_KEY_MISMATCH,
    EXIT_OK,
    EXIT_REPRODUCE_FAILURE,
    EXIT_USAGE,
    build_parser,
    main,
)
from srampuf import bitvec, registry as registry_module
from srampuf._kv import TextFormatError, format_kv_block
from srampuf.bitvec import BitVector, load_dump, save_dump
from srampuf.enroll import Mask, load_mask, mask_from_text, mask_to_text, save_mask
from srampuf.fuzzy import load_helper
from srampuf.keygen import reproduce_key
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
from srampuf.simulate import Calibration, collect_samples, new_device

SRC = Path(__file__).resolve().parent.parent / "src"
NUM_BITS = 4864        # four 1216-bit windows
DEVICE_SEED = 77
N_SAMPLES = 40
# The legacy keys every v1 registry entry held besides the v2 ones
V1_ENTRY_KEYS = ("threshold = 4\nsample_count = 40\nbase_offset = 0\nwindow_length = 1216\n"
                 "num_windows = 1\n")


def entry(device_id="dev-a", **overrides):
    fields = dict(
        device_id=device_id,
        mask_file=f"{device_id}.mask",
        mask_sha256="0" * 64,
        created="2026-08-10T00:00:00Z",
    )
    fields.update(overrides)
    return RegistryEntry(**fields)


class TestRegistryData:
    def test_text_round_trip(self):
        registry = Registry()
        registry.add(entry("dev-a"))
        registry.add(entry("dev-b", helper_file="dev-b.helper", helper_sha256="1" * 64))
        text = registry_to_text(registry)
        assert registry_to_text(registry_from_text(text)) == text

    # The enrollment parameters live only in the mask file.
    @pytest.mark.parametrize("key", ["threshold", "sample_count", "base_offset",
                                     "window_length", "num_windows", "target_len"])
    def test_non_integer_field_names_key(self, key):
        mask = Mask(device_id="dev-a", positions=np.arange(128), threshold=4, sample_count=40)
        lines = mask_to_text(mask).splitlines(keepends=True)
        bad = "".join(f"{key} = x\n" if line.startswith(f"{key} = ") else line for line in lines)
        with pytest.raises(TextFormatError, match=f"'{key}'"):
            mask_from_text(bad)

    def test_v1_text_refused(self):
        v1 = ("format = srampuf-registry-v1\n\n"
              "device_id = dev-a\nmask_file = dev-a.mask\nmask_sha256 = " + "0" * 64 + "\n"
              + V1_ENTRY_KEYS + "created = 2026-08-10T00:00:00Z\n")
        with pytest.raises(TextFormatError,
                           match="^registry: unsupported format 'srampuf-registry-v1'$"):
            registry_from_text(v1)

    @pytest.mark.parametrize("device_id", [
        "dev-a\nkey_sha256 = " + "0" * 64, "dev-a\r", "a\x0bb", " dev-a", "dev-a ", "dev-a\t"])
    def test_writers_refuse_unreadable_value(self, device_id):
        registry = Registry()
        registry.add(entry(device_id))
        with pytest.raises(TextFormatError, match="'device_id'"):
            registry_to_text(registry)
        mask = Mask(device_id=device_id, positions=np.arange(8), threshold=4, sample_count=40)
        with pytest.raises(TextFormatError, match="'device_id'"):
            mask_to_text(mask)

    @pytest.mark.parametrize("key", ["", "a=b", "#a", "a\nb", " a"])
    def test_writer_refuses_unreadable_key(self, key):
        with pytest.raises(TextFormatError):
            format_kv_block([(key, "1")])

    @pytest.mark.parametrize("key", ["mask_file", "helper_file"])
    @pytest.mark.parametrize("name", ["../x", "/etc/passwd", "sub/x.mask", ".."])
    def test_file_reference_must_be_bare_name(self, key, name):
        registry = Registry()
        registry.add(entry(**{key: name}))
        with pytest.raises(TextFormatError, match=f"'{key}'"):
            registry_from_text(registry_to_text(registry))

    def test_duplicate_rejected(self):
        registry = Registry()
        registry.add(entry())
        with pytest.raises(ValueError, match="already enrolled"):
            registry.add(entry())

    def test_unknown_device(self):
        with pytest.raises(ValueError, match="^device 'ghost' is not enrolled$"):
            Registry().get("ghost")

    def test_load_checks_mask_fingerprint(self, tmp_path):
        mask_path = tmp_path / "dev-a.mask"
        mask_path.write_text("format = srampuf-mask-v1\n")
        import hashlib
        good = hashlib.sha256(mask_path.read_bytes()).hexdigest()
        registry = Registry()
        registry.add(entry("dev-a", mask_sha256=good))
        save_registry(tmp_path / "registry.txt", registry)
        loaded = load_registry(tmp_path / "registry.txt").get("dev-a")
        assert read_verified(tmp_path / "registry.txt", loaded, "mask") == mask_path.read_text()

        corrupted = bytearray(mask_path.read_bytes())
        corrupted[5] ^= 0x01
        mask_path.write_bytes(bytes(corrupted))
        with pytest.raises(ValueError, match="fingerprint"):
            read_verified(tmp_path / "registry.txt", loaded, "mask")

    def test_load_checks_missing_file(self, tmp_path):
        registry = Registry()
        registry.add(entry("dev-a"))
        save_registry(tmp_path / "registry.txt", registry)
        loaded = load_registry(tmp_path / "registry.txt").get("dev-a")
        with pytest.raises(ValueError, match="missing"):
            read_verified(tmp_path / "registry.txt", loaded, "mask")


HELPER_KEYS = dict(helper_sha256="1" * 64)
DEBUG_KEYS = dict(helper_sha256="1" * 64, key_sha256="2" * 64)


def registry_of(n, optional=None):
    """n entries; the even ones also hold the ``optional`` keys and a helper file."""
    registry = Registry()
    for i in range(n):
        device_id = f"dev-{i:03d}"
        extra = dict(optional, helper_file=f"{device_id}.helper") if optional and i % 2 == 0 else {}
        registry.add(entry(device_id, **extra))
    return registry


# The writer's own text is read on a fast path; every other accepted form goes
# to the general parser. The two must agree.
class TestRegistryReaders:
    @pytest.mark.parametrize("n", [0, 1, 256])
    @pytest.mark.parametrize("optional", [None, HELPER_KEYS, DEBUG_KEYS])
    def test_fast_path_agrees_with_parser(self, n, optional):
        registry = registry_of(n, optional)
        text = registry_to_text(registry)
        fast = registry_module._writer_form(text)
        assert fast is not None
        assert fast == registry_module._parse_registry(text) == registry
        assert registry_to_text(fast) == text

    @pytest.mark.parametrize("form", [
        lambda t: t.replace("\ndevice_id = ", "\n# enrolled by hand\ndevice_id = "),
        lambda t: t.replace(" = ", "  =\t"),
        lambda t: "\n".join(line and line + " " for line in t.split("\n")),
        lambda t: t + "\n\n  \n",
        lambda t: t.replace("\n", "\r\n"),
    ], ids=["comments", "spaced-equals", "trailing-spaces", "trailing-blank-lines", "crlf"])
    @pytest.mark.parametrize("optional", [None, DEBUG_KEYS])
    def test_other_forms_read_as_before(self, form, optional):
        registry = registry_of(3, optional)
        text = form(registry_to_text(registry))
        assert registry_module._writer_form(text) is None
        assert registry_from_text(text) == registry

    @pytest.mark.parametrize("text", [
        "", "format = srampuf-registry-v2", "format = srampuf-registry-v2\n\n",
        registry_to_text(registry_of(2)) + "\n",
        registry_to_text(registry_of(2)).replace("dev-001.mask", "../dev-001.mask"),
        registry_to_text(registry_of(2, HELPER_KEYS)).replace("dev-000.helper", ".."),
        registry_to_text(registry_of(2)).replace("dev-001", "dev-000"),
        registry_to_text(registry_of(2)).replace("dev-001.mask", "a\\b"),
        registry_to_text(registry_of(2, HELPER_KEYS)).replace("dev-000.helper", "."),
    ], ids=["empty", "no-newline", "blank-line", "trailing-blank-line", "path", "dot-dot",
            "duplicate-id", "backslash", "dot"])
    def test_fast_path_declines_without_raising(self, text):
        assert registry_module._writer_form(text) is None

    # Names the pattern's bare-name rule must not mistake for '.', '..' or a path
    @pytest.mark.parametrize("name", [".hidden.mask", "..x", "a..b", "...", "a b.mask"])
    @pytest.mark.parametrize("key", ["mask_file", "helper_file"])
    def test_fast_path_reads_odd_bare_names(self, key, name):
        registry = registry_of(2, HELPER_KEYS)
        registry.entries["dev-000"] = dataclasses.replace(registry.get("dev-000"), **{key: name})
        text = registry_to_text(registry)
        fast = registry_module._writer_form(text)
        assert fast is not None
        assert fast == registry_module._parse_registry(text) == registry

    def test_error_names_the_line_in_the_file(self):
        text = registry_to_text(registry_of(2)).replace("mask_file = dev-001", "mask_file dev-001")
        with pytest.raises(TextFormatError, match="^registry entry: line 9: expected 'key = value'"):
            registry_from_text(text)

    def test_bare_name_error_names_the_entry(self):
        text = registry_to_text(registry_of(2)).replace("= dev-001.mask", "= ../dev-001.mask")
        with pytest.raises(TextFormatError, match="^registry entry at line 8: key 'mask_file'"):
            registry_from_text(text)

    def test_missing_key_names_the_entry(self):
        text = registry_to_text(registry_of(2)).replace("created = 2026-08-10T00:00:00Z\n\n", "\n")
        with pytest.raises(TextFormatError, match="^registry entry at line 3: missing keys: created"):
            registry_from_text(text)

    def test_duplicate_device_id_names_both_entries(self):
        text = registry_to_text(registry_of(2)).replace("dev-001", "dev-000")
        with pytest.raises(TextFormatError, match="^registry entry at line 8: device_id 'dev-000' "
                                                  "is also listed at line 3$"):
            registry_from_text(text)

    def test_writer_output_takes_the_fast_path(self, tmp_path, monkeypatch):
        registry = registry_of(256, DEBUG_KEYS)
        save_registry(tmp_path / "registry.txt", registry)
        reading = BitVector(np.random.default_rng(5).integers(0, 2, NUM_BITS))
        save_dump(tmp_path / "reading.hex", reading)

        def general_path(*args, **kwargs):
            raise AssertionError("the general parser read the writer's own file")

        monkeypatch.setattr(registry_module, "parse_kv_block", general_path)
        monkeypatch.setattr(bitvec, "_parse_lines", general_path)
        assert load_registry(tmp_path / "registry.txt") == registry
        assert np.array_equal(load_dump(tmp_path / "reading.hex").packed, reading.packed)


def formatted_afresh(registry):
    """The text of ``registry``'s entries written by the checking writer alone."""
    return registry_to_text(Registry(dict(registry.entries)))


# A save reuses the text of every entry still equal to what the fast path
# read, and writes the rest through the checking writer.
class TestRegistryTextReuse:
    def test_changes_are_written_as_a_fresh_registry_would_be(self):
        text = registry_to_text(registry_of(256, DEBUG_KEYS))
        registry = registry_from_text(text)
        assert registry._read and registry_to_text(registry) == text
        registry.add(entry("dev-new", helper_file="dev-new.helper", helper_sha256="3" * 64))
        registry.add(entry("dev-000a"))
        registry.entries["dev-001"] = dataclasses.replace(
            registry.get("dev-001"), helper_file="dev-001.helper", helper_sha256="4" * 64)
        registry.get("dev-002").key_sha256 = "5" * 64
        registry.get("dev-004").key_sha256 = ""
        registry.get("dev-006").created = "2026-09-01T00:00:00Z"
        del registry.entries["dev-003"], registry.entries["dev-255"]
        written = registry_to_text(registry)
        assert written == formatted_afresh(registry)
        assert written != text
        assert registry_from_text(written) == registry

    def test_entry_deleted_and_added_back_is_written_afresh(self):
        text = registry_to_text(registry_of(4, HELPER_KEYS))
        registry = registry_from_text(text)
        del registry.entries["dev-000"]
        assert registry_to_text(registry) == formatted_afresh(registry)
        registry.add(entry("dev-000", mask_sha256="6" * 64))
        assert registry_to_text(registry) == formatted_afresh(registry)
        registry.entries["dev-000"] = entry("dev-000", **HELPER_KEYS, helper_file="dev-000.helper")
        assert registry_to_text(registry) == text

    @pytest.mark.parametrize("change", ["replace", "in-place"])
    def test_changed_entry_is_still_checked(self, change):
        registry = registry_from_text(registry_to_text(registry_of(256)))
        if change == "replace":
            registry.entries["dev-007"] = dataclasses.replace(registry.get("dev-007"),
                                                              mask_file="../x")
        else:
            registry.get("dev-007").mask_file = "../x"
        with pytest.raises(TextFormatError, match="^registry entry 'dev-007': key 'mask_file' "
                                                  "must be a bare file name: '../x'$"):
            registry_to_text(registry)

    def test_general_parser_output_is_formatted_as_before(self):
        text = registry_to_text(registry_of(3, DEBUG_KEYS))
        registry = registry_from_text(text.replace(" = ", "  =  "))
        assert not registry._read
        assert registry_to_text(registry) == text


@pytest.fixture()
def format_calls(monkeypatch):
    """The entries the registry writer formats from here on, as their pairs."""
    calls = []

    def counted(pairs):
        calls.append(pairs)
        return format_kv_block(pairs)

    monkeypatch.setattr(registry_module, "format_kv_block", counted)
    return calls


@pytest.fixture()
def workspace(tmp_path):
    dumps = tmp_path / "dumps"
    assert main(["simulate", "--out-dir", str(dumps), "--device-seed", str(DEVICE_SEED),
                 "-n", str(N_SAMPLES), "--num-bits", str(NUM_BITS)]) == EXIT_OK
    return tmp_path


def run_at_once(commands):
    """Run each ``srampuf`` command line in a process of its own, all at once;
    every one must exit 0."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    procs = [subprocess.Popen([sys.executable, "-m", "srampuf.cli", *command], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for command in commands]
    try:
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == EXIT_OK, err
    finally:
        for proc in procs:
            proc.kill()


def enroll_device(tmp_path, device_id="dev-a", threshold=4, extra=()):
    return main(["enroll", "--dumps", str(tmp_path / "dumps"),
                 "--registry", str(tmp_path / "registry.txt"),
                 "--device-id", device_id, "--threshold", str(threshold), *extra])


class TestCliSimulate:
    def test_idempotent_and_counted(self, tmp_path):
        out = tmp_path / "dumps"
        assert main(["simulate", "--out-dir", str(out), "--device-seed", "1",
                     "-n", "3", "--num-bits", "2432"]) == EXIT_OK
        names = sorted(os.listdir(out))
        assert names == ["sample-00000.hex", "sample-00001.hex", "sample-00002.hex"]
        first = (out / names[0]).read_bytes()
        assert main(["simulate", "--out-dir", str(out), "--device-seed", "1",
                     "-n", "3", "--num-bits", "2432"]) == EXIT_OK
        assert (out / names[0]).read_bytes() == first
        assert len(first.splitlines()) == 2432 // 32

    def test_conditions_differ(self, tmp_path):
        for cond in ("NTNA", "HTNA"):
            assert main(["simulate", "--out-dir", str(tmp_path / cond), "--device-seed", "1",
                         "-n", "1", "--num-bits", "2432", "--condition", cond]) == EXIT_OK
        ntna = (tmp_path / "NTNA" / "sample-00000.hex").read_text()
        htna = (tmp_path / "HTNA" / "sample-00000.hex").read_text()
        assert ntna != htna

    def test_dumps_equal_library_samples(self, tmp_path):
        out = tmp_path / "dumps"
        assert main(["simulate", "--out-dir", str(out), "--device-seed", "5", "-n", "3",
                     "--num-bits", "2432", "--condition", "HTNA", "--seed0", "40",
                     "--set", "htna_multiplier=1.5"]) == EXIT_OK
        cal = Calibration(htna_multiplier=1.5)
        device = new_device(5, num_bits=2432, calibration=cal)
        names = sorted(os.listdir(out))
        assert names == ["sample-00040.hex", "sample-00041.hex", "sample-00042.hex"]
        assert np.array_equal(
            [load_dump(out / name).bits for name in names],
            [s.bits for s in collect_samples(device, cal.condition("HTNA"), 3, seed0=40)])

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_multiplier_refused(self, tmp_path, capsys, value):
        assert main(["simulate", "--out-dir", str(tmp_path / "hot"), "--device-seed", "1",
                     "-n", "1", "--num-bits", "2432", "--condition", "HTNA",
                     "--set", f"htna_multiplier={value}"]) == EXIT_USAGE
        assert "htna_multiplier must be finite" in capsys.readouterr().err
        assert not (tmp_path / "hot").exists()

    def test_unknown_condition_names_the_kinds(self, tmp_path, capsys):
        assert main(["simulate", "--out-dir", str(tmp_path / "hot"), "--device-seed", "1",
                     "-n", "1", "--num-bits", "2432", "--condition", "HOT"]) == EXIT_USAGE
        assert ("unknown condition kind 'HOT'; expected one of NTNA, HTNA, NTWA"
                in capsys.readouterr().err)
        assert not (tmp_path / "hot").exists()

    def test_num_bits_off_word_refused_before_sampling(self, tmp_path, capsys, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before checking --num-bits")

        monkeypatch.setattr("srampuf.simulate.collect_samples", no_sampling)
        assert main(["simulate", "--out-dir", str(tmp_path / "odd"), "--device-seed", "1",
                     "-n", "2", "--num-bits", "100"]) == EXIT_USAGE
        assert "--num-bits 100 is not a multiple of 32" in capsys.readouterr().err
        assert not (tmp_path / "odd").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--device-seed", "1", "--seed0", "-1"], "error: seed0 must be >= 0"),
        (["--device-seed", "-3"], "error: seed must be >= 0"),
    ])
    def test_negative_seed_names_the_argument(self, tmp_path, capsys, flags, message):
        out = tmp_path / "neg"
        assert main(["simulate", "--out-dir", str(out), "-n", "2",
                     "--num-bits", "2432", *flags]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == message + "\n"
        assert "Traceback" not in err
        assert not out.exists()

    def test_calibration_file_and_overrides(self, tmp_path):
        cfg = tmp_path / "cal.cfg"
        cfg.write_text("unstable_fraction = 0.0\n")
        assert main(["simulate", "--out-dir", str(tmp_path / "a"), "--device-seed", "2",
                     "-n", "2", "--num-bits", "2432", "--config", str(cfg)]) == EXIT_OK
        a0 = (tmp_path / "a" / "sample-00000.hex").read_text()
        a1 = (tmp_path / "a" / "sample-00001.hex").read_text()
        assert a0 == a1  # noiseless calibration
        assert main(["simulate", "--out-dir", str(tmp_path / "b"), "--device-seed", "2",
                     "-n", "1", "--num-bits", "2432", "--set", "bogus=1"]) == EXIT_USAGE

    def test_set_values_do_not_reach_the_next_call(self, tmp_path):
        # main reuses one parser per process; each call parses afresh
        args = ["simulate", "--out-dir", str(tmp_path / "a"), "--device-seed", "2",
                "-n", "1", "--num-bits", "2432"]
        assert main([*args, "--set", "bogus=1"]) == EXIT_USAGE
        assert main(args) == EXIT_OK
        assert main([*args, "--set", "unstable_fraction=0.0"]) == EXIT_OK
        assert build_parser().parse_args(args).set is None


class TestCliEnroll:
    def test_enroll_writes_mask_and_registry(self, workspace):
        assert enroll_device(workspace) == EXIT_OK
        mask = load_mask(workspace / "dev-a.mask")
        assert mask.target_len == 128
        assert mask.threshold == 4
        registry = load_registry(workspace / "registry.txt")
        assert registry.get("dev-a").mask_file == "dev-a.mask"

    def test_duplicate_device_rejected(self, workspace):
        assert enroll_device(workspace) == EXIT_OK
        assert enroll_device(workspace) == EXIT_USAGE

    def test_left_over_temp_files_are_not_read_as_dumps(self, workspace, capsys):
        # An interrupted atomic write leaves ".tmp-<random><name>" behind,
        # whole or cut short; neither is a reading.
        dumps = workspace / "dumps"
        text = (dumps / "sample-00000.hex").read_text()
        (dumps / f".tmp-k3j9sample-{N_SAMPLES:05d}.hex").write_text(text)
        (dumps / f".tmp-zzzzsample-{N_SAMPLES + 1:05d}.hex").write_text(text[:5])
        assert enroll_device(workspace) == EXIT_OK
        assert load_mask(workspace / "dev-a.mask").sample_count == N_SAMPLES
        assert main(["stats", "--dumps", str(dumps)]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_single_dump_is_usage_error(self, tmp_path):
        dumps = tmp_path / "dumps"
        main(["simulate", "--out-dir", str(dumps), "--device-seed", "1", "-n", "1",
              "--num-bits", "2432"])
        assert enroll_device(tmp_path) == EXIT_USAGE

    def test_zero_window_length_is_usage_error(self, workspace, capsys):
        assert enroll_device(workspace, extra=("--window-length", "0")) == EXIT_USAGE
        assert "window_length must be >= 1" in capsys.readouterr().err
        assert not (workspace / "registry.txt").exists()

    def test_threshold_too_high_reports_shortfall(self, workspace, capsys):
        code = enroll_device(workspace, threshold=7, extra=("--base-offset", "3648"))
        assert code == EXIT_INSUFFICIENT_BITS
        assert "window 0" in capsys.readouterr().err

    def test_concurrent_enrolls_keep_every_entry(self, workspace):
        device_ids = [f"dev-{i}" for i in range(6)]
        run_at_once([["enroll", "--dumps", str(workspace / "dumps"),
                      "--registry", str(workspace / "registry.txt"), "--device-id", device_id]
                     for device_id in device_ids])
        assert sorted(load_registry(workspace / "registry.txt").entries) == device_ids

    def test_concurrent_genkeys_and_enrolls_keep_every_change(self, workspace):
        registry_path = workspace / "registry.txt"
        enrolled_first = ["dev-0", "dev-1", "dev-2"]
        for device_id in enrolled_first:
            assert enroll_device(workspace, device_id=device_id) == EXIT_OK
        dump = str(workspace / "dumps" / "sample-00000.hex")
        commands = [["genkey", "--dump", dump, "--device-id", device_id, "--seed", str(seed)]
                    for seed, device_id in enumerate(enrolled_first)]
        commands += [["enroll", "--dumps", str(workspace / "dumps"), "--device-id", device_id]
                     for device_id in ("dev-3", "dev-4", "dev-5")]
        run_at_once([[*command, "--registry", str(registry_path)] for command in commands])
        registry = load_registry(registry_path)
        assert sorted(registry.entries) == [f"dev-{i}" for i in range(6)]
        for device_id, entry in registry.entries.items():
            read_verified(registry_path, entry, "mask")
            if device_id in enrolled_first:
                assert entry.helper_file == f"{device_id}.helper"
                assert entry.helper_sha256 == file_sha256(workspace / entry.helper_file)
                read_verified(registry_path, entry, "helper")
            else:
                assert entry.helper_file == entry.helper_sha256 == ""

    def test_unchanged_save_formats_no_entry(self, tmp_path, format_calls):
        path = tmp_path / "registry.txt"
        path.write_text(registry_to_text(registry_of(256, DEBUG_KEYS)))
        format_calls.clear()
        original = path.read_bytes()
        save_registry(path, load_registry(path))
        assert format_calls == []
        assert path.read_bytes() == original

    def test_registry_save_load_save_stable(self, workspace):
        assert enroll_device(workspace) == EXIT_OK
        path = workspace / "registry.txt"
        original = path.read_bytes()
        save_registry(path, load_registry(path))
        assert path.read_bytes() == original


@pytest.fixture()
def enrolled(workspace):
    assert enroll_device(workspace) == EXIT_OK
    dump = workspace / "dumps" / "sample-00000.hex"
    assert main(["genkey", "--dump", str(dump), "--registry", str(workspace / "registry.txt"),
                 "--device-id", "dev-a", "--seed", "424242", "--debug"]) == EXIT_OK
    return workspace


def reproduce_args(tmp_path, dump):
    return ["reproduce", "--dump", str(dump), "--registry", str(tmp_path / "registry.txt"),
            "--device-id", "dev-a", "--debug"]


def flip_byte(path):
    data = bytearray(path.read_bytes())
    data[-2] ^= 0x02
    path.write_bytes(bytes(data))


def key_lines(output: str) -> list[str]:
    return [line for line in output.splitlines() if line.startswith("key")]


class TestCliKeyFlow:
    def test_genkey_writes_helper_and_records_hash(self, enrolled):
        assert (enrolled / "dev-a.helper").exists()
        registry = load_registry(enrolled / "registry.txt")
        assert registry.get("dev-a").helper_file == "dev-a.helper"
        assert registry.get("dev-a").key_sha256

    def test_enroll_and_genkey_format_only_their_entry(self, enrolled, format_calls):
        path = enrolled / "registry.txt"
        assert enroll_device(enrolled, device_id="dev-b") == EXIT_OK
        format_calls.clear()
        assert enroll_device(enrolled, device_id="dev-c") == EXIT_OK
        assert [dict(pairs)["device_id"] for pairs in format_calls] == ["dev-c"]
        format_calls.clear()
        assert main(["genkey", "--dump", str(enrolled / "dumps" / "sample-00000.hex"),
                     "--registry", str(path), "--device-id", "dev-b", "--seed", "1"]) == EXIT_OK
        assert [dict(pairs)["device_id"] for pairs in format_calls] == ["dev-b"]
        assert path.read_text() == formatted_afresh(load_registry(path))

    def test_reproduce_same_dump(self, enrolled, capsys):
        dump = enrolled / "dumps" / "sample-00000.hex"
        assert main(reproduce_args(enrolled, dump)) == EXIT_OK
        out = capsys.readouterr().out
        assert "key hash matches" in out

    def test_reproduce_fresh_sample(self, enrolled, capsys):
        dump = enrolled / "dumps" / "sample-00017.hex"
        assert main(reproduce_args(enrolled, dump)) == EXIT_OK
        assert "key hash matches" in capsys.readouterr().out

    def test_single_masked_flip_recovers(self, enrolled, capsys):
        mask = load_mask(enrolled / "dev-a.mask")
        target = int(mask.base_offset + mask.positions[40])
        flipped = enrolled / "flip1.hex"
        assert main(["flip", "--dump", str(enrolled / "dumps" / "sample-00000.hex"),
                     "--out", str(flipped), "--positions", str(target)]) == EXIT_OK
        capsys.readouterr()
        assert main(reproduce_args(enrolled, flipped)) == EXIT_OK
        assert "key hash matches" in capsys.readouterr().out

    def test_double_flip_uncorrectable_pair(self, enrolled):
        # response bits 119 and 127 carry column codes 254 and 128; flipping
        # both gives syndrome 126, which correction must refuse
        mask = load_mask(enrolled / "dev-a.mask")
        targets = [int(mask.base_offset + mask.positions[j]) for j in (119, 127)]
        flipped = enrolled / "flip2a.hex"
        main(["flip", "--dump", str(enrolled / "dumps" / "sample-00000.hex"),
              "--out", str(flipped), "--positions", ",".join(map(str, targets))])
        assert main(reproduce_args(enrolled, flipped)) == EXIT_REPRODUCE_FAILURE

    def test_triple_flip_miscorrection_caught_by_key_hash(self, enrolled, capsys):
        # every double flip is refused, but response bits 0, 1 and 2 carry
        # column codes 7, 11 and 13; the syndrome lands on code 1 (parity bit
        # 120) and correction silently returns a different codeword, so only
        # the debug key hash can flag the wrong key
        mask = load_mask(enrolled / "dev-a.mask")
        targets = [int(mask.base_offset + mask.positions[j]) for j in (0, 1, 2)]
        flipped = enrolled / "flip3.hex"
        main(["flip", "--dump", str(enrolled / "dumps" / "sample-00000.hex"),
              "--out", str(flipped), "--positions", ",".join(map(str, targets))])
        capsys.readouterr()
        assert main(reproduce_args(enrolled, flipped)) == EXIT_KEY_MISMATCH
        assert "does not match" in capsys.readouterr().err

    def test_reproduce_needs_helper(self, workspace, capsys):
        assert enroll_device(workspace) == EXIT_OK
        dump = workspace / "dumps" / "sample-00000.hex"
        assert main(reproduce_args(workspace, dump)) == EXIT_USAGE
        assert "genkey" in capsys.readouterr().err

    def test_unknown_device(self, enrolled, capsys):
        dump = enrolled / "dumps" / "sample-00000.hex"
        code = main(["genkey", "--dump", str(dump), "--registry",
                     str(enrolled / "registry.txt"), "--device-id", "ghost"])
        assert code == EXIT_USAGE

    def test_reference_outside_registry_dir_refused(self, enrolled, capsys):
        # the referenced files exist and match their fingerprints, but they
        # sit outside the directory of this registry
        inner = enrolled / "inner"
        inner.mkdir()
        text = (enrolled / "registry.txt").read_text()
        (inner / "registry.txt").write_text(text.replace("= dev-a.", "= ../dev-a."))
        dump = enrolled / "dumps" / "sample-00000.hex"
        assert main(["reproduce", "--dump", str(dump), "--registry", str(inner / "registry.txt"),
                     "--device-id", "dev-a"]) == EXIT_USAGE
        assert "'mask_file'" in capsys.readouterr().err

    @pytest.mark.parametrize("what", ["mask", "helper"])
    def test_symbolic_link_refused(self, enrolled, capsys, what):
        # the link's target holds the recorded bytes, but it is not the
        # registry directory's own file
        outside = enrolled / "outside"
        outside.mkdir()
        (enrolled / f"dev-a.{what}").rename(outside / f"dev-a.{what}")
        (enrolled / f"dev-a.{what}").symlink_to(os.path.join("outside", f"dev-a.{what}"))
        dump = enrolled / "dumps" / "sample-00000.hex"
        assert main(reproduce_args(enrolled, dump)) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: device 'dev-a': {what} file 'dev-a.{what}' is a symbolic link\n")

    def test_misspelled_key_is_usage_error(self, enrolled, capsys):
        path = enrolled / "registry.txt"
        lines = path.read_text().split("\n")
        line = lines.index("helper_file = dev-a.helper")
        lines[line] = "helper_fiel = dev-a.helper"
        path.write_text("\n".join(lines))
        dump = enrolled / "dumps" / "sample-00000.hex"
        assert main(reproduce_args(enrolled, dump)) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: registry entry: line {line + 1}: unknown key 'helper_fiel'\n")

    def test_device_listed_twice_is_usage_error(self, enrolled, capsys):
        path = enrolled / "registry.txt"
        text = path.read_text()
        path.write_text(text + text[text.index("\n\n"):])
        dump = enrolled / "dumps" / "sample-00000.hex"
        assert main(reproduce_args(enrolled, dump)) == EXIT_USAGE
        assert "line 12: device_id 'dev-a' is also listed at line 3" in capsys.readouterr().err

    def test_tampered_mask_detected(self, enrolled, capsys):
        flip_byte(enrolled / "dev-a.mask")
        dump = enrolled / "dumps" / "sample-00000.hex"
        assert main(reproduce_args(enrolled, dump)) == EXIT_USAGE
        assert "fingerprint" in capsys.readouterr().err

    def test_tampered_helper_detected(self, enrolled, capsys):
        flip_byte(enrolled / "dev-a.helper")
        dump = enrolled / "dumps" / "sample-00000.hex"
        assert main(reproduce_args(enrolled, dump)) == EXIT_USAGE
        assert "fingerprint" in capsys.readouterr().err

    def test_other_device_files_not_read(self, enrolled, capsys):
        assert enroll_device(enrolled, device_id="dev-b") == EXIT_OK
        (enrolled / "dev-b.mask").unlink()
        dump = enrolled / "dumps" / "sample-00000.hex"
        assert main(reproduce_args(enrolled, dump)) == EXIT_OK
        capsys.readouterr()
        assert main(["reproduce", "--dump", str(dump), "--registry",
                     str(enrolled / "registry.txt"), "--device-id", "dev-b"]) == EXIT_USAGE
        assert "missing" in capsys.readouterr().err

    def test_unseeded_genkey_reproduces_and_differs(self, workspace, capsys):
        assert enroll_device(workspace) == EXIT_OK
        dump = workspace / "dumps" / "sample-00000.hex"
        genkey = ["genkey", "--dump", str(dump), "--registry", str(workspace / "registry.txt"),
                  "--device-id", "dev-a", "--debug"]
        assert main(genkey) == EXIT_OK
        first = (workspace / "dev-a.helper").read_text()
        capsys.readouterr()
        assert main(reproduce_args(workspace, dump)) == EXIT_OK
        assert "key hash matches" in capsys.readouterr().out
        assert main(genkey) == EXIT_OK
        assert (workspace / "dev-a.helper").read_text() != first

    def test_genkey_without_debug_clears_key_hash(self, enrolled, capsys):
        # a helper generated without --debug must not be paired with the key
        # hash of an earlier --debug run on a different response
        mask = load_mask(enrolled / "dev-a.mask")
        flipped = enrolled / "flip1.hex"
        assert main(["flip", "--dump", str(enrolled / "dumps" / "sample-00000.hex"),
                     "--out", str(flipped),
                     "--positions", str(int(mask.base_offset + mask.positions[40]))]) == EXIT_OK
        assert main(["genkey", "--dump", str(flipped), "--registry",
                     str(enrolled / "registry.txt"), "--device-id", "dev-a",
                     "--seed", "7"]) == EXIT_OK
        assert load_registry(enrolled / "registry.txt").get("dev-a").key_sha256 == ""
        capsys.readouterr()
        assert main(reproduce_args(enrolled, flipped)) == EXIT_OK
        assert "key reproduced" in capsys.readouterr().out


class TestRetiredFormats:
    """A v1 helper or registry is refused as one error line naming its format."""

    def test_reproduce_refuses_v1_helper(self, enrolled, capsys):
        helper = enrolled / "dev-a.helper"
        helper.write_text(helper.read_text().replace("srampuf-helper-v2", "srampuf-helper-v1")
                          .replace("hsiao-128-120", "hamming-128-120"))
        path = enrolled / "registry.txt"
        registry = load_registry(path)
        registry.entries["dev-a"] = dataclasses.replace(registry.get("dev-a"),
                                                        helper_sha256=file_sha256(helper))
        save_registry(path, registry)
        capsys.readouterr()
        assert main(reproduce_args(enrolled, enrolled / "dumps" / "sample-00000.hex")) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == "error: helper data: unsupported format 'srampuf-helper-v1'\n"
        assert key_lines(captured.out) == []

    @pytest.mark.parametrize("command", ["enroll", "genkey", "reproduce"])
    def test_commands_refuse_v1_registry(self, enrolled, capsys, command):
        path, helper = enrolled / "registry.txt", enrolled / "dev-a.helper"
        v1 = (path.read_text().replace("srampuf-registry-v2", "srampuf-registry-v1")
              .replace("\ncreated = ", "\n" + V1_ENTRY_KEYS + "created = "))
        path.write_text(v1)
        helper_text = helper.read_text()
        dump = str(enrolled / "dumps" / "sample-00000.hex")
        argv = {"enroll": ["enroll", "--dumps", str(enrolled / "dumps"), "--device-id", "dev-b"],
                "genkey": ["genkey", "--dump", dump, "--device-id", "dev-a"],
                "reproduce": ["reproduce", "--dump", dump, "--device-id", "dev-a"]}[command]
        capsys.readouterr()
        assert main([*argv, "--registry", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: registry: unsupported format 'srampuf-registry-v1'\n")
        assert path.read_text() == v1 and helper.read_text() == helper_text
        assert not (enrolled / "dev-b.mask").exists()


def test_no_key_material_without_debug(tmp_path, capsys):
    # No command run without --debug prints or writes a key half or the
    # digest, in either case of hex.
    dumps, registry = tmp_path / "dumps", str(tmp_path / "registry.txt")
    sample = str(dumps / "sample-00000.hex")
    reproduce = ["reproduce", "--dump", str(dumps / "sample-00017.hex"), "--registry", registry,
                 "--device-id", "dev-a"]
    commands = [
        ["simulate", "--out-dir", str(dumps), "--device-seed", str(DEVICE_SEED),
         "-n", str(N_SAMPLES), "--num-bits", str(NUM_BITS)],
        ["enroll", "--dumps", str(dumps), "--registry", registry, "--device-id", "dev-a"],
        ["genkey", "--dump", sample, "--registry", registry, "--device-id", "dev-a"],
        reproduce,
        ["stats", "--dumps", str(dumps)],
        ["sweep", "--enroll-dumps", str(dumps), "--test-dumps", f"NTNA={dumps}"],
        ["flip", "--dump", sample, "--out", str(tmp_path / "flipped.hex"), "--count", "1",
         "--seed", "3", "--mask", str(tmp_path / "dev-a.mask")],
    ]
    shown = []
    for command in commands:
        assert main(command) == EXIT_OK, command[0]
        shown += capsys.readouterr()
    shown += [path.read_text() for path in tmp_path.rglob("*") if path.is_file()]
    key = reproduce_key(load_dump(sample), load_mask(tmp_path / "dev-a.mask"),
                        load_helper(tmp_path / "dev-a.helper"))
    secrets = [key.key1.hex(), key.key2.hex(), key.digest.hex()]
    assert not [s for s in secrets if any(s in text.lower() for text in shown)]
    # the same search finds the key halves that --debug prints
    assert main([*reproduce, "--debug"]) == EXIT_OK
    assert key.key1.hex().upper() in capsys.readouterr().out


class TestCliReports:
    def test_stats_rows(self, workspace, tmp_path):
        out = tmp_path / "stats.csv"
        assert main(["stats", "--dumps", str(workspace / "dumps"), "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + NUM_BITS // 1216

    def test_stats_refuses_dumps_without_a_full_block(self, tmp_path, capsys):
        dumps = tmp_path / "dumps"
        main(["simulate", "--out-dir", str(dumps), "--device-seed", "1", "-n", "2",
              "--num-bits", "64"])
        capsys.readouterr()
        assert main(["stats", "--dumps", str(dumps)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "samples of 64 bits hold no full 1216-bit block" in captured.err

    @pytest.mark.parametrize("command", ["stats", "sweep"])
    @pytest.mark.parametrize("block_size", ["0", "5000"])
    def test_block_size_without_a_full_block_is_usage_error(self, workspace, tmp_path, capsys,
                                                            command, block_size):
        dumps = str(workspace / "dumps")
        args = (["stats", "--dumps", dumps] if command == "stats"
                else ["sweep", "--enroll-dumps", dumps, "--test-dumps", f"NTNA={dumps}"])
        out = tmp_path / "report.csv"
        assert main([*args, "--block-size", block_size, "--out", str(out)]) == EXIT_USAGE
        assert "block" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_rows_and_monotone_counts(self, workspace, tmp_path):
        test_dir = workspace / "test-ntna"
        main(["simulate", "--out-dir", str(test_dir), "--device-seed", str(DEVICE_SEED),
              "-n", "5", "--num-bits", str(NUM_BITS), "--seed0", "90000"])
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--enroll-dumps", str(workspace / "dumps"),
                     "--test-dumps", f"NTNA={test_dir}", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 5 * (NUM_BITS // 1216)
        by_block = {}
        for line in lines[1:]:
            cond, t, block, count = line.split(",")[:4]
            by_block.setdefault(block, []).append(int(count))
        for counts in by_block.values():
            assert counts == sorted(counts, reverse=True)


class TestCliFlip:
    def test_positions_flip(self, workspace):
        src = workspace / "dumps" / "sample-00000.hex"
        dst = workspace / "flipped.hex"
        assert main(["flip", "--dump", str(src), "--out", str(dst), "--positions", "0,33"]) == EXIT_OK
        a, b = load_dump(src), load_dump(dst)
        diff = np.flatnonzero(a.bits != b.bits)
        assert list(diff) == [0, 33]

    def test_random_flips_reproducible(self, workspace):
        src = workspace / "dumps" / "sample-00000.hex"
        first, second = workspace / "r1.hex", workspace / "r2.hex"
        for dst in (first, second):
            assert main(["flip", "--dump", str(src), "--out", str(dst),
                         "--count", "3", "--seed", "5"]) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("key, value", [("base_offset", -4000), ("threshold", -3),
                                            ("sample_count", -1)])
    def test_mask_with_out_of_range_field_rejected(self, workspace, capsys, key, value):
        mask = Mask(device_id="dev-a", positions=np.arange(128), threshold=4, sample_count=40)
        text = mask_to_text(mask).replace(f"{key} = {getattr(mask, key)}\n", f"{key} = {value}\n")
        (workspace / "bad.mask").write_text(text)
        assert main(["flip", "--dump", str(workspace / "dumps" / "sample-00000.hex"),
                     "--out", str(workspace / "x.hex"), "--count", "2", "--seed", "5",
                     "--mask", str(workspace / "bad.mask")]) == EXIT_USAGE
        assert key in capsys.readouterr().err
        assert not (workspace / "x.hex").exists()

    def test_repeated_position_rejected(self, workspace, capsys):
        src = workspace / "dumps" / "sample-00000.hex"
        dst = workspace / "x.hex"
        assert main(["flip", "--dump", str(src), "--out", str(dst),
                     "--positions", "5,5"]) == EXIT_USAGE
        assert "repeat" in capsys.readouterr().err
        assert not dst.exists()

    def test_out_of_range_rejected(self, workspace):
        src = workspace / "dumps" / "sample-00000.hex"
        assert main(["flip", "--dump", str(src), "--out", str(workspace / "x.hex"),
                     "--positions", str(NUM_BITS)]) == EXIT_USAGE


@pytest.fixture()
def two_dumps(tmp_path):
    dumps = tmp_path / "dumps"
    assert main(["simulate", "--out-dir", str(dumps), "--device-seed", "1", "-n", "2",
                 "--num-bits", "64"]) == EXIT_OK
    return dumps


# Each usage refusal with its message; none writes a file beside the dumps
USAGE_REFUSALS = {
    "simulate-set": (["simulate", "--out-dir", "{tmp}/out", "--device-seed", "1", "--set", "foo"],
                     "--set expects key=value, got 'foo'"),
    "enroll-dumps": (["enroll", "--dumps", "{dumps}/sample-00000.hex", "--registry",
                      "{tmp}/registry.txt", "--device-id", "dev-a"],
                     "not a directory: {dumps}/sample-00000.hex"),
    "enroll-device-id": (["enroll", "--dumps", "{dumps}", "--registry", "{tmp}/registry.txt",
                          "--device-id", "a b"],
                         "device id 'a b' must match ^[A-Za-z0-9._-]+$"),
    # build_mask refuses it under the registry lock, whose file lands beside the dumps
    "enroll-base-offset": (["enroll", "--dumps", "{dumps}", "--registry", "{dumps}/registry.txt",
                            "--device-id", "dev-a", "--base-offset", "-1"],
                           "base_offset must be >= 0"),
    "sweep-test-dumps": (["sweep", "--enroll-dumps", "{dumps}", "--test-dumps", "NTNA"],
                         "--test-dumps expects CONDITION=DIR, got 'NTNA'"),
    "sweep-repeated-condition": (["sweep", "--enroll-dumps", "{dumps}", "--test-dumps",
                                  "NTNA={dumps}", "--test-dumps", "NTNA={tmp}/b"],
                                 "--test-dumps gives condition 'NTNA' more than once"),
    "sweep-repeated-threshold": (["sweep", "--enroll-dumps", "{dumps}", "--test-dumps",
                                  "NTNA={dumps}", "--thresholds", "1,2,3,2"],
                                 "threshold 2 is given more than once"),
    "flip-count-seed": (["flip", "--dump", "{dumps}/sample-00000.hex", "--out", "{tmp}/x.hex",
                         "--count", "2"],
                        "--count needs --seed for a reproducible choice"),
    "flip-no-choice": (["flip", "--dump", "{dumps}/sample-00000.hex", "--out", "{tmp}/x.hex"],
                       "give --positions or --count"),
    "flip-count-above-pool": (["flip", "--dump", "{dumps}/sample-00000.hex", "--out",
                               "{tmp}/x.hex", "--count", "65", "--seed", "1"],
                              "--count 65 is outside 0..64, the number of bits to choose from"),
    "flip-count-negative": (["flip", "--dump", "{dumps}/sample-00000.hex", "--out",
                             "{tmp}/x.hex", "--count", "-2", "--seed", "1"],
                            "--count -2 is outside 0..64, the number of bits to choose from"),
}


@pytest.mark.parametrize("argv, message", USAGE_REFUSALS.values(), ids=list(USAGE_REFUSALS))
def test_usage_refusal_is_one_error_line(tmp_path, two_dumps, capsys, argv, message):
    capsys.readouterr()
    paths = dict(tmp=tmp_path, dumps=two_dumps)
    assert main([arg.format(**paths) for arg in argv]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message.format(**paths)}\n"
    assert sorted(os.listdir(tmp_path)) == ["dumps"]


@pytest.mark.parametrize("command", ["stats", "enroll", "sweep-enroll", "sweep-test"])
def test_dumps_of_differing_lengths_refused(tmp_path, two_dumps, capsys, command):
    mixed = tmp_path / "mixed"
    mixed.mkdir()
    save_dump(mixed / "a.hex", load_dump(two_dumps / "sample-00000.hex"))
    save_dump(mixed / "b.hex", BitVector(np.zeros(96, dtype=np.uint8)))
    argv = {"stats": ["stats", "--dumps", str(mixed)],
            "enroll": ["enroll", "--dumps", str(mixed), "--registry", str(tmp_path / "r.txt"),
                       "--device-id", "dev-a"],
            "sweep-enroll": ["sweep", "--enroll-dumps", str(mixed),
                             "--test-dumps", f"NTNA={two_dumps}"],
            "sweep-test": ["sweep", "--enroll-dumps", str(two_dumps),
                           "--test-dumps", f"NTNA={mixed}"]}[command]
    capsys.readouterr()
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"error: {mixed}: b.hex holds 96 bits, but a.hex holds 64\n"
    assert captured.out == ""
    assert sorted(os.listdir(tmp_path)) == ["dumps", "mixed"]


def test_flip_count_is_bounded_by_the_mask(tmp_path, two_dumps, capsys):
    mask_path = tmp_path / "d.mask"
    save_mask(mask_path, Mask(device_id="d", positions=np.arange(3), threshold=1,
                              sample_count=2, window_length=64))
    capsys.readouterr()
    assert main(["flip", "--dump", str(two_dumps / "sample-00000.hex"), "--out",
                 str(tmp_path / "x.hex"), "--mask", str(mask_path), "--count", "4",
                 "--seed", "1"]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: --count 4 is outside 0..3, the number of bits to choose from\n")
    assert not (tmp_path / "x.hex").exists()


def test_memory_error_is_one_error_line(tmp_path, monkeypatch, capsys):
    """A request too large to allocate (numpy raises MemoryError at once when
    it cannot reserve the array) exits 2 with one line, not a traceback."""
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")
    monkeypatch.setattr("srampuf.simulate.new_device", refuse)
    assert main(["simulate", "--out-dir", str(tmp_path / "out"), "--device-seed", "1",
                 "-n", "1"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: Unable to allocate 7.28 TiB for an array\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv, flag", [
    (["sweep", "--enroll-dumps", "{dumps}", "--test-dumps", "NTNA={dumps}",
      "--thresholds", "1,x"], "--thresholds"),
    (["flip", "--dump", "{dumps}/sample-00000.hex", "--out", "{tmp}/x.hex",
      "--positions", "3,x"], "--positions"),
], ids=["thresholds", "positions"])
def test_integer_list_error_names_flag_and_item(tmp_path, two_dumps, capsys, argv, flag):
    capsys.readouterr()
    assert main([arg.format(tmp=tmp_path, dumps=two_dumps) for arg in argv]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: ") and err.endswith(" 'x'\n") and err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == ["dumps"]
