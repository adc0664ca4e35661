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
from srampuf.enroll import Mask, load_mask, mask_from_text, mask_to_text
from srampuf.fuzzy import load_helper
from srampuf.keygen import reproduce_key
from srampuf.registry import (
    Registry,
    RegistryEntry,
    RegistryError,
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

    def test_v1_text_loads_and_saves_as_v2(self):
        legacy = ("threshold", "sample_count", "base_offset", "window_length", "num_windows")
        v1 = ("format = srampuf-registry-v1\n\n"
              "device_id = dev-a\nmask_file = dev-a.mask\nmask_sha256 = " + "0" * 64 + "\n"
              "threshold = 4\nsample_count = 40\nbase_offset = 0\nwindow_length = 1216\n"
              "num_windows = 1\ncreated = 2026-08-10T00:00:00Z\n")
        registry = registry_from_text(v1)
        assert registry.get("dev-a") == entry()
        text = registry_to_text(registry)
        assert text.startswith("format = srampuf-registry-v2\n")
        assert not any(line.startswith(legacy) for line in text.splitlines())
        assert registry_from_text(text) == registry

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
        with pytest.raises(RegistryError, match="already enrolled"):
            registry.add(entry())

    def test_unknown_device(self):
        with pytest.raises(RegistryError, match="not enrolled"):
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
        with pytest.raises(RegistryError, match="fingerprint"):
            read_verified(tmp_path / "registry.txt", loaded, "mask")

    def test_load_checks_missing_file(self, tmp_path):
        registry = Registry()
        registry.add(entry("dev-a"))
        save_registry(tmp_path / "registry.txt", registry)
        loaded = load_registry(tmp_path / "registry.txt").get("dev-a")
        with pytest.raises(RegistryError, match="missing"):
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
        lambda t: t.replace("-v2", "-v1").replace("\ncreated = ", "\nthreshold = 4\ncreated = "),
    ], ids=["comments", "spaced-equals", "trailing-spaces", "trailing-blank-lines", "crlf", "v1"])
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
    ], ids=["empty", "no-newline", "blank-line", "trailing-blank-line", "path", "dot-dot",
            "duplicate-id"])
    def test_fast_path_declines_without_raising(self, text):
        assert registry_module._writer_form(text) is None

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


@pytest.fixture()
def workspace(tmp_path):
    dumps = tmp_path / "dumps"
    assert main(["simulate", "--out-dir", str(dumps), "--device-seed", str(DEVICE_SEED),
                 "-n", str(N_SAMPLES), "--num-bits", str(NUM_BITS)]) == EXIT_OK
    return tmp_path


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
        env = dict(os.environ, PYTHONPATH=str(SRC))
        procs = [subprocess.Popen([sys.executable, "-m", "srampuf.cli", "enroll",
                                   "--dumps", str(workspace / "dumps"),
                                   "--registry", str(workspace / "registry.txt"),
                                   "--device-id", device_id],
                                  env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
                 for device_id in device_ids]
        try:
            for proc in procs:
                _, err = proc.communicate(timeout=120)
                assert proc.returncode == EXIT_OK, err
        finally:
            for proc in procs:
                proc.kill()
        assert sorted(load_registry(workspace / "registry.txt").entries) == device_ids

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
