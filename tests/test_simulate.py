import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest

import srampuf
from srampuf import simulate
from srampuf.cli import EXIT_USAGE, main
from srampuf.enroll import distance_to_unstable, mark_stability
from srampuf.simulate import (
    Calibration,
    calibration_to_text,
    collect_samples,
    load_calibration,
    new_device,
    parse_calibration,
    power_up_sample,
    _smooth,
)
from srampuf._kv import TextFormatError


def mean_run_length(marks: np.ndarray) -> float:
    padded = np.concatenate(([0], marks.astype(np.int8), [0]))
    edges = np.diff(padded)
    return float(np.mean(np.flatnonzero(edges == -1) - np.flatnonzero(edges == 1)))


class TestDeviceConstruction:
    def test_deterministic(self):
        cal = Calibration()
        a = new_device(42, num_bits=5000, calibration=cal)
        b = new_device(42, num_bits=5000, calibration=cal)
        assert np.array_equal(a.cell_bias, b.cell_bias)

    def test_seed_changes_device(self):
        a = new_device(1, num_bits=5000)
        b = new_device(2, num_bits=5000)
        assert not np.array_equal(a.cell_bias, b.cell_bias)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            new_device(1, num_bits=0)

    def test_bias_partitions(self):
        device = new_device(3, num_bits=20_000)
        bias = device.cell_bias
        cal = device.calibration
        near_zero = bias <= 300 * cal.flip_prob_edge
        near_one = bias >= 1 - 300 * cal.flip_prob_edge
        middle = (bias >= 0.2) & (bias <= 0.8)
        assert (near_zero | near_one | middle).all()
        assert 0.15 < middle.mean() < 0.3

    def test_degenerate_calibration_is_noiseless(self):
        cal = Calibration(unstable_fraction=0.0)
        device = new_device(4, num_bits=3000, calibration=cal)
        assert set(np.unique(device.cell_bias)) <= {0.0, 1.0}

    @pytest.mark.parametrize("radius", [64, 10**9, 2**63 - 2, 2**63, 10**30])
    def test_radius_not_below_num_bits_refused(self, radius):
        # Checked before the smoothing pads the field by the radius
        with pytest.raises(ValueError, match=r"^cluster_radius must be below num_bits \(64\)$"):
            new_device(1, num_bits=64, calibration=Calibration(cluster_radius=radius))
        assert new_device(1, num_bits=64, calibration=Calibration(cluster_radius=63)).num_bits == 64

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0$"):
            new_device(-3, num_bits=64)

    @pytest.mark.parametrize("seed, calibration", [
        (8, Calibration(flip_decay=0.5)),
        (9, Calibration(flip_decay=0.5, flip_prob_edge=1e-3, flip_prob_unstable=0.2,
                        unstable_fraction=0.1, cluster_radius=3)),
    ])
    def test_flip_model_decays_with_brute_force_distance(self, seed, calibration):
        # Every stable cell flips with at most flip_prob_edge, so the cells
        # above it are the unstable ones, about unstable_fraction of them.
        cal = calibration
        bias = new_device(seed, num_bits=4864, calibration=cal).cell_bias
        unstable = np.minimum(bias, 1.0 - bias) > (cal.flip_prob_edge + cal.flip_prob_unstable) / 2
        assert abs(np.count_nonzero(unstable) - cal.unstable_fraction * 4864) <= 2
        index = np.arange(4864)
        distance = np.full(4864, 4864)
        for cell in np.flatnonzero(unstable):
            np.minimum(distance, np.abs(index - cell), out=distance)
        flip = np.where(unstable, cal.flip_prob_unstable,
                        cal.flip_prob_edge * cal.flip_decay ** (distance - 1.0))
        # min(bias, 1 - bias) is the flip chance up to one rounding of 1 - flip;
        # stated on the bias itself, the model's figures hold exactly.
        assert np.array_equal(bias, np.where(bias >= 0.5, 1.0 - flip, flip))
        assert distance.max() > 8

    def test_no_smoothing_at_zero_radius_or_zero_mix(self):
        latent = np.random.default_rng(4).random(64)
        assert _smooth(latent, 0, 0.65) is latent and _smooth(latent, 2, 0.0) is latent
        by_radius = new_device(4, num_bits=256, calibration=Calibration(cluster_radius=0))
        by_mix = new_device(4, num_bits=256, calibration=Calibration(cluster_mix=0.0))
        assert dataclasses.replace(by_radius, calibration=by_mix.calibration) == by_mix


class TestDeviceEquality:
    def test_equal_devices_compare_equal(self):
        a, b = new_device(1, num_bits=64), new_device(1, num_bits=64)
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b)
        assert a != a.device_id

    def test_probability_cache_plays_no_part(self):
        a, b = new_device(1, num_bits=64), new_device(1, num_bits=64)
        a.prob_one(a.calibration.condition("HTNA"))
        assert a == b and hash(a) == hash(b)

    @pytest.mark.parametrize("field, value", [
        ("device_id", "device-other"), ("seed", 2),
        ("calibration", Calibration(flip_decay=0.5)),
    ])
    def test_any_field_change_makes_devices_unequal(self, field, value):
        device = new_device(1, num_bits=64)
        assert dataclasses.replace(device, **{field: value}) != device

    def test_cell_bias_change_makes_devices_unequal(self):
        device = new_device(1, num_bits=64)
        moved = device.cell_bias.copy()
        moved[5] = 1.0 - moved[5]
        assert dataclasses.replace(device, cell_bias=moved) != device
        assert dataclasses.replace(device, cell_bias=device.cell_bias[:32]) != device

    def test_device_is_a_set_member(self):
        devices = {new_device(1, num_bits=64), new_device(1, num_bits=64),
                   new_device(2, num_bits=64)}
        assert len(devices) == 2
        assert new_device(1, num_bits=64) in devices
        assert new_device(1, num_bits=128) not in devices
        assert new_device(3, num_bits=64) not in devices


class TestSampling:
    def test_deterministic_per_seed(self):
        device = new_device(5, num_bits=4000)
        cond = device.calibration.condition("NTNA")
        assert np.array_equal(power_up_sample(device, cond, 9).bits,
                              power_up_sample(device, cond, 9).bits)
        assert not np.array_equal(power_up_sample(device, cond, 9).bits,
                                  power_up_sample(device, cond, 10).bits)

    def test_noiseless_device_constant_across_everything(self):
        cal = Calibration(unstable_fraction=0.0)
        device = new_device(6, num_bits=4000, calibration=cal)
        reference = power_up_sample(device, cal.condition("NTNA"), 0)
        for kind in ("NTNA", "HTNA", "NTWA"):
            for seed in (1, 77, 12345):
                assert np.array_equal(power_up_sample(device, cal.condition(kind), seed).bits,
                                      reference.bits)

    def test_collect_singleton(self):
        # reading k of a run is the single reading at seed seed0 + k
        device = new_device(7, num_bits=2000)
        for kind in device.calibration.conditions():
            for n in (1, 6):
                assert np.array_equal([s.bits for s in collect_samples(device, kind, n, seed0=4)],
                                      [power_up_sample(device, kind, 4 + k).bits for k in range(n)])

    # SHA-256 of the packed readings: dumps, masks and keys everywhere depend
    # on these exact bits, so any sampler change must reproduce them.
    @pytest.mark.parametrize("kind, digest", [
        ("NTNA", "8d86d24d8ee5d257dd7a14274aada57ed34d509e9612462b1bca3cc25496ea96"),
        ("HTNA", "b6d55b1b630cbdb066c5c690207cb50dfd11deaeed59b24703a2061747cb9b05"),
        ("NTWA", "bd2c4eba17ecafc3b3a6ceac0560b8ca4e3714b449a24c3656086e8456785044"),
    ])
    def test_sampled_bits_pinned(self, kind, digest):
        device = new_device(7, num_bits=4864)
        samples = collect_samples(device, device.calibration.condition(kind), 8, seed0=1000)
        packed = np.packbits([s.bits for s in samples]).tobytes()
        assert hashlib.sha256(packed).hexdigest() == digest

    def test_collect_validates_count(self):
        device = new_device(7, num_bits=2000)
        with pytest.raises(ValueError):
            collect_samples(device, device.calibration.condition("NTNA"), 0)

    def test_hotter_conditions_flip_more(self):
        cal = Calibration()
        device = new_device(8, num_bits=30_000, calibration=cal)
        reference = power_up_sample(device, cal.condition("NTNA"), 0)
        rates = {}
        for kind in ("NTNA", "HTNA", "NTWA"):
            samples = collect_samples(device, cal.condition(kind), 300, seed0=50_000)
            rates[kind] = np.mean([np.count_nonzero(s.bits != reference.bits) for s in samples])
        assert rates["NTNA"] <= rates["HTNA"] <= rates["NTWA"]

    def test_stable_cells_cluster(self):
        cal = Calibration()
        device = new_device(9, num_bits=60_000, calibration=cal)
        samples = collect_samples(device, cal.condition("NTNA"), 300, seed0=0)
        stable = mark_stability(samples)
        rng = np.random.default_rng(123)
        shuffled = stable.copy()
        rng.shuffle(shuffled)
        assert mean_run_length(stable) > 1.05 * mean_run_length(shuffled)


class TestEnrollmentStatistics:
    def test_unstable_share_across_seeds(self):
        # ten devices, 300 samples each: mean share of positions that ever
        # flip stays within 2 points of the 24.9% target
        shares = []
        for seed in range(10):
            device = new_device(seed, calibration=Calibration())
            samples = collect_samples(device, device.calibration.condition("NTNA"),
                                      300, seed0=1000 * seed)
            shares.append(1.0 - mark_stability(samples).mean())
        assert abs(float(np.mean(shares)) - 0.249) < 0.02

    def test_three_hundred_samples_mark_three_quarters_stable(self, enrolled_device):
        stable = mark_stability(enrolled_device["enroll"])
        assert 0.72 <= stable.mean() <= 0.78


UNKNOWN_KIND = "unknown condition kind {!r}; expected one of NTNA, HTNA, NTWA"


class TestConditions:
    def test_condition_type_is_gone(self):
        assert not hasattr(srampuf, "Condition") and not hasattr(simulate, "Condition")

    def test_reference_condition_fixed(self):
        # NTNA's multiplier is no setting: always 1.0, and no calibration key
        assert Calibration(htna_multiplier=2.0, ntwa_multiplier=3.0).conditions()["NTNA"] == 1.0
        with pytest.raises(TextFormatError, match="unknown key 'ntna_multiplier'"):
            parse_calibration("ntna_multiplier = 1.2\n")

    def test_multiplier_floor(self):
        for key in ("htna_multiplier", "ntwa_multiplier"):
            with pytest.raises(ValueError, match=f"^{key} must be finite and >= 1.0, got 0.9$"):
                Calibration(**{key: 0.9})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_multiplier_refused(self, value):
        with pytest.raises(ValueError, match="htna_multiplier must be finite"):
            Calibration(htna_multiplier=value)

    def test_unknown_kind(self):
        # The same ValueError from every entry point, never a KeyError
        device = new_device(7, num_bits=64)
        for kind in ("HOT", "ntna", ""):
            for call in (device.calibration.condition, device.prob_one,
                         lambda kind: power_up_sample(device, kind, 0),
                         lambda kind: collect_samples(device, kind, 3)):
                with pytest.raises(ValueError, match=f"^{re.escape(UNKNOWN_KIND.format(kind))}$"):
                    call(kind)

    def test_cli_refuses_unknown_kind(self, tmp_path, capsys):
        out = tmp_path / "dumps"
        assert main(["simulate", "--out-dir", str(out), "--device-seed", "1", "-n", "1",
                     "--num-bits", "64", "--condition", "HOT"]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {UNKNOWN_KIND.format('HOT')}\n")
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["HOT", "ntna", "htna", ""])
    def test_calibration_rejects_unknown_kind(self, kind):
        with pytest.raises(ValueError, match="expected one of NTNA, HTNA, NTWA"):
            Calibration().condition(kind)

    @pytest.mark.parametrize("kind", ["NTNA", "HTNA", "NTWA"])
    def test_checked_kind_reads_as_the_bare_kind(self, kind):
        cal = Calibration()
        device = new_device(7, num_bits=4864, calibration=cal)
        assert cal.condition(kind) == kind
        assert (collect_samples(device, cal.condition(kind), 4, seed0=9).packed.tobytes()
                == collect_samples(device, kind, 4, seed0=9).packed.tobytes())
        assert (power_up_sample(device, cal.condition(kind), 5).packed.tobytes()
                == power_up_sample(device, kind, 5).packed.tobytes())

    def test_multiplier_comes_from_the_device_calibration(self):
        default = new_device(7, num_bits=4864)
        hotter = new_device(7, num_bits=4864, calibration=Calibration(htna_multiplier=1.5))
        assert hotter.calibration.conditions()["HTNA"] == 1.5
        same = collect_samples(default, "NTNA", 8), collect_samples(hotter, "NTNA", 8)
        assert same[0].packed.tobytes() == same[1].packed.tobytes()
        assert np.array_equal(default.prob_one("NTWA"), hotter.prob_one("NTWA"))
        assert not np.array_equal(default.prob_one("HTNA"), hotter.prob_one("HTNA"))
        hot = collect_samples(default, "HTNA", 8), collect_samples(hotter, "HTNA", 8)
        assert hot[0].packed.tobytes() != hot[1].packed.tobytes()

    def test_calibration_builds_conditions(self):
        cal = Calibration(htna_multiplier=1.4, ntwa_multiplier=1.9)
        assert cal.conditions() == {"NTNA": 1.0, "HTNA": 1.4, "NTWA": 1.9}
        assert list(Calibration().conditions().items()) == [
            ("NTNA", 1.0), ("HTNA", 1.33), ("NTWA", 1.67)]


class TestCalibrationFile:
    def test_round_trip(self):
        cal = Calibration(unstable_fraction=0.18, cluster_radius=3, flip_prob_edge=2e-4)
        assert parse_calibration(calibration_to_text(cal)) == cal

    def test_load(self, tmp_path):
        path = tmp_path / "cal.cfg"
        path.write_text("unstable_fraction = 0.2\nhtna_multiplier = 1.5\n")
        cal = load_calibration(path)
        assert cal.unstable_fraction == 0.2
        assert cal.htna_multiplier == 1.5
        assert cal.cluster_radius == Calibration().cluster_radius

    def test_unknown_key(self):
        with pytest.raises(TextFormatError, match="unknown key"):
            parse_calibration("wobble = 3\n")

    def test_bad_value(self):
        with pytest.raises(TextFormatError, match="must be a number"):
            parse_calibration("unstable_fraction = lots\n")
        with pytest.raises(TextFormatError, match="^calibration: cluster_radius is not an integer: '2.5'$"):
            parse_calibration("cluster_radius = 2.5\n")

    def test_text_lists_every_key_in_field_order(self):
        assert calibration_to_text(Calibration()) == (
            "# srampuf device calibration\n"
            "unstable_fraction = 0.21\n"
            "cluster_radius = 2\n"
            "cluster_mix = 0.65\n"
            "flip_prob_unstable = 0.3\n"
            "flip_prob_edge = 0.0004\n"
            "flip_decay = 0.25\n"
            "htna_multiplier = 1.33\n"
            "ntwa_multiplier = 1.67\n"
        )

    @pytest.mark.parametrize("key", ["htna_multiplier", "ntwa_multiplier"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_multiplier_refused(self, key, value):
        # A NaN multiplier would make every draw compare False; inf with a
        # zero edge probability would make NaN cell probabilities.
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            parse_calibration(f"{key} = {value}\nflip_prob_edge = 0\n")

    @pytest.mark.parametrize("field, value, message", [
        ("cluster_radius", -1, "^cluster_radius must be >= 0$"),
        ("cluster_mix", -0.1, r"^cluster_mix must be in \[0, 1\]$"),
        ("cluster_mix", 1.5, r"^cluster_mix must be in \[0, 1\]$"),
        ("flip_prob_unstable", 1.5, "^flip_prob_unstable must be a probability$"),
        ("flip_prob_edge", 1.0001, "^flip_prob_edge must be a probability$"),
    ])
    def test_out_of_range_value_refused(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            Calibration(**{field: value})

    def test_validation(self):
        with pytest.raises(ValueError):
            Calibration(unstable_fraction=1.5)
        with pytest.raises(ValueError):
            Calibration(flip_decay=0.0)


@pytest.mark.parametrize("seed", range(4))
def test_distance_to_unstable_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    for n in range(1, 201):
        unstable = rng.random(n) < rng.random()
        # Also with every unstable cell on one side of a random cut, and with
        # unstable cells at index 0, at index n - 1, or at those alone (at
        # n = 1, one array of one unstable cell)
        cut = rng.integers(0, n + 1)
        first, last = np.arange(n) == 0, np.arange(n) == n - 1
        for mask in (unstable, unstable & (np.arange(n) < cut), unstable & (np.arange(n) >= cut),
                     unstable | first, unstable | last, first, last, first | last):
            if mask.any():
                brute = np.abs(np.arange(n)[:, None] - np.flatnonzero(mask)).min(axis=1)
                assert np.array_equal(distance_to_unstable(mask), brute)
