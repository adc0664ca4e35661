"""Readings are stored packed: every library pass over them must agree with
the unpacked oracles, at lengths and offsets that do not fall on byte
boundaries."""

import os
import sys
import threading

import numpy as np
import pytest

from srampuf import simulate
from srampuf.analytics import threshold_sweep
from srampuf.bitvec import BitVector, format_hex_dump, parse_hex_dump
from srampuf.enroll import Mask, mark_stability
from srampuf.keygen import apply_mask
from srampuf.simulate import Calibration, collect_samples, new_device, power_up_sample

from _oracles import (
    oracle_apply_mask,
    oracle_hex_dump,
    oracle_parse_dump,
    oracle_stability,
    oracle_threshold_sweep,
    oracle_with_flips,
)

LENGTHS = [0, 1, 7, 8, 9, 31, 33, 120_000]


def owned_bytes(reading: BitVector) -> int:
    """Bytes held by the reading's arrays, counting the buffer a view keeps alive."""
    total = 0
    for name in BitVector.__slots__:
        value = getattr(reading, name)
        if isinstance(value, np.ndarray):
            total += value.base.nbytes if isinstance(value.base, np.ndarray) else value.nbytes
    return total


def noisy_samples(rng, n: int, count: int, flip_rate: float) -> list[BitVector]:
    """Readings around one base whose cells each flip with its own chance:
    many never flip, so stable runs form."""
    base = rng.integers(0, 2, n, dtype=np.uint8)
    chance = np.where(rng.random(n) < 0.7, 0.0, flip_rate)
    return [BitVector(base ^ (rng.random(n) < chance)) for _ in range(count)]


class TestBitVectorRoundTrip:
    @pytest.mark.parametrize("n", LENGTHS)
    def test_bits_round_trip(self, n):
        bits = np.random.default_rng(n).integers(0, 2, n, dtype=np.uint8)
        reading = BitVector(bits)
        assert len(reading) == n
        assert reading.packed.size == -(-n // 8)
        assert np.array_equal(reading.bits, bits)
        assert np.array_equal(np.unpackbits(reading.packed, bitorder="little")[n:],
                              np.zeros(-n % 8, dtype=np.uint8))   # pad bits are zero

    @pytest.mark.parametrize("n", LENGTHS)
    def test_dump_round_trip(self, n):
        bits = np.random.default_rng(n).integers(0, 2, n, dtype=np.uint8)
        reading = BitVector(bits)
        if n % 32:
            with pytest.raises(ValueError, match="multiple of 32"):
                format_hex_dump(reading)
            return
        text = format_hex_dump(reading)
        assert text == oracle_hex_dump(reading)
        parsed = parse_hex_dump(text)
        assert len(parsed) == n
        assert np.array_equal(parsed.bits, bits)
        assert np.array_equal(oracle_parse_dump(text), bits)
        assert np.array_equal(parsed.packed, reading.packed)

    def test_bits_is_a_fresh_read_only_copy(self):
        reading = BitVector([1, 0, 1, 1, 0, 0, 1, 0, 1])
        first, second = reading.bits, reading.bits
        assert first is not second
        assert not np.shares_memory(first, reading.packed)
        assert not first.flags.writeable and not reading.packed.flags.writeable

    def test_reading_holds_no_unpacked_copy(self):
        device = new_device(3)
        cond = device.calibration.condition("NTNA")
        text = format_hex_dump(power_up_sample(device, cond, 0))
        readings = [power_up_sample(device, cond, 1), *collect_samples(device, cond, 2),
                    parse_hex_dump(text), BitVector(parse_hex_dump(text).bits)]
        readings.append(readings[0].with_flips([5, 6]))
        for reading in readings:
            assert len(reading) == 120_000
            assert owned_bytes(reading) <= 15_000


class TestWithFlips:
    @pytest.mark.parametrize("positions", [[3, 5], [0, 7], [7, 8], [2, 4, 6, 12], [12], [-1]])
    def test_matches_oracle(self, positions):
        reading = BitVector(np.random.default_rng(1).integers(0, 2, 13, dtype=np.uint8))
        before = reading.bits
        flipped = reading.with_flips(positions)
        assert np.array_equal(flipped.bits, oracle_with_flips(reading, positions))
        assert np.array_equal(reading.bits, before)
        assert np.array_equal(BitVector(flipped.bits).packed, flipped.packed)

    def test_refuses_positions_past_the_end(self):
        with pytest.raises(IndexError):
            BitVector([0, 1, 1]).with_flips([3])

    def test_leaves_callers_positions_alone(self):
        positions = np.array([-1, 0])
        BitVector([0, 1, 1]).with_flips(positions)
        assert positions.tolist() == [-1, 0]


class TestMarkStabilityPacked:
    @pytest.mark.parametrize("window", [range(37, 37 + 1001), range(0, 5000), range(8, 16),
                                        range(3, 5), range(4999, 5000), range(40, 40)])
    def test_matches_oracle(self, window):
        samples = noisy_samples(np.random.default_rng(2), 5000, 20, 0.1)
        marks = mark_stability(samples)[window.start:window.stop]
        assert marks.dtype == bool and marks.size == len(window)
        assert np.array_equal(marks, oracle_stability(samples, window.start, window.stop))


class TestThresholdSweepPacked:
    @pytest.mark.parametrize("block_size", [5, 1001])
    def test_matches_per_sample_oracle(self, block_size):
        rng = np.random.default_rng(block_size)
        n = 5000 + 3
        enroll = noisy_samples(rng, n, 6, 0.3)
        base = enroll[0].bits
        test = {kind: [BitVector(base ^ (rng.random(n) < rate)) for _ in range(25)]
                for kind, rate in (("NTNA", 0.0005), ("NTWA", 0.004), ("HOT", 0.02))}
        thresholds = (1, 2, 3, 4, 5)
        report = threshold_sweep(enroll, test, thresholds=thresholds, block_size=block_size)
        got = [(r.condition, r.threshold, r.block_index, r.selected_count, r.max_flips,
                r.samples_zero_flips, r.samples_one_flip, r.samples_multi_flips)
               for r in report]
        expected = oracle_threshold_sweep(enroll, test, thresholds, block_size)
        assert got == expected
        assert any(row[4] >= 2 for row in expected)      # the oracle saw multi-flip samples

    def test_many_samples_and_dense_flips_match_oracle(self):
        # 2 * 64 + 5 samples span three row chunks, the last one short; at a
        # flip rate of 0.5 many 64-bit words hold several flipped bits.
        rng = np.random.default_rng(11)
        n = 3000 + 5
        enroll = noisy_samples(rng, n, 4, 0.3)
        base = enroll[0].bits
        test = {kind: [BitVector(base ^ (rng.random(n) < rate)) for _ in range(133)]
                for kind, rate in (("NTNA", 0.001), ("HOT", 0.5))}
        thresholds = (3, 1, 2)
        report = threshold_sweep(enroll, test, thresholds=thresholds, block_size=601)
        got = [(r.condition, r.threshold, r.block_index, r.selected_count, r.max_flips,
                r.samples_zero_flips, r.samples_one_flip, r.samples_multi_flips)
               for r in report]
        assert got == oracle_threshold_sweep(enroll, test, thresholds, 601)


class TestApplyMaskPacked:
    @pytest.mark.parametrize("base_offset", [0, 37])
    def test_matches_oracle(self, base_offset):
        rng = np.random.default_rng(base_offset)
        positions = np.sort(rng.choice(1001, size=128, replace=False))
        mask = Mask(device_id="x", positions=positions, threshold=1, sample_count=2,
                    base_offset=base_offset, window_length=1001)
        for n in (base_offset + 1001, 4000):
            raw = BitVector(rng.integers(0, 2, n, dtype=np.uint8))
            assert apply_mask(raw, mask) == oracle_apply_mask(raw, mask)

    def test_gather_index_is_computed_once(self):
        mask = Mask(device_id="x", positions=np.arange(128) * 3, threshold=1, sample_count=2,
                    base_offset=37, window_length=384)
        assert mask.packed_index is mask.packed_index
        byte, bit = mask.packed_index
        assert np.array_equal(8 * byte + np.log2(bit), 37 + mask.positions)
        assert not byte.flags.writeable and not bit.flags.writeable


class TestCellProbabilityCache:
    def test_cached_per_condition_latest_only(self):
        cal = Calibration()
        device = new_device(4, num_bits=4000, calibration=cal)
        ntna = device.prob_one(cal.condition("NTNA"))
        assert device.prob_one(cal.condition("NTNA")) is ntna
        assert not ntna.flags.writeable
        htna = device.prob_one(cal.condition("HTNA"))
        assert htna is not ntna and not np.array_equal(htna, ntna)
        assert list(device._prob_one) == [cal.condition("HTNA")]   # one condition kept
        assert np.array_equal(device.prob_one(cal.condition("NTNA")), ntna)

    def test_interleaved_lone_readings_match_collected(self):
        cal = Calibration()
        device = new_device(4, num_bits=4000, calibration=cal)
        kinds = ("NTNA", "NTWA", "HTNA", "NTNA")
        lone = [power_up_sample(device, cal.condition(kind), 30 + i)
                for i, kind in enumerate(kinds)]
        fresh = new_device(4, num_bits=4000, calibration=cal)
        for i, (kind, reading) in enumerate(zip(kinds, lone)):
            collected = collect_samples(fresh, cal.condition(kind), 1, seed0=30 + i)[0]
            assert np.array_equal(reading.packed, collected.packed)


@pytest.fixture(scope="module")
def full_device():
    device = new_device(7)
    return device, device.calibration.condition("NTNA")


@pytest.fixture(scope="module")
def lone_readings(full_device):
    """seed0 -> the 300 lone readings at seeds seed0, seed0+1, ..."""
    device, cond = full_device
    return {seed0: [power_up_sample(device, cond, seed0 + k).packed for k in range(300)]
            for seed0 in (0, 4, 50_000)}


def use_cpus(monkeypatch, cpus: int) -> list[int]:
    """Make the sampler see ``cpus`` usable CPUs; returns the worker count of
    every thread pool it then opens."""
    pools = []

    class RecordingPool(simulate.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(simulate, "ThreadPoolExecutor", RecordingPool)
    return pools


def refuse_threads(monkeypatch):
    def start(thread):
        raise AssertionError("the sampler started a thread")

    monkeypatch.setattr(threading.Thread, "start", start)


class TestThreadedSampler:
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_same_bytes_in_seed_order_at_any_worker_count(
            self, monkeypatch, full_device, lone_readings, cpus):
        device, cond = full_device
        pools = use_cpus(monkeypatch, cpus)
        for seed0, lone in lone_readings.items():
            for n in (1, 2, 3, 7, 300):
                readings = collect_samples(device, cond, n, seed0)
                assert len(readings) == n
                for k, reading in enumerate(readings):
                    assert np.array_equal(reading.packed, lone[k]), (seed0, n, k)
                    assert len(reading) == 120_000
                    assert owned_bytes(reading) <= 15_000
            # neighbouring readings differ, so a reordering could not pass unseen
            assert not any(np.array_equal(a, b) for a, b in zip(lone, lone[1:]))
        threaded = [min(cpus, n) for n in (1, 2, 3, 7, 300) if min(cpus, n) > 1]
        assert pools == threaded * len(lone_readings)

    def test_more_workers_than_cores_with_fast_switching(
            self, monkeypatch, full_device, lone_readings):
        # workers share the device's probabilities and the stream key; eight
        # of them switching every microsecond must still draw the same bytes
        device, cond = full_device
        pools = use_cpus(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            readings = collect_samples(device, cond, 64, seed0=4)
        finally:
            sys.setswitchinterval(interval)
        assert pools == [8] and len(readings) == 64
        for k, reading in enumerate(readings):
            assert np.array_equal(reading.packed, lone_readings[4][k]), k

    def test_lone_and_single_cpu_readings_start_no_thread(self, monkeypatch, full_device):
        device, cond = full_device
        use_cpus(monkeypatch, 4)
        refuse_threads(monkeypatch)
        power_up_sample(device, cond, 3)
        collect_samples(device, cond, 1, seed0=3)
        use_cpus(monkeypatch, 1)
        collect_samples(device, cond, 300)

    def test_bad_seed0_refused_before_any_thread(self, monkeypatch, full_device):
        device, cond = full_device
        use_cpus(monkeypatch, 2)
        refuse_threads(monkeypatch)
        with pytest.raises(ValueError, match=r"^seed0 must be >= 0$"):
            collect_samples(device, cond, 5, seed0=-1)

    def test_worker_error_reaches_the_caller_unchanged(self, monkeypatch, full_device):
        device, cond = full_device
        pools = use_cpus(monkeypatch, 3)
        before = set(threading.enumerate())
        boom = RuntimeError("no reading at seed 5")
        default_rng = np.random.default_rng

        def failing_rng(seed):
            if seed[-1] == 5:
                raise boom
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", failing_rng)
        with pytest.raises(RuntimeError) as caught:
            collect_samples(device, cond, 7)
        assert caught.value is boom
        assert pools == [3]
        assert set(threading.enumerate()) == before

    def test_usable_cpus_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert simulate._usable_cpus() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert simulate._usable_cpus() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert simulate._usable_cpus() == 1
