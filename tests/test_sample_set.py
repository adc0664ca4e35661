"""A run of readings from the sampler is one packed matrix (SampleSet) that
still reads as a sequence of BitVector; every report gives the same result
for the set as for the same readings in a plain list, and refuses a list of
readings of differing lengths."""

import numpy as np
import pytest

from srampuf import simulate
from srampuf.analytics import block_stability, flip_rate_summary, threshold_sweep, window_flip_rate
from srampuf.bitvec import BitVector, SampleSet
from srampuf.enroll import (InsufficientStableBitsError, build_mask, distance_to_unstable,
                            mark_stability)
from srampuf.keygen import apply_mask
from srampuf.simulate import Calibration, collect_samples, new_device, power_up_sample

NUM_BITS = 5_003        # not a multiple of 8, so the last byte holds pad bits
SEED0 = {"NTNA": 700, "HTNA": 800, "NTWA": 900}


@pytest.fixture(scope="module")
def device():
    return new_device(19, num_bits=NUM_BITS)


@pytest.fixture(scope="module")
def enroll_set(device):
    return collect_samples(device, device.calibration.condition("NTNA"), 40, seed0=5)


@pytest.fixture(scope="module")
def test_sets(device):
    return {kind: collect_samples(device, device.calibration.condition(kind), 24, seed0=seed0)
            for kind, seed0 in SEED0.items()}


def same_bits(a: BitVector, b: BitVector) -> bool:
    return len(a) == len(b) and np.array_equal(a.packed, b.packed)


def lengthened(readings, rng) -> list[BitVector]:
    """The readings with random bits appended to every other one: a test list
    of mixed lengths whose first NUM_BITS bits are those of the readings."""
    return [BitVector(np.concatenate([r.bits, rng.integers(0, 2, 11 + k, dtype=np.uint8)]))
            if k % 2 else r for k, r in enumerate(readings)]


def one_bit_longer(readings) -> list[BitVector]:
    """The readings with a 0 appended to the second: a list of mixed lengths
    whose packed rows still hold the same number of bytes."""
    readings = list(readings)
    readings[1] = BitVector(np.append(readings[1].bits, 0))
    return readings


class TestSampleSetContract:
    def test_is_a_sample_set_of_one_matrix(self, enroll_set):
        assert isinstance(enroll_set, SampleSet)
        assert enroll_set.packed.shape == (40, -(-NUM_BITS // 8))
        assert enroll_set.packed.dtype == np.uint8
        assert len(enroll_set) == 40 and enroll_set.length == NUM_BITS

    def test_index_and_negative_index(self, enroll_set):
        assert same_bits(enroll_set[0], BitVector.from_packed(enroll_set.packed[0], NUM_BITS))
        assert same_bits(enroll_set[-1], enroll_set[39])
        assert same_bits(enroll_set[-40], enroll_set[0])
        assert len(enroll_set[7]) == NUM_BITS

    @pytest.mark.parametrize("index", [40, -41, 10**6])
    def test_out_of_range_index_is_an_index_error(self, enroll_set, index):
        with pytest.raises(IndexError):
            enroll_set[index]

    def test_slice_is_a_sample_set_over_the_same_matrix(self, enroll_set):
        part = enroll_set[3:9:2]
        assert isinstance(part, SampleSet) and len(part) == 3 and part.length == NUM_BITS
        assert np.shares_memory(part.packed, enroll_set.packed)
        assert all(same_bits(a, enroll_set[k]) for a, k in zip(part, (3, 5, 7)))

    def test_iteration_addition_and_unpacking(self, enroll_set):
        readings = list(enroll_set)
        assert len(readings) == 40
        assert all(same_bits(r, enroll_set[k]) for k, r in enumerate(readings))
        extra = [enroll_set[0]]
        joined = enroll_set + extra
        assert type(joined) is list and len(joined) == 41 and joined[-1] is extra[0]
        assert all(same_bits(a, b) for a, b in zip(joined, readings))
        first, second, *rest = enroll_set[:4]
        assert same_bits(first, enroll_set[0]) and same_bits(second, enroll_set[1])
        assert len(rest) == 2

    def test_matrix_and_readings_are_read_only(self, enroll_set):
        assert not enroll_set.packed.flags.writeable
        with pytest.raises(ValueError):
            enroll_set.packed[0, 0] = 1
        assert not enroll_set[0].packed.flags.writeable
        assert not enroll_set.unstable.flags.writeable
        with pytest.raises(AttributeError):
            enroll_set.length = 8

    def test_reading_does_not_keep_the_matrix_alive(self, enroll_set):
        for reading in (enroll_set[0], next(iter(enroll_set))):
            assert reading.packed.base is None
            assert reading.packed.nbytes == -(-NUM_BITS // 8)

    def test_row_k_is_the_lone_reading_at_seed0_plus_k(self, device, enroll_set):
        cond = device.calibration.condition("NTNA")
        for k in (0, 1, 17, 39):
            assert np.array_equal(enroll_set.packed[k], power_up_sample(device, cond, 5 + k).packed)

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_bytes_do_not_depend_on_the_thread_count(self, monkeypatch, device, enroll_set, cpus):
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)
        again = collect_samples(device, device.calibration.condition("NTNA"), 40, seed0=5)
        assert np.array_equal(again.packed, enroll_set.packed)

    def test_unstable_map_is_computed_once(self, enroll_set):
        assert enroll_set.unstable is enroll_set.unstable
        differs = np.zeros(NUM_BITS, dtype=bool)
        for reading in enroll_set:
            differs |= reading.bits != enroll_set[0].bits
        assert np.array_equal(np.unpackbits(enroll_set.unstable, count=NUM_BITS,
                                            bitorder="little").astype(bool), differs)


class TestSetAndListAgree:
    @pytest.mark.parametrize("window", [None, range(0, 5003), range(3, 4), range(5, 1221),
                                        range(1001, 4999), range(4997, 5003), range(9, 9)])
    def test_mark_stability(self, enroll_set, window):
        part = slice(None) if window is None else slice(window.start, window.stop)
        assert np.array_equal(mark_stability(enroll_set)[part],
                              mark_stability(list(enroll_set))[part])

    @pytest.mark.parametrize("base_offset", [0, 13, 333])
    def test_build_mask(self, enroll_set, base_offset):
        for threshold in (1, 2, 3, 4):
            results = []
            for samples in (enroll_set, list(enroll_set)):
                try:
                    results.append(build_mask(samples, threshold, window_length=301,
                                              base_offset=base_offset, device_id="d"))
                except InsufficientStableBitsError as exc:
                    results.append(exc.window_counts)
            assert results[0] == results[1], threshold

    @pytest.mark.parametrize("block_size", [1216, 301, 7])
    def test_block_stability(self, enroll_set, block_size):
        assert (block_stability(enroll_set, block_size)
                == block_stability(list(enroll_set), block_size))

    def test_threshold_sweep_with_test_lists_of_mixed_lengths(self, enroll_set, test_sets):
        rng = np.random.default_rng(3)
        mixed = {kind: lengthened(samples, rng) for kind, samples in test_sets.items()}
        for block_size in (1216, 301):
            with pytest.raises(ValueError, match="^samples must all have the same length$"):
                threshold_sweep(list(enroll_set), mixed, block_size=block_size)

    def test_flip_rate_summary_with_test_lists_of_mixed_lengths(self, enroll_set, test_sets):
        rng = np.random.default_rng(4)
        mask = build_mask(enroll_set, 1, window_length=301, base_offset=13)
        reference = apply_mask(enroll_set[0], mask)
        mixed = {kind: lengthened(samples, rng) for kind, samples in test_sets.items()}
        with pytest.raises(ValueError, match="^samples must all have the same length$"):
            flip_rate_summary(mask, reference, mixed)

    def test_window_flip_rate(self, enroll_set):
        assert window_flip_rate(enroll_set) == window_flip_rate(list(enroll_set)) > 0

    def test_noiseless_set_has_an_empty_unstable_map(self):
        cal = Calibration(unstable_fraction=0.0)
        quiet = new_device(2, num_bits=2432, calibration=cal)
        samples = collect_samples(quiet, cal.condition("NTWA"), 3)
        assert window_flip_rate(samples) == 0.0
        assert not samples.unstable.any()


def summary_of(test, samples):
    mask = build_mask(samples, 1)
    return flip_rate_summary(mask, apply_mask(samples[0], mask), {"NTNA": test})


# Each stability pass given a list of mixed lengths, by the argument the list fills
MIXED_LENGTH_CALLS = {
    "mark_stability": lambda mixed, s: mark_stability(mixed),
    "build_mask": lambda mixed, s: build_mask(mixed, 1, window_length=301),
    "block_stability": lambda mixed, s: block_stability(mixed, 301),
    "threshold_sweep-enroll": lambda mixed, s: threshold_sweep(mixed, {"NTNA": s}),
    "threshold_sweep-test": lambda mixed, s: threshold_sweep(s, {"NTNA": mixed}),
    "flip_rate_summary": summary_of,
    "window_flip_rate": lambda mixed, s: window_flip_rate(mixed),
}


class TestSampleSetOf:
    def test_a_set_is_returned_unchanged(self, enroll_set):
        assert SampleSet.of(enroll_set) is enroll_set

    def test_a_list_is_stacked_into_the_same_matrix(self, enroll_set):
        stacked = SampleSet.of(list(enroll_set))
        assert stacked.length == NUM_BITS
        assert np.array_equal(stacked.packed, enroll_set.packed)

    @pytest.mark.parametrize("call", MIXED_LENGTH_CALLS.values(), ids=list(MIXED_LENGTH_CALLS))
    def test_mixed_lengths_are_refused_by_length(self, enroll_set, call):
        # Rows of 5,003 and 5,004 bits pack to the same byte count, so only
        # the length check can tell them apart.
        with pytest.raises(ValueError, match="^samples must all have the same length$"):
            call(one_bit_longer(enroll_set), enroll_set)


class TestDistanceToUnstable:
    def test_no_unstable_cell_is_2_to_the_30_away(self):
        distance = distance_to_unstable(np.zeros(4, dtype=bool))
        assert distance.dtype == np.int64
        assert distance.tolist() == [2**30, 2**30 - 1, 2**30 - 2, 2**30 - 3]

    def test_one_sided_runs_are_exact(self):
        unstable = np.array([0, 0, 1, 0, 0, 0], dtype=bool)
        assert distance_to_unstable(unstable).tolist() == [2, 1, 0, 1, 2, 3]
        assert distance_to_unstable(np.zeros(0, dtype=bool)).dtype == np.int64
