import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srampuf.bitvec import BitVector
from srampuf.enroll import (
    InsufficientStableBitsError,
    Mask,
    build_mask,
    load_mask,
    mark_stability,
    mask_fingerprint,
    mask_from_text,
    mask_to_text,
    save_mask,
    weight_positions,
)
from srampuf.simulate import Calibration, collect_samples, new_device
from srampuf._kv import TextFormatError

from _oracles import from01 as bv, oracle_weights


def stability(pattern: str) -> np.ndarray:
    return np.array([c == "S" for c in pattern])


class TestMarkStability:
    def test_identical_samples_all_stable(self):
        marks = mark_stability([bv("0110")] * 5)
        assert marks.all() and marks.shape == (4,)

    def test_alternating_position_unstable(self):
        samples = [bv("0100"), bv("0000"), bv("0100"), bv("0000")]
        assert list(mark_stability(samples)) == [True, False, True, True]

    def test_hand_checked_three_samples(self):
        marks = mark_stability([bv("0110"), bv("0100"), bv("0110")])
        assert list(marks) == [True, True, False, True]

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="at least 2"):
            mark_stability([bv("0110")])

    def test_unequal_lengths(self):
        with pytest.raises(ValueError, match="same length"):
            mark_stability([bv("01"), bv("011")])

    def test_marks_are_read_only(self):
        marks = mark_stability([bv("0110"), bv("0100")])
        with pytest.raises(ValueError, match="read-only"):
            marks[0] = False


class TestWeights:
    def test_odd_run_peaks_in_middle(self):
        assert list(weight_positions(stability("SSSSS"))) == [1, 2, 3, 2, 1]

    def test_even_run_has_flat_middle(self):
        assert list(weight_positions(stability("SSSS"))) == [1, 2, 2, 1]

    def test_isolated_position(self):
        assert list(weight_positions(stability("USU"))) == [0, 1, 0]

    def test_all_unstable(self):
        assert list(weight_positions(stability("UUUU"))) == [0, 0, 0, 0]

    def test_mixed_runs(self):
        # runs of lengths 2, 5, and 1
        got = weight_positions(stability("SSUSSSSSUS"))
        assert list(got) == [1, 1, 0, 1, 2, 3, 2, 1, 0, 1]

    def test_weights_are_read_only(self):
        weights = weight_positions(stability("SSS"))
        with pytest.raises(ValueError, match="read-only"):
            weights[1] = 0

    def test_rows_match_oracle_with_runs_across_edges(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            shape = (int(rng.integers(2, 9)), int(rng.integers(8, 200)))
            stable = rng.random(shape) < rng.uniform(0.5, 0.95)
            stable[:, :3] = stable[:, -3:] = True  # a stable run crosses every row edge
            got = weight_positions(stable)
            assert got.shape == shape
            for row, marks in zip(got, stable):
                assert np.array_equal(row, oracle_weights(marks))
            assert not np.array_equal(got.ravel(), oracle_weights(stable.ravel()))

    @pytest.mark.parametrize("rows", [
        [], ["S"], ["U"], ["S", "U", "S"], ["SSSS", "SSSS"], ["UUUU", "UUUU"],
        ["SSSS", "UUUU", "SUSS"], ["", "", ""],
    ])
    def test_edge_shapes_match_oracle_row_by_row(self, rows):
        width = len(rows[0]) if rows else 5
        stable = np.array([stability(r) for r in rows], dtype=bool).reshape(len(rows), width)
        got = weight_positions(stable)
        assert got.shape == stable.shape and got.dtype == np.int64
        assert not got.flags.writeable
        for row, marks in zip(got, stable, strict=True):
            assert np.array_equal(row, oracle_weights(marks))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.booleans(), min_size=0, max_size=200))
    def test_matches_boundary_distance_oracle(self, marks):
        stable = np.array(marks, dtype=bool)
        got = weight_positions(stable)
        assert np.array_equal(got, oracle_weights(stable))


class TestSelectPositions:
    """Selection keeps the positions whose weight reaches the threshold."""

    def test_direct_filter(self):
        # one window: the mask is its first 128 positions of weight >= 4
        rng = np.random.default_rng(23)
        stable = rng.random(1216) < 0.9
        base = rng.integers(0, 2, 1216, dtype=np.uint8)
        mask = build_mask([BitVector(base), BitVector(base ^ ~stable)], threshold=4)
        assert np.array_equal(mask.positions, np.flatnonzero(oracle_weights(stable) >= 4)[:128])

    def test_all_stable_window_at_one(self):
        marks = np.ones(1216, dtype=bool)
        assert np.count_nonzero(weight_positions(marks) >= 1) == 1216

    def test_threshold_validation(self):
        samples = [BitVector(np.ones(2432, dtype=np.uint8))] * 2
        with pytest.raises(ValueError, match="^threshold must be >= 1$"):
            build_mask(samples, threshold=0)

    def test_counts_non_increasing_in_threshold(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            stable = rng.random(500) < rng.uniform(0.2, 0.9)
            weights = weight_positions(stable)
            counts = [np.count_nonzero(weights >= t) for t in range(1, 8)]
            assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_selection_soundness(self):
        rng = np.random.default_rng(21)
        stable = rng.random(2000) < 0.75
        weights = weight_positions(stable)
        for t in (2, 3, 4):
            for p in np.flatnonzero(weights >= t):
                lo, hi = max(0, p - (t - 1)), min(stable.size, p + t)
                assert stable[lo:hi].all()


def two_identical(vectors):
    return [vectors, vectors]


class TestBuildMask:
    def test_unequal_lengths_raise(self):
        samples = [BitVector(np.ones(2432, dtype=np.uint8)), BitVector(np.ones(1216, dtype=np.uint8))]
        for ordered in (samples, samples[::-1]):
            with pytest.raises(ValueError, match="same length"):
                build_mask(ordered, threshold=1)

    def test_no_samples_rejected(self):
        with pytest.raises(ValueError, match="^no samples provided$"):
            build_mask([], threshold=1)

    @pytest.mark.parametrize("window_length", [0, -1216])
    def test_window_length_below_one_rejected(self, window_length):
        samples = [BitVector(np.ones(2432, dtype=np.uint8))] * 2
        with pytest.raises(ValueError, match="window_length must be >= 1"):
            build_mask(samples, threshold=1, window_length=window_length)

    def test_single_window_truncates_to_target(self):
        samples = [BitVector(np.ones(1216, dtype=np.uint8))] * 2
        mask = build_mask(samples, threshold=1)
        assert list(mask.positions) == list(range(128))
        assert mask.num_windows == 1

    def test_all_stable_window_at_threshold_four(self):
        samples = [BitVector(np.zeros(1216, dtype=np.uint8))] * 3
        mask = build_mask(samples, threshold=4)
        assert list(mask.positions) == list(range(3, 131))

    def test_spill_over_between_windows(self):
        # window 0 yields 100 stable positions, window 1 yields 60; at
        # threshold 1 the mask is window 0's 100 plus window 1's first 28
        rng = np.random.default_rng(22)
        stable = np.zeros(2432, dtype=bool)
        first = np.sort(rng.choice(1216, size=100, replace=False))
        second = np.sort(rng.choice(1216, size=60, replace=False))
        stable[first] = True
        stable[1216 + second] = True
        base = rng.integers(0, 2, 2432, dtype=np.uint8)
        flipped = base.copy()
        flipped[~stable] ^= 1
        mask = build_mask([BitVector(base), BitVector(flipped)], threshold=1)
        expected = np.concatenate([first, 1216 + second[:28]])
        assert np.array_equal(mask.positions, expected)
        assert mask.num_windows == 2

    def test_insufficient_reports_per_window_counts(self):
        samples = [BitVector(np.zeros(2432, dtype=np.uint8)),
                   BitVector(np.arange(2432) % 2)]  # alternating: no stable runs > 1
        with pytest.raises(InsufficientStableBitsError) as exc:
            build_mask(samples, threshold=2)
        err = exc.value
        assert err.needed == 128 and err.collected == 0
        assert err.window_counts == [0, 0]
        assert "window 1" in str(err)

    def test_no_full_window(self):
        samples = [BitVector(np.zeros(100, dtype=np.uint8))] * 2
        with pytest.raises(ValueError, match="no full"):
            build_mask(samples, threshold=1)

    @pytest.mark.parametrize("base_offset", [-1, -1216])
    def test_negative_base_offset_names_key(self, base_offset):
        # it used to pass on to mark_stability, whose refusal names a window
        samples = [BitVector(np.zeros(2432, dtype=np.uint8))] * 2
        with pytest.raises(ValueError, match="^base_offset must be >= 0$"):
            build_mask(samples, threshold=1, base_offset=base_offset)

    def test_base_offset_respected(self):
        samples = [BitVector(np.zeros(2500, dtype=np.uint8))] * 2
        mask = build_mask(samples, threshold=4, base_offset=64)
        assert mask.base_offset == 64
        assert list(mask.positions) == list(range(3, 131))

    def test_noiseless_reenrollment_is_stable(self):
        cal = Calibration(unstable_fraction=0.0)
        device = new_device(31, num_bits=2432, calibration=cal)
        cond = cal.condition("NTNA")
        first = build_mask(collect_samples(device, cond, 5, seed0=0), threshold=4)
        second = build_mask(collect_samples(device, cond, 5, seed0=90_000), threshold=4)
        assert np.array_equal(first.positions, second.positions)


class TestMaskFile:
    def make_mask(self, seed=23):
        rng = np.random.default_rng(seed)
        positions = np.sort(rng.choice(2432, size=128, replace=False))
        return Mask(device_id=f"dev-{seed}", positions=positions, threshold=4,
                    sample_count=300, base_offset=0, window_length=1216, num_windows=2)

    def test_text_round_trip(self):
        mask = self.make_mask()
        text = mask_to_text(mask)
        assert mask_to_text(mask_from_text(text)) == text

    def test_file_round_trip_bytes(self, tmp_path):
        mask = self.make_mask()
        path = tmp_path / "a.mask"
        save_mask(path, mask)
        save_mask(tmp_path / "b.mask", load_mask(path))
        assert (tmp_path / "b.mask").read_bytes() == path.read_bytes()

    def test_fast_path_agrees_with_parser(self):
        mask = self.make_mask()
        text = mask_to_text(mask)
        fast = mask_from_text(text)
        assert fast.fingerprint == hashlib.sha256(text.encode()).hexdigest() == mask.fingerprint
        assert mask_to_text(fast) == text

    # Text the writer does not write reads to the same mask; the fingerprint
    # is still that of the canonical text, never of the text read.
    @pytest.mark.parametrize("form", [
        lambda t: "# kept by hand\n" + t,
        lambda t: t.replace(" = ", "  =\t"),
        lambda t: t + "\n",
        lambda t: t.replace("threshold = 4", "threshold = 04"),
        lambda t: t.replace("positions = ", "positions = 0"),
        lambda t: t.replace("sample_count = 300", "sample_count = +300"),
    ], ids=["comment", "spaced-equals", "trailing-blank-line", "leading-zero", "zero-padded-position",
            "plus-sign"])
    def test_other_forms_read_with_the_canonical_fingerprint(self, form):
        mask = self.make_mask()
        text = form(mask_to_text(mask))
        read = mask_from_text(text)
        assert read.fingerprint == mask_fingerprint(mask) != hashlib.sha256(text.encode()).hexdigest()
        assert read.positions.tolist() == mask.positions.tolist()

    def test_fingerprint_tracks_content(self):
        a, b = self.make_mask(1), self.make_mask(2)
        assert mask_fingerprint(a) != mask_fingerprint(b)
        assert mask_fingerprint(a) == mask_fingerprint(self.make_mask(1))

    def test_equal_masks_compare_equal(self):
        a, b = self.make_mask(), self.make_mask()
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b)
        assert mask_from_text(mask_to_text(a)) == a
        assert a != mask_to_text(a)

    @pytest.mark.parametrize("field, value", [
        ("device_id", "dev-other"), ("threshold", 5), ("sample_count", 299),
        ("base_offset", 1), ("window_length", 1217), ("num_windows", 3),
    ])
    def test_any_field_change_makes_masks_unequal(self, field, value):
        mask = self.make_mask()
        assert dataclasses.replace(mask, **{field: value}) != mask

    def test_position_change_makes_masks_unequal(self):
        mask = self.make_mask()
        moved = mask.positions.copy()
        moved[-1] += 1 if moved[-1] + 1 < 2432 else -1
        assert moved[-1] not in mask.positions[:-1]
        assert dataclasses.replace(mask, positions=np.sort(moved)) != mask

    def test_mask_is_a_set_member(self):
        a, b, other = self.make_mask(), self.make_mask(), self.make_mask(2)
        masks = {a, b, other}
        assert len(masks) == 2
        assert self.make_mask() in masks and self.make_mask(3) not in masks

    def test_mask_owns_its_positions(self):
        base = np.arange(0, 30, 3, dtype=np.int64)
        view = base[2:8]
        mask = Mask(device_id="x", positions=view, threshold=1, sample_count=2,
                    num_windows=1)
        text, fingerprint = mask_to_text(mask), mask_fingerprint(mask)
        assert view.flags.writeable and base.flags.writeable
        assert not mask.positions.flags.writeable
        base[2] = 1
        view[-1] = 0
        assert mask.positions.tolist() == [6, 9, 12, 15, 18, 21]
        assert mask_to_text(mask) == text
        assert mask_fingerprint(mask_from_text(text)) == fingerprint

    def test_rejects_position_count_mismatch(self):
        text = mask_to_text(self.make_mask())
        with pytest.raises(TextFormatError, match="target_len"):
            mask_from_text(text.replace("target_len = 128", "target_len = 127"))

    # An empty item used to be skipped, so these read as three positions.
    @pytest.mark.parametrize("positions", ["10,,20,30", ",10,20,30", "10,20,30,"])
    def test_rejects_empty_position_item(self, positions):
        text = mask_to_text(Mask(device_id="x", positions=np.array([10, 20, 30]), threshold=1,
                                 sample_count=2))
        refusal = "^mask: positions must be comma-separated integers$"
        with pytest.raises(TextFormatError, match=refusal):
            mask_from_text(text.replace("positions = 10,20,30", f"positions = {positions}"))

    def test_empty_positions_value_is_no_positions(self):
        mask = Mask(device_id="x", positions=np.array([], dtype=np.int64), threshold=1,
                    sample_count=2)
        text = mask_to_text(mask)
        assert "positions = \n" in text and "target_len = 0\n" in text
        read = mask_from_text(text)
        assert read.positions.size == 0 and read == mask

    def test_rejects_unsorted_positions(self):
        with pytest.raises(ValueError, match="ascending"):
            Mask(device_id="x", positions=np.array([5, 4]), threshold=1,
                 sample_count=2, num_windows=1)

    def test_rejects_out_of_window_positions(self):
        with pytest.raises(ValueError, match="exceed"):
            Mask(device_id="x", positions=np.array([1300]), threshold=1,
                 sample_count=2, window_length=1216, num_windows=1)

    # A negative base_offset used to load and make apply_mask read bits
    # wrapped from the end of the dump.
    OUT_OF_RANGE = [("base_offset", -4000), ("base_offset", -1), ("threshold", -3),
                    ("threshold", 0), ("sample_count", -1), ("sample_count", 1),
                    ("window_length", 0), ("num_windows", 0),
                    # each field fits in 64 bits, the last enrolled bit's index does not
                    ("base_offset", 2**63 - 1), ("num_windows", 2**62)]

    @pytest.mark.parametrize("key, value", OUT_OF_RANGE)
    def test_rejects_out_of_range_field(self, key, value):
        fields = dict(device_id="x", positions=np.array([3]), threshold=1, sample_count=2,
                      base_offset=0, window_length=1216, num_windows=1)
        with pytest.raises(ValueError, match=key):
            Mask(**{**fields, key: value})

    @pytest.mark.parametrize("key, value", OUT_OF_RANGE)
    def test_text_rejects_out_of_range_field(self, key, value):
        lines = mask_to_text(self.make_mask()).splitlines(keepends=True)
        bad = "".join(f"{key} = {value}\n" if line.startswith(f"{key} = ") else line
                      for line in lines)
        with pytest.raises(TextFormatError, match=key):
            mask_from_text(bad)
