import dataclasses
import itertools
import re
import tracemalloc

import numpy as np
import pytest

from srampuf.analytics import (
    SweepRow,
    block_reports_to_csv,
    block_stability,
    flip_rate_summary,
    sweep_to_csv,
    threshold_sweep,
    window_flip_rate,
)
from srampuf.bitvec import BitVector, save_dump
from srampuf.cli import EXIT_OK, main
from srampuf.enroll import InsufficientStableBitsError, build_mask
from srampuf.fuzzy import N
from srampuf.keygen import apply_mask

from _oracles import oracle_sweep_to_csv, oracle_weights, random_bits

CONDITIONS = ("NTNA", "HTNA", "NTWA")


@pytest.fixture(scope="module")
def default_mask(enrolled_device):
    return build_mask(enrolled_device["enroll"], threshold=4,
                      device_id=enrolled_device["device"].device_id)


class TestBlockStability:
    def test_identical_samples(self):
        samples = [random_bits(np.random.default_rng(0), 2432)] * 3
        reports = block_stability(samples)
        assert [r.stable_fraction for r in reports] == [1.0, 1.0]

    def test_full_size_gives_98_blocks(self, enrolled_device, tmp_path, capsys):
        reports = block_stability(enrolled_device["enroll"])
        assert len(reports) == 98
        for i, sample in enumerate(enrolled_device["enroll"][:2]):
            save_dump(tmp_path / f"sample-{i}.hex", sample)
        assert main(["stats", "--dumps", str(tmp_path)]) == EXIT_OK
        captured = capsys.readouterr()
        assert len(captured.out.strip().splitlines()) == 1 + 98
        assert "note: 832 trailing bits did not fill a block" in captured.err

    def test_fractions_concentrate_in_band(self, enrolled_device):
        fractions = np.array([r.stable_fraction for r in block_stability(enrolled_device["enroll"])])
        assert np.mean((fractions >= 0.72) & (fractions <= 0.78)) >= 0.90

    def test_counts_add_up(self):
        rng = np.random.default_rng(1)
        samples = [random_bits(rng, 3000), random_bits(rng, 3000)]
        for report in block_stability(samples, block_size=1216):
            assert report.stable_count + report.unstable_count == 1216

    def test_needs_samples(self):
        with pytest.raises(ValueError):
            block_stability([random_bits(np.random.default_rng(2), 100)])

    @pytest.mark.parametrize("block_size, message", [(0, "block size must be >= 1"),
                                                     (-5, "block size must be >= 1"),
                                                     (2433, "hold no full 2433-bit block")])
    def test_needs_a_full_block(self, block_size, message):
        samples = [random_bits(np.random.default_rng(2), 2432)] * 2
        with pytest.raises(ValueError, match=message):
            block_stability(samples, block_size=block_size)
        with pytest.raises(ValueError, match=message):
            threshold_sweep(samples, {"NTNA": samples}, block_size=block_size)

    def test_csv(self):
        samples = [random_bits(np.random.default_rng(3), 2432)] * 2
        text = block_reports_to_csv(block_stability(samples))
        lines = text.strip().splitlines()
        assert lines[0] == "block_index,stable_count,unstable_count,stable_fraction"
        assert len(lines) == 3


class TestThresholdSweep:
    def test_noiseless_zero_flips(self):
        rng = np.random.default_rng(4)
        fixed = random_bits(rng, 2432)
        rows = threshold_sweep([fixed, fixed], {"NTNA": [fixed, fixed, fixed]})
        assert all(r.max_flips == 0 and r.samples_zero_flips == 3 for r in rows)

    def test_default_device_is_single_flip_at_high_thresholds(self, default_sweep):
        assert all(r.max_flips <= 1 for r in default_sweep if r.threshold in (4, 5))

    def test_low_thresholds_admit_double_flips_when_aged(self, default_sweep):
        assert any(r.max_flips >= 2 for r in default_sweep
                   if r.threshold in (1, 2) and r.condition == "NTWA")

    def test_selected_counts_non_increasing_per_block(self, default_sweep):
        by_block: dict[tuple[str, int], dict[int, int]] = {}
        for row in default_sweep:
            by_block.setdefault((row.condition, row.block_index), {})[row.threshold] = row.selected_count
        for counts in by_block.values():
            ordered = [counts[t] for t in sorted(counts)]
            assert all(a >= b for a, b in zip(ordered, ordered[1:]))

    def test_max_flips_non_increasing_in_threshold(self, default_sweep):
        by_block: dict[tuple[str, int], dict[int, int]] = {}
        for row in default_sweep:
            by_block.setdefault((row.condition, row.block_index), {})[row.threshold] = row.max_flips
        for flips in by_block.values():
            ordered = [flips[t] for t in sorted(flips)]
            assert all(a >= b for a, b in zip(ordered, ordered[1:]))

    def test_percentages_account_for_every_sample(self, default_sweep):
        for row in default_sweep:
            assert row.samples_zero_flips + row.samples_one_flip + row.samples_multi_flips \
                == row.sample_count

    def test_csv_shape(self, default_sweep):
        lines = sweep_to_csv(default_sweep).strip().splitlines()
        assert lines[0].startswith("condition,threshold,block_index")
        assert len(lines) == 1 + 3 * 5 * 98

    @pytest.mark.parametrize("n", [1, 3, 7, 300])
    def test_csv_matches_per_row_oracle_for_every_count(self, n):
        # Every k <= n in each of the three percentage columns
        rows = [SweepRow("NTNA", 1, k, 0, 0, n, *counts) for k in range(n + 1)
                for counts in ((k, n - k, 0), (0, k, n - k), (n - k, 0, k))]
        assert sweep_to_csv(rows) == oracle_sweep_to_csv(rows)

    def test_csv_matches_per_row_oracle_for_mixed_sample_counts(self):
        rng = np.random.default_rng(9)
        rows = []
        for block in range(900):
            n = int(rng.choice([1, 3, 7, 25, 300]))
            low, high = sorted(rng.integers(0, n + 1, 2).tolist())
            rows.append(SweepRow(str(rng.choice(CONDITIONS)), int(rng.integers(1, 6)), block,
                                 int(rng.integers(0, 600)), int(rng.integers(0, 4)), n,
                                 low, high - low, n - high))
        assert sweep_to_csv(rows) == oracle_sweep_to_csv(rows)
        assert sweep_to_csv([]) == oracle_sweep_to_csv([])


class TestFlipRateSummary:
    def test_noiseless_is_zero(self):
        rng = np.random.default_rng(5)
        raw = random_bits(rng, 2432)
        mask = build_mask([raw, raw], threshold=4)
        reference = apply_mask(raw, mask)
        summary = flip_rate_summary(mask, reference, {"NTNA": [raw] * 5})
        assert summary["NTNA"].flipped_samples == 0
        assert summary["NTNA"].max_flips == 0

    def test_default_device_quiet_at_threshold_four(self, enrolled_device, default_mask):
        reference = apply_mask(enrolled_device["enroll"][0], default_mask)
        summary = flip_rate_summary(default_mask, reference, enrolled_device["test"])
        for condition in CONDITIONS:
            assert summary[condition].flipped_samples <= 0.03 * summary[condition].sample_count
            assert summary[condition].max_flips <= 1

    def test_refuses_what_apply_mask_refuses(self):
        rng = np.random.default_rng(7)
        raw = random_bits(rng, 2432)
        mask = build_mask([raw, raw], threshold=4)
        reference = apply_mask(raw, mask)
        short = BitVector(raw.bits[:mask.base_offset + int(mask.positions[-1])])
        with pytest.raises(ValueError, match="dump has .* bits but the mask needs"):
            flip_rate_summary(mask, reference, {"HTNA": [raw], "NTNA": [short, short]})
        narrow = dataclasses.replace(mask, positions=mask.positions[:127])
        with pytest.raises(ValueError, match="mask selects 127 positions"):
            flip_rate_summary(narrow, reference, {"NTNA": [raw]})

    def test_window_flip_rate_matches_calibration(self, enrolled_device):
        rate = window_flip_rate(enrolled_device["enroll"])
        assert abs(rate - 0.249) < 0.02

    def test_window_flip_rate_validation(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError):
            window_flip_rate([random_bits(rng, 10)])


READING = random_bits(np.random.default_rng(8), 2432)     # two full 1216-bit blocks
ONE_BLOCK = BitVector(READING.bits[:1216])


def summary_of_empty_condition():
    mask = build_mask([READING, READING], threshold=4)
    return flip_rate_summary(mask, apply_mask(READING, mask), {"HTNA": []})


# Each report's refusals, all ValueErrors: an IndexError here would mean a
# report read a sample before checking the count.
REPORT_REFUSALS = {
    "blocks-no-samples": (lambda: block_stability([]), "at least 2"),
    "sweep-no-samples": (lambda: threshold_sweep([], {}), "at least 2"),
    "flip-rate-one-sample": (lambda: window_flip_rate([READING]), "at least 2"),
    "sweep-threshold-0": (lambda: threshold_sweep([READING] * 2, {}, thresholds=(0,)),
                          "^threshold must be >= 1$"),
    "sweep-repeated-threshold": (lambda: threshold_sweep([READING] * 2, {}, thresholds=(2, 3, 2)),
                                 "^threshold 2 is given more than once$"),
    "sweep-empty-condition": (lambda: threshold_sweep([READING] * 2, {"HTNA": []}),
                              "^condition 'HTNA' has no test samples$"),
    "sweep-short-samples": (lambda: threshold_sweep([READING] * 2, {"NTWA": [ONE_BLOCK, ONE_BLOCK]}),
                            r"^condition 'NTWA' has samples shorter than the enrolled 2 block\(s\)$"),
    "summary-empty-condition": (summary_of_empty_condition,
                                "^condition 'HTNA' has no test samples$"),
    # sweep_to_csv could not write the name as one field
    "sweep-condition-name": (lambda: threshold_sweep([READING] * 2, {"A,B\nC": [READING]}),
                             r"^condition 'A,B\\nC' cannot be one CSV field: a name must be "
                             r"""non-empty printable ASCII without ',' or '"'$"""),
}


@pytest.mark.parametrize("report, message", REPORT_REFUSALS.values(), ids=list(REPORT_REFUSALS))
def test_report_refusal_is_a_value_error(report, message):
    with pytest.raises(ValueError, match=message):
        report()


@pytest.mark.parametrize("name", ["", "A,B", 'say "hot"', "HT\nNA", "HT\rNA", "HT\tNA",
                                  "\xe9t\xe9", "," + "x" * 10**5],
                         ids=["empty", "comma", "quote", "lf", "cr", "tab", "non-ascii", "long"])
def test_sweep_refuses_names_that_are_not_one_csv_field(name):
    shown = repr(name if len(name) <= 40 else name[:40] + "...")
    with pytest.raises(ValueError, match=f"^condition {re.escape(shown)} cannot be one CSV field"):
        threshold_sweep([READING] * 2, {"NTNA": [READING], name: [READING]})


def test_sweep_writes_any_other_printable_name_as_one_field():
    names = [" hot & aged ", "x" * 100, "'quoted'"]
    csv = sweep_to_csv(threshold_sweep([READING] * 2, {name: [READING] for name in names},
                                       thresholds=(1,)))
    rows = [line.split(",") for line in csv.splitlines()[1:]]
    assert {len(row) for row in rows} == {8}
    assert [row[0] for row in rows] == [name for name in sorted(names) for _ in range(2)]


class TestWindowEdgeReset:
    """Runs of stable cells end at window edges: marking and weighting many
    windows at once must match a window-by-window brute force built on the
    oracle. Seven windows fill build_mask's chunks of 1, 2 and 4 windows."""

    WINDOW = 96
    WINDOWS = 7
    OFFSET = 37

    def make_case(self, seed, tests=12):
        rng = np.random.default_rng(seed)
        n = self.OFFSET + self.WINDOWS * self.WINDOW + 29
        stable = rng.random(n) < rng.uniform(0.6, 0.95)
        for edge in range(0, n, self.WINDOW):           # sweep-block edges
            stable[max(0, edge - 6):edge + 6] = True
        for w in range(self.WINDOWS + 1):               # mask-window edges
            edge = self.OFFSET + w * self.WINDOW
            stable[edge - 6:edge + 6] = True
        base = rng.integers(0, 2, n, dtype=np.uint8)
        enroll = [BitVector(base), BitVector(base ^ ~stable)]
        enroll += [BitVector(base ^ (~stable & (rng.random(n) < 0.5))) for _ in range(2)]
        test = [BitVector(base ^ (rng.random(n) < rng.uniform(0.0, 0.04)))
                for _ in range(tests)]
        return stable, enroll, test

    def brute_weights(self, stable, start, count):
        return [oracle_weights(stable[start + w * self.WINDOW:start + (w + 1) * self.WINDOW])
                for w in range(count)]

    @pytest.mark.parametrize("seed", range(12))
    def test_build_mask_matches_per_window_oracle(self, seed):
        stable, enroll, _ = self.make_case(seed)
        weights = self.brute_weights(stable, self.OFFSET, self.WINDOWS)
        reached = 0
        for threshold in range(1, 9):
            per_window = [np.flatnonzero(w >= threshold) for w in weights]
            if sum(p.size for p in per_window) < N:
                with pytest.raises(InsufficientStableBitsError):
                    build_mask(enroll, threshold, window_length=self.WINDOW,
                               base_offset=self.OFFSET)
                continue
            collected, used = [], 0
            while sum(c.size for c in collected) < N:
                collected.append(per_window[used] + used * self.WINDOW)
                used += 1
            expected = np.concatenate(collected)[:N]
            mask = build_mask(enroll, threshold, window_length=self.WINDOW,
                              base_offset=self.OFFSET)
            assert np.array_equal(mask.positions, expected)
            assert mask.num_windows == used
            reached = max(reached, used)
        assert reached > 3          # some mask reached into the third chunk

    @pytest.mark.parametrize("seed", range(4))
    def test_short_mask_reports_every_window(self, seed):
        stable, enroll, _ = self.make_case(seed)
        weights = self.brute_weights(stable, self.OFFSET, self.WINDOWS)
        for threshold in itertools.count(1):    # the lowest threshold that falls short
            counts = [int(np.count_nonzero(w >= threshold)) for w in weights]
            if sum(counts) < N:
                break
        with pytest.raises(InsufficientStableBitsError) as exc:
            build_mask(enroll, threshold, window_length=self.WINDOW, base_offset=self.OFFSET)
        assert exc.value.window_counts == counts
        assert exc.value.collected == sum(counts)

    def sweep_rows(self, stable, enroll, test, thresholds):
        """The sweep's rows, in row order, counted block by block and sample
        by sample over the positions the per-window oracle weights select."""
        num_blocks = len(stable) // self.WINDOW
        weights = self.brute_weights(stable, 0, num_blocks)
        rows = []
        for condition in sorted(test):
            for t in thresholds:
                for b in range(num_blocks):
                    chosen = np.flatnonzero(weights[b] >= t) + b * self.WINDOW
                    reference = enroll[0].bits[chosen]
                    flips = [int(np.count_nonzero(s.bits[chosen] != reference))
                             for s in test[condition]]
                    rows.append(SweepRow(condition, t, b, chosen.size, max(flips), len(flips),
                                         flips.count(0), flips.count(1),
                                         sum(f >= 2 for f in flips)))
        return rows

    @pytest.mark.parametrize("seed", range(12))
    def test_threshold_sweep_matches_per_block_oracle(self, seed):
        stable, enroll, test = self.make_case(seed)
        thresholds = (1, 2, 3, 4, 5)
        report = threshold_sweep(enroll, {"NTWA": test}, thresholds=thresholds,
                                 block_size=self.WINDOW)
        assert report == self.sweep_rows(stable, enroll, {"NTWA": test}, thresholds)
        assert len(report) == len(thresholds) * (len(stable) // self.WINDOW)

    @pytest.mark.parametrize("thresholds", [(3, 1), (), (2**40, 2, 2**70)],
                             ids=["descending", "none", "beyond-any-weight"])
    def test_threshold_sweep_rows_follow_the_given_thresholds(self, thresholds):
        stable, enroll, test = self.make_case(1)
        tracemalloc.start()
        try:
            report = threshold_sweep(enroll, {"NTWA": test}, thresholds=thresholds,
                                     block_size=self.WINDOW)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report == self.sweep_rows(stable, enroll, {"NTWA": test}, thresholds)
        assert [r.threshold for r in report[::len(stable) // self.WINDOW]] == list(thresholds)
        # No position weighs 2**40, and nothing is sized by a threshold's value
        assert all(r.selected_count == 0 and r.samples_zero_flips == len(test)
                   for r in report if r.threshold >= 2**40)
        assert peak < 2**20

    @pytest.mark.parametrize("seed", range(4))
    def test_threshold_sweep_conditions_of_different_sizes(self, seed):
        stable, enroll, test = self.make_case(seed, tests=32)
        conditions = {"NTWA": test[:25], "HTNA": test[25:]}
        report = threshold_sweep(enroll, conditions, thresholds=(1, 2, 3, 4, 5),
                                 block_size=self.WINDOW)
        assert report == self.sweep_rows(stable, enroll, conditions, (1, 2, 3, 4, 5))
        assert [r.sample_count for r in report[::len(report) // 2]] == [7, 25]

    @pytest.mark.parametrize("seed", range(12))
    def test_window_flip_rate_is_exact_share(self, seed):
        _, enroll, test = self.make_case(seed)
        reference = enroll[0]
        differs = np.zeros(len(reference), dtype=bool)
        for sample in test:
            differs |= sample.bits != reference.bits
        expected = np.count_nonzero(differs) / len(reference)
        assert window_flip_rate([reference, *test]) == expected
