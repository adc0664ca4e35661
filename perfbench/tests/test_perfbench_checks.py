import numpy as np
import pytest

from srampuf import enroll, fuzzy, keygen, simulate
from workloads import (
    BLOCK,
    MISCORRECTED,
    WORKLOADS,
    Enrolled,
    Recorder,
    judge,
    mask_oracle,
    masked_distance,
    reading_pool,
    window_stack,
)


@pytest.fixture(scope="module")
def enrolled():
    cal = simulate.Calibration()
    device = simulate.new_device(11, num_bits=4864, calibration=cal)
    samples = simulate.collect_samples(device, cal.condition("NTNA"), 40)
    mask = enroll.build_mask(samples, 4)
    helper, key = keygen.generate_key(samples[0], mask, 3)
    reference = samples[0].bits[mask.positions]
    return samples, mask, helper, key, reference


@pytest.mark.parametrize("flips, failures", [
    (0, {"key": None, "refused": "refused_within_radius", "wrong_key": "wrong_key"}),
    (1, {"key": None, "refused": "refused_within_radius", "wrong_key": "wrong_key"}),
    (2, {"key": None, "refused": None, "wrong_key": MISCORRECTED}),
])
def test_classifier_on_injected_flips(enrolled, flips, failures):
    samples, mask, _, _, reference = enrolled
    reading = samples[0].with_flips(mask.positions[[3, 70][:flips]])
    distance = masked_distance(reading, mask, reference)
    assert distance == flips
    assert {outcome: judge(distance, outcome) for outcome in failures} == failures


def test_judge_on_real_reproductions(enrolled):
    samples, mask, helper, key, reference = enrolled
    for positions in ([], [5], [5, 6], [1, 90]):
        reading = samples[0].with_flips(mask.positions[positions])
        distance = masked_distance(reading, mask, reference)
        try:
            got = keygen.reproduce_key(reading, mask, helper)
            outcome = "key" if got.digest == key.digest else "wrong_key"
        except fuzzy.ReproduceFailure:
            outcome = "refused"
        failure = judge(distance, outcome)
        assert failure is None if distance <= 1 else failure in (None, MISCORRECTED)


def test_mask_oracle_accepts_real_mask_and_rejects_shallow_position(enrolled):
    samples, mask, *_ = enrolled
    stack = window_stack(samples, 0, mask.num_windows * mask.window_length)
    assert mask_oracle(stack, mask, 4)
    stable = (stack == stack[0]).all(axis=0)
    edge = int(np.flatnonzero(stable[1:] & ~stable[:-1])[0]) + 1   # first cell of a run
    shallow = enroll.Mask(device_id="", positions=np.array([edge]), threshold=4,
                          sample_count=len(samples), num_windows=mask.num_windows)
    assert not mask_oracle(stack, shallow, 4)


def test_reading_pool_splits_at_the_correction_radius(enrolled):
    samples, mask, helper, key, _ = enrolled
    device = simulate.new_device(11, num_bits=4864, calibration=simulate.Calibration())
    item = Enrolled.of(device, samples, mask, helper, key)
    within, beyond = reading_pool(11, 0, item, blocks=2, probes=5)
    assert len(within) == 2 * BLOCK and len(beyond) >= 5
    assert [d for _, d in within].count(1) == 2
    assert all(d <= 1 for _, d in within) and all(d >= 2 for _, d in beyond)
    assert all(masked_distance(r, mask, item.reference) == d for r, d in within + beyond)


def test_probe_keeps_miscorrections_out_of_failed(tmp_path):
    workload = WORKLOADS["reproduce"]
    state = workload.setup(11, tmp_path)
    rec = Recorder()
    workload.probe(state, rec)
    assert rec.probed == len(state["beyond"]) > 0
    assert 0 <= rec.miscorrected <= rec.probed
    assert rec.attempted == rec.failed == 0 and rec.correct
    for i in range(len(state["pool"])):
        workload.op(state, i, rec)
    assert rec.attempted == len(state["pool"]) and rec.failed == 0 and rec.correct
