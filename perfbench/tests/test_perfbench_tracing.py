import numpy as np

from srampuf import enroll, fuzzy, keygen, simulate
from tracing import END, NAME, PARENT, Tracer, self_times, uncovered_share


def span_tree():
    # name, op, start, end, parent
    return np.array([
        [0, 0, 0, 100, -1],     # op.key: children cover 30 + 40
        [1, 0, 10, 40, 0],      # layer a: child covers 10
        [2, 0, 15, 25, 1],      # layer b, inside a
        [1, 0, 50, 90, 0],      # layer a again, no children
        [0, 1, 200, 210, -1],   # second op, nothing traced inside
    ], dtype=np.int64)


def test_self_time_subtracts_direct_children_only():
    assert self_times(span_tree()).tolist() == [30, 20, 10, 40, 10]


def test_uncovered_share_is_op_self_time_over_op_time():
    names = ["op.key", "keygen.a", "fuzzy.b"]
    assert uncovered_share(span_tree(), names) == (30 + 10) / (100 + 10)


def test_install_traces_cross_module_call_sites_and_uninstall_restores():
    original = enroll.mask_fingerprint
    cal = simulate.Calibration()
    device = simulate.new_device(5, num_bits=4864, calibration=cal)
    samples = simulate.collect_samples(device, cal.condition("NTNA"), 20)
    mask = enroll.build_mask(samples, 4)
    helper, key = keygen.generate_key(samples[0], mask, 1)

    tracer = Tracer()
    tracer.install()
    try:
        assert keygen.mask_fingerprint is not original
        tracer.op_id = 0
        root = tracer.begin("op.key")
        assert keygen.reproduce_key(samples[1], mask, helper).digest == key.digest
        tracer.end(root)
    finally:
        tracer.uninstall()
    assert keygen.mask_fingerprint is original and enroll.mask_fingerprint is original

    spans = tracer.spans()
    names = [tracer.names[i] for i in spans[:, NAME]]
    assert names[:2] == ["op.key", "keygen.reproduce_key"]
    by_name = dict(zip(names, range(len(names))))
    for child in ("enroll.mask_fingerprint", "keygen.apply_mask", "fuzzy.reproduce",
                  "keygen.derive_key"):
        assert spans[by_name[child], PARENT] == by_name["keygen.reproduce_key"]
    assert (spans[:, END] >= spans[:, 2]).all()
    assert tracer.counts["fuzzy.corrected"] == 0


def test_refusal_is_counted_once_per_reproduction():
    cal = simulate.Calibration()
    device = simulate.new_device(5, num_bits=4864, calibration=cal)
    samples = simulate.collect_samples(device, cal.condition("NTNA"), 20)
    mask = enroll.build_mask(samples, 4)
    helper, _ = keygen.generate_key(samples[0], mask, 1)

    def attempt(reading):
        try:
            keygen.reproduce_key(reading, mask, helper)
        except fuzzy.ReproduceFailure:
            return True
        return False

    refused = next(reading for i in range(1, 128)
                   for reading in [samples[0].with_flips(mask.positions[[0, i]])]
                   if attempt(reading))
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op_id = 0
        assert attempt(refused)
    finally:
        tracer.uninstall()
    assert tracer.counts["fuzzy.refused"] == 1
