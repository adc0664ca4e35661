"""Seedable stand-in for SRAM power-up hardware.

Each cell has a preferred power-up value and a per-sample flip probability.
Preferences come from thresholding a spatially smoothed latent field, so
stable cells cluster the way real arrays do: a run of stable cells is
quietest in its middle. Flip probabilities decay geometrically with the
distance to the nearest unstable cell (``enroll.distance_to_unstable``): the
same function and structure the stable-bit selection stage weights by. A
calibration with no unstable cells yields a perfectly noiseless device.

Default calibration targets, measured over a 300-sample enrollment at normal
temperature: about 24.9% of positions flip at least once, and per-1216-bit
blocks keep their stable share inside 72-78%.

Every reading is a pure function of (device, condition, sample seed): it
comes from its own RNG stream. So a run of readings goes into one packed
matrix (a ``SampleSet``) from up to one thread per usable CPU, and its bytes
do not depend on how many threads drew it. There is no option to set that number.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from ._kv import TextFormatError, format_kv_block, parse_kv_block, read_text
from .bitvec import BitVector, SampleSet
from .enroll import distance_to_unstable

DEFAULT_NUM_BITS = 120_000

# Condition kind -> its RNG stream of the device seed; the one list of kinds.
_CONDITION_STREAM = {"NTNA": 1, "HTNA": 2, "NTWA": 3}


def _check_multiplier(name: str, value: float) -> None:
    # Written so that NaN fails too: every comparison with NaN is False.
    if not 1.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 1.0, got {value}")


@dataclass(frozen=True)
class Condition:
    """Sampling environment: normal, heated, or aged, as a flip-noise scale."""

    kind: str
    noise_multiplier: float

    def __post_init__(self):
        if self.kind not in _CONDITION_STREAM:
            raise ValueError(f"unknown condition kind {self.kind!r}; "
                             f"expected one of {', '.join(_CONDITION_STREAM)}")
        if self.kind == "NTNA" and self.noise_multiplier != 1.0:
            raise ValueError("NTNA is the reference condition; its multiplier must be 1.0")
        _check_multiplier("noise_multiplier", self.noise_multiplier)


@dataclass(frozen=True)
class Calibration:
    """Knobs for the cell population and its noise.

    unstable_fraction    latent share of cells whose power-up value varies
    cluster_radius       half-width of the latent smoothing window, in cells
    cluster_mix          weight of the smoothed field vs. the raw one (0..1)
    flip_prob_unstable   per-sample flip chance of an unstable cell
    flip_prob_edge       per-sample flip chance of a stable cell adjacent to
                         an unstable one
    flip_decay           geometric factor applied per extra cell of distance
    htna_multiplier      flip-noise scale under heat
    ntwa_multiplier      flip-noise scale after aging
    """

    unstable_fraction: float = 0.210
    cluster_radius: int = 2
    cluster_mix: float = 0.65
    flip_prob_unstable: float = 0.30
    flip_prob_edge: float = 4e-4
    flip_decay: float = 0.25
    htna_multiplier: float = 1.33
    ntwa_multiplier: float = 1.67

    def __post_init__(self):
        if not 0.0 <= self.unstable_fraction < 1.0:
            raise ValueError("unstable_fraction must be in [0, 1)")
        if self.cluster_radius < 0:
            raise ValueError("cluster_radius must be >= 0")
        if not 0.0 <= self.cluster_mix <= 1.0:
            raise ValueError("cluster_mix must be in [0, 1]")
        for name in ("flip_prob_unstable", "flip_prob_edge"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability")
        if not 0.0 < self.flip_decay <= 1.0:
            raise ValueError("flip_decay must be in (0, 1]")
        for name in ("htna_multiplier", "ntwa_multiplier"):
            _check_multiplier(name, getattr(self, name))

    def condition(self, kind: str) -> Condition:
        # The reference kind NTNA has no multiplier field; Condition rejects unknown kinds.
        return Condition(kind, getattr(self, f"{kind.lower()}_multiplier", 1.0))

    def conditions(self) -> dict[str, Condition]:
        return {kind: self.condition(kind) for kind in _CONDITION_STREAM}


# Calibration field name -> int or float, in field order; the annotations are
# strings because of ``from __future__ import annotations``.
_CALIBRATION_TYPES = {f.name: {"int": int, "float": float}[f.type] for f in fields(Calibration)}


def parse_calibration(text: str) -> Calibration:
    """Read a calibration from ``key = value`` text; unknown keys are errors."""
    kwargs = {}
    for key, value in parse_kv_block(text, what="calibration", keys=_CALIBRATION_TYPES).items():
        kind = _CALIBRATION_TYPES[key]
        try:
            kwargs[key] = kind(value)
        except ValueError:
            expected = "an integer" if kind is int else "a number"
            raise TextFormatError(f"calibration: {key} must be {expected}") from None
    return Calibration(**kwargs)


def load_calibration(path) -> Calibration:
    return parse_calibration(read_text(path))


def calibration_to_text(cal: Calibration) -> str:
    pairs = ((key, str(getattr(cal, key))) for key in _CALIBRATION_TYPES)
    return "# srampuf device calibration\n" + format_kv_block(pairs)


@dataclass(frozen=True, eq=False)
class DeviceModel:
    """One simulated chip: per-cell probability of powering up as 1.

    Two devices are equal when their ids, seeds, calibrations and cell biases
    are; the probability cache takes no part in equality or hash.
    """

    device_id: str
    seed: int
    cell_bias: np.ndarray
    calibration: Calibration
    # Condition -> its cell probabilities, for the latest condition only, so a
    # device holds at most one extra float per cell (about 1 MB at 120,000 bits).
    # The sampler fills it on the calling thread before any worker starts, and
    # the workers only read the array it hands them.
    _prob_one: dict = field(default_factory=dict, init=False, repr=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DeviceModel):
            return NotImplemented
        return (self.device_id == other.device_id and self.seed == other.seed
                and self.calibration == other.calibration
                and np.array_equal(self.cell_bias, other.cell_bias))

    def __hash__(self) -> int:
        return hash((self.device_id, self.seed, self.num_bits, self.calibration))

    @property
    def num_bits(self) -> int:
        return int(self.cell_bias.size)

    def prob_one(self, condition: Condition) -> np.ndarray:
        """Read-only per-cell probability of powering up as 1 under a condition."""
        cached = self._prob_one.get(condition)
        if cached is None:
            bias = self.cell_bias
            flip = np.minimum(bias, 1.0 - bias) * condition.noise_multiplier
            np.clip(flip, 0.0, 1.0, out=flip)
            # Not ``bias`` itself under NTNA: 1 - (1 - b) need not equal b in float64.
            cached = np.where(bias >= 0.5, 1.0 - flip, flip)
            cached.flags.writeable = False
            self._prob_one.clear()
            self._prob_one[condition] = cached
        return cached


def _smooth(latent: np.ndarray, radius: int, mix: float) -> np.ndarray:
    if radius == 0 or mix == 0.0:
        return latent
    width = 2 * radius + 1
    padded = np.pad(latent, radius, mode="reflect")
    window_mean = np.convolve(padded, np.full(width, 1.0 / width), mode="valid")
    return (1.0 - mix) * latent + mix * window_mean


def new_device(seed: int, num_bits: int = DEFAULT_NUM_BITS,
               calibration: Calibration | None = None,
               device_id: str | None = None) -> DeviceModel:
    """Build a deterministic device from a seed, geometry, and calibration."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if num_bits <= 0:
        raise ValueError("num_bits must be positive")
    cal = calibration if calibration is not None else Calibration()
    rng = np.random.default_rng(seed)
    latent = rng.random(num_bits)
    smoothed = _smooth(latent, cal.cluster_radius, cal.cluster_mix)

    half = (1.0 - cal.unstable_fraction) / 2.0
    lo, hi = np.quantile(smoothed, [half, 1.0 - half])
    unstable = (smoothed > lo) & (smoothed < hi)
    preferred = smoothed >= (lo + hi) / 2.0

    flip = np.zeros(num_bits)
    if unstable.any():
        dist = distance_to_unstable(unstable)
        exponent = np.minimum(dist - 1, 512).astype(np.float64)
        flip = cal.flip_prob_edge * np.power(cal.flip_decay, exponent)
        flip[unstable] = cal.flip_prob_unstable

    bias = np.where(preferred, 1.0 - flip, flip)
    bias.flags.writeable = False
    return DeviceModel(
        device_id=device_id if device_id is not None else f"device-{seed}",
        seed=int(seed),
        cell_bias=bias,
        calibration=cal,
    )


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


def _draw_packed(prob_one: np.ndarray, key: list[int], sample_seeds,
                 draws: np.ndarray, ones: np.ndarray, rows: np.ndarray) -> None:
    """Write the packed bytes of the reading for ``sample_seeds[k]`` into
    ``rows[k]``, drawing through the scratch buffers ``draws`` and ``ones``.
    It calls only numpy, so it is safe on a worker thread."""
    for s, row in zip(sample_seeds, rows):
        np.random.default_rng(key + [s]).random(out=draws)
        np.less(draws, prob_one, out=ones)
        row[:] = np.packbits(ones, bitorder="little")


def _readings(device: DeviceModel, condition: Condition, sample_seeds) -> np.ndarray:
    """One packed matrix row per sample seed, each from its own RNG stream.

    The seeds are split into contiguous chunks, one per usable CPU, and each
    chunk's rows are drawn on a thread of its own; a single chunk is drawn
    inline and starts no thread. Each reading is still a pure function of
    (device, condition, sample seed), so the bytes do not depend on the worker
    count. The matrix and every scratch buffer are allocated here, on the
    calling thread, so none of them lands in a worker thread's malloc arena.
    """
    prob_one = device.prob_one(condition)
    key = [device.seed & 0xFFFFFFFF, _CONDITION_STREAM[condition.kind]]
    n = len(sample_seeds)
    workers = min(_usable_cpus(), n)
    rows = np.empty((n, -(-prob_one.size // 8)), dtype=np.uint8)
    bounds = [n * w // workers for w in range(workers + 1)]
    jobs = [(prob_one, key, sample_seeds[lo:hi], np.empty(prob_one.size),
             np.empty(prob_one.size, dtype=bool), rows[lo:hi])
            for lo, hi in zip(bounds, bounds[1:])]
    if workers == 1:
        _draw_packed(*jobs[0])
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for done in [pool.submit(_draw_packed, *job) for job in jobs]:
                done.result()
    return rows


def power_up_sample(device: DeviceModel, condition: Condition, sample_seed: int) -> BitVector:
    """One power-up reading: a pure function of device, condition, and seed."""
    return BitVector.from_packed(_readings(device, condition, [sample_seed])[0], device.num_bits)


def collect_samples(device: DeviceModel, condition: Condition, n: int,
                    seed0: int = 0) -> SampleSet:
    """n consecutive power-up readings with sample seeds seed0, seed0+1, ..."""
    if n < 1:
        raise ValueError("need at least one sample")
    if seed0 < 0:
        raise ValueError("seed0 must be >= 0")
    return SampleSet(_readings(device, condition, range(seed0, seed0 + n)), device.num_bits)
