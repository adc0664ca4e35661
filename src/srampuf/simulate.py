"""Seedable stand-in for SRAM power-up hardware.

Each cell has a preferred power-up value and a per-sample flip probability.
Preferences come from thresholding a spatially smoothed latent field, so
stable cells cluster the way real arrays do: a run of stable cells is
quietest in its middle. Flip probabilities decay geometrically with the
distance to the nearest unstable cell, which is exactly the structure the
stable-bit selection stage exploits. A calibration with no unstable cells
yields a perfectly noiseless device.

Default calibration targets, measured over a 300-sample enrollment at normal
temperature: about 24.9% of positions flip at least once, and per-1216-bit
blocks keep their stable share inside 72-78%.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from ._kv import TextFormatError, parse_kv_block
from .bitvec import BitVector

DEFAULT_NUM_BITS = 120_000

# Condition kind -> its RNG stream of the device seed; the one list of kinds.
_CONDITION_STREAM = {"NTNA": 1, "HTNA": 2, "NTWA": 3}


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
        if self.noise_multiplier < 1.0:
            raise ValueError("noise multiplier must be >= 1.0")


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
        if self.htna_multiplier < 1.0 or self.ntwa_multiplier < 1.0:
            raise ValueError("condition multipliers must be >= 1.0")

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
    for key, value in parse_kv_block(text, what="calibration").items():
        kind = _CALIBRATION_TYPES.get(key)
        if kind is None:
            raise TextFormatError(f"calibration: unknown key {key!r}")
        try:
            kwargs[key] = kind(value)
        except ValueError:
            expected = "an integer" if kind is int else "a number"
            raise TextFormatError(f"calibration: {key} must be {expected}") from None
    return Calibration(**kwargs)


def load_calibration(path) -> Calibration:
    with open(path, "r", encoding="ascii") as fh:
        return parse_calibration(fh.read())


def calibration_to_text(cal: Calibration) -> str:
    lines = ["# srampuf device calibration\n"]
    lines += [f"{key} = {getattr(cal, key)}\n" for key in _CALIBRATION_TYPES]
    return "".join(lines)


@dataclass(frozen=True)
class DeviceModel:
    """One simulated chip: per-cell probability of powering up as 1."""

    device_id: str
    seed: int
    cell_bias: np.ndarray
    calibration: Calibration
    # Condition -> its cell probabilities, for the latest condition only, so a
    # device holds at most one extra float per cell (about 1 MB at 120,000 bits).
    # Threads racing on it can only recompute the same values.
    _prob_one: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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


def _distance_to_unstable(num_bits: int, unstable_idx: np.ndarray) -> np.ndarray:
    positions = np.arange(num_bits, dtype=np.int64)
    insert = np.searchsorted(unstable_idx, positions)
    right = np.where(insert < unstable_idx.size,
                     unstable_idx[np.minimum(insert, unstable_idx.size - 1)] - positions,
                     np.iinfo(np.int64).max)
    left = np.where(insert > 0,
                    positions - unstable_idx[np.maximum(insert - 1, 0)],
                    np.iinfo(np.int64).max)
    return np.minimum(left, right)


def new_device(seed: int, num_bits: int = DEFAULT_NUM_BITS,
               calibration: Calibration | None = None,
               device_id: str | None = None) -> DeviceModel:
    """Build a deterministic device from a seed, geometry, and calibration."""
    if num_bits <= 0:
        raise ValueError("num_bits must be positive")
    cal = calibration if calibration is not None else Calibration()
    rng = np.random.default_rng(seed)
    latent = rng.random(num_bits)
    smoothed = _smooth(latent, cal.cluster_radius, cal.cluster_mix)

    half = (1.0 - cal.unstable_fraction) / 2.0
    lo, hi = np.quantile(smoothed, [half, 1.0 - half])
    unstable = (smoothed > lo) & (smoothed < hi) if cal.unstable_fraction > 0 else np.zeros(num_bits, dtype=bool)
    preferred = smoothed >= (lo + hi) / 2.0

    flip = np.zeros(num_bits)
    unstable_idx = np.flatnonzero(unstable)
    if unstable_idx.size:
        dist = _distance_to_unstable(num_bits, unstable_idx)
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


def _readings(device: DeviceModel, condition: Condition, sample_seeds) -> list[BitVector]:
    """One packed reading per sample seed, each from its own RNG stream, drawn
    into one reused buffer."""
    prob_one = device.prob_one(condition)
    draws = np.empty(prob_one.size)
    ones = np.empty(prob_one.size, dtype=bool)
    key = [device.seed & 0xFFFFFFFF, _CONDITION_STREAM[condition.kind]]
    readings = []
    for s in sample_seeds:
        np.random.default_rng(key + [s]).random(out=draws)
        np.less(draws, prob_one, out=ones)
        readings.append(BitVector.from_packed(np.packbits(ones, bitorder="little"), ones.size))
    return readings


def power_up_sample(device: DeviceModel, condition: Condition, sample_seed: int) -> BitVector:
    """One power-up reading: a pure function of device, condition, and seed."""
    return _readings(device, condition, [sample_seed])[0]


def collect_samples(device: DeviceModel, condition: Condition, n: int,
                    seed0: int = 0) -> list[BitVector]:
    """n consecutive power-up readings with sample seeds seed0, seed0+1, ..."""
    if n < 1:
        raise ValueError("need at least one sample")
    return _readings(device, condition, range(seed0, seed0 + n))
