"""Motional heating comparisons across trap zones.

Electric-field noise with a power-law frequency spectrum heats an ion at
a rate proportional to S_E(omega); comparing two zones also requires the
usual ion-electrode distance scaling of the noise, fixed here at d^-4
(far-field patch noise).
"""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class HeatingPoint:
    """One measured heating rate: quanta/s at a mode frequency and distance."""

    rate_quanta_s: float
    frequency_mhz: float
    distance_um: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.rate_quanta_s) or self.rate_quanta_s < 0:
            raise ValueError(f"rate_quanta_s must be finite and >= 0, got {self.rate_quanta_s}")
        for name in ("frequency_mhz", "distance_um"):
            v = getattr(self, name)
            if not math.isfinite(v) or v <= 0:
                raise ValueError(f"{name} must be finite and positive, got {v}")


def scale_heating(point: HeatingPoint, target_frequency_mhz: float, alpha: float) -> float:
    """Heating rate rescaled to another mode frequency.

    Assumes S_E proportional to omega^-alpha, so the rate transforms as
    (f_target / f_source)^-alpha.
    """
    if not math.isfinite(target_frequency_mhz) or target_frequency_mhz <= 0:
        raise ValueError(f"target frequency must be finite and positive, got "
                         f"{target_frequency_mhz}")
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    return point.rate_quanta_s * (target_frequency_mhz / point.frequency_mhz) ** (-alpha)


def field_noise_ratio(a: HeatingPoint, b: HeatingPoint, alpha: float) -> float:
    """Excess field noise at b relative to a.

    Scales a's rate to b's frequency (omega^-alpha) and to b's
    ion-electrode distance (d^-4), then returns b's rate over that
    prediction.  A ratio of 1 means both zones share one noise level.
    """
    predicted = scale_heating(a, b.frequency_mhz, alpha) * (
        a.distance_um / b.distance_um
    ) ** 4.0
    if predicted <= 0:
        raise ValueError("predicted rate is zero; cannot form a ratio")
    return b.rate_quanta_s / predicted


def kick_heating_rate(quanta_per_count: float, count_rate_s: float) -> float:
    """Heating from photon-detection recoil kicks: quanta per absorbed count."""
    for name, v in (("quanta_per_count", quanta_per_count), ("count_rate_s", count_rate_s)):
        if not math.isfinite(v) or v < 0:
            raise ValueError(f"{name} must be finite and >= 0, got {v}")
    return quanta_per_count * count_rate_s
