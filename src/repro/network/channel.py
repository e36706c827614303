"""Radio channel: path loss, shadowing and packet error rate.

A standard log-distance model calibrated to CC2420-class 802.15.4
radios at sea level:

``P_rx = P_tx - [PL(d0) + 10 n log10(d / d0) + X_sigma]``

with log-normal shadowing ``X_sigma`` frozen per link (slow fading from
buoy geometry) and an SNR-to-PER logistic that yields the familiar
transitional region: links well inside the range are near-perfect,
links near the edge are lossy — the "wireless communication errors"
whose impact Sec. IV-C's cluster fusion absorbs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.rng import RandomState, make_rng
from repro.types import Position


#: Transmit power [dBm].
TX_POWER_DBM = 0.0
#: Path loss [dB] at the reference distance [m], and the log-distance
#: path-loss exponent.
PATH_LOSS_D0_DB = 55.0
REFERENCE_DISTANCE_M = 1.0
PATH_LOSS_EXPONENT = 2.2
#: Receiver noise floor [dBm].
NOISE_FLOOR_DBM = -95.0
#: SNR at which PER = 50 %, and the logistic steepness of the SNR ->
#: delivery curve [dB].
SNR_PER50_DB = 2.0
SNR_SLOPE_DB = 2.0
#: Radio bit rate for transmission-delay accounting [bit/s].
BITRATE_BPS = 250_000.0
#: Propagation + processing latency floor [s].
LATENCY_FLOOR_S = 0.001


@dataclass(frozen=True)
class ChannelConfig:
    """Channel model parameters."""

    #: Sigma of the per-link log-normal shadowing [dB].
    shadowing_sigma_db: float = 3.0
    #: Extra frame-loss probability applied uniformly (interference).
    base_loss_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.shadowing_sigma_db < 0:
            raise ConfigurationError("shadowing sigma must be >= 0")
        if not 0.0 <= self.base_loss_rate < 1.0:
            raise ConfigurationError(
                f"base_loss_rate must be in [0, 1), got {self.base_loss_rate}"
            )


class Channel:
    """The shared medium between all node radios."""

    def __init__(
        self, config: ChannelConfig | None = None, seed: RandomState = None
    ) -> None:
        self.config = config if config is not None else ChannelConfig()
        self._rng = make_rng(seed)
        self._link_shadowing: dict[tuple[int, int], float] = {}

    def _shadowing_db(self, src: int, dst: int) -> float:
        """Per-link log-normal shadowing, frozen and symmetric."""
        key = (min(src, dst), max(src, dst))
        if key not in self._link_shadowing:
            self._link_shadowing[key] = float(
                self._rng.normal(0.0, self.config.shadowing_sigma_db)
            )
        return self._link_shadowing[key]

    def rx_power_dbm(
        self, src: int, dst: int, src_pos: Position, dst_pos: Position
    ) -> float:
        """Received power over the (src, dst) link."""
        d = max(src_pos.distance_to(dst_pos), REFERENCE_DISTANCE_M)
        path_loss = PATH_LOSS_D0_DB + 10.0 * PATH_LOSS_EXPONENT * (
            math.log10(d / REFERENCE_DISTANCE_M)
        )
        return TX_POWER_DBM - path_loss - self._shadowing_db(src, dst)

    def snr_db(
        self, src: int, dst: int, src_pos: Position, dst_pos: Position
    ) -> float:
        """Signal-to-noise ratio of the link."""
        return self.rx_power_dbm(src, dst, src_pos, dst_pos) - NOISE_FLOOR_DBM

    def delivery_probability(
        self, src: int, dst: int, src_pos: Position, dst_pos: Position
    ) -> float:
        """Probability one frame survives the link (before MAC retries)."""
        snr = self.snr_db(src, dst, src_pos, dst_pos)
        p_snr = 1.0 / (1.0 + math.exp(-(snr - SNR_PER50_DB) / SNR_SLOPE_DB))
        return p_snr * (1.0 - self.config.base_loss_rate)

    def attempt_delivery(
        self, src: int, dst: int, src_pos: Position, dst_pos: Position
    ) -> bool:
        """Bernoulli draw for one frame over the link."""
        return bool(
            self._rng.random()
            < self.delivery_probability(src, dst, src_pos, dst_pos)
        )

    def airtime_s(self, size_bytes: int) -> float:
        """Transmission time of a frame of ``size_bytes``."""
        if size_bytes <= 0:
            raise ConfigurationError(
                f"size_bytes must be positive, got {size_bytes}"
            )
        return LATENCY_FLOOR_S + 8.0 * size_bytes / BITRATE_BPS
