"""Battery and per-operation energy accounting.

Sec. IV-A argues that "due to the energy constraints of the sensor node
and the limitation of communication bandwidth, it is better that only
the extracted features are transmitted" — an argument about energy,
which this model makes quantitative.  Costs default to iMote2-class
numbers (radio ~ tens of mW, CPU ~ tens of mW, sampling cheap).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class EnergyCosts:
    """Energy prices for the operations the node performs.

    Values are joules per unit; the defaults approximate an iMote2 with
    a CC2420-class 802.15.4 radio at 250 kbps.
    """

    sample_j: float = 15e-6          # one 3-axis sample + ADC conversion
    cpu_j_per_s: float = 0.060       # active signal processing
    tx_j_per_byte: float = 2.0e-6    # transmit amortised per byte
    rx_j_per_byte: float = 2.2e-6    # receive amortised per byte
    idle_j_per_s: float = 0.003      # radio/MCU idle listening
    sleep_j_per_s: float = 0.00005   # deep sleep

    def __post_init__(self) -> None:
        for name in (
            "sample_j",
            "cpu_j_per_s",
            "tx_j_per_byte",
            "rx_j_per_byte",
            "idle_j_per_s",
            "sleep_j_per_s",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")


class Battery:
    """Finite energy store with per-category draw accounting."""

    def __init__(
        self, capacity_j: float = 10_000.0, costs: EnergyCosts | None = None
    ) -> None:
        if capacity_j <= 0:
            raise ConfigurationError(
                f"capacity must be positive, got {capacity_j}"
            )
        self.capacity_j = capacity_j
        self.costs = costs if costs is not None else EnergyCosts()
        self._remaining = capacity_j
        self._by_category: dict[str, float] = {}
        self._drain_multiplier = 1.0

    @property
    def remaining_j(self) -> float:
        """Energy left [J]."""
        return self._remaining

    @property
    def depleted(self) -> bool:
        """True once the store is empty (node is dead)."""
        return self._remaining <= 0.0

    @property
    def fraction_remaining(self) -> float:
        """Remaining energy as a fraction of capacity."""
        return max(self._remaining, 0.0) / self.capacity_j

    @property
    def drain_multiplier(self) -> float:
        """Factor applied to every draw (> 1 models a degrading cell)."""
        return self._drain_multiplier

    def breakdown(self) -> dict[str, float]:
        """Energy spent so far, by category [J]."""
        return dict(self._by_category)

    def accelerate_drain(self, factor: float) -> None:
        """Multiply all future draws by ``factor`` (fault injection).

        Models cell degradation — seawater ingress, cold-induced
        capacity loss — as an efficiency factor rather than an
        instantaneous capacity cut.  Factors compose multiplicatively.
        """
        if factor <= 0:
            raise ConfigurationError(
                f"drain factor must be positive, got {factor}"
            )
        self._drain_multiplier *= factor

    def draw(self, joules: float, category: str) -> bool:
        """Consume ``joules``; returns False when already depleted.

        Negative draws are rejected — a battery cannot be recharged by
        accounting.  The final draw may take the store below zero (the
        node dies mid-operation), after which every further draw fails.
        """
        if joules < 0:
            raise ConfigurationError(f"cannot draw negative energy: {joules}")
        if self.depleted:
            return False
        # Exact sentinel: the multiplier is bit-exactly 1.0 unless a
        # fault installed one, and the guard keeps healthy draws on the
        # fast path without a float multiply.
        if self._drain_multiplier != 1.0:  # lint: ignore[NUM001]
            joules *= self._drain_multiplier
        self._remaining -= joules
        self._by_category[category] = self._by_category.get(category, 0.0) + joules
        return True

    # Convenience wrappers -------------------------------------------------
    def draw_samples(self, n: int) -> bool:
        """Account for ``n`` accelerometer samples."""
        return self.draw(n * self.costs.sample_j, "sampling")

    def draw_cpu(self, seconds: float) -> bool:
        """Account for ``seconds`` of active processing."""
        return self.draw(seconds * self.costs.cpu_j_per_s, "cpu")

    def draw_tx(self, n_bytes: int) -> bool:
        """Account for transmitting ``n_bytes``."""
        return self.draw(n_bytes * self.costs.tx_j_per_byte, "tx")

    def draw_rx(self, n_bytes: int) -> bool:
        """Account for receiving ``n_bytes``."""
        return self.draw(n_bytes * self.costs.rx_j_per_byte, "rx")
