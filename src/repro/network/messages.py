"""Protocol data units exchanged over the radio.

Frames wrap a typed payload with addressing and accounting metadata.
Sizes approximate 802.15.4 frames (the iMote2's radio): header overhead
plus the payload's wire size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Union

from repro.detection.reports import ClusterReport, NodeReport
from repro.errors import ConfigurationError

#: Destination id meaning "all nodes in radio range".
BROADCAST = -1

#: Bytes of MAC/NET header per frame.
HEADER_BYTES = 15

_frame_seq = itertools.count()


@dataclass(frozen=True)
class ClusterSetupMsg:
    """Temporary-cluster announcement, flooded ``hops_remaining`` hops."""

    head_id: int
    hops_remaining: int
    onset_time: float

    def __post_init__(self) -> None:
        if self.hops_remaining < 0:
            raise ConfigurationError(
                f"hops_remaining must be >= 0, got {self.hops_remaining}"
            )

    WIRE_BYTES = 8


@dataclass(frozen=True)
class ClusterCancelMsg:
    """Temporary-cluster teardown (false alarm)."""

    head_id: int

    WIRE_BYTES = 4


@dataclass(frozen=True)
class MemberReportMsg:
    """A member's positive detection, unicast to the temporary head."""

    head_id: int
    report: NodeReport

    @property
    def WIRE_BYTES(self) -> int:  # noqa: N802 - mirrors the class constants
        return 4 + NodeReport.WIRE_BYTES


@dataclass(frozen=True)
class ClusterReportMsg:
    """A fused cluster report travelling head -> static head -> sink.

    ``static_head_id`` is the intermediate hop the paper's hierarchy
    prescribes ("the temporal cluster head reports the result to its
    static cluster head, and the cluster head will report the detection
    to the sink eventually"); ``None`` means it already passed it.
    """

    report: ClusterReport
    static_head_id: int | None = None

    @property
    def WIRE_BYTES(self) -> int:  # noqa: N802
        return ClusterReport.WIRE_BYTES


Payload = Union[
    ClusterSetupMsg,
    ClusterCancelMsg,
    MemberReportMsg,
    ClusterReportMsg,
]


@dataclass(frozen=True)
class Frame:
    """One over-the-air frame."""

    src: int
    dst: int
    payload: Payload
    seq: int = field(default_factory=lambda: next(_frame_seq))

    @property
    def size_bytes(self) -> int:
        """Wire size including header."""
        wire = self.payload.WIRE_BYTES
        return HEADER_BYTES + int(wire)

    @property
    def is_broadcast(self) -> bool:
        """True for link-local broadcast frames."""
        return self.dst == BROADCAST
