"""Duty-cycle MAC kernel shared by the simulated behaviours.

Every duty-cycled MAC simulator is the same machine wearing different
clothes: nodes sleep, wake periodically, sense the channel, contend, exchange
a preamble, a data frame and (usually) an acknowledgement, and pay energy for
each of those states.  This module factors that machine out once:

* :class:`KernelState` — the radio states a behaviour can charge time to,
  each mapped onto a physical :class:`~repro.network.radio.RadioMode`;
* :class:`PeriodicCharge` — one row of the declarative periodic-cost table a
  protocol publishes (channel polls, slot listening, SYNC exchanges), turned
  into closed-form energy by the kernel;
* :class:`MediumGrant` — the hand-off between the medium-acquisition and the
  exchange phases of one hop;
* :class:`DutyCycleKernel` — the state-machine base class: a template
  ``plan_hop`` (acquire → exchange → overhear) plus the shared primitives
  (periodic wakeup scheduling, contention windows, data/ack exchange
  accounting) so a concrete protocol only implements its distinguishing
  transitions (X-MAC strobed preambles, LMAC slot ownership, DMAC staggered
  schedules, SCP-MAC synchronized polling).

A behaviour is instantiated from an analytical protocol model plus a concrete
parameter vector, so the simulator and the closed-form model are guaranteed
to describe the same configuration (same wake-up interval, frame length,
slot structure, radio and frame sizes).
"""

from __future__ import annotations

import abc
import enum
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import SimulationError
from repro.network.packets import PacketModel
from repro.network.radio import RadioMode, RadioModel
from repro.protocols.base import DutyCycledMACModel
from scalar_reference.channel import Channel
from scalar_reference.node import SensorNode


def next_occurrence(now: float, period: float, offset: float) -> float:
    """First time ``>= now`` of the periodic schedule ``offset + k * period``.

    Args:
        now: Current time.
        period: Schedule period (must be positive).
        offset: Phase offset of the schedule.

    Returns:
        The earliest schedule occurrence at or after ``now`` (with a small
        tolerance so an occurrence ``now`` sits exactly on is returned, not
        skipped).

    Raises:
        SimulationError: if the period is not positive.
    """
    if period <= 0:
        raise SimulationError(f"period must be positive, got {period!r}")
    if now <= offset:
        return offset
    cycles = math.ceil((now - offset) / period - 1e-12)
    return offset + cycles * period


@dataclass(frozen=True)
class HopOutcome:
    """Result of planning one hop transmission.

    Attributes:
        transmission_start: Time the sender starts occupying the medium.
        completion: Time at which the packet is fully handed to the receiver
            (queueable at the next hop).
        airtime: Time the medium is reserved around the sender.
    """

    transmission_start: float
    completion: float
    airtime: float

    def __post_init__(self) -> None:
        if self.completion < self.transmission_start:
            raise SimulationError("hop completes before its transmission starts")
        if self.airtime < 0:
            raise SimulationError("airtime must be non-negative")


class KernelState(str, enum.Enum):
    """States of the duty-cycle MAC kernel a behaviour can charge time to.

    Each state maps onto one physical radio mode (:data:`STATE_MODES`); the
    split exists so energy is accounted *by cause* — the validation tooling
    compares the per-state breakdown against the analytical decomposition
    (carrier sensing, transmission, reception, overhearing, synchronization).
    """

    #: Periodic channel poll / duty-cycle wake-up carrier sense.
    POLL = "poll"
    #: Carrier-sense contention listening before a transmission.
    CONTEND = "contend"
    #: Preamble transmission (X-MAC strobes, SCP-MAC wakeup tone).
    TX_PREAMBLE = "tx-preamble"
    #: Preamble reception (residual strobe / tone heard after a poll).
    RX_PREAMBLE = "rx-preamble"
    #: Control/SYNC frame transmission (LMAC control section, SCP-MAC SYNC).
    TX_CONTROL = "tx-control"
    #: Control/SYNC frame reception or slot listening.
    RX_CONTROL = "rx-control"
    #: Data frame transmission.
    TX_DATA = "tx-data"
    #: Data frame reception.
    RX_DATA = "rx-data"
    #: Acknowledgement transmission.
    TX_ACK = "tx-ack"
    #: Acknowledgement reception (sender waiting for the ack).
    RX_ACK = "rx-ack"
    #: Overhearing a transmission addressed to somebody else.
    OVERHEAR = "overhear"


#: Kernel state → physical radio mode the time is charged in.
STATE_MODES: Mapping[KernelState, RadioMode] = {
    KernelState.POLL: RadioMode.RX,
    KernelState.CONTEND: RadioMode.RX,
    KernelState.TX_PREAMBLE: RadioMode.TX,
    KernelState.RX_PREAMBLE: RadioMode.RX,
    KernelState.TX_CONTROL: RadioMode.TX,
    KernelState.RX_CONTROL: RadioMode.RX,
    KernelState.TX_DATA: RadioMode.TX,
    KernelState.RX_DATA: RadioMode.RX,
    KernelState.TX_ACK: RadioMode.TX,
    KernelState.RX_ACK: RadioMode.RX,
    KernelState.OVERHEAR: RadioMode.RX,
}


@dataclass(frozen=True)
class PeriodicCharge:
    """One row of a behaviour's traffic-independent periodic cost table.

    The kernel turns each row into closed-form energy:
    ``int(horizon / interval) * multiplier * duration`` seconds in ``state``.
    ``multiplier`` is an integer count per interval (e.g. "listen to N-1
    slot control sections per frame"), kept separate from ``duration`` so
    the closed form multiplies integers before touching floats.

    Attributes:
        state: Kernel state the time is charged in.
        interval: Period of the activity in seconds (one charge per full
            interval that fits in the horizon).
        duration: Radio-on seconds per charged event.
        multiplier: Integer number of events per interval.
        activity: Energy-account label (defaults to the state's value).
    """

    state: KernelState
    interval: float
    duration: float
    multiplier: int = 1
    activity: Optional[str] = None

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise SimulationError(
                f"periodic charge interval must be positive, got {self.interval!r}"
            )
        if self.duration < 0 or self.multiplier < 0:
            raise SimulationError("periodic charge duration/multiplier must be >= 0")


@dataclass(frozen=True)
class MediumGrant:
    """Hand-off between the acquisition and exchange phases of one hop.

    Attributes:
        start: Time the sender starts occupying (or strobing toward) the
            medium.
        transmission_start: Time the actual data transmission begins.
        info: Protocol-specific context carried from
            :meth:`DutyCycleKernel.acquire_grant` to
            :meth:`DutyCycleKernel.perform_exchange` (e.g. the receiver's
            poll time, the drawn contention delay).
    """

    start: float
    transmission_start: float
    info: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "info", dict(self.info))
        if self.transmission_start < self.start:
            raise SimulationError("transmission cannot start before the grant")


class MACSimBehaviour(abc.ABC):
    """Simulated counterpart of one :class:`DutyCycledMACModel` configuration.

    Args:
        model: The analytical protocol model (provides scenario and timing
            constants).
        params: The concrete parameter vector to simulate.
        rng: Source of randomness for phases and backoffs.
    """

    name: str = "abstract"

    def __init__(
        self,
        model: DutyCycledMACModel,
        params: Mapping[str, float] | Sequence[float] | np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        self._model = model
        self._params = model.coerce(params)
        self._rng = rng
        self._scenario = model.scenario
        self._radio: RadioModel = model.scenario.radio
        self._packets: PacketModel = model.scenario.packets

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    @property
    def model(self) -> DutyCycledMACModel:
        """The analytical model this behaviour was built from."""
        return self._model

    @property
    def params(self) -> Mapping[str, float]:
        """The simulated parameter vector."""
        return dict(self._params)

    @property
    def radio(self) -> RadioModel:
        """The radio hardware model."""
        return self._radio

    @property
    def rng(self) -> np.random.Generator:
        """The behaviour's random generator."""
        return self._rng

    def backoff(self, scale: float) -> float:
        """A small uniform random backoff in ``[0, scale]`` seconds.

        Args:
            scale: Upper bound of the backoff; non-positive scales yield 0.

        Returns:
            The drawn backoff, consuming one draw from the behaviour's RNG.
        """
        if scale <= 0:
            return 0.0
        return float(self._rng.uniform(0.0, scale))

    # ------------------------------------------------------------------ #
    # Protocol-specific pieces
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def assign_phase(self, node: SensorNode) -> float:
        """Random phase offset of the node's periodic activity (seconds)."""

    @abc.abstractmethod
    def charge_periodic_energy(self, node: SensorNode, horizon: float) -> None:
        """Charge the node's traffic-independent periodic costs over the run.

        These are the costs a node pays even when it never sees a packet
        (channel polls, slot listening, schedule maintenance); they are
        deterministic, so they are charged in closed form instead of being
        simulated event by event.
        """

    @abc.abstractmethod
    def plan_hop(
        self,
        sender: SensorNode,
        receiver: SensorNode,
        now: float,
        channel: Channel,
        overhearers: Sequence[SensorNode],
    ) -> HopOutcome:
        """Plan (and account for) forwarding one packet from sender to receiver.

        Implementations must:

        * determine when the transmission can actually start (next wake-up /
          slot of the relevant party, medium availability via ``channel``),
        * reserve the medium around the sender for the airtime,
        * charge the transmission/reception energies to the sender's and
          receiver's accounts and overhearing energy to ``overhearers``,
        * return the :class:`HopOutcome` with the completion time.
        """


class DutyCycleKernel(MACSimBehaviour):
    """State-machine base class of the duty-cycled MAC simulators.

    The kernel owns the pieces every protocol repeats — per-state energy
    accounting (:meth:`charge`), the closed-form periodic cost table
    (:meth:`periodic_charges`), medium acquisition with deferral backoff
    (:meth:`acquire_medium`), contention windows (:meth:`contention_delay`)
    and the data/ack exchange (:meth:`charge_sender_data_ack` /
    :meth:`charge_receiver_data_ack`).  ``plan_hop`` is a fixed template::

        acquire_grant()  ->  perform_exchange()  ->  charge_overhearers()

    and subclasses implement only those transitions.  Kernel subclasses keep
    the original behaviours' arithmetic verbatim, so a run at a given seed
    produces bit-identical traces to the pre-kernel simulators.
    """

    def __init__(
        self,
        model: DutyCycledMACModel,
        params: Mapping[str, float] | Sequence[float] | np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        super().__init__(model, params, rng)
        radio = self._radio
        packets = self._packets
        #: Shared frame airtimes every duty-cycled protocol exchanges.
        self._data = packets.data_airtime(radio)
        self._ack = packets.ack_airtime(radio)
        #: One data + turnaround + ack exchange once both parties are awake.
        self._exchange = self._data + radio.turnaround_time + self._ack
        #: Cost of one duty-cycle wake-up + clear-channel assessment.
        self._poll_cost = radio.wakeup_time + radio.carrier_sense_time

    # ------------------------------------------------------------------ #
    # Per-state energy accounting
    # ------------------------------------------------------------------ #

    def charge(
        self,
        node: SensorNode,
        state: KernelState,
        start: float,
        duration: float,
        activity: Optional[str] = None,
    ) -> None:
        """Charge ``duration`` seconds of ``state`` to a node's account.

        Args:
            node: The node whose energy account is charged.
            state: The kernel state (maps onto a radio mode).
            start: Interval start time.
            duration: Radio-on seconds (non-negative).
            activity: Energy-account label; defaults to the state's value.
        """
        node.energy.record(
            STATE_MODES[state], start, duration, activity=activity or state.value
        )

    # ------------------------------------------------------------------ #
    # Periodic wakeup/sleep scheduling
    # ------------------------------------------------------------------ #

    def periodic_charges(self) -> Tuple[PeriodicCharge, ...]:
        """The behaviour's traffic-independent periodic cost table.

        Subclasses describe their duty cycle declaratively (one row per
        periodic activity); the kernel's :meth:`charge_periodic_energy`
        turns the table into closed-form energy.  The default is an empty
        table (a protocol with no idle cost).
        """
        return ()

    def charge_periodic_energy(self, node: SensorNode, horizon: float) -> None:
        """Charge the node's periodic cost table in closed form.

        For each :class:`PeriodicCharge` the node pays
        ``int(horizon / interval)`` events of ``multiplier * duration``
        seconds in the row's state — integer counts are multiplied before
        floats so the closed form is bit-identical to an event-by-event sum.
        """
        for row in self.periodic_charges():
            events = int(horizon / row.interval)
            self.charge(
                node,
                row.state,
                0.0,
                events * row.multiplier * row.duration,
                activity=row.activity,
            )

    # ------------------------------------------------------------------ #
    # Medium acquisition and contention
    # ------------------------------------------------------------------ #

    def acquire_medium(
        self,
        sender: SensorNode,
        now: float,
        channel: Channel,
        deferral_backoff: float = 0.0,
    ) -> float:
        """Earliest time the sender sees an idle medium, with deferral backoff.

        Args:
            sender: The transmitting node.
            now: Time the sender wants to transmit.
            channel: The shared medium.
            deferral_backoff: Scale of the random backoff added when the
                medium was busy (0 disables the backoff and draws nothing).

        Returns:
            ``now`` when the medium is idle; otherwise the end of the
            current reservation plus a uniform random backoff in
            ``[0, deferral_backoff]``.
        """
        start = channel.free_at(sender.node_id, now)
        if start > now:
            start += self.backoff(deferral_backoff)
        return start

    def contention_delay(self, window: float) -> float:
        """Delay of one contention round in a window of ``window`` seconds.

        Half the window is spent deterministically (the expected carrier
        sense before the slot boundary), plus a uniform random backoff over
        the other half — one RNG draw per call.
        """
        return 0.5 * window + self.backoff(0.5 * window)

    # ------------------------------------------------------------------ #
    # Preamble / data / ack exchange accounting
    # ------------------------------------------------------------------ #

    def charge_sender_data_ack(
        self, sender: SensorNode, at: float, ack: bool = True
    ) -> None:
        """Charge the sender's side of one data(+ack) exchange.

        Args:
            sender: The transmitting node.
            at: Time the exchange starts (for overlap detection).
            ack: Whether the protocol acknowledges data frames (the sender
                then listens for the ack).
        """
        self.charge(sender, KernelState.TX_DATA, at, self._data, activity="data-tx")
        if ack:
            self.charge(sender, KernelState.RX_ACK, at, self._ack, activity="ack-rx")

    def charge_receiver_data_ack(
        self, receiver: SensorNode, at: float, ack: bool = True
    ) -> None:
        """Charge the receiver's side of one data(+ack) exchange.

        Args:
            receiver: The receiving node.
            at: Time the exchange starts (for overlap detection).
            ack: Whether the receiver answers with an acknowledgement.
        """
        self.charge(receiver, KernelState.RX_DATA, at, self._data, activity="data-rx")
        if ack:
            self.charge(receiver, KernelState.TX_ACK, at, self._ack, activity="ack-tx")

    def charge_receiver_ack(self, receiver: SensorNode, at: float) -> None:
        """Charge only the receiver's acknowledgement transmission.

        Used by protocols whose receive slot listening is already part of
        the periodic cost (DMAC), so only the ack is a per-packet extra.
        """
        self.charge(receiver, KernelState.TX_ACK, at, self._ack, activity="ack-tx")

    # ------------------------------------------------------------------ #
    # The hop template
    # ------------------------------------------------------------------ #

    def plan_hop(
        self,
        sender: SensorNode,
        receiver: SensorNode,
        now: float,
        channel: Channel,
        overhearers: Sequence[SensorNode],
    ) -> HopOutcome:
        """Plan one hop through the kernel's fixed transition sequence."""
        grant = self.acquire_grant(sender, receiver, now, channel)
        outcome = self.perform_exchange(grant, sender, receiver, channel)
        self.charge_overhearers(grant, outcome, sender, overhearers)
        return outcome

    @abc.abstractmethod
    def acquire_grant(
        self,
        sender: SensorNode,
        receiver: SensorNode,
        now: float,
        channel: Channel,
    ) -> MediumGrant:
        """SLEEP → WAKEUP → CONTEND: when may the sender occupy the medium?

        The protocol's scheduling transition: wait for the relevant party's
        next wake-up / slot / synchronized poll, check medium availability
        (and consume any contention draws), and return the
        :class:`MediumGrant` the exchange transition continues from.
        """

    @abc.abstractmethod
    def perform_exchange(
        self,
        grant: MediumGrant,
        sender: SensorNode,
        receiver: SensorNode,
        channel: Channel,
    ) -> HopOutcome:
        """PREAMBLE → DATA → ACK: reserve the medium and charge both parties.

        The protocol's exchange transition: reserve the medium around the
        sender for the hop's airtime, charge the preamble/data/ack energies
        to the sender's and receiver's accounts, and return the
        :class:`HopOutcome`.
        """

    def charge_overhearers(
        self,
        grant: MediumGrant,
        outcome: HopOutcome,
        sender: SensorNode,
        overhearers: Sequence[SensorNode],
    ) -> None:
        """OVERHEAR: charge neighbours that were awake during the exchange.

        Default: nothing — protocols whose neighbourhood listening is
        already part of the periodic cost table (LMAC) keep this no-op.
        """
