"""Per-protocol batch kernels, and the one map that decides what can be simulated.

A batch kernel holds one protocol's simulated MAC arithmetic for the
replication driver (:mod:`repro.simulation.batched.engine`).  It exposes

* :meth:`BatchKernel.assign_phases` — the per-node phase offsets of the
  protocol's wake-up schedule, as one vectorized RNG call;
* :meth:`BatchKernel.periodic_table` / :meth:`BatchKernel.periodic_seconds`
  — the closed-form periodic (traffic-independent) cost table collapsed to
  ``(is_tx, seconds)`` rows, one value shared by every node;
* :meth:`BatchKernel.make_hop_planner` — a closure that plans one hop
  (acquire the medium → exchange → charge the overhearers) against the
  flat :class:`~repro.simulation.batched.engine.ReplicationState` arrays.

Every float expression keeps the association, constant folding and
``max``/branch structure of the scalar reference simulator
(``tests/scalar_reference/``), because the differential tests assert
bit-for-bit equality of the two.  A per-run constant the reference
recomputes per hop (e.g. X-MAC's strobe TX fraction) is hoisted out of the
planner only where the folded value is bit-identical on every call.

:data:`_KERNELS` maps each built-in analytical model class to its kernel,
matched with ``isinstance``, so a subclass of a built-in model simulates
with its parent's kernel; :func:`batch_kernel_for`,
:func:`has_behaviour_for` and :func:`available_mac_protocols` all read it.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple, Type

import numpy as np

from repro.exceptions import SimulationError
from repro.protocols.base import DutyCycledMACModel, ParameterVector
from repro.protocols.dmac import DMACModel
from repro.protocols.lmac import LMACModel
from repro.protocols.registry import available_protocols, protocol_class
from repro.protocols.scpmac import SCPMACModel
from repro.protocols.xmac import XMACModel

#: SCP-MAC contention-window length, in carrier-sense times: the first
#: window precedes the wakeup tone, the second separates tone and data.
CONTENTION_SLOTS = 2.0

#: Block size of buffered backoff draws.  Drawing ``uniform(0, s, size=k)``
#: consumes the PCG64 stream exactly like ``k`` one-at-a-time draws, so
#: refilling in blocks keeps values and stream position bit-identical;
#: leftover buffer entries are never used (the generator dies with the run).
BACKOFF_BLOCK = 64


class BatchKernel:
    """Base class of the batch kernels: the airtimes every protocol shares.

    Args:
        model: The analytical protocol model, so the simulation and the
            closed-form model describe the same timing, radio and frames.
        params: Concrete parameter vector to simulate.
    """

    #: The protocol name every result carries.
    name: str = "abstract"

    def __init__(self, model: DutyCycledMACModel, params: ParameterVector) -> None:
        self._model = model
        self._params = model.coerce(params)
        self._scenario = model.scenario
        self._radio = model.scenario.radio
        self._packets = model.scenario.packets
        radio = self._radio
        packets = self._packets
        self._data = packets.data_airtime(radio)
        self._ack = packets.ack_airtime(radio)
        self._exchange = self._data + radio.turnaround_time + self._ack
        self._poll_cost = radio.wakeup_time + radio.carrier_sense_time

    @property
    def params(self) -> Dict[str, float]:
        """The simulated parameter vector."""
        return dict(self._params)

    # ------------------------------------------------------------------ #
    # Protocol-specific pieces
    # ------------------------------------------------------------------ #

    def assign_phases(
        self,
        rng: np.random.Generator,
        count: int,
        rings: Sequence[int],
        is_sink: Sequence[bool],
    ) -> List[float]:
        """Phase offsets for ``count`` nodes, drawn from ``rng`` in one call.

        ``rings`` and ``is_sink`` carry the deployment structure for
        protocols whose schedule is deterministic per ring (DMAC's
        staggered ladder draws nothing); random-phase protocols ignore
        them.  Element ``i`` equals the ``i``-th of one-at-a-time draws,
        and the generator is left in the same stream position.
        """
        raise NotImplementedError

    def periodic_table(self) -> Tuple[Tuple[bool, float, float, int], ...]:
        """Periodic cost rows as ``(is_tx, interval, duration, multiplier)``."""
        raise NotImplementedError

    def make_hop_planner(self, state):
        """Build ``plan(sender, receiver, now) -> completion`` over ``state``.

        The planner waits for the sender's medium access, reserves the
        medium around the sender, accumulates RX/TX seconds on every
        charged node and bumps the transmission/deferral counters, and
        returns the time the receiver holds the packet.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Shared closed forms
    # ------------------------------------------------------------------ #

    def periodic_seconds(self, horizon: float) -> List[Tuple[bool, float]]:
        """Per-node periodic RX/TX seconds over the horizon, row by row.

        Every non-sink node pays the same rows, in table order — the engine
        adds them to each node's accumulated event seconds one row at a
        time, so the float association is fixed.  The ``int(horizon /
        interval)`` event count multiplies as an integer before the float
        duration.
        """
        rows: List[Tuple[bool, float]] = []
        for is_tx, interval, duration, multiplier in self.periodic_table():
            events = int(horizon / interval)
            rows.append((is_tx, events * multiplier * duration))
        return rows


class XMACBatchKernel(BatchKernel):
    """X-MAC: a strobed preamble toward the receiver's next poll.

    Every node polls on its own random phase; a sender strobes from the
    moment it has the medium until the receiver's poll, then exchanges data
    and ack.  Neighbours whose poll falls inside the strobe train overhear.
    """

    name = "X-MAC"

    def __init__(self, model: DutyCycledMACModel, params: ParameterVector) -> None:
        super().__init__(model, params)
        self._wakeup = self._params[XMACModel.WAKEUP_INTERVAL]
        radio = self._radio
        packets = self._packets
        self._strobe = packets.strobe_airtime(radio)
        self._gap = self._ack + 2.0 * radio.turnaround_time
        self._strobe_period = self._strobe + self._gap
        if self._wakeup <= 0:
            raise SimulationError(f"period must be positive, got {self._wakeup!r}")

    def assign_phases(
        self,
        rng: np.random.Generator,
        count: int,
        rings: Sequence[int],
        is_sink: Sequence[bool],
    ) -> List[float]:
        del rings, is_sink  # each node polls on its own random schedule
        draws = rng.uniform(0.0, self._wakeup, size=count)
        return [float(value) for value in draws]

    def periodic_table(self) -> Tuple[Tuple[bool, float, float, int], ...]:
        return ((False, self._wakeup, self._poll_cost, 1),)

    def make_hop_planner(self, state):
        wakeup = self._wakeup
        strobe_period = self._strobe_period
        exchange = self._exchange
        data = self._data
        ack = self._ack
        # Recomputed per hop by the reference but constant per run, so the
        # folded values are bit-identical on every call.
        fraction = self._strobe / self._strobe_period
        listen_fraction = 1.0 - fraction
        receiver_preamble = 0.5 * self._strobe_period + self._strobe
        overhear_cost = 1.5 * self._strobe_period
        draw_backoff = strobe_period > 0
        phases = state.phases
        busy_until = state.busy_until
        rx = state.rx
        tx = state.tx
        interference = state.interference
        overhearers = state.overhearers
        rng = state.rng
        ceil = math.ceil
        buffer: List[float] = []
        cursor = 0

        def plan(sender: int, receiver: int, now: float) -> float:
            nonlocal buffer, cursor
            # acquire_medium(deferral_backoff=strobe_period)
            free = busy_until[sender]
            if free > now:
                state.deferrals += 1
                start = free
                if draw_backoff:
                    if cursor >= len(buffer):
                        buffer = rng.uniform(
                            0.0, strobe_period, size=BACKOFF_BLOCK
                        ).tolist()
                        cursor = 0
                    start += buffer[cursor]
                    cursor += 1
            else:
                start = now
            # next_occurrence(start, wakeup, receiver.phase)
            phase = phases[receiver]
            if start <= phase:
                receiver_poll = phase
            else:
                receiver_poll = phase + ceil((start - phase) / wakeup - 1e-12) * wakeup
            gap = receiver_poll - start
            if gap < 0.0:
                gap = 0.0
            strobe_duration = gap + strobe_period
            transmission_end = start + strobe_duration + exchange
            airtime = strobe_duration + exchange
            # channel.reserve(sender, start, airtime)
            state.transmissions += 1
            end = start + airtime
            for member in interference[sender]:
                if end > busy_until[member]:
                    busy_until[member] = end
            # Sender: strobes, ack-listen gaps, data, ack.
            tx[sender] += strobe_duration * fraction
            rx[sender] += strobe_duration * listen_fraction
            tx[sender] += data
            rx[sender] += ack
            # Receiver: residual strobe, early ack, data, ack.
            rx[receiver] += receiver_preamble
            tx[receiver] += ack
            rx[receiver] += data
            tx[receiver] += ack
            # Overhearers whose poll falls inside the strobe train.
            window_end = start + strobe_duration
            for neighbour in overhearers[sender]:
                phase = phases[neighbour]
                if start <= phase:
                    poll_time = phase
                else:
                    poll_time = phase + ceil((start - phase) / wakeup - 1e-12) * wakeup
                if poll_time <= window_end:
                    rx[neighbour] += overhear_cost
            return transmission_end

        return plan


class LMACBatchKernel(BatchKernel):
    """LMAC: every node sends its data unit in its own TDMA slot.

    Slots are owned uniformly at random; listening to every slot's control
    section is the periodic cost, and there are no acknowledgements.
    """

    name = "LMAC"

    def __init__(self, model: DutyCycledMACModel, params: ParameterVector) -> None:
        super().__init__(model, params)
        if not isinstance(model, LMACModel):
            raise TypeError("LMACBatchKernel requires an LMACModel")
        self._slot_length = self._params[LMACModel.SLOT_LENGTH]
        self._slot_count = int(round(self._params[LMACModel.SLOT_COUNT]))
        self._frame = self._slot_length * self._slot_count
        self._control = self._packets.control_airtime(self._radio)
        self._guard = model._guard_time  # noqa: SLF001 - same package family
        self._wakeup = self._radio.wakeup_time
        if self._frame <= 0:
            raise SimulationError(f"period must be positive, got {self._frame!r}")

    def assign_phases(
        self,
        rng: np.random.Generator,
        count: int,
        rings: Sequence[int],
        is_sink: Sequence[bool],
    ) -> List[float]:
        del rings, is_sink  # each node owns a uniformly random slot
        draws = rng.integers(0, self._slot_count, size=count)
        return [int(value) * self._slot_length for value in draws]

    def periodic_table(self) -> Tuple[Tuple[bool, float, float, int], ...]:
        return (
            (
                False,
                self._frame,
                self._control + self._guard + self._wakeup,
                self._slot_count - 1,
            ),
            (True, self._frame, self._control + self._wakeup, 1),
        )

    def make_hop_planner(self, state):
        frame = self._frame
        guard = self._guard
        control = self._control
        data = self._data
        airtime = self._guard + self._control + self._data
        phases = state.phases
        busy_until = state.busy_until
        rx = state.rx
        tx = state.tx
        interference = state.interference
        ceil = math.ceil

        def plan(sender: int, receiver: int, now: float) -> float:
            # next_occurrence(now, frame, sender.phase)
            phase = phases[sender]
            if now <= phase:
                slot_start = phase
            else:
                slot_start = phase + ceil((now - phase) / frame - 1e-12) * frame
            # channel.free_at counts a deferral when the medium is busy at
            # the slot start; the retry waits for the next owned slot.
            free = busy_until[sender]
            if free > slot_start:
                state.deferrals += 1
                if free <= phase:
                    start = phase
                else:
                    start = phase + ceil((free - phase) / frame - 1e-12) * frame
            else:
                start = slot_start
            data_start = start + guard + control
            completion = data_start + data
            # channel.reserve(sender, start, airtime)
            state.transmissions += 1
            end = start + airtime
            for member in interference[sender]:
                if end > busy_until[member]:
                    busy_until[member] = end
            # Data unit only: control traffic is periodic, no acks in LMAC.
            tx[sender] += data
            rx[receiver] += data
            return completion

        return plan


class DMACBatchKernel(BatchKernel):
    """DMAC: a staggered wake-up ladder toward the sink.

    Ring ``d`` transmits at offset ``(D - d) · μ`` into the frame (``μ`` is
    the slot time) after a contention window; an exchange that would
    overflow the slot retries in the next frame.
    """

    name = "DMAC"

    def __init__(self, model: DutyCycledMACModel, params: ParameterVector) -> None:
        super().__init__(model, params)
        if not isinstance(model, DMACModel):
            raise TypeError("DMACBatchKernel requires a DMACModel")
        self._frame = self._params[DMACModel.FRAME_LENGTH]
        self._slot = model.slot_time
        self._contention = model._contention_window  # noqa: SLF001 - same package family
        self._depth = self._scenario.depth
        if self._frame <= 0:
            raise SimulationError(f"period must be positive, got {self._frame!r}")

    def assign_phases(
        self,
        rng: np.random.Generator,
        count: int,
        rings: Sequence[int],
        is_sink: Sequence[bool],
    ) -> List[float]:
        del rng, count  # the staggered schedule is deterministic: no draws
        return [
            0.0 if sink else (self._depth - ring) * self._slot
            for ring, sink in zip(rings, is_sink)
        ]

    def periodic_table(self) -> Tuple[Tuple[bool, float, float, int], ...]:
        return ((False, self._frame, self._slot, 2),)

    def make_hop_planner(self, state):
        frame = self._frame
        slot = self._slot
        exchange = self._exchange
        data = self._data
        ack = self._ack
        # contention_delay(window) = 0.5 * window + backoff(0.5 * window);
        # backoff draws only when its scale is positive.
        half_window = 0.5 * self._contention
        draw_backoff = half_window > 0
        phases = state.phases
        rings = state.rings
        busy_until = state.busy_until
        rx = state.rx
        tx = state.tx
        interference = state.interference
        overhearers = state.overhearers
        rng = state.rng
        ceil = math.ceil
        buffer: List[float] = []
        cursor = 0

        def plan(sender: int, receiver: int, now: float) -> float:
            nonlocal buffer, cursor
            # next_occurrence(now, frame, sender.phase)
            phase = phases[sender]
            if now <= phase:
                slot_start = phase
            else:
                slot_start = phase + ceil((now - phase) / frame - 1e-12) * frame
            # The contention draw happens before the channel check, as in
            # the reference's acquire_grant.
            if draw_backoff:
                if cursor >= len(buffer):
                    buffer = rng.uniform(
                        0.0, half_window, size=BACKOFF_BLOCK
                    ).tolist()
                    cursor = 0
                contention = half_window + buffer[cursor]
                cursor += 1
            else:
                contention = half_window
            airtime = exchange
            # channel.free_at(sender, slot_start)
            free = busy_until[sender]
            if free > slot_start:
                state.deferrals += 1
                start = free
            else:
                start = slot_start
            if start + contention + airtime > slot_start + slot:
                # Slot overflow: retry in the next frame's transmit slot (a
                # second free_at, so possibly a second deferral).
                shifted = slot_start + slot
                if shifted <= phase:
                    slot_start = phase
                else:
                    slot_start = phase + ceil((shifted - phase) / frame - 1e-12) * frame
                free = busy_until[sender]
                if free > slot_start:
                    state.deferrals += 1
                else:
                    free = slot_start
                start = max(slot_start, free)
            transmission_start = start + contention
            completion = transmission_start + airtime
            # channel.reserve(sender, transmission_start, airtime)
            state.transmissions += 1
            end = transmission_start + airtime
            for member in interference[sender]:
                if end > busy_until[member]:
                    busy_until[member] = end
            # Sender: contention listen, data, ack.
            rx[sender] += contention
            tx[sender] += data
            rx[sender] += ack
            # Receiver is awake in its slot anyway: only the ack is extra.
            tx[receiver] += ack
            # Same-ring neighbours awake in the overlapping slot overhear.
            sender_ring = rings[sender]
            for neighbour in overhearers[sender]:
                if rings[neighbour] == sender_ring:
                    rx[neighbour] += data
            return completion

        return plan


class SCPMACBatchKernel(BatchKernel):
    """SCP-MAC: synchronized polling on one network-wide phase.

    A sender sends a wakeup tone of twice the sync error at the next common
    poll, backs off within a second contention window, then exchanges data
    and ack; a sender whose neighbourhood is busy at an epoch retries at the
    next one.  Every overhearer samples half a tone, and periodic SYNC
    exchanges keep the clocks aligned.
    """

    name = "SCP-MAC"

    def __init__(self, model: DutyCycledMACModel, params: ParameterVector) -> None:
        super().__init__(model, params)
        if not isinstance(model, SCPMACModel):
            raise TypeError("SCPMACBatchKernel requires an SCPMACModel")
        self._poll = self._params[SCPMACModel.POLL_INTERVAL]
        self._tone = 2.0 * model.sync_error
        self._sync_period = model.sync_period
        self._sync = self._packets.sync_airtime(self._radio)
        self._cw = CONTENTION_SLOTS * self._radio.carrier_sense_time
        self._phase = 0.0
        if self._poll <= 0:
            raise SimulationError(f"period must be positive, got {self._poll!r}")

    def assign_phases(
        self,
        rng: np.random.Generator,
        count: int,
        rings: Sequence[int],
        is_sink: Sequence[bool],
    ) -> List[float]:
        del rings, is_sink
        # One network-wide phase: a single draw, at the stream position
        # where the reference behaviour draws it on construction (nothing
        # else touches the generator in between).
        self._phase = float(rng.uniform(0.0, self._poll))
        return [self._phase] * count

    def periodic_table(self) -> Tuple[Tuple[bool, float, float, int], ...]:
        return (
            (False, self._poll, self._poll_cost, 1),
            (True, self._sync_period, self._sync, 1),
            (False, self._sync_period, self._sync, self._scenario.density),
        )

    def make_hop_planner(self, state):
        poll = self._poll
        phase = self._phase
        tone = self._tone
        cw = self._cw
        exchange = self._exchange
        data = self._data
        ack = self._ack
        half_tone = 0.5 * tone
        draw_backoff = cw > 0
        busy_until = state.busy_until
        rx = state.rx
        tx = state.tx
        interference = state.interference
        overhearers = state.overhearers
        rng = state.rng
        ceil = math.ceil
        buffer: List[float] = []
        cursor = 0

        def plan(sender: int, receiver: int, now: float) -> float:
            nonlocal buffer, cursor
            # next_occurrence(now, poll, phase)
            if now <= phase:
                epoch = phase
            else:
                epoch = phase + ceil((now - phase) / poll - 1e-12) * poll
            # channel.free_at at each probed epoch: a deferral per busy probe.
            busy = busy_until[sender]
            if busy > epoch:
                state.deferrals += 1
                free = busy
            else:
                free = epoch
            while free > epoch:
                # Lost this epoch's contention: walk to the first epoch
                # after the medium clears (the RETRY transition).
                if free <= phase:
                    epoch = phase
                else:
                    epoch = phase + ceil((free - phase) / poll - 1e-12) * poll
                busy = busy_until[sender]
                if busy > epoch:
                    state.deferrals += 1
                    free = busy
                else:
                    free = epoch
            # Second contention phase: backoff between tone and data.
            if draw_backoff:
                if cursor >= len(buffer):
                    buffer = rng.uniform(0.0, cw, size=BACKOFF_BLOCK).tolist()
                    cursor = 0
                data_backoff = buffer[cursor]
                cursor += 1
            else:
                data_backoff = 0.0
            tone_start = epoch
            data_start = epoch + tone + data_backoff
            completion = data_start + exchange
            airtime = completion - tone_start
            # channel.reserve(sender, tone_start, airtime)
            state.transmissions += 1
            end = tone_start + airtime
            for member in interference[sender]:
                if end > busy_until[member]:
                    busy_until[member] = end
            # Sender: both contention windows, the tone, data, ack.
            rx[sender] += cw + data_backoff
            tx[sender] += tone
            tx[sender] += data
            rx[sender] += ack
            # Receiver: half the tone on average plus the second contention
            # window, then the data/ack exchange.
            rx[receiver] += half_tone + data_backoff
            rx[receiver] += data
            tx[receiver] += ack
            # Every synchronized neighbour samples half the tone.
            for neighbour in overhearers[sender]:
                rx[neighbour] += half_tone
            return completion

        return plan


#: Analytical model class → batch kernel, matched with ``isinstance``.
_KERNELS: Dict[Type[DutyCycledMACModel], Type[BatchKernel]] = {
    XMACModel: XMACBatchKernel,
    DMACModel: DMACBatchKernel,
    LMACModel: LMACBatchKernel,
    SCPMACModel: SCPMACBatchKernel,
}


def has_behaviour_for(model_class: Type[DutyCycledMACModel]) -> bool:
    """Whether instances of ``model_class`` can be simulated.

    Args:
        model_class: The analytical model class to look up (a subclass of a
            built-in model counts, matching :func:`batch_kernel_for`).
    """
    return isinstance(model_class, type) and issubclass(model_class, tuple(_KERNELS))


def available_mac_protocols() -> List[str]:
    """Canonical names of the registered protocols that can be simulated.

    Spec validation, campaign assembly and the CLI help use it to tell
    simulatable protocols apart from analytical-only ones by name, before
    any model is constructed.

    Returns:
        The registered protocol names whose model class has a kernel (the
        four built-ins: ``dmac``, ``lmac``, ``scpmac``, ``xmac``), sorted.
    """
    return [
        name
        for name in available_protocols()
        if has_behaviour_for(protocol_class(name))
    ]


def batch_kernel_for(model: DutyCycledMACModel) -> Type[BatchKernel]:
    """The kernel class that simulates ``model``.

    Args:
        model: The analytical protocol model.

    Raises:
        SimulationError: if the model has no kernel (an analytical-only
            protocol); the message lists the protocols with a simulator.
    """
    for model_class, kernel_class in _KERNELS.items():
        if isinstance(model, model_class):
            return kernel_class
    raise SimulationError(
        f"no simulated behaviour is registered for {type(model).__name__} "
        f"({model.name}); protocols with a simulator: "
        f"{', '.join(available_mac_protocols())}"
    )
