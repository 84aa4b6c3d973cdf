"""Tests for the scalar reference's event engine and energy accounting."""

from __future__ import annotations

import pytest

from repro.exceptions import SimulationError
from repro.network.radio import RadioMode, cc2420
from scalar_reference.energy import EnergyAccount
from scalar_reference.engine import EventQueue, Simulator


class TestEventQueue:
    def test_events_pop_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.push(2.0, lambda: order.append("b"))
        queue.push(1.0, lambda: order.append("a"))
        queue.push(3.0, lambda: order.append("c"))
        while (event := queue.pop()) is not None:
            event.action()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        queue = EventQueue()
        order = []
        queue.push(1.0, lambda: order.append("first"))
        queue.push(1.0, lambda: order.append("second"))
        queue.pop().action()
        queue.pop().action()
        assert order == ["first", "second"]

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        handle = queue.push(1.0, lambda: None)
        handle.cancel()
        assert handle.cancelled
        assert queue.pop() is None
        assert len(queue) == 0

    def test_peek_time_ignores_cancelled(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        first.cancel()
        assert queue.peek_time() == 2.0


class TestSimulator:
    def test_run_until_processes_events_and_advances_clock(self):
        simulator = Simulator()
        seen = []
        simulator.schedule_at(1.0, lambda: seen.append(simulator.now))
        simulator.schedule_in(2.5, lambda: seen.append(simulator.now))
        simulator.run_until(10.0)
        assert seen == [1.0, 2.5]
        assert simulator.now == 10.0
        assert simulator.processed_events == 2

    def test_events_beyond_horizon_stay_pending(self):
        simulator = Simulator()
        simulator.schedule_at(5.0, lambda: None)
        simulator.run_until(1.0)
        assert simulator.pending_events() == 1

    def test_events_can_schedule_new_events(self):
        simulator = Simulator()
        seen = []

        def first():
            simulator.schedule_in(1.0, lambda: seen.append(simulator.now))

        simulator.schedule_at(1.0, first)
        simulator.run_until(5.0)
        assert seen == [2.0]

    def test_scheduling_in_the_past_is_rejected(self):
        simulator = Simulator()
        simulator.schedule_at(1.0, lambda: None)
        simulator.run_until(2.0)
        with pytest.raises(SimulationError):
            simulator.schedule_at(1.5, lambda: None)
        with pytest.raises(SimulationError):
            simulator.schedule_in(-1.0, lambda: None)

    def test_event_budget_guard(self):
        simulator = Simulator(max_events=10)

        def rescheduling():
            simulator.schedule_in(0.001, rescheduling)

        simulator.schedule_at(0.0, rescheduling)
        with pytest.raises(SimulationError):
            simulator.run_until(1.0)

    def test_run_until_backwards_rejected(self):
        simulator = Simulator()
        simulator.run_until(5.0)
        with pytest.raises(SimulationError):
            simulator.run_until(1.0)


class TestEnergyAccount:
    def test_total_energy_includes_residual_sleep(self):
        radio = cc2420()
        account = EnergyAccount(radio=radio)
        account.record(RadioMode.RX, 0.0, 10.0, activity="listen")
        expected = 10.0 * radio.power_rx + 90.0 * radio.power_sleep
        assert account.total_energy(100.0) == pytest.approx(expected)

    def test_average_power_and_duty_cycle(self):
        radio = cc2420()
        account = EnergyAccount(radio=radio)
        account.record(RadioMode.TX, 0.0, 5.0)
        assert account.duty_cycle(50.0) == pytest.approx(0.1)
        assert account.average_power(50.0) == pytest.approx(account.total_energy(50.0) / 50.0)

    def test_breakdown_by_activity(self):
        account = EnergyAccount(radio=cc2420())
        account.record(RadioMode.RX, 0.0, 1.0, activity="poll")
        account.record(RadioMode.RX, 1.0, 2.0, activity="poll")
        account.record(RadioMode.TX, 3.0, 1.0, activity="data")
        breakdown = account.breakdown()
        assert breakdown["poll"] == pytest.approx(3.0 * cc2420().power_rx)
        assert "data" in breakdown

    def test_zero_duration_is_a_no_op(self):
        account = EnergyAccount(radio=cc2420())
        account.record(RadioMode.RX, 0.0, 0.0)
        assert account.total_active_time() == 0.0

    def test_negative_duration_rejected(self):
        account = EnergyAccount(radio=cc2420())
        with pytest.raises(SimulationError):
            account.record(RadioMode.RX, 0.0, -1.0)

    def test_invalid_horizon_rejected(self):
        account = EnergyAccount(radio=cc2420())
        with pytest.raises(SimulationError):
            account.total_energy(0.0)
