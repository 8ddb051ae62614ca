"""Tests for the analytic cost model, including model-vs-simulation."""

import pytest

from repro.apps import run_noop_brmi, run_noop_rmi
from repro.bench.harness import BenchEnv
from repro.model.analytic import (
    CallShape,
    crossover_calls,
    fit_batch_shape,
    latency_advantage,
    predict_brmi_s,
    predict_rmi_s,
    shape_from_stats,
    speedup,
)
from repro.net.conditions import DEFAULT_HOSTS, LAN, WIRELESS, scaled


class TestModelShape:
    def test_rmi_is_linear_in_calls(self):
        one = predict_rmi_s(LAN, DEFAULT_HOSTS, 1)
        five = predict_rmi_s(LAN, DEFAULT_HOSTS, 5)
        assert five == pytest.approx(5 * one)

    def test_brmi_nearly_flat_in_calls(self):
        one = predict_brmi_s(LAN, DEFAULT_HOSTS, 1)
        five = predict_brmi_s(LAN, DEFAULT_HOSTS, 5)
        assert five < 2 * one

    def test_zero_calls(self):
        assert predict_rmi_s(LAN, DEFAULT_HOSTS, 0) == 0.0
        assert predict_brmi_s(LAN, DEFAULT_HOSTS, 0) == 0.0

    def test_negative_calls_rejected(self):
        with pytest.raises(ValueError):
            predict_rmi_s(LAN, DEFAULT_HOSTS, -1)
        with pytest.raises(ValueError):
            predict_brmi_s(LAN, DEFAULT_HOSTS, -1)

    def test_remote_returns_penalize_rmi_only(self):
        shape = CallShape(remote_returns=1)
        base = CallShape(remote_returns=0)
        assert predict_rmi_s(LAN, DEFAULT_HOSTS, 3, shape) > predict_rmi_s(
            LAN, DEFAULT_HOSTS, 3, base
        )
        assert predict_brmi_s(LAN, DEFAULT_HOSTS, 3, shape) == pytest.approx(
            predict_brmi_s(LAN, DEFAULT_HOSTS, 3, base)
        )


class TestCrossover:
    def test_lan_crossover_is_two(self):
        """Figure 5's observation: RMI wins only below batch size 2."""
        assert crossover_calls(LAN, DEFAULT_HOSTS) == 2

    def test_higher_latency_never_raises_crossover(self):
        lan_cross = crossover_calls(LAN, DEFAULT_HOSTS)
        slow = scaled(LAN, latency_factor=10)
        assert crossover_calls(slow, DEFAULT_HOSTS) <= lan_cross

    def test_speedup_grows_with_calls(self):
        speedups = [
            speedup(LAN, DEFAULT_HOSTS, calls) for calls in (1, 3, 5, 10)
        ]
        assert speedups == sorted(speedups)

    def test_latency_advantage_grows_with_latency(self):
        lan = latency_advantage(LAN, DEFAULT_HOSTS, 5)
        wireless = latency_advantage(WIRELESS, DEFAULT_HOSTS, 5)
        assert wireless > lan > 0


class TestShapeFromStats:
    def test_averages_bytes(self):
        shape = shape_from_stats(requests=4, bytes_sent=400,
                                 bytes_received=80)
        assert shape.request_bytes == 100
        assert shape.response_bytes == 20

    def test_requires_requests(self):
        with pytest.raises(ValueError):
            shape_from_stats(0, 0, 0)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            CallShape(request_bytes=-1)


class TestFitBatchShape:
    def test_recovers_envelope_and_per_op_bytes(self):
        shape = fit_batch_shape((1, 150, 60), (5, 350, 100))
        assert shape.batched_request_bytes == 50
        assert shape.batched_response_bytes == 10
        assert shape.batch_request_envelope_bytes == 100
        assert shape.batch_response_envelope_bytes == 50

    def test_keeps_plain_rmi_fields_of_base(self):
        base = CallShape(request_bytes=11, response_bytes=7)
        shape = fit_batch_shape((2, 300, 90), (4, 500, 130), base)
        assert (shape.request_bytes, shape.response_bytes) == (11, 7)

    def test_needs_two_batch_sizes(self):
        with pytest.raises(ValueError):
            fit_batch_shape((3, 300, 90), (3, 300, 90))


def _observed_batch(calls):
    """``(calls, bytes_sent, bytes_received)`` of one no-op batch."""
    with BenchEnv(LAN) as env:
        stub = env.lookup("noop")
        env.client.stats.reset()
        run_noop_brmi(stub, calls)
        snap = env.client.stats.snapshot()
    return calls, snap.bytes_sent, snap.bytes_received


class TestModelVsSimulation:
    @pytest.mark.parametrize("conditions", [LAN, WIRELESS],
                             ids=["lan", "wireless"])
    def test_rmi_prediction_within_tolerance(self, conditions):
        """Feed the model the observed byte profile; predictions must land
        within 15% of the simulated measurement."""
        calls = 5
        with BenchEnv(conditions) as env:
            stub = env.lookup("noop")
            env.client.stats.reset()
            measured_ms = env.measure_ms(run_noop_rmi, stub, calls)
            snap = env.client.stats.snapshot()
        shape = shape_from_stats(
            snap.requests, snap.bytes_sent, snap.bytes_received
        )
        predicted_ms = predict_rmi_s(conditions, DEFAULT_HOSTS, calls,
                                     shape) * 1e3
        assert predicted_ms == pytest.approx(measured_ms, rel=0.15)

    def test_brmi_prediction_within_tolerance(self):
        calls = 5
        with BenchEnv(LAN) as env:
            measured_ms = env.measure_ms(run_noop_brmi, env.lookup("noop"),
                                         calls)
        shape = fit_batch_shape(_observed_batch(1), _observed_batch(calls))
        predicted_ms = predict_brmi_s(LAN, DEFAULT_HOSTS, calls, shape) * 1e3
        assert predicted_ms == pytest.approx(measured_ms, rel=0.20)

    def test_model_crossover_matches_simulation(self):
        """The simulated crossover (where BRMI starts winning the no-op
        benchmark) must equal the model's closed-form answer when the
        model is fed the byte profile actually observed on the wire."""
        with BenchEnv(LAN) as env:
            stub = env.lookup("noop")
            env.client.stats.reset()
            run_noop_rmi(stub, 1)
            rmi_snap = env.client.stats.snapshot()
        shape = fit_batch_shape(
            _observed_batch(1),
            _observed_batch(5),
            CallShape(
                request_bytes=rmi_snap.bytes_sent,
                response_bytes=rmi_snap.bytes_received,
            ),
        )
        model_cross = crossover_calls(LAN, DEFAULT_HOSTS, shape)

        simulated_cross = None
        for calls in range(1, 10):
            with BenchEnv(LAN) as env:
                rmi = env.measure_ms(run_noop_rmi, env.lookup("noop"), calls)
            with BenchEnv(LAN) as env:
                brmi = env.measure_ms(run_noop_brmi, env.lookup("noop"),
                                      calls)
            if brmi <= rmi:
                simulated_cross = calls
                break
        assert simulated_cross == model_cross
