"""Analytic cost models for RPC vs explicit batching.

The paper's related work (§6) cites Detmold & Oudshoorn's analytic
performance models for RPC and batched futures and notes they "could be
extended to model the performance properties of the new optimization
constructs of BRMI".  This module is that extension, specialized to the
cost parameters of our simulated testbed:

RMI, n independent calls::

    T_rmi(n) = n · [ c_req + c_disp + 2·L + (b_up + b_dn)·(8/B + 2·k) ]

BRMI, one batch of n calls::

    T_brmi(n) = c_req + c_disp + 2·L + (b_up(n) + b_dn(n))·(8/B + 2·k)
              + c_setup + n·(c_record + c_op)

    b_up(n) = e_up + n·b_op_up        b_dn(n) = e_dn + n·b_op_dn

with L the one-way latency, B the bandwidth, k the per-byte CPU cost and
c_* the per-event host charges.  The model predicts the same quantities
the simulator measures, so tests can hold them against each other, and
closed-form analysis gives the crossover batch size below which plain
RMI wins (Figure 5 shows it empirically at n ≈ 2).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from repro.net.conditions import (
    CHARGE_BATCH_OP,
    CHARGE_BATCH_RECORD,
    CHARGE_BATCH_SETUP,
    CHARGE_PROXY_CREATE,
    CHARGE_REMOTE_EXPORT,
    CHARGE_STUB_CREATE,
    HostCosts,
    NetworkConditions,
)


#: Default envelope bytes of a batch request/response beyond its per-op
#: payload; :func:`fit_batch_shape` measures the real ones.
BATCH_ENVELOPE_BYTES = 120


@dataclass(frozen=True)
class CallShape:
    """Byte/structure profile of one logical remote call.

    - ``request_bytes`` / ``response_bytes``: payload per plain RMI call;
    - ``batched_request_bytes`` / ``batched_response_bytes``: marginal
      payload this call adds to a batch (descriptor vs full envelope);
    - ``batch_request_envelope_bytes`` / ``batch_response_envelope_bytes``:
      what one batch request/response costs beyond its per-op payload;
    - ``remote_returns``: how many remote objects the call returns (each
      costs an export + stub creation under RMI, nothing under BRMI).
    """

    request_bytes: int = 96
    response_bytes: int = 32
    batched_request_bytes: int = 72
    batched_response_bytes: int = 24
    remote_returns: int = 0
    batch_request_envelope_bytes: int = BATCH_ENVELOPE_BYTES
    batch_response_envelope_bytes: int = BATCH_ENVELOPE_BYTES

    def __post_init__(self):
        for shape_field in dataclasses.fields(self):
            if getattr(self, shape_field.name) < 0:
                raise ValueError(f"{shape_field.name} cannot be negative")


def _one_way(conditions: NetworkConditions, hosts: HostCosts,
             num_bytes: int) -> float:
    """Seconds to move *num_bytes* one way, including codec CPU."""
    return (
        conditions.transmission_time(num_bytes)
        + hosts.per_byte_cpu_s * num_bytes
    )


def predict_rmi_s(conditions: NetworkConditions, hosts: HostCosts,
                  calls: int, shape: CallShape = CallShape()) -> float:
    """Predicted seconds for *calls* sequential RMI invocations."""
    if calls < 0:
        raise ValueError(f"calls cannot be negative: {calls}")
    per_call = (
        hosts.request_overhead_s
        + hosts.dispatch_overhead_s
        + _one_way(conditions, hosts, shape.request_bytes)
        + _one_way(conditions, hosts, shape.response_bytes)
        + shape.remote_returns
        * (
            hosts.charge_cost(CHARGE_REMOTE_EXPORT)
            + hosts.charge_cost(CHARGE_STUB_CREATE)
        )
    )
    return calls * per_call


def predict_brmi_s(conditions: NetworkConditions, hosts: HostCosts,
                   calls: int, shape: CallShape = CallShape()) -> float:
    """Predicted seconds for one explicit batch of *calls* invocations."""
    if calls < 0:
        raise ValueError(f"calls cannot be negative: {calls}")
    if calls == 0:
        return 0.0
    up = shape.batch_request_envelope_bytes + calls * shape.batched_request_bytes
    down = (shape.batch_response_envelope_bytes
            + calls * shape.batched_response_bytes)
    return (
        hosts.request_overhead_s
        + hosts.dispatch_overhead_s
        + _one_way(conditions, hosts, up)
        + _one_way(conditions, hosts, down)
        + hosts.charge_cost(CHARGE_PROXY_CREATE)  # wrap the root stub
        + hosts.charge_cost(CHARGE_BATCH_SETUP)
        + calls
        * (
            hosts.charge_cost(CHARGE_BATCH_RECORD)
            + hosts.charge_cost(CHARGE_BATCH_OP)
        )
    )


def speedup(conditions: NetworkConditions, hosts: HostCosts, calls: int,
            shape: CallShape = CallShape()) -> float:
    """Predicted RMI/BRMI time ratio for a batch of *calls*."""
    brmi = predict_brmi_s(conditions, hosts, calls, shape)
    if brmi == 0:
        return math.inf
    return predict_rmi_s(conditions, hosts, calls, shape) / brmi


def crossover_calls(conditions: NetworkConditions, hosts: HostCosts,
                    shape: CallShape = CallShape(),
                    search_limit: int = 1000) -> int:
    """Smallest batch size at which BRMI is at least as fast as RMI.

    Figure 5's observation — "RMI outperforms BRMI when the batch size is
    smaller than two" — corresponds to a crossover of 2 under the LAN
    parameters.  Returns ``search_limit + 1`` if BRMI never catches up
    within the search range (degenerate parameterizations).
    """
    for calls in range(1, search_limit + 1):
        if predict_brmi_s(conditions, hosts, calls, shape) <= predict_rmi_s(
            conditions, hosts, calls, shape
        ):
            return calls
    return search_limit + 1


def latency_advantage(conditions: NetworkConditions, hosts: HostCosts,
                      calls: int, shape: CallShape = CallShape()) -> float:
    """Absolute seconds saved by batching *calls* invocations.

    Grows linearly in both the call count and the link latency — the
    quantitative form of the paper's motivation that latency (which lags
    bandwidth, Patterson 2004) dominates chatty distributed objects.
    """
    return predict_rmi_s(conditions, hosts, calls, shape) - predict_brmi_s(
        conditions, hosts, calls, shape
    )


def shape_from_stats(requests: int, bytes_sent: int, bytes_received: int,
                     remote_returns: int = 0) -> CallShape:
    """Derive an average :class:`CallShape` from observed traffic.

    Used by tests to feed the model the byte profile the simulator
    actually produced, so model-vs-simulation comparisons do not depend
    on guessing message sizes.
    """
    if requests < 1:
        raise ValueError("need at least one observed request")
    return CallShape(
        request_bytes=bytes_sent // requests,
        response_bytes=bytes_received // requests,
        batched_request_bytes=bytes_sent // requests,
        batched_response_bytes=bytes_received // requests,
        remote_returns=remote_returns,
    )


def fit_batch_shape(small, large, base: CallShape = CallShape()) -> CallShape:
    """Fit batch envelope and per-op bytes from two observed batches.

    *small* and *large* are ``(calls, bytes_sent, bytes_received)`` of
    one flushed batch each, at two different sizes.  A batch's wire
    bytes are affine in its op count, so the two points give the per-op
    bytes (slope) and the envelope (intercept) in each direction.  The
    plain-RMI fields are taken from *base*.
    """
    (small_calls, small_up, small_down) = small
    (large_calls, large_up, large_down) = large
    if small_calls == large_calls:
        raise ValueError("need two different batch sizes to fit a shape")
    span = large_calls - small_calls
    op_up = (large_up - small_up) // span
    op_down = (large_down - small_down) // span
    return dataclasses.replace(
        base,
        batched_request_bytes=op_up,
        batched_response_bytes=op_down,
        batch_request_envelope_bytes=small_up - small_calls * op_up,
        batch_response_envelope_bytes=small_down - small_calls * op_down,
    )
