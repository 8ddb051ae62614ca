"""Analytic performance models (Detmold/Oudshoorn extension, paper §6)."""

from repro.model.analytic import (
    BATCH_ENVELOPE_BYTES,
    CallShape,
    crossover_calls,
    fit_batch_shape,
    latency_advantage,
    predict_brmi_s,
    predict_rmi_s,
    shape_from_stats,
    speedup,
)

__all__ = [
    "BATCH_ENVELOPE_BYTES",
    "CallShape",
    "crossover_calls",
    "fit_batch_shape",
    "latency_advantage",
    "predict_brmi_s",
    "predict_rmi_s",
    "shape_from_stats",
    "speedup",
]
