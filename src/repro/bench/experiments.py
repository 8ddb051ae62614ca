"""One generator per evaluation figure of the paper (§5.2-§5.4).

Each ``run_*`` function returns an :class:`~repro.bench.harness.Experiment`
with ``RMI`` and ``BRMI`` series, ready for
:func:`repro.bench.reporting.render_experiment`.  Config 1 is the ``LAN``
preset, Config 2 the ``WIRELESS`` preset; the figure id picks between
them.
"""

from __future__ import annotations

from typing import Dict

from repro.apps import (
    fetch_files_brmi,
    fetch_files_rmi,
    list_directory_brmi,
    list_directory_rmi,
    purchase_session_brmi,
    purchase_session_rmi,
    run_noop_brmi,
    run_noop_rmi,
    run_simulation_brmi,
    run_simulation_rmi,
    translate_brmi,
    translate_rmi,
    traverse_brmi,
    traverse_brmi_unbatched,
    traverse_rmi,
    Word,
)
from repro.bench.harness import BenchEnv, Experiment, Series, sweep
from repro.model.analytic import (
    CallShape,
    crossover_calls,
    fit_batch_shape,
    predict_brmi_s,
    predict_rmi_s,
)
from repro.net.conditions import (
    DEFAULT_HOSTS,
    LAN,
    WIRELESS,
    HostCosts,
    NetworkConditions,
    scaled,
)

#: Sweep ranges used by the paper.
NOOP_CALLS = (1, 2, 3, 4, 5)
LIST_HOPS = (1, 2, 3, 4, 5)
SIM_STEPS = (5, 10, 15, 20, 25, 30, 35, 40)
SIM_REPS = 5
FILE_COUNTS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)


def _env_factory(conditions: NetworkConditions, hosts: HostCosts = DEFAULT_HOSTS):
    return lambda: BenchEnv(conditions, hosts)


# -- Figures 5/6: no-op micro-benchmark ---------------------------------------


def run_noop(conditions: NetworkConditions = LAN,
             exp_id: str = "fig05") -> Experiment:
    """No-op benchmark: n calls, one BRMI batch (Figures 5 and 6)."""
    series = sweep(
        _env_factory(conditions),
        NOOP_CALLS,
        ("RMI", lambda env, n: env.measure_ms(
            run_noop_rmi, env.lookup("noop"), n)),
        ("BRMI", lambda env, n: env.measure_ms(
            run_noop_brmi, env.lookup("noop"), n)),
    )
    return Experiment(
        exp_id=exp_id,
        title="No-op benchmark",
        xlabel="number of method calls",
        conditions_name=conditions.name,
        series=series,
        notes="RMI grows linearly with call count; BRMI stays near "
        "constant; RMI wins below the crossover batch size.",
    )


# -- Figures 7/8/9: linked-list traversal -------------------------------------


def run_linked_list(conditions: NetworkConditions = LAN,
                    batch_size_one: bool = False,
                    exp_id: str = "fig07") -> Experiment:
    """Linked-list traversal (Figures 7, 8; Figure 9 with size-1 batches)."""
    brmi = traverse_brmi_unbatched if batch_size_one else traverse_brmi
    series = sweep(
        _env_factory(conditions),
        LIST_HOPS,
        ("RMI", lambda env, n: env.measure_ms(
            traverse_rmi, env.lookup("list"), n)),
        ("BRMI", lambda env, n: env.measure_ms(brmi, env.lookup("list"), n)),
    )
    flavor = " (batches of size 1)" if batch_size_one else ""
    return Experiment(
        exp_id=exp_id,
        title=f"Linked list traversal{flavor}",
        xlabel="number of traversals",
        conditions_name=conditions.name,
        series=series,
        notes="BRMI wins even at one traversal: remote returns stay on "
        "the server instead of being marshalled into stubs.",
    )


# -- Figures 10/11: remote simulation -----------------------------------------


def run_simulation(conditions: NetworkConditions = LAN,
                   exp_id: str = "fig10", reps: int = SIM_REPS) -> Experiment:
    """Remote simulation with flush-per-step batches (Figures 10, 11)."""

    def rmi(env, steps):
        stub = env.fresh_simulation("sim-rmi")
        return env.measure_ms(run_simulation_rmi, stub, steps, reps)

    def brmi(env, steps):
        stub = env.fresh_simulation("sim-brmi")
        return env.measure_ms(run_simulation_brmi, stub, steps, reps)

    series = sweep(
        _env_factory(conditions), SIM_STEPS, ("RMI", rmi), ("BRMI", brmi)
    )
    return Experiment(
        exp_id=exp_id,
        title="Remote simulation",
        xlabel="number of simulation steps",
        conditions_name=conditions.name,
        series=series,
        notes="Batch size pinned to one: the gap isolates remote "
        "reference identity — balance() is local under BRMI, a loopback "
        "remote call under RMI.",
    )


# -- Figures 12/13: file server macro benchmark --------------------------------


def run_file_server(conditions: NetworkConditions = LAN,
                    exp_id: str = "fig12") -> Experiment:
    """Request-and-transfer n of 10 files, 100 KB total (Figures 12, 13)."""
    series = sweep(
        _env_factory(conditions),
        FILE_COUNTS,
        ("RMI", lambda env, n: env.measure_ms(
            fetch_files_rmi, env.lookup("fileserver"), n)),
        ("BRMI", lambda env, n: env.measure_ms(
            fetch_files_brmi, env.lookup("fileserver"), n)),
    )
    return Experiment(
        exp_id=exp_id,
        title="Remote file server (macro)",
        xlabel="number of files",
        conditions_name=conditions.name,
        series=series,
        notes="Combines batching and identity: metadata and contents of "
        "all requested files move in bulk.",
    )


# -- §5.1: applicability (round-trip accounting) --------------------------------


def run_applicability(conditions: NetworkConditions = LAN) -> Dict[str, Dict[str, int]]:
    """Round trips per case study, RMI vs BRMI (§5.1's call arithmetic).

    Returns ``{app: {"rmi": n, "brmi": m}}``, counted on the client's
    channel.  The file listing should show ``1 + 4·N`` vs 1.
    """
    counts: Dict[str, Dict[str, int]] = {}

    def count(env: BenchEnv, workload, *args) -> int:
        stats = env.client.stats
        before = stats.requests
        workload(*args)
        return stats.requests - before

    with BenchEnv(conditions) as env:
        stub = env.lookup("fileserver")
        counts["file-listing"] = {
            "rmi": count(env, list_directory_rmi, stub),
            "brmi": count(env, list_directory_brmi, stub),
        }
    with BenchEnv(conditions) as env:
        stub = env.lookup("bank")
        counts["bank"] = {
            "rmi": count(env, purchase_session_rmi, stub, "alice",
                         [10.0, 20.0, 30.0]),
            "brmi": count(env, purchase_session_brmi, stub, "alice",
                          [10.0, 20.0, 30.0]),
        }
    words = [Word(w) for w in ("hello", "world", "remote", "object")]
    with BenchEnv(conditions) as env:
        stub = env.lookup("translator")
        counts["translator"] = {
            "rmi": count(env, translate_rmi, stub, words),
            "brmi": count(env, translate_brmi, stub, words),
        }
    return counts


# -- Ablations -----------------------------------------------------------------


def run_ablation_latency(factors=(0.25, 0.5, 1.0, 2.0, 4.0, 8.0),
                         calls: int = 5) -> Experiment:
    """BRMI speedup as link latency scales (design motivation ablation).

    Batching trades CPU for round trips, so its advantage must grow with
    latency — the 'latency lags bandwidth' argument the paper leans on.
    """
    rmi = Series("RMI")
    brmi = Series("BRMI")
    for factor in factors:
        conditions = scaled(LAN, latency_factor=factor)
        with BenchEnv(conditions) as env:
            rmi.add(factor, env.measure_ms(
                run_noop_rmi, env.lookup("noop"), calls))
        with BenchEnv(conditions) as env:
            brmi.add(factor, env.measure_ms(
                run_noop_brmi, env.lookup("noop"), calls))
    return Experiment(
        exp_id="ablation-latency",
        title=f"Latency sweep (noop x{calls})",
        xlabel="latency scale factor (x LAN)",
        conditions_name="lan-scaled",
        series=[rmi, brmi],
        notes="The RMI/BRMI gap widens with latency.",
    )


def run_ablation_identity(steps: int = 20, reps: int = SIM_REPS) -> Experiment:
    """Isolate identity preservation by varying loopback dispatch cost.

    The simulation benchmark's RMI cost includes one loopback middleware
    round per balance() call.  Scaling the host-side charges shows that
    BRMI's time is insensitive (its balance() calls are local) while
    RMI's scales — the §4.4 claim in ablation form.
    """
    factors = (0.0, 0.5, 1.0, 2.0, 4.0)
    rmi = Series("RMI")
    brmi = Series("BRMI")
    for factor in factors:
        hosts = HostCosts(
            request_overhead_s=DEFAULT_HOSTS.request_overhead_s * factor,
            dispatch_overhead_s=DEFAULT_HOSTS.dispatch_overhead_s * factor,
            per_byte_cpu_s=DEFAULT_HOSTS.per_byte_cpu_s,
            charges=dict(DEFAULT_HOSTS.charges),
        )
        with BenchEnv(LAN, hosts) as env:
            stub = env.fresh_simulation("sim-rmi")
            rmi.add(factor, env.measure_ms(
                run_simulation_rmi, stub, steps, reps))
        with BenchEnv(LAN, hosts) as env:
            stub = env.fresh_simulation("sim-brmi")
            brmi.add(factor, env.measure_ms(
                run_simulation_brmi, stub, steps, reps))
    return Experiment(
        exp_id="ablation-identity",
        title=f"Identity preservation (simulation, {steps} steps)",
        xlabel="middleware dispatch cost scale factor",
        conditions_name=LAN.name,
        series=[rmi, brmi],
        notes="RMI pays the middleware per balance() loopback call; "
        "BRMI does not.",
    )


def run_baseline_comparison(conditions: NetworkConditions = LAN,
                            workload: str = "list") -> Experiment:
    """RMI vs naive (implicit-style) aggregation vs BRMI.

    The paper's implicit-batching comparison made measurable: on the
    no-op workload the naive aggregator matches BRMI (everything is a
    value call); on the linked-list traversal it degenerates to RMI
    (every remote return forces materialization) while BRMI stays flat.
    """
    from repro.baselines.naive import run_noop_naive, traverse_naive

    if workload == "noop":
        xs = NOOP_CALLS
        runners = (
            ("RMI", lambda env, n: env.measure_ms(
                run_noop_rmi, env.lookup("noop"), n)),
            ("naive", lambda env, n: env.measure_ms(
                run_noop_naive, env.lookup("noop"), n)),
            ("BRMI", lambda env, n: env.measure_ms(
                run_noop_brmi, env.lookup("noop"), n)),
        )
        xlabel = "number of method calls"
    elif workload == "list":
        xs = LIST_HOPS
        runners = (
            ("RMI", lambda env, n: env.measure_ms(
                traverse_rmi, env.lookup("list"), n)),
            ("naive", lambda env, n: env.measure_ms(
                traverse_naive, env.lookup("list"), n)),
            ("BRMI", lambda env, n: env.measure_ms(
                traverse_brmi, env.lookup("list"), n)),
        )
        xlabel = "number of traversals"
    else:
        raise ValueError(f"unknown workload {workload!r}; noop or list")

    series = sweep(_env_factory(conditions), xs, *runners)
    return Experiment(
        exp_id=f"ablation-baseline-{workload}",
        title=f"Explicit vs naive aggregation ({workload})",
        xlabel=xlabel,
        conditions_name=conditions.name,
        series=series,
        notes="The naive aggregator models implicit batching's limits: "
        "remote returns force materialization, so it tracks BRMI on "
        "value-only workloads and RMI on reference-chasing ones.",
    )


def run_model_comparison(conditions: NetworkConditions = LAN) -> Experiment:
    """Analytic model vs simulation for the no-op benchmark.

    Feeds the model the byte profile observed on the wire (batch
    envelope and per-op bytes fitted from the smallest and largest
    batch), then compares predictions with simulated measurements point
    by point.
    """
    simulated_rmi = Series("simulated RMI")
    simulated_brmi = Series("simulated BRMI")
    model_rmi = Series("model RMI")
    model_brmi = Series("model BRMI")
    observed = []
    for n in NOOP_CALLS:
        with BenchEnv(conditions) as env:
            stub = env.lookup("noop")
            env.client.stats.reset()
            ms = env.measure_ms(run_noop_rmi, stub, n)
            snap = env.client.stats.snapshot()
            simulated_rmi.add(n, ms)
            rmi_shape = CallShape(
                request_bytes=snap.bytes_sent // max(snap.requests, 1),
                response_bytes=snap.bytes_received // max(snap.requests, 1),
            )
        with BenchEnv(conditions) as env:
            stub = env.lookup("noop")
            env.client.stats.reset()
            ms = env.measure_ms(run_noop_brmi, stub, n)
            snap = env.client.stats.snapshot()
            simulated_brmi.add(n, ms)
            observed.append((n, snap.bytes_sent, snap.bytes_received))
    shape = fit_batch_shape(observed[0], observed[-1], rmi_shape)
    for n in NOOP_CALLS:
        model_rmi.add(n, predict_rmi_s(conditions, DEFAULT_HOSTS, n,
                                       shape) * 1e3)
        model_brmi.add(n, predict_brmi_s(conditions, DEFAULT_HOSTS, n,
                                         shape) * 1e3)
    return Experiment(
        exp_id="ablation-model",
        title="Analytic model vs simulation (no-op)",
        xlabel="number of method calls",
        conditions_name=conditions.name,
        series=[simulated_rmi, model_rmi, simulated_brmi, model_brmi],
        notes=f"Model crossover at n="
        f"{crossover_calls(conditions, DEFAULT_HOSTS, shape)} calls.",
    )


#: Figure id → (generator, kwargs); the complete reproduction index.
FIGURES = {
    "fig05": (run_noop, {"conditions": LAN, "exp_id": "fig05"}),
    "fig06": (run_noop, {"conditions": WIRELESS, "exp_id": "fig06"}),
    "fig07": (run_linked_list, {"conditions": LAN, "exp_id": "fig07"}),
    "fig08": (run_linked_list, {"conditions": WIRELESS, "exp_id": "fig08"}),
    "fig09": (run_linked_list, {"conditions": LAN, "batch_size_one": True,
                                "exp_id": "fig09"}),
    "fig10": (run_simulation, {"conditions": LAN, "exp_id": "fig10"}),
    "fig11": (run_simulation, {"conditions": WIRELESS, "exp_id": "fig11"}),
    "fig12": (run_file_server, {"conditions": LAN, "exp_id": "fig12"}),
    "fig13": (run_file_server, {"conditions": WIRELESS, "exp_id": "fig13"}),
}


def run_figure(figure_id: str) -> Experiment:
    """Regenerate one paper figure by id (``fig05`` ... ``fig13``)."""
    try:
        generator, kwargs = FIGURES[figure_id]
    except KeyError:
        raise KeyError(
            f"unknown figure {figure_id!r}; choose from {sorted(FIGURES)}"
        ) from None
    return generator(**kwargs)


def run_all_figures() -> Dict[str, Experiment]:
    """Regenerate every evaluation figure; keyed by figure id."""
    return {figure_id: run_figure(figure_id) for figure_id in sorted(FIGURES)}
