"""The module boundaries the traced run wraps, and the per-layer metrics
computed from one traced pass.

Each public function is wrapped in every singletsim module that holds it, so
a call is recorded once, under its owning module's name, whichever module
makes it.  The two chunk functions of the bulk path are private; they are
wrapped because they are the worker threads' entry points, which is where
busy time per thread shows.  A function the program no longer has is skipped,
and its metrics read 0.
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict
from functools import partial

from tracer import children_index, proposals_per_sample, self_time

CHUNK = 1 << 17  # the unit of every ms_per_chunk figure: one 2^17-trial chunk

LEG_SPAN = "cli.main"

# spans whose per-call durations are reported as p50 / tail / sample count
DISTRIBUTIONS = ("protocol.run_trial", "watches.batter_vectors_array")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def instrument(tracer, mods):
    """Wrap the layer boundaries of the singletsim modules in ``mods``."""
    protocol, models = mods["protocol"], mods["models"]
    metrics, optimizer = mods["metrics"], mods["optimizer"]
    watches, geometry = mods["watches"], mods["geometry"]
    wrap = partial(tracer.wrap_everywhere, list(mods.values()))

    def count_run_experiment(t, a, k, result):
        config = _arg(a, k, 1, "config")
        units = 1 if config.watch_driven else len(config.settings_pairs)
        if config.log_events:
            t.add("protocol.logged_trials", units * config.trials)
        else:
            t.add("protocol.bulk_trials", units * config.trials)
            t.add("protocol.chunks", units * -(-config.trials // CHUNK))

    def count_event_log(t, a, k, result):
        t.add("protocol.messages", len(_arg(a, k, 0, "log")))
        t.add("protocol.event_log.bytes", os.path.getsize(_arg(a, k, 1, "path")))

    kind = lambda a, k: a[0] if a else k.get("kind")  # noqa: E731
    wrap(protocol, "run_experiment", count=count_run_experiment, tag=kind)
    wrap(protocol, "write_event_log", count=count_event_log)
    for name in ("run_trial", "agent_stream", "read_event_log", "audit_locality",
                 "sample_joint_spin_outcomes", "write_counts_csv"):
        wrap(protocol, name)
    for name in ("_bulk_counts_fixed", "_bulk_counts_free"):
        tracer.wrap(protocol, name, "protocol.chunk", tag=kind)

    def returned(rows_key, points_per_row):
        def count(t, a, k, r):
            n = _arg(a, k, 2, "n")
            t.add(rows_key, n)
            t.add("models.returned_points", points_per_row * n)
        return count

    wrap(models, "sample_hidden_B1_array",
         count=returned("models.sample_hidden_B1_array.rows", 1))
    wrap(models, "sample_settings_B2_array",
         count=returned("models.sample_settings_B2_array.rows", 2))
    wrap(models, "hall_g_array")
    wrap(models, "rejection_bound")

    def sphere_points(key):
        def count(t, a, k, r):
            n = _arg(a, k, 1, "n")
            t.add("geometry.sphere_points", n)
            if key:
                t.add(key, n)
        return count

    # proposals as the models samplers see them, then every other caller
    tracer.wrap(models, "sample_uniform_sphere_array",
                "geometry.sample_uniform_sphere_array",
                count=sphere_points("models.proposed_points"), tag=lambda a, k: "models")
    wrap(geometry, "sample_uniform_sphere_array", count=sphere_points(None))

    def count_rows(t, a, k, result):
        t.add("watches.batter_vectors_array.rows", len(result))

    wrap(watches, "batter_vectors_array", count=count_rows)
    for name in ("read_phases", "phases_to_vector", "pitcher_vector", "watch_vectors_array"):
        wrap(watches, name)

    for name in ("integrate_sign_regions", "free_will_M", "normalization_check",
                 "chi_square_gof", "two_sample_chi_square", "chsh_analytic", "chsh"):
        wrap(metrics, name)
    wrap(optimizer, "maximize_chsh", count=lambda t, a, k, r: t.add(
        "optimizer.evaluations", r.evaluations))


def pass_metrics(spans, counts):
    """Per-layer metrics of one traced pass, and its per-call samples."""
    busy = defaultdict(float)
    calls = Counter()
    for sp in spans:
        busy[sp[2]] += sp[4] - sp[3]
        calls[sp[2]] += 1
    kids = children_index(spans)
    cli_self = sum(self_time(sp, kids) for sp in spans if sp[2] == LEG_SPAN)

    def per_chunk(seconds, trials):
        return 1000.0 * seconds * CHUNK / trials if trials else 0.0

    logged = counts["protocol.logged_trials"]
    m = {
        "protocol.run_experiment.busy_s": busy["protocol.run_experiment"],
        "protocol.chunks": counts["protocol.chunks"],
        "protocol.chunk.busy_s": busy["protocol.chunk"],
        "protocol.chunk.ms_per_chunk": per_chunk(
            busy["protocol.chunk"], counts["protocol.bulk_trials"]),
        "protocol.run_trial.busy_s": busy["protocol.run_trial"],
        "protocol.agent_stream.calls": calls["protocol.agent_stream"],
        "protocol.agent_stream.busy_s": busy["protocol.agent_stream"],
        "protocol.write_event_log.busy_s": busy["protocol.write_event_log"],
        "protocol.read_event_log.busy_s": busy["protocol.read_event_log"],
        "protocol.audit_locality.busy_s": busy["protocol.audit_locality"],
        "protocol.messages": counts["protocol.messages"],
        "protocol.event_log.bytes_per_trial": (
            counts["protocol.event_log.bytes"] / logged if logged else 0.0),
        "protocol.sample_joint_spin_outcomes.busy_s":
            busy["protocol.sample_joint_spin_outcomes"],
        "models.sample_hidden_B1_array.busy_s": busy["models.sample_hidden_B1_array"],
        "models.sample_hidden_B1_array.calls": calls["models.sample_hidden_B1_array"],
        "models.sample_hidden_B1_array.ms_per_chunk": per_chunk(
            busy["models.sample_hidden_B1_array"],
            counts["models.sample_hidden_B1_array.rows"]),
        "models.proposals_per_sample": proposals_per_sample(
            counts["models.proposed_points"], counts["models.returned_points"]),
        "models.hall_g_array.busy_s": busy["models.hall_g_array"],
        "geometry.sample_uniform_sphere_array.busy_s":
            busy["geometry.sample_uniform_sphere_array"],
        "geometry.sphere_points": counts["geometry.sphere_points"],
        "watches.batter_vectors_array.busy_s": busy["watches.batter_vectors_array"],
        "watches.batter_vectors_array.calls": calls["watches.batter_vectors_array"],
        "watches.batter_vectors_array.rows": counts["watches.batter_vectors_array.rows"],
        "watches.read_phases.calls": calls["watches.read_phases"],
        "metrics.integrate_sign_regions.busy_s": busy["metrics.integrate_sign_regions"],
        "metrics.integrate_sign_regions.calls": calls["metrics.integrate_sign_regions"],
        "metrics.free_will_M.busy_s": busy["metrics.free_will_M"],
        "metrics.normalization_check.busy_s": busy["metrics.normalization_check"],
        "metrics.chi_square_gof.busy_s": busy["metrics.chi_square_gof"],
        "optimizer.maximize_chsh.busy_s": busy["optimizer.maximize_chsh"],
        "optimizer.evaluations": counts["optimizer.evaluations"],
        "cli.self_s": cli_self,
    }
    samples = {name: [sp[4] - sp[3] for sp in spans if sp[2] == name]
               for name in DISTRIBUTIONS}
    return m, samples


def busy_by_kind(spans):
    """Busy seconds and call count of run_experiment (main thread) and of its
    chunk jobs (summed over worker threads), per model kind."""
    out = {}
    for sp in spans:
        if sp[2] in ("protocol.run_experiment", "protocol.chunk"):
            entry = out.setdefault(sp[2], {}).setdefault(sp[6], {"busy_s": 0.0, "calls": 0})
            entry["busy_s"] += sp[4] - sp[3]
            entry["calls"] += 1
    return out
