"""Spans around calls into rclab's layers, recorded from outside the package.

``instrument`` replaces module attributes with timing wrappers where the
callers look them up (``bench_cli.rc_detect``, ``reservoir.run_states``, ...)
and restores them on exit.  Spans stay in memory; ``write_jsonl`` dumps them
when the run ends.  Nothing under ``src/`` is modified.
"""

import functools
import json
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from workloads import CLOCK, bench_cli, channel, reservoir, theory, weight_config


class Tracer:
    """In-memory span recorder; one span per call at each patched boundary."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None
        self.origin = CLOCK()
        self.detector_of = {}  # id(spec) -> detector name, from _configured_specs

    @contextmanager
    def span(self, name, **attrs):
        rec = {
            "id": len(self.spans),
            "op": self.op,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": CLOCK() - self.origin,
            "end": None,
        }
        rec.update(attrs)
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        except BaseException:
            rec["error"] = True
            raise
        finally:
            rec["end"] = CLOCK() - self.origin
            self._stack.pop()

    @contextmanager
    def operation(self, op_id):
        """Root span of one traced workload operation."""
        self.op = op_id
        try:
            with self.span("op"):
                yield
        finally:
            self.op = None

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            for rec in self.spans:
                fp.write(json.dumps(rec) + "\n")


def _states_attrs(tracer, spec, x, *args, **kwargs):
    t = np.atleast_2d(x).shape[1]
    return {"samples": int(t), "neurons": int(spec.n_neurons)}


def _rc_detect_attrs(tracer, rx_samples, tx_grid, numerology, spec, *args, **kwargs):
    return {
        "detector": tracer.detector_of.get(id(spec), "unknown"),
        "slot_samples": int(np.atleast_2d(rx_samples).shape[1]),
    }


# (module, attribute, span name, attrs function); a span name is the defining
# module and function, so one function patched in several callers' modules
# yields one span name.
PATCH_POINTS = (
    (bench_cli, "rc_detect", "bench_cli.rc_detect", _rc_detect_attrs),
    (bench_cli, "lmmse_detect", "bench_cli.lmmse_detect", None),
    (bench_cli, "configure_time_domain_report", "weight_config.configure_time_domain_report", None),
    (bench_cli, "configure_frequency_domain_report",
     "weight_config.configure_frequency_domain_report", None),
    (bench_cli, "train_with_delay_search", "reservoir.train_with_delay_search", None),
    (bench_cli, "predict", "reservoir.predict", None),
    (bench_cli, "apply_channel", "channel.apply_channel", None),
    (bench_cli, "draw_channel", "channel.draw_channel", None),
    (bench_cli, "sample_parametric_mimo", "channel.sample_parametric_mimo", None),
    (bench_cli, "build_grid", "ofdm.build_grid", None),
    (bench_cli, "ofdm_modulate", "ofdm.ofdm_modulate", None),
    (bench_cli, "rs_time_waveform", "ofdm.rs_time_waveform", None),
    (bench_cli, "ofdm_demodulate", "ofdm.ofdm_demodulate", None),
    (bench_cli, "demap_data_bits", "ofdm.demap_data_bits", None),
    (reservoir, "wesn_features", "reservoir.wesn_features", None),
    (reservoir, "run_states", "reservoir.run_states", _states_attrs),
    (channel, "sample_tdl", "channel.sample_tdl", None),
    (channel, "factorize_by_phase", "filters.factorize_by_phase", None),
    (weight_config, "configure_time_domain_report",
     "weight_config.configure_time_domain_report", None),
    (weight_config, "configure_frequency_domain_report",
     "weight_config.configure_frequency_domain_report", None),
    (weight_config, "collect_equalizer_irs", "weight_config.collect_equalizer_irs", None),
    (weight_config, "collect_inverse_responses", "weight_config.collect_inverse_responses", None),
    (weight_config, "pca_basis", "weight_config.pca_basis", None),
    (weight_config, "draw_channel", "channel.draw_channel", None),
    (weight_config, "factorize_by_phase", "filters.factorize_by_phase", None),
    (weight_config, "hermitian_eig", "signal_core.hermitian_eig", None),
    (weight_config, "toeplitz_inverse_first_column",
     "signal_core.toeplitz_inverse_first_column", None),
    (theory, "collect_equalizer_irs", "weight_config.collect_equalizer_irs", None),
    (theory, "approx_error_report", "theory.approx_error_report", None),
    (theory, "hermitian_eig", "signal_core.hermitian_eig", None),
    (theory, "shift_accumulated_covariance", "theory.shift_accumulated_covariance", None),
)

# span name -> per-layer metric that receives its self time
SELF_TIME_METRIC = {
    "reservoir.run_states": "reservoir.run_states_s",
    "reservoir.train_with_delay_search": "reservoir.delay_search_s",
    "reservoir.predict": "reservoir.predict_s",
    "reservoir.wesn_features": "reservoir.features_s",
    "channel.apply_channel": "channel.apply_channel_s",
    "channel.draw_channel": "channel.draw_channel_s",
    "channel.sample_tdl": "channel.draw_channel_s",
    "channel.sample_parametric_mimo": "channel.draw_channel_s",
    "filters.factorize_by_phase": "filters.factorize_by_phase_s",
    "ofdm.build_grid": "ofdm.build_grid_s",
    "ofdm.ofdm_modulate": "ofdm.modulate_s",
    "ofdm.rs_time_waveform": "ofdm.modulate_s",
    "ofdm.ofdm_demodulate": "ofdm.demodulate_s",
    "ofdm.demap_data_bits": "ofdm.demap_s",
    "signal_core.hermitian_eig": "signal_core.hermitian_eig_s",
    "signal_core.toeplitz_inverse_first_column": "signal_core.toeplitz_inverse_s",
    "weight_config.collect_equalizer_irs": "weight_config.stats_draws_s",
    "weight_config.collect_inverse_responses": "weight_config.stats_draws_s",
    "weight_config.pca_basis": "weight_config.pca_s",
    "weight_config.configure_time_domain_report": "weight_config.pole_fit_s",
    "weight_config.configure_frequency_domain_report": "weight_config.pole_fit_s",
    "theory.approx_error_report": "theory.mc_route_s",
    "theory.shift_accumulated_covariance": "theory.closed_form_s",
}

CALL_COUNT_METRIC = {
    "reservoir.run_states": "reservoir.run_states_calls",
    "channel.sample_tdl": "channel.draw_attempts",
    "filters.factorize_by_phase": "filters.factorize_by_phase_calls",
    "signal_core.hermitian_eig": "signal_core.hermitian_eig_calls",
}


def _wrap(tracer, name, fn, attrs_fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        attrs = attrs_fn(tracer, *args, **kwargs) if attrs_fn else {}
        with tracer.span(name, **attrs):
            return fn(*args, **kwargs)

    return traced


def _wrap_specs(tracer, fn):
    """Record which detector each configured spec belongs to."""

    @functools.wraps(fn)
    def traced(cfg):
        specs = fn(cfg)
        tracer.detector_of.update({id(spec): det for det, spec in specs.items()})
        return specs

    return traced


@contextmanager
def instrument(tracer):
    """Patch every boundary this version of rclab has; yield the names it lacks."""
    saved, missing = [], []
    specs_point = (bench_cli, "_configured_specs", None, None)
    for module, attr, name, attrs_fn in PATCH_POINTS + (specs_point,):
        original = getattr(module, attr, None)
        if original is None:
            missing.append(f"{module.__name__}.{attr}")
            continue
        saved.append((module, attr, original))
        if name is None:
            setattr(module, attr, _wrap_specs(tracer, original))
        else:
            setattr(module, attr, _wrap(tracer, name, original, attrs_fn))
    try:
        yield missing
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _op_metrics(spans) -> dict:
    """Per-layer values of one traced operation (its spans, root first)."""
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out = defaultdict(float)
    unique = accepted = 0
    for s in spans:
        name, dur = s["name"], s["end"] - s["start"]
        self_time = dur - child_time[s["id"]]
        if name in SELF_TIME_METRIC:
            out[SELF_TIME_METRIC[name]] += self_time
        if name in CALL_COUNT_METRIC:
            out[CALL_COUNT_METRIC[name]] += 1
        if name == "reservoir.run_states":
            out["reservoir.state_samples"] += s["samples"]
            out["reservoir.neuron_steps"] += s["samples"] * s["neurons"]
        elif name == "bench_cli.rc_detect":
            out[f"bench_cli.rc_detect_s.{s['detector']}"] += dur
            unique += s["slot_samples"]
        elif name == "bench_cli.lmmse_detect":
            out["bench_cli.lmmse_detect_s"] += dur
        elif name == "channel.draw_channel" and not s.get("error"):
            accepted += 1
        elif name == "op":
            out["trace.coverage"] = 1.0 - self_time / dur
    samples = out["reservoir.state_samples"]
    out["reservoir.state_reuse_ratio"] = unique / samples if samples else 0.0
    attempts = out["channel.draw_attempts"]
    out["channel.draw_accept_ratio"] = accepted / attempts if attempts else 0.0
    return out


def layer_samples(tracer, names, traced_walls, untraced_walls) -> dict:
    """Per-operation values of every per-layer metric in ``names``."""
    by_op = defaultdict(list)
    for s in tracer.spans:
        by_op[s["op"]].append(s)
    per_op = [_op_metrics(by_op[op]) for op in sorted(by_op) if op is not None]
    samples = {name: [m.get(name, 0.0) for m in per_op] for name in names}
    samples["trace.overhead_s"] = [t - u for t, u in zip(traced_walls, untraced_walls)]
    return samples
