"""Metric catalogue: units, meaning, and which end-to-end metric each layer moves.

``BENCHMARK.json`` lists the same names; ``selftest.py`` checks that the two
agree.  Times are CPU seconds of the measuring thread (``workloads.CLOCK``),
which with one BLAS thread is the program's single-core run time without the
time the host steals.  Per-layer times are seconds per traced operation (one
``run_ber_experiment`` of ``K_SLOTS`` slots on the BER workloads; one
configure td, configure fd and ``reproduce_fig5`` on ``subspace``) and are
self times unless the description says inclusive.
"""

END_TO_END = {
    "setup_s": ("s", "cold start in a fresh interpreter: import rclab and build the reservoirs"),
    "run_s": ("s", "warm time of one whole workload operation"),
    "step_s": ("s", "warm repeated step: one slot (slot_s) or one reproduce_fig5 (theorem_s)"),
    "peak_rss_mb": ("MB", "peak resident set of the measuring process"),
}

# Printed with the end-to-end metrics but not gated: over ten seeds their
# quartile spread reached 0.19 of the median (short calls, host CPU phases),
# too close to the largest bound allowed.  run_s includes them on subspace.
REPORTED = {
    "configure_s.td": ("s", "one time-domain configure call at the workload's statistics size"),
    "configure_s.fd": ("s", "one frequency-domain configure call at the workload's statistics size"),
}

# Names the report also prints step_s under, per workload kind.
STEP_ALIAS = {"siso-ber": "slot_s", "mimo-ber": "slot_s", "subspace": "theorem_s"}

BER = ("siso-ber", "mimo-ber")
ALL = ("siso-ber", "mimo-ber", "subspace")
SUB = ("subspace",)

# name: (unit, better, [(end-to-end metric, workloads)], prediction)
PER_LAYER = {
    "reservoir.run_states_s": ("s", "lower", [("step_s", BER)], "siso-ber most, then mimo-ber"),
    "reservoir.run_states_calls": ("count", "lower", [("step_s", BER)], "state recursions per op"),
    "reservoir.state_samples": ("count", "lower", [("step_s", BER)], "sum of T over run_states"),
    "reservoir.neuron_steps": ("count", "lower", [("step_s", BER)], "sum of neurons x T"),
    "reservoir.state_reuse_ratio": (
        "ratio", "higher", [("step_s", BER)], "unique slot samples / state_samples",
    ),
    "reservoir.delay_search_s": (
        "s", "lower", [("step_s", BER)], "train_with_delay_search minus features; mimo-ber most",
    ),
    "reservoir.predict_s": ("s", "lower", [("step_s", BER)], "predict minus features"),
    "reservoir.features_s": ("s", "lower", [("step_s", BER)], "wesn_features minus run_states"),
    "bench_cli.rc_detect_s.rc-td": ("s", "lower", [("step_s", BER)], "inclusive"),
    "bench_cli.rc_detect_s.rc-fd": ("s", "lower", [("step_s", BER)], "inclusive"),
    "bench_cli.rc_detect_s.rc-random": ("s", "lower", [("step_s", BER)], "inclusive"),
    "bench_cli.rc_detect_s.vanilla-esn": ("s", "lower", [("step_s", BER)], "inclusive"),
    "bench_cli.lmmse_detect_s": ("s", "lower", [("step_s", BER)], "inclusive"),
    "channel.apply_channel_s": ("s", "lower", [("step_s", ("mimo-ber",))], "16 lfilters per SNR"),
    "channel.draw_channel_s": (
        "s", "lower",
        [("configure_s.td", SUB), ("configure_s.fd", SUB), ("step_s", SUB), ("setup_s", ALL)],
        "draw_channel, sample_tdl and sample_parametric_mimo",
    ),
    "channel.draw_attempts": (
        "count", "lower", [("configure_s.td", SUB), ("step_s", SUB)], "sample_tdl calls",
    ),
    "channel.draw_accept_ratio": (
        "ratio", "higher", [("configure_s.td", SUB), ("step_s", SUB)], "accepted draws / attempts",
    ),
    "filters.factorize_by_phase_s": (
        "s", "lower",
        [("configure_s.td", SUB), ("configure_s.fd", SUB), ("step_s", SUB), ("setup_s", ALL)],
        "root finding for phase classes",
    ),
    "filters.factorize_by_phase_calls": (
        "count", "lower", [("configure_s.td", SUB), ("step_s", SUB)], "calls",
    ),
    "ofdm.build_grid_s": ("s", "lower", [("step_s", BER)], "small share; predicted flat"),
    "ofdm.modulate_s": ("s", "lower", [("step_s", BER)], "small share; predicted flat"),
    "ofdm.demodulate_s": ("s", "lower", [("step_s", BER)], "small share; predicted flat"),
    "ofdm.demap_s": ("s", "lower", [("step_s", BER)], "small share; predicted flat"),
    "signal_core.hermitian_eig_s": (
        "s", "lower", [("setup_s", ALL), ("configure_s.td", SUB)], "PCA and theorem eigh",
    ),
    "signal_core.hermitian_eig_calls": ("count", "lower", [("setup_s", ALL)], "calls"),
    "signal_core.toeplitz_inverse_s": (
        "s", "lower", [("configure_s.td", SUB), ("step_s", SUB)], "zero-forcing responses",
    ),
    "weight_config.stats_draws_s": (
        "s", "lower", [("configure_s.td", SUB), ("configure_s.fd", SUB), ("run_s", SUB)],
        "statistics loops",
    ),
    "weight_config.pca_s": (
        "s", "lower", [("configure_s.td", SUB), ("configure_s.fd", SUB), ("run_s", SUB)],
        "covariance, minus eigh",
    ),
    "weight_config.pole_fit_s": (
        "s", "lower", [("configure_s.td", SUB), ("configure_s.fd", SUB), ("run_s", SUB)],
        "MP lift and pole fits",
    ),
    "theory.mc_route_s": ("s", "lower", [("step_s", SUB)], "approx_error_report self; 0 on BER"),
    "theory.closed_form_s": ("s", "lower", [("step_s", SUB)], "shift_accumulated_covariance"),
    "trace.overhead_s": ("s", "lower", [("run_s", ALL)], "traced minus untraced op time"),
    "trace.coverage": ("ratio", "higher", [("run_s", ALL)], "share of op time inside layer spans"),
}
