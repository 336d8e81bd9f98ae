"""The benchmark's metrics: names, units, directions and what moves what.

BENCHMARK.json lists the same names and units (a test holds them
equal).  Each per-layer entry names the end-to-end metric it should
move and on which workload, and whether it is an exact count that must
repeat bit-for-bit between runs of the same code on the same inputs.
"""

# name, unit, better
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
    ("max_rel_error", "ratio", "lower"),
]

# name, unit, better, what it should move, exact count
PER_LAYER = [
    ("cli.main.self_s", "s", "lower", "wall_s on all workloads (small)", False),
    ("presets.pde_preset.s", "s", "lower", "setup_s on mag-2d and schro-pde", False),
    ("io.read_matrix_coo.s", "s", "lower", "setup_s on files-seeded", False),
    ("io.write_field_snapshot_csv.s", "s", "lower", "wall_s on files-seeded only", False),
    ("io.write_field_snapshot_csv.bytes", "bytes", "lower", "wall_s on files-seeded only", True),
    ("io.write_field_snapshot_csv.mb_per_s", "MB/s", "higher", "wall_s on files-seeded only", False),
    ("io.write.s", "s", "lower", "wall_s on all workloads (every other writer)", False),
    ("io.write.bytes", "bytes", "lower", "wall_s on all workloads (every other writer)", True),
    ("mag.params_from_matrix.s", "s", "lower", "wall_s, cpu_s on mag-2d; flat on schro-pde", False),
    ("mag.build_transformed.s", "s", "lower", "wall_s, cpu_s on mag-2d; flat on schro-pde", False),
    ("mag.spectral_radius_check.s", "s", "lower", "wall_s, cpu_s on mag-2d; flat on schro-pde", False),
    ("mag.steady_state.s", "s", "lower", "wall_s, cpu_s on mag-2d; flat on schro-pde", False),
    ("mag.steady_state.calls", "count", "lower", "wall_s, cpu_s on mag-2d; flat on schro-pde", True),
    ("mag.mag_iterate.s", "s", "lower", "wall_s, cpu_s on mag-2d; flat on schro-pde", False),
    ("mag.mag_iterate.steps", "count", "lower", "wall_s, cpu_s on mag-2d; flat on schro-pde", True),
    ("mag.mag_iterate.steps_per_s", "1/s", "higher", "wall_s, cpu_s on mag-2d; flat on schro-pde", False),
    ("mag.relative_trace.s", "s", "lower", "wall_s on files-seeded", False),
    ("schrod.evolve_structured.s", "s", "lower", "wall_s on schro-pde", False),
    ("schrod.evolve_structured.mode_pairs", "count", "lower", "wall_s on schro-pde", True),
    ("schrod.evolve_structured.mode_pairs_per_s", "1/s", "higher", "wall_s on schro-pde", False),
    ("schrod.evolve_structured.rss_growth_mb", "MB", "lower", "peak_rss_mb on schro-pde and files-seeded", False),
    ("schrod.field_rows.s", "s", "lower", "wall_s on schro-pde (readout) and files-seeded (snapshot)", False),
    ("schrod.field_rows.rows", "count", "lower", "wall_s on schro-pde and files-seeded", True),
    ("schrod.field_rows.rss_growth_mb", "MB", "lower", "peak_rss_mb on schro-pde and files-seeded", False),
    ("schrod.evolve.s", "s", "lower", "wall_s on schro-pde (fig3a only)", False),
    ("schrod.pipeline.self_s", "s", "lower", "wall_s on schro-pde", False),
    ("schrod.build_pair_system.s", "s", "lower", "wall_s on schro-pde", False),
    ("schrod.useful_pair_frac", "ratio", "higher", "input property quoted by pruning claims", False),
    ("schrod.distinct_sigma_frac", "ratio", "higher", "input property quoted by deduplication claims", False),
    ("linalg.direct_solve.s", "s", "lower", "wall_s on all workloads", False),
    ("linalg.direct_solve.calls", "count", "lower", "wall_s on all workloads", True),
    ("kernel.svd.calls", "count", "lower", "wall_s on mag-2d and schro-pde", True),
    ("kernel.svd.s", "s", "lower", "wall_s on mag-2d and schro-pde", False),
    ("kernel.eig.s", "s", "lower", "wall_s on mag-2d", False),
    ("kernel.eig.calls", "count", "lower", "wall_s on mag-2d", True),
    ("kernel.eigh.s", "s", "lower", "wall_s on mag-2d", False),
    ("kernel.eigh.calls", "count", "lower", "wall_s on mag-2d", True),
    ("kernel.solve.calls", "count", "lower", "wall_s on mag-2d", True),
    ("kernel.fft.s", "s", "lower", "wall_s and peak_rss_mb on schro-pde", False),
    ("kernel.fft.bytes", "bytes", "lower", "wall_s and peak_rss_mb on schro-pde", True),
    ("trace_overhead_frac", "ratio", "lower", "none: traced over untraced wall_s", False),
]

EXACT = tuple(name for name, *_, exact in PER_LAYER if exact)
