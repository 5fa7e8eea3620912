"""The program's layers as the traced pass sees them, and the per-layer
metrics computed from their spans.  README.md maps each metric to the
end-to-end metric and workload it should move."""

import statistics

from fanloops import _kernels, census, cli, core, haar, laws, lp, products, quotient

KERNELS = ("latin_violation", "division_tables", "assoc_tensors",
           "nucleus_masks", "fan_violation")

# Spans whose self time is reported, by the name the metric uses.
SELF_TIME = (
    "lp.solve", "lp.verify_certificate",
    "haar.covering_problem", "haar.covering_number", "haar.haar_limit",
    "haar.invariant_measure",
    "laws.check_law",
    "core.verify_loop", "core.classify",
    *(f"kernels.{k}" for k in KERNELS),
    "census.iter_reduced_latin",
    "products.direct_product", "products.smashed_product",
    "products.validate_smashing", "products.verify_smashed_product",
    "quotient.quotient", "quotient.is_normal_subloop",
    "cli.parse_loop_file", "cli.serialize_loop", "cli.render_report",
)
CALLS = ("lp.solve", "core.verify_loop", "core.classify", "haar.J")
LP_SIZES = (8, 16)


def _bits(q):
    return q.numerator.bit_length() + q.denominator.bit_length()


def install(tracer):
    """Wrap every traced layer at the attribute its caller looks up."""
    counts, samples = tracer.counts, tracer.samples

    def on_solve(args, sol, seconds):
        counts["lp.pivots"] += sol.iterations
        if sol.status != lp.OPTIMAL:
            counts["lp.nonoptimal"] += 1
        else:
            values = (sol.optimum, *sol.witness, *sol.dual)
            counts["lp.bits_max"] = max(counts["lp.bits_max"],
                                        max(_bits(v) for v in values))
        samples[f"lp.n{args[0].n_vars}"].append(seconds)

    def on_law(args, report, seconds):
        counts["laws.tuples"] += report.tuples_checked

    tracer.wrap(lp, "solve", "lp.solve", on_solve)
    tracer.wrap(lp, "verify_certificate", "lp.verify_certificate")
    for name in ("covering_problem", "covering_number", "haar_limit",
                 "invariant_measure"):
        tracer.wrap(haar, name, f"haar.{name}")
    tracer.wrap(haar.HaarFunctional, "__call__", "haar.J")
    tracer.wrap(laws, "check_law", "laws.check_law", on_law)
    tracer.wrap(core, "verify_loop", "core.verify_loop")
    # G.analysis (what core.classify returns) is computed by core._analyze.
    tracer.wrap(core, "_analyze", "core.classify")
    for name in KERNELS:
        tracer.wrap(_kernels, name, f"kernels.{name}")
    tracer.wrap_generator(census, "iter_reduced_latin",
                          "census.iter_reduced_latin", count="census.tables")
    tracer.wrap_generator(census, "enumerate_loops", "census.enumerate_loops",
                          count="census.emitted")
    for name in ("direct_product", "smashed_product", "validate_smashing",
                 "verify_smashed_product"):
        tracer.wrap(products, name, f"products.{name}")
    for name in ("quotient", "is_normal_subloop"):
        tracer.wrap(quotient, name, f"quotient.{name}")
    for name in ("parse_loop_file", "serialize_loop", "render_report"):
        tracer.wrap(cli, name, f"cli.{name}")


def metrics(tracer, overhead_s):
    """Per-layer metrics as {name: (value, unit)}."""
    totals = tracer.layer_totals()
    counts, samples = tracer.counts, tracer.samples
    out = {}
    for name in SELF_TIME:
        out[f"{name}.self_s"] = (totals.get(name, (0, 0.0))[1], "s")
    for name in CALLS:
        out[f"{name}.calls"] = (totals.get(name, (0, 0.0))[0], "count")
    out["lp.solve.pivots"] = (counts["lp.pivots"], "count")
    out["lp.solve.nonoptimal"] = (counts["lp.nonoptimal"], "count")
    out["lp.solution_bits_max"] = (counts["lp.bits_max"], "bits")
    for n in LP_SIZES:
        times = samples.get(f"lp.n{n}")
        out[f"lp.solve.ms_p50.n{n}"] = (
            statistics.median(times) * 1e3 if times else 0.0, "ms")
    tuples = counts["laws.tuples"]
    law_s = out["laws.check_law.self_s"][0]
    out["laws.check_law.tuples"] = (tuples, "count")
    out["laws.tuples_per_s"] = (tuples / law_s if law_s > 0 else 0.0, "1/s")
    emitted, tables = counts["census.emitted"], counts["census.tables"]
    out["census.loops_emitted"] = (emitted, "count")
    out["census.tables_visited"] = (tables, "count")
    out["census.hit_ratio"] = (emitted / tables if tables else 0.0, "ratio")
    out["op.self_s"] = (totals.get("op", (0, 0.0))[1], "s")
    out["trace.spans"] = (len(tracer.names), "count")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out
