//! Runtime throughput bench: single thread vs. worker pool vs. worker pool
//! plus transformation cache vs. the histogram-domain fit path.
//!
//! ```text
//! cargo run --release -p hebs-bench --bin runtime_throughput
//! ```
//!
//! Serves the synthetic SIPI suite (with repeats) and two synthetic video
//! sequences through `hebs_runtime::Engine` in four configurations and
//! prints wall-clock throughput, latency quantiles, cache hit rates,
//! resident cache bytes, single-flight coalescing counts, fit-evaluation
//! counts and coarsening-DP solves per miss. Run with `--quick` for a fast
//! smoke-test configuration, with `--check` to also verify the cache's
//! contract (byte budget respected, single-flight collapses a miss storm
//! into one fit, counters reconcile, at most 2 coarsening solves per miss)
//! and exit nonzero on a violation, and with `--json <path>` to write the
//! machine-readable results CI uploads as an artifact so the bench
//! trajectory can be tracked across PRs.

use hebs_bench::{
    run_mixed_suite, run_runtime_throughput, runtime_throughput_json, verify_cache_invariants,
    TextTable,
};

/// Content classes the mixed-suite comparison clusters the suite into.
const MIXED_SUITE_CLASSES: usize = 6;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .map(|i| {
            args.get(i + 1)
                .filter(|p| !p.starts_with("--"))
                .cloned()
                .ok_or("--json requires a file path argument")
        })
        .transpose()?;
    let (frame_size, video_frames) = if quick { (32, 16) } else { (96, 96) };
    let budget = 0.10;

    println!(
        "HEBS runtime throughput (distortion budget {:.0}%)",
        budget * 100.0
    );
    println!(
        "frame size {frame_size}x{frame_size}, {video_frames} video frames per sequence, \
         pool = available parallelism\n"
    );

    let rows = run_runtime_throughput(budget, frame_size, video_frames, 0)?;

    let mut table = TextTable::new([
        "workload",
        "configuration",
        "workers",
        "frames",
        "wall [ms]",
        "fps",
        "mean lat [ms]",
        "p50 lat [ms]",
        "p95 lat [ms]",
        "hit rate",
        "bytes [KiB]",
        "coalesced",
        "rejected",
        "fit evals",
        "evals/miss",
        "DP/miss",
        "fallbacks",
        "rechar",
        "saving",
    ]);
    for row in &rows {
        table.push_row([
            row.workload.clone(),
            row.configuration.clone(),
            row.workers.to_string(),
            row.frames.to_string(),
            format!("{:.1}", row.wall_time.as_secs_f64() * 1e3),
            format!("{:.1}", row.throughput_fps),
            format!("{:.2}", row.mean_latency.as_secs_f64() * 1e3),
            format!("{:.2}", row.p50_latency.as_secs_f64() * 1e3),
            format!("{:.2}", row.p95_latency.as_secs_f64() * 1e3),
            format!("{:.0}%", row.cache_hit_rate * 100.0),
            format!("{:.1}", row.cache_bytes as f64 / 1024.0),
            row.cache_coalesced.to_string(),
            row.cache_rejected.to_string(),
            row.fit_evaluations.to_string(),
            format!("{:.2}", row.fit_evaluations_per_miss()),
            format!("{:.2}", row.coarsenings_per_miss()),
            row.open_loop_fallbacks.to_string(),
            row.recharacterizations.to_string(),
            format!("{:.1}%", row.mean_power_saving * 100.0),
        ]);
    }
    println!("{table}");

    // Headline speedups per workload: each configuration vs. the
    // single-thread baseline, plus the open-loop fit economics.
    let mut summary = TextTable::new([
        "workload",
        "pool speedup",
        "pool+cache speedup",
        "histogram-fit speedup",
        "open-loop speedup",
        "evals/miss closed->open",
    ]);
    for chunk in rows.chunks(5) {
        let [single, pooled, cached, histogram, open_loop] = chunk else {
            continue;
        };
        summary.push_row([
            single.workload.clone(),
            format!("{:.2}x", pooled.throughput_fps / single.throughput_fps),
            format!("{:.2}x", cached.throughput_fps / single.throughput_fps),
            format!("{:.2}x", histogram.throughput_fps / single.throughput_fps),
            format!("{:.2}x", open_loop.throughput_fps / single.throughput_fps),
            format!(
                "{:.1} -> {:.2}",
                histogram.fit_evaluations_per_miss(),
                open_loop.fit_evaluations_per_miss()
            ),
        ]);
    }
    println!("{summary}");

    // The mixed-suite savings comparison: what each open-loop strategy
    // recovers on heterogeneous traffic. Deterministic, so bench_check
    // gates these numbers directly.
    let mixed = run_mixed_suite(budget, frame_size, MIXED_SUITE_CLASSES)?;
    let mut savings = TextTable::new([
        "mixed suite",
        "closed-loop",
        "worst-case",
        "envelope",
        "per-class",
        "recovery",
        "classes",
        "evals/miss",
    ]);
    savings.push_row([
        format!("{} frames", mixed.frames),
        format!("{:.1}%", mixed.closed_loop_saving * 100.0),
        format!("{:.1}%", mixed.worst_case_saving * 100.0),
        format!("{:.1}%", mixed.envelope_saving * 100.0),
        format!("{:.1}%", mixed.per_class_saving * 100.0),
        format!("{:.0}%", mixed.per_class_recovery() * 100.0),
        mixed.classes.to_string(),
        format!("{:.2}", mixed.per_class_evals_per_miss),
    ]);
    println!("{savings}");

    if let Some(path) = json_path {
        std::fs::write(
            &path,
            runtime_throughput_json(budget, frame_size, video_frames, &rows, Some(&mixed)),
        )?;
        println!("wrote machine-readable results to {path}");
    }

    if check {
        verify_cache_invariants(frame_size)?;
        println!("cache invariants OK");
    }
    Ok(())
}
