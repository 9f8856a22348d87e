//! Serve benchmark for the HEBS workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <stills-hvs|gallery-1080p> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the workload untraced and prints the
//! end-to-end metrics; with `--trace 1` it measures the same seed untraced
//! for 40% of the time, then traced for the rest, and prints the per-layer
//! metrics. The last line of standard output is the result object. See
//! `perfbench/README.md` for the workloads, metrics and findings.

mod inputs;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;

use hebs_core::{HebsPolicy, PipelineConfig};
use hebs_imaging::{available_ingest_workers, GrayImage};
use hebs_runtime::{CacheConfig, Engine, EngineConfig};

use stats::{iqr, mean, median, peak_rss_mib, quantile};
use trace::{Attribution, Replayer, Tracer, LAYERS};
use workloads::{Run, Tracing};

/// Share of a traced run spent measuring untraced, for `trace.overhead_pct`.
const UNTRACED_SHARE: f64 = 0.4;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

enum Prepared {
    Stills(workloads::StillsInputs),
    Gallery(workloads::GalleryInputs),
}

impl Prepared {
    fn new(workload: &str, seed: u64) -> Result<Self, String> {
        Ok(match workload {
            "stills-hvs" => Prepared::Stills(workloads::stills_inputs(seed)),
            "gallery-1080p" => Prepared::Gallery(workloads::gallery_inputs(seed)),
            other => return Err(format!("unknown workload {other}")),
        })
    }

    fn run(&self, seconds: f64, tracing: Option<Tracing<'_>>) -> Run {
        match self {
            Prepared::Stills(inputs) => workloads::stills(inputs, seconds, tracing),
            Prepared::Gallery(inputs) => workloads::gallery(inputs, seconds, tracing),
        }
    }

    /// The pipeline the workload's engines run, a budget it serves at, and
    /// a few of its frames, for the probes.
    fn probe_setup(&self) -> (PipelineConfig, f64, Vec<&GrayImage>) {
        match self {
            Prepared::Stills(inputs) => (
                PipelineConfig::default(),
                inputs::STILLS_BUDGETS[0],
                inputs.frames.iter().take(4).collect(),
            ),
            Prepared::Gallery(inputs) => (
                workloads::uiqi_pipeline(),
                workloads::GALLERY_BUDGET,
                inputs.images().iter().take(4).collect(),
            ),
        }
    }
}

/// One metric line of the result.
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

fn end_to_end(run: &Run) -> Metrics {
    let requests = &run.requests;
    let attempted = requests.len().max(1) as f64;
    let latencies: Vec<f64> = requests.iter().map(|r| r.serve_ms).collect();
    let served: Vec<f64> = requests.iter().filter_map(|r| r.power_saving).collect();
    let busy_s: f64 = latencies.iter().sum::<f64>() / 1e3;
    let mut m = Metrics(Vec::new());
    m.push(
        "frames_per_s",
        served.len() as f64 / busy_s.max(1e-9),
        "1/s",
    );
    m.push("latency_ms_p50", quantile(&latencies, 0.50), "ms");
    m.push("latency_ms_p95", quantile(&latencies, 0.95), "ms");
    m.push("latency_ms_p99", quantile(&latencies, 0.99), "ms");
    m.push(
        "on_time_share",
        requests.iter().filter(|r| r.on_time).count() as f64 / attempted,
        "ratio",
    );
    m.push("power_saving_pct", mean(&served) * 100.0, "%");
    m.push(
        "ok_share",
        requests.iter().filter(|r| !r.failed).count() as f64 / attempted,
        "ratio",
    );
    m.push("setup_s", median(&run.setup_s), "s");
    m.push("peak_rss_mib", peak_rss_mib(), "MiB");
    m
}

fn lag_p95(run: &Run) -> f64 {
    let lags: Vec<f64> = run.requests.iter().map(|r| r.lag_ms).collect();
    quantile(&lags, 0.95)
}

/// Serve-call times of a cached engine's hits and misses on a few frames,
/// for a workload whose own engines have no cache.
fn probe_cache(tracer: &mut Tracer, config: &PipelineConfig, budget: f64, frames: &[&GrayImage]) {
    let engine = Engine::new(
        HebsPolicy::closed_loop(config.clone()),
        EngineConfig {
            workers: 1,
            cache: Some(CacheConfig::exact()),
            max_distortion: budget,
            ..EngineConfig::default()
        },
    )
    .expect("valid probe engine");
    for (i, frame) in frames.iter().enumerate() {
        tracer.open(u32::MAX - i as u32, "probe");
        let _ = tracer.time(u32::MAX - i as u32, "serve.miss", || {
            engine.process_frame(frame)
        });
        let _ = tracer.time(u32::MAX - i as u32, "serve.hit", || {
            engine.process_frame(frame)
        });
        tracer.close();
    }
}

fn per_layer(
    prepared: &Prepared,
    untraced: &Run,
    traced: &Run,
    tracer: &mut Tracer,
    replayer: &mut Replayer,
) -> (Metrics, Attribution) {
    // Probe every layer on a few of the workload's frames: a figure the
    // serves never produced then still comes from a measurement. The
    // windowed measure is probed once, as it costs ~0.5 s at 1080p.
    let (config, budget, frames) = prepared.probe_setup();
    let windowed = tracer.durations_us("quality.windowed").is_empty();
    for (i, frame) in frames.iter().enumerate() {
        replayer.probe(
            tracer,
            u32::MAX - 64 - i as u32,
            frame,
            budget,
            windowed && i == 0,
        );
    }
    let hits: Vec<f64> = untraced
        .requests
        .iter()
        .filter(|r| r.hit)
        .map(|r| r.serve_ms)
        .collect();
    let fits: Vec<f64> = untraced
        .requests
        .iter()
        .filter(|r| r.fitted)
        .map(|r| r.serve_ms)
        .collect();
    let (mut hit_ms, mut miss_ms) = (median(&hits), median(&fits));
    if hits.is_empty() || fits.is_empty() {
        probe_cache(tracer, &config, budget, &frames);
        if hits.is_empty() {
            hit_ms = median(&tracer.durations_us("serve.hit")) / 1e3;
        }
        if fits.is_empty() {
            miss_ms = median(&tracer.durations_us("serve.miss")) / 1e3;
        }
    }

    let attribution = tracer.attribution();
    let p50 = |name: &str| median(&tracer.durations_us(name));
    let totals = &untraced.totals;
    let frames_served = totals.frames.max(1) as f64;
    let fitted = fits.len().max(1) as f64;
    let matched = untraced.requests.len().min(traced.requests.len());
    let p50_of = |run: &Run| {
        let latencies: Vec<f64> = run.requests[..matched].iter().map(|r| r.serve_ms).collect();
        median(&latencies)
    };
    let (plain, with_trace) = (p50_of(untraced), p50_of(traced));

    let mut m = Metrics(Vec::new());
    m.push("ingest.us_p50", p50("imaging.ingest"), "us");
    m.push("apply.us_p50", p50("imaging.apply"), "us");
    m.push("ghe.us_p50", p50("core.ghe"), "us");
    m.push("plc.coarsen_us_p50", p50("transform.plc"), "us");
    let plc_ns = attribution
        .layers
        .get("transform.plc")
        .map_or(0, |(ns, _)| *ns);
    m.push("plc.coarsen_share", attribution.share(plc_ns), "ratio");
    m.push("display.program_us_p50", p50("display.program"), "us");
    m.push(
        "measure.windowed_ms_p50",
        p50("quality.windowed") / 1e3,
        "ms",
    );
    m.push("measure.levels_us_p50", p50("quality.levels"), "us");
    m.push("fit.ms_p50", p50("fit.direct") / 1e3, "ms");
    m.push(
        "fit.evals_per_miss",
        totals.fit_evaluations as f64 / fitted,
        "count",
    );
    m.push(
        "cache.hit_share",
        totals.cache_hits as f64 / frames_served,
        "ratio",
    );
    m.push(
        "cache.first_visit_share",
        untraced.first_visits as f64 / frames_served,
        "ratio",
    );
    m.push(
        "cache.hit_share_iqr",
        iqr(&untraced.engine_hit_shares),
        "ratio",
    );
    m.push("cache.hit_serve_ms_p50", hit_ms, "ms");
    m.push("cache.miss_serve_ms_p50", miss_ms, "ms");
    m.push("cache.rejected", totals.cache_rejected as f64, "count");
    m.push(
        "cache.resident_mib",
        untraced.max_resident_bytes as f64 / (1 << 20) as f64,
        "MiB",
    );
    for (layer, name) in LAYERS {
        m.push(
            name,
            attribution.share(attribution.layer_ns(layer)),
            "ratio",
        );
    }
    m.push(
        "serve.unattributed_share",
        attribution.unattributed_share(),
        "ratio",
    );
    m.push("loadgen.lag_ms_p95", lag_p95(untraced), "ms");
    m.push(
        "trace.replay_mismatches",
        replayer.mismatched_evaluations as f64,
        "count",
    );
    m.push(
        "trace.overhead_pct",
        (with_trace / plain - 1.0) * 100.0,
        "%",
    );
    (m, attribution)
}

/// The human-readable attribution table, and a check that it reconciles:
/// the layers' self time plus the unattributed rest is the serve time.
fn report(attribution: &Attribution, replayer: &Replayer) -> String {
    let mut out = String::new();
    let serve_ms = attribution.serve_ns as f64 / 1e6;
    let _ = writeln!(
        out,
        "trace: {} serves, {serve_ms:.3} ms of serve time",
        attribution.serves
    );
    let _ = writeln!(
        out,
        "  {:<20} {:>9} {:>12} {:>8}",
        "span", "calls", "self ms", "share"
    );
    for (name, (ns, calls)) in &attribution.layers {
        let _ = writeln!(
            out,
            "  {name:<20} {calls:>9} {:>12.3} {:>8.4}",
            *ns as f64 / 1e6,
            attribution.share(*ns)
        );
    }
    let unattributed = attribution.serve_ns as f64 - attribution.attributed_ns() as f64;
    let _ = writeln!(
        out,
        "  {:<20} {:>9} {:>12.3} {:>8.4}",
        "(unattributed)",
        "",
        unattributed / 1e6,
        attribution.unattributed_share()
    );
    let total = attribution.attributed_ns() as f64 + unattributed;
    let _ = writeln!(
        out,
        "  layers + unattributed = {:.3} ms = serve time {serve_ms:.3} ms; replayed fits whose evaluation count differed from the engine's: {}",
        total / 1e6,
        replayer.mismatched_evaluations
    );
    out
}

fn context_json(args: &Args, runs: &[&Run]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let run = runs[0];
    let attempted: usize = runs.iter().map(|r| r.requests.len()).sum();
    let served: usize = runs
        .iter()
        .map(|r| {
            r.requests
                .iter()
                .filter(|q| q.power_saving.is_some())
                .count()
        })
        .sum();
    let failed: usize = runs
        .iter()
        .map(|r| r.requests.iter().filter(|q| q.failed).count())
        .sum();
    let failures: Vec<String> = runs
        .iter()
        .flat_map(|r| r.failures.iter())
        .take(8)
        .map(|f| format!("\"{}\"", f.replace('\\', "\\\\").replace('"', "'")))
        .collect();
    let total = |field: fn(&hebs_runtime::EngineStats) -> u64| -> u64 {
        runs.iter().map(|r| field(&r.totals)).sum()
    };
    format!(
        "{{\"context\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"ingest_workers\": {}, \"engine_workers\": 1, \"frame\": \"{}x{}\", \"engines\": {}, \"setups\": {}, \
         \"attempted\": {attempted}, \"served\": {served}, \"failed\": {failed}, \
         \"serve_ms_max\": {}, \"engine_totals\": {{\"frames\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \"cache_rejected\": {}, \"fit_evaluations\": {}}}, \"failures\": [{}]}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        available_ingest_workers(),
        run.frame.0,
        run.frame.1,
        runs.iter().map(|r| r.engines).sum::<usize>(),
        runs.iter().map(|r| r.setup_s.len()).sum::<usize>(),
        runs.iter()
            .flat_map(|r| r.requests.iter().map(|q| q.serve_ms))
            .fold(0.0, f64::max),
        total(|t| t.frames),
        total(|t| t.cache_hits),
        total(|t| t.cache_misses),
        total(|t| t.cache_rejected),
        total(|t| t.fit_evaluations),
        failures.join(", ")
    )
}

fn out_dir() -> Option<PathBuf> {
    let dir = std::env::current_dir().ok()?.join("perfbench").join("out");
    std::fs::create_dir_all(&dir).ok()?;
    Some(dir)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let prepared = match Prepared::new(&args.workload, args.seed) {
        Ok(prepared) => prepared,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };

    let (metrics, runs, report_text) = if args.trace {
        let untraced = prepared.run(args.seconds * UNTRACED_SHARE, None);
        let (config, _, _) = prepared.probe_setup();
        let mut tracer = Tracer::new();
        let mut replayer = Replayer::new(config);
        let traced = prepared.run(
            args.seconds * (1.0 - UNTRACED_SHARE),
            Some(Tracing::new(&mut tracer, &mut replayer)),
        );
        let (metrics, attribution) =
            per_layer(&prepared, &untraced, &traced, &mut tracer, &mut replayer);
        let text = report(&attribution, &replayer);
        if let Some(dir) = out_dir() {
            let stem = format!("{}-seed{}", args.workload, args.seed);
            let _ = std::fs::write(dir.join(format!("{stem}.trace.jsonl")), tracer.to_jsonl());
            let _ = std::fs::write(
                dir.join(format!("{stem}.report.txt")),
                format!("{text}metrics: {}\n", metrics.json()),
            );
        }
        (metrics, vec![untraced, traced], Some(text))
    } else {
        let run = prepared.run(args.seconds, None);
        (end_to_end(&run), vec![run], None)
    };

    let refs: Vec<&Run> = runs.iter().collect();
    println!("{}", context_json(&args, &refs));
    if let Some(text) = report_text {
        print!("{text}");
    }
    let attempted: usize = runs.iter().map(|r| r.requests.len()).sum();
    let failed: usize = runs
        .iter()
        .map(|r| r.requests.iter().filter(|q| q.failed).count())
        .sum();
    let correct = attempted > 0 && runs.iter().all(|r| r.failures.is_empty());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    );
}
