//! The two workloads. One benchmark thread drives every engine through
//! `process_frame_with_options` with `workers: 1`; the only other threads
//! are the program's own parallel ingest.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hebs_core::{HebsPolicy, PipelineConfig, ScalingOutcome};
use hebs_imaging::GrayImage;
use hebs_quality::{DistortionMeasure, GlobalUiqiDistortion};
use hebs_runtime::{CacheConfig, Engine, EngineConfig, EngineStats, ServeOptions};

use crate::inputs::{self, HD_HEIGHT, HD_WIDTH, STILLS_SIZE};
use crate::trace::{Replayer, Tracer};

/// How far a recomputed distortion may sit from the engine's reported one.
/// The histogram-domain measure agrees with the pixel one only up to float
/// summation order.
const DISTORTION_TOLERANCE: f64 = 1e-6;

/// One served (or failed) request, as the benchmark's clock saw it.
pub struct Request {
    /// Time inside the engine call.
    pub serve_ms: f64,
    /// An error, or an output check that did not hold.
    pub failed: bool,
    pub power_saving: Option<f64>,
    pub hit: bool,
    pub fitted: bool,
    pub on_time: bool,
    /// Time between the previous call's end and this call's start: the
    /// client's own work, output checks included.
    pub lag_ms: f64,
}

/// Everything one phase of a run measured.
#[derive(Default)]
pub struct Run {
    pub requests: Vec<Request>,
    pub setup_s: Vec<f64>,
    pub failures: Vec<String>,
    /// Sums of the per-engine `EngineStats` deltas.
    pub totals: EngineStats,
    pub max_resident_bytes: u64,
    /// Cache hit share of each engine (gallery sessions).
    pub engine_hit_shares: Vec<f64>,
    /// Requests for an image not yet shown in their session (gallery):
    /// misses whatever the cache does.
    pub first_visits: usize,
    pub engines: usize,
    pub frame: (u32, u32),
}

impl Run {
    fn fail(&mut self, message: String) {
        if self.failures.len() < 32 {
            self.failures.push(message);
        }
    }
}

/// Optional tracing of a phase: spans plus the layer replay.
pub struct Tracing<'a> {
    pub tracer: &'a mut Tracer,
    pub replayer: &'a mut Replayer,
    next_request: u32,
}

impl<'a> Tracing<'a> {
    pub fn new(tracer: &'a mut Tracer, replayer: &'a mut Replayer) -> Self {
        Tracing {
            tracer,
            replayer,
            next_request: 0,
        }
    }
}

/// The per-engine side of the client: remembers the engine's last stats so
/// every call yields exact counter deltas (one client thread per engine).
struct Client<'e> {
    engine: &'e Engine,
    last: EngineStats,
    first: EngineStats,
}

struct Call {
    result: Result<Arc<ScalingOutcome>, String>,
    hit: bool,
    start: Instant,
    end: Instant,
    delta: EngineStats,
}

fn delta(after: &EngineStats, before: &EngineStats) -> EngineStats {
    EngineStats {
        frames: after.frames - before.frames,
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        cache_rejected: after.cache_rejected - before.cache_rejected,
        cache_bytes: after.cache_bytes,
        fit_evaluations: after.fit_evaluations - before.fit_evaluations,
        ..EngineStats::default()
    }
}

fn accumulate(total: &mut EngineStats, d: &EngineStats) {
    total.frames += d.frames;
    total.cache_hits += d.cache_hits;
    total.cache_misses += d.cache_misses;
    total.cache_rejected += d.cache_rejected;
    total.fit_evaluations += d.fit_evaluations;
}

impl<'e> Client<'e> {
    fn new(engine: &'e Engine) -> Self {
        let stats = engine.stats();
        Client {
            engine,
            last: stats,
            first: stats,
        }
    }

    fn call(&mut self, frame: &GrayImage, options: &ServeOptions) -> Call {
        let start = Instant::now();
        let served = self.engine.process_frame_with_options(frame, options);
        let end = Instant::now();
        let stats = self.engine.stats();
        let d = delta(&stats, &self.last);
        self.last = stats;
        Call {
            hit: served.as_ref().is_ok_and(|result| result.cache_hit),
            result: served
                .map(|result| result.outcome)
                .map_err(|err| err.to_string()),
            start,
            end,
            delta: d,
        }
    }

    /// Folds this engine's counters into the run and checks that they
    /// reconcile: every cached serve is a hit or a miss.
    fn finish(self, run: &mut Run, cached: bool) {
        let d = delta(&self.engine.stats(), &self.first);
        if cached && d.frames != d.cache_hits + d.cache_misses {
            run.fail(format!(
                "counters do not reconcile: {} frames, {} hits, {} misses",
                d.frames, d.cache_hits, d.cache_misses
            ));
        }
        if d.frames > 0 && cached {
            run.engine_hit_shares
                .push(d.cache_hits as f64 / d.frames as f64);
        }
        accumulate(&mut run.totals, &d);
        run.max_resident_bytes = run.max_resident_bytes.max(d.cache_bytes);
        run.engines += 1;
    }
}

/// The output check on a distortion measured from the displayed image: it
/// is within the budget and is what the engine reported.
fn within_budget(measured: f64, served: &ScalingOutcome, budget: f64) -> Result<(), String> {
    if measured > budget {
        Err(format!(
            "measured distortion {measured:.6} over budget {budget}"
        ))
    } else if (measured - served.distortion).abs() > DISTORTION_TOLERANCE {
        Err(format!(
            "measured distortion {measured:.6} differs from the reported {:.6}",
            served.distortion
        ))
    } else {
        Ok(())
    }
}

/// Records one call, after its timed region: the output check, the
/// request record and, when tracing, the serve span and the layer replay.
#[allow(clippy::too_many_arguments)]
fn record(
    run: &mut Run,
    tracing: &mut Option<Tracing<'_>>,
    call: Call,
    frame: &GrayImage,
    budget: f64,
    limit: Duration,
    lag_ms: f64,
    check: impl FnOnce(&ScalingOutcome) -> Result<(), String>,
) {
    let verdict = match &call.result {
        Ok(outcome) => check(outcome),
        Err(err) => Err(format!("serve failed: {err}")),
    };
    let failed = match verdict {
        Ok(()) => false,
        Err(message) => {
            run.fail(message);
            true
        }
    };
    let serve = call.end - call.start;
    run.requests.push(Request {
        serve_ms: serve.as_secs_f64() * 1e3,
        failed,
        power_saving: call.result.as_ref().ok().map(|o| o.power_saving),
        hit: call.hit,
        fitted: call.delta.fit_evaluations > 0,
        // A failed frame counts as late.
        on_time: !failed && serve <= limit,
        lag_ms,
    });
    if let Some(tracing) = tracing {
        let request = tracing.next_request;
        tracing.next_request += 1;
        let d = &call.delta;
        tracing.tracer.record(
            request,
            "serve",
            call.start,
            call.end,
            vec![
                ("cache_hits", d.cache_hits),
                ("cache_misses", d.cache_misses),
                ("cache_rejected", d.cache_rejected),
                ("fit_evaluations", d.fit_evaluations),
            ],
        );
        tracing
            .replayer
            .replay(tracing.tracer, request, frame, budget, d.fit_evaluations);
        if d.fit_evaluations > 0 {
            tracing
                .replayer
                .time_fit(tracing.tracer, request, frame, budget);
        }
    }
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// The pipeline of the 1080p workload: the histogram-domain global UIQI,
/// so a fit costs O(levels) whatever the frame size.
pub fn uiqi_pipeline() -> PipelineConfig {
    PipelineConfig::default().with_measure(GlobalUiqiDistortion)
}

// ---------------------------------------------------------------- stills-hvs

/// Set-ups per run, each followed by an equal slice of the run.
pub const STILLS_SETUPS: usize = 9;
/// A still is on time when it is displayed within a second.
pub const STILLS_LIMIT: Duration = Duration::from_secs(1);

pub struct StillsInputs {
    pub frames: Vec<GrayImage>,
    schedule: Vec<(usize, f64)>,
}

/// Enough requests for any run length: ~140 ms each.
const STILLS_REQUESTS: usize = 100_000;

pub fn stills_inputs(seed: u64) -> StillsInputs {
    let frames = inputs::stills();
    let schedule = inputs::stills_schedule(seed, frames.len(), STILLS_REQUESTS);
    StillsInputs { frames, schedule }
}

fn stills_engine() -> Engine {
    let policy = HebsPolicy::closed_loop(PipelineConfig::default());
    Engine::new(
        policy,
        EngineConfig {
            workers: 1,
            cache: None,
            max_distortion: inputs::STILLS_BUDGETS[0],
            ..EngineConfig::default()
        },
    )
    .expect("valid stills engine")
}

pub fn stills(inputs: &StillsInputs, seconds: f64, mut tracing: Option<Tracing<'_>>) -> Run {
    let mut run = Run {
        frame: (STILLS_SIZE, STILLS_SIZE),
        ..Run::default()
    };
    // The same warm-up image whatever the seed, so set-up time does not
    // depend on which image the schedule starts with.
    let warmup = &inputs.frames[0];
    let measure = PipelineConfig::default().measure;
    let mut schedule = inputs.schedule.iter();
    let start = Instant::now();
    // A fresh engine for each of `STILLS_SETUPS` equal slices of the run,
    // so the set-ups sample the whole run, not only its first second.
    for slice in 1..=STILLS_SETUPS {
        let setup = Instant::now();
        let engine = stills_engine();
        let warmed = engine.process_frame_with_budget(warmup, inputs::STILLS_BUDGETS[0]);
        run.setup_s.push(secs(setup));
        if let Err(err) = warmed {
            run.fail(format!("warm-up serve failed: {err}"));
        }
        let until = seconds * slice as f64 / STILLS_SETUPS as f64;
        let mut client = Client::new(&engine);
        let mut last_end = Instant::now();
        while secs(start) < until {
            let Some(&(index, budget)) = schedule.next() else {
                break;
            };
            let frame = &inputs.frames[index];
            let options = ServeOptions::default().with_budget(budget);
            let call = client.call(frame, &options);
            let lag_ms = (call.start - last_end).as_secs_f64() * 1e3;
            last_end = call.end;
            record(
                &mut run,
                &mut tracing,
                call,
                frame,
                budget,
                STILLS_LIMIT,
                lag_ms,
                |served| {
                    within_budget(measure.distortion(frame, &served.displayed), served, budget)
                },
            );
        }
        client.finish(&mut run, false);
    }
    run
}

// ------------------------------------------------------------- gallery-1080p

/// Navigation requests per browsing session (after the opening image): the
/// session length the shard-placement variance was first measured with
/// (finding 1 in the README).
pub const GALLERY_STEPS: usize = 120;
pub const GALLERY_BUDGET: f64 = 0.10;
/// A page turn is on time when it completes within half a 60 Hz frame.
/// Hits (~2.5 ms) and fits (~25 ms) sit far on either side, so the share
/// does not flip with the machine's speed.
pub const GALLERY_LIMIT: Duration = Duration::from_micros(8_333);

/// What a cache-less engine serves for one gallery image, and the
/// distortion measured from its displayed image.
struct Reference {
    outcome: Arc<ScalingOutcome>,
    measured: f64,
}

pub struct GalleryInputs {
    seed: u64,
    images: Vec<GrayImage>,
    references: Vec<Reference>,
}

impl GalleryInputs {
    pub fn images(&self) -> &[GrayImage] {
        &self.images
    }
}

pub fn gallery_inputs(seed: u64) -> GalleryInputs {
    let images = inputs::gallery(seed);
    let reference = Engine::new(
        HebsPolicy::closed_loop(uiqi_pipeline()),
        EngineConfig::sequential(GALLERY_BUDGET),
    )
    .expect("valid reference engine");
    let references = images
        .iter()
        .map(|image| {
            let outcome = reference
                .process_frame(image)
                .expect("the reference engine serves every gallery image")
                .outcome;
            let measured = GlobalUiqiDistortion.distortion(image, &outcome.displayed);
            Reference { outcome, measured }
        })
        .collect();
    GalleryInputs {
        seed,
        images,
        references,
    }
}

fn gallery_engine() -> Engine {
    Engine::new(
        HebsPolicy::closed_loop(uiqi_pipeline()),
        EngineConfig {
            workers: 1,
            cache: Some(CacheConfig::exact()),
            max_distortion: GALLERY_BUDGET,
            ..EngineConfig::default()
        },
    )
    .expect("valid gallery engine")
}

/// The gallery's output check. Every serve, hit or miss, must be
/// bit-identical to the cache-less serve of the same image. That serve's
/// displayed image was measured with the pixel-domain measure while the
/// inputs were made, so the served image's measured distortion is known
/// exactly without measuring 2 Mpixel again per request.
fn check_gallery(served: &ScalingOutcome, reference: &Reference) -> Result<(), String> {
    let expected = &reference.outcome;
    if served.displayed.as_raw() != expected.displayed.as_raw()
        || served.power_saving.to_bits() != expected.power_saving.to_bits()
        || served.distortion.to_bits() != expected.distortion.to_bits()
    {
        return Err("serve differs from an uncached serve of the same image".into());
    }
    within_budget(reference.measured, served, GALLERY_BUDGET)
}

pub fn gallery(inputs: &GalleryInputs, seconds: f64, mut tracing: Option<Tracing<'_>>) -> Run {
    let mut run = Run {
        frame: (HD_WIDTH, HD_HEIGHT),
        ..Run::default()
    };
    let start = Instant::now();
    let mut session = 0u64;
    while secs(start) < seconds {
        let (first, walk) =
            inputs::gallery_walk(inputs.seed, session, inputs.images.len(), GALLERY_STEPS);
        session += 1;
        // Set-up: a fresh engine opens the viewer on its first image.
        let setup = Instant::now();
        let engine = gallery_engine();
        let opened = engine.process_frame(&inputs.images[first]);
        run.setup_s.push(secs(setup));
        if let Err(err) = opened {
            run.fail(format!("opening image failed: {err}"));
        }
        let mut client = Client::new(&engine);
        let mut shown = vec![false; inputs.images.len()];
        shown[first] = true;
        let mut last_end = Instant::now();
        for &index in &walk {
            if !std::mem::replace(&mut shown[index], true) {
                run.first_visits += 1;
            }
            let frame = &inputs.images[index];
            let call = client.call(frame, &ServeOptions::default());
            let lag_ms = (call.start - last_end).as_secs_f64() * 1e3;
            last_end = call.end;
            record(
                &mut run,
                &mut tracing,
                call,
                frame,
                GALLERY_BUDGET,
                GALLERY_LIMIT,
                lag_ms,
                |served| check_gallery(served, &inputs.references[index]),
            );
        }
        client.finish(&mut run, true);
    }
    run
}
