//! The traced run: spans recorded by the benchmark around its calls into
//! each crate, kept in memory and written out when the run ends.
//!
//! A request's spans share its id. The `serve` root times the engine call
//! and carries the [`hebs_runtime::EngineStats`] deltas of that call as
//! counts. The `replay` root re-executes the same frame through the
//! public functions of each layer, in pipeline order, as many times as the
//! engine's counters say the serve did: one ingest; on a fit, the
//! closed-loop bisection with its GHE solve, blend, PLC coarsening, driver
//! programming, distortion measure and power accounting per candidate; the
//! final LUT apply. A layer's self time is its span minus its children;
//! serve time no layer span explains is `unattributed`. `probe` roots time
//! a layer the workload's serves never call, so that every per-layer
//! figure is measured; they are never attributed.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use hebs_core::ghe::equalize;
use hebs_core::{FitScratch, HebsPolicy, PipelineConfig, TargetRange};
use hebs_display::DisplayResponse;
use hebs_imaging::{FrameIngest, GrayImage, Histogram};
use hebs_transform::{coarsen, ControlPoint, PiecewiseLinear, PixelTransform};

pub struct Span {
    pub request: u32,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::new(),
        }
    }

    fn stamp(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn open(&mut self, request: u32, name: &'static str) {
        let start_ns = self.stamp(Instant::now());
        self.spans.push(Span {
            request,
            parent: self.stack.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        self.stack.push(self.spans.len() - 1);
    }

    pub fn close(&mut self) {
        let index = self.stack.pop().expect("close matches an open span");
        self.spans[index].end_ns = self.stamp(Instant::now());
    }

    pub fn time<T>(&mut self, request: u32, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(request, name);
        let value = std::hint::black_box(f());
        self.close();
        value
    }

    /// Records an already-timed root span (the engine call).
    pub fn record(
        &mut self,
        request: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
        counts: Vec<(&'static str, u64)>,
    ) {
        let (start_ns, end_ns) = (self.stamp(start), self.stamp(end));
        self.spans.push(Span {
            request,
            parent: None,
            name,
            start_ns,
            end_ns,
            counts,
        });
    }

    fn root_of(&self, mut index: usize) -> &'static str {
        while let Some(parent) = self.spans[index].parent {
            index = parent;
        }
        self.spans[index].name
    }

    /// Self time of every span: its duration minus its children's.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.ns());
            }
        }
        own
    }

    /// Durations in µs of every span called `name`, taken from the serves
    /// when there are any and from the probes otherwise.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        let pick = |probed: bool| -> Vec<f64> {
            self.spans
                .iter()
                .enumerate()
                .filter(|(i, s)| s.name == name && (self.root_of(*i) == "probe") == probed)
                .map(|(_, s)| s.ns() as f64 / 1e3)
                .collect()
        };
        let served = pick(false);
        if served.is_empty() {
            pick(true)
        } else {
            served
        }
    }

    /// Serve time and the self time of each layer span under `replay`
    /// roots, by span name.
    pub fn attribution(&self) -> Attribution {
        let own = self.self_ns();
        let mut layers: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        let mut serve_ns = 0u64;
        let mut serves = 0u64;
        for (i, span) in self.spans.iter().enumerate() {
            match (span.parent, span.name) {
                (None, "serve") => {
                    serve_ns += span.ns();
                    serves += 1;
                }
                (Some(_), name) if self.root_of(i) == "replay" => {
                    let entry = layers.entry(name).or_default();
                    entry.0 += own[i];
                    entry.1 += 1;
                }
                _ => {}
            }
        }
        Attribution {
            serve_ns,
            serves,
            layers,
        }
    }

    /// One JSON object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"request\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                span.request, span.name, span.start_ns, span.end_ns
            );
            if !span.counts.is_empty() {
                out.push_str(",\"counts\":{");
                for (k, (key, value)) in span.counts.iter().enumerate() {
                    let sep = if k == 0 { "" } else { "," };
                    let _ = write!(out, "{sep}\"{key}\":{value}");
                }
                out.push('}');
            }
            out.push_str("}\n");
        }
        out
    }
}

pub struct Attribution {
    pub serve_ns: u64,
    pub serves: u64,
    /// Span name → (self ns, calls).
    pub layers: BTreeMap<&'static str, (u64, u64)>,
}

impl Attribution {
    /// Self ns of every span whose name is in `layer` (the crate prefix).
    pub fn layer_ns(&self, layer: &str) -> u64 {
        self.layers
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .map(|(_, (ns, _))| ns)
            .sum()
    }

    pub fn attributed_ns(&self) -> u64 {
        LAYERS.iter().map(|(layer, _)| self.layer_ns(layer)).sum()
    }

    pub fn share(&self, ns: u64) -> f64 {
        if self.serve_ns == 0 {
            0.0
        } else {
            ns as f64 / self.serve_ns as f64
        }
    }

    /// Serve time no layer span explains, as a share of serve time. It is
    /// negative when the replay does more work than the serve did.
    pub fn unattributed_share(&self) -> f64 {
        self.share(self.serve_ns) - self.share(self.attributed_ns())
    }
}

/// The crates a span can be attributed to. The runtime's own work (cache
/// probe, hit verification, inserts, counters, locks) is what stays
/// unattributed.
/// Each with the metric that reports its share of serve time.
pub const LAYERS: [(&str, &str); 5] = [
    ("imaging", "imaging.self_share"),
    ("core", "core.self_share"),
    ("transform", "transform.self_share"),
    ("quality", "quality.self_share"),
    ("display", "display.self_share"),
];

/// Re-executes served frames layer by layer (see the module docs).
pub struct Replayer {
    config: PipelineConfig,
    policy: HebsPolicy,
    scratch: FitScratch,
    candidate: GrayImage,
    out: GrayImage,
    /// Replayed fits whose evaluation count differed from the engine's: a
    /// sign that the replay no longer follows the policy's search.
    pub mismatched_evaluations: u64,
}

impl Replayer {
    pub fn new(config: PipelineConfig) -> Self {
        Replayer {
            policy: HebsPolicy::closed_loop(config.clone()),
            config,
            scratch: FitScratch::new(),
            candidate: GrayImage::filled(1, 1, 0),
            out: GrayImage::filled(1, 1, 0),
            mismatched_evaluations: 0,
        }
    }

    fn pixel_path(&self, histogram: &Histogram) -> bool {
        let identity: [u8; 256] = std::array::from_fn(|level| level as u8);
        self.config
            .measure
            .distortion_from_levels(histogram, &identity)
            .is_none()
    }

    /// Replays one serve that took `fit_evaluations` fit evaluations (none
    /// on a cache hit).
    pub fn replay(
        &mut self,
        tr: &mut Tracer,
        request: u32,
        frame: &GrayImage,
        budget: f64,
        fit_evaluations: u64,
    ) {
        tr.open(request, "replay");
        let histogram = tr
            .time(request, "imaging.ingest", || {
                FrameIngest::compute_auto(frame, 0)
            })
            .into_parts()
            .0;
        let pixels = self.pixel_path(&histogram);
        if fit_evaluations > 0 {
            let mut evaluations = 0u64;
            tr.open(request, "core.fit");
            let response = self.search(
                tr,
                request,
                frame,
                &histogram,
                budget,
                pixels,
                &mut evaluations,
            );
            tr.close();
            if !pixels {
                tr.time(request, "imaging.apply", || {
                    response.apply_into(frame, &mut self.out)
                });
            }
            if evaluations != fit_evaluations {
                self.mismatched_evaluations += 1;
            }
        }
        tr.close();
    }

    /// Times the real fit call the replay decomposes (never attributed).
    pub fn time_fit(&mut self, tr: &mut Tracer, request: u32, frame: &GrayImage, budget: f64) {
        let histogram = FrameIngest::compute_auto(frame, 0).into_parts().0;
        let (policy, scratch) = (&self.policy, &mut self.scratch);
        let fitted = tr.time(request, "fit.direct", || {
            policy.optimize_with_transform_using_histogram(frame, &histogram, budget, scratch)
        });
        if let Ok((outcome, _)) = fitted {
            self.scratch.recycle_output(outcome.displayed);
        }
    }

    /// Times, under a `probe` root, every layer call on `frame` — used for
    /// the layers a workload's serves never reach.
    pub fn probe(
        &mut self,
        tr: &mut Tracer,
        request: u32,
        frame: &GrayImage,
        budget: f64,
        windowed: bool,
    ) {
        tr.open(request, "probe");
        let histogram = tr
            .time(request, "imaging.ingest", || {
                FrameIngest::compute_auto(frame, 0)
            })
            .into_parts()
            .0;
        let pixels = self.pixel_path(&histogram);
        let (response, _) = self.evaluate(tr, request, frame, &histogram, 128, pixels);
        tr.time(request, "imaging.apply", || {
            response.apply_into(frame, &mut self.out)
        });
        let levels = response.levels();
        tr.time(request, "quality.levels", || {
            hebs_quality::DistortionMeasure::distortion_from_levels(
                &hebs_quality::GlobalUiqiDistortion,
                &histogram,
                levels,
            )
        });
        if windowed {
            let out = &self.out;
            tr.time(request, "quality.windowed", || {
                hebs_quality::DistortionMeasure::distortion(
                    &hebs_quality::HebsDistortion::default(),
                    frame,
                    out,
                )
            });
        }
        self.time_fit(tr, request, frame, budget);
        tr.close();
    }

    /// The closed-loop bisection over target ranges, as the policy runs it.
    #[allow(clippy::too_many_arguments)]
    fn search(
        &mut self,
        tr: &mut Tracer,
        request: u32,
        frame: &GrayImage,
        histogram: &Histogram,
        budget: f64,
        pixels: bool,
        evaluations: &mut u64,
    ) -> DisplayResponse {
        let (mut best, full) = self.evaluate(tr, request, frame, histogram, 256, pixels);
        *evaluations += 1;
        if full > budget {
            return best;
        }
        let (mut lo, mut hi) = (2u32, 256u32);
        while lo < hi {
            let mid = (lo + hi) / 2;
            let (response, distortion) = self.evaluate(tr, request, frame, histogram, mid, pixels);
            *evaluations += 1;
            if distortion <= budget {
                hi = mid;
                best = response;
            } else {
                lo = mid + 1;
            }
        }
        best
    }

    /// One fit evaluation at one target range: the GHE solve, then per
    /// blend candidate the blend, PLC coarsening, driver programming and
    /// distortion measure, then the power accounting. On the pixel path
    /// each candidate and the evaluation's output frame are applied.
    fn evaluate(
        &mut self,
        tr: &mut Tracer,
        request: u32,
        frame: &GrayImage,
        histogram: &Histogram,
        range: u32,
        pixels: bool,
    ) -> (DisplayResponse, f64) {
        let target = TargetRange::from_span(range).expect("range is in [2, 256]");
        let ghe = tr
            .time(request, "core.ghe", || equalize(histogram, target))
            .expect("equalization of a served histogram")
            .transform;
        let (lo, hi) = (
            f64::from(target.g_min()) / 255.0,
            f64::from(target.g_max()) / 255.0,
        );
        let linear =
            PiecewiseLinear::new(vec![ControlPoint::new(0.0, lo), ControlPoint::new(1.0, hi)])
                .expect("a linear band curve is valid");
        let beta = target.backlight_factor();
        let segments = self
            .config
            .segments
            .min(self.config.driver.max_segments())
            .max(1);
        let weights: &[f64] = match self.config.blend {
            hebs_core::BlendMode::Adaptive => &[0.0, 0.5, 1.0],
            hebs_core::BlendMode::Fixed(w) => &[w],
        };
        let mut best: Option<(DisplayResponse, hebs_transform::LookupTable, f64)> = None;
        for &w in weights {
            let requested = tr.time(request, "core.blend", || blend(&linear, &ghe, w));
            let coarse = tr
                .time(request, "transform.plc", || coarsen(&requested, segments))
                .expect("coarsening a monotone curve");
            let config = &self.config;
            let (lut, response) = tr.time(request, "display.program", || {
                let programmed = config
                    .driver
                    .program(&coarse.curve, beta)
                    .expect("driver programming");
                let response = config
                    .subsystem
                    .response(&programmed.lut, beta)
                    .expect("display response");
                (programmed.lut, response)
            });
            let distortion = if pixels {
                let candidate = &mut self.candidate;
                tr.time(request, "imaging.apply", || {
                    response.apply_into(frame, candidate)
                });
                let (measure, candidate) = (&self.config.measure, &self.candidate);
                tr.time(request, "quality.windowed", || {
                    measure.distortion(frame, candidate)
                })
            } else {
                let measure = &self.config.measure;
                tr.time(request, "quality.levels", || {
                    measure.distortion_from_levels(histogram, response.levels())
                })
                .expect("histogram-capable measure")
            };
            if best
                .as_ref()
                .is_none_or(|(_, _, current)| distortion < *current)
            {
                best = Some((response, lut, distortion));
            }
        }
        let (response, lut, distortion) = best.expect("at least one blend candidate");
        let subsystem = &self.config.subsystem;
        let _ = tr.time(request, "display.power", || {
            let identity: [u8; 256] = std::array::from_fn(|level| level as u8);
            let scaled = subsystem.power_from_histogram(histogram, lut.entries(), beta);
            let baseline = subsystem.power_from_histogram(histogram, &identity, 1.0);
            (scaled, baseline)
        });
        if pixels {
            let out = &mut self.out;
            tr.time(request, "imaging.apply", || response.apply_into(frame, out));
        }
        (response, distortion)
    }
}

fn blend(linear: &PiecewiseLinear, ghe: &PiecewiseLinear, weight: f64) -> PiecewiseLinear {
    let w = weight.clamp(0.0, 1.0);
    if w <= 0.0 {
        return linear.clone();
    }
    if w >= 1.0 {
        return ghe.clone();
    }
    PiecewiseLinear::from_samples(256, |x| {
        (1.0 - w) * linear.evaluate(x) + w * ghe.evaluate(x)
    })
}
