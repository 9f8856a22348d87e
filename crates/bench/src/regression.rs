//! The CI bench-regression gate.
//!
//! `bench_check` compares the machine-readable bench artifacts
//! (`runtime_throughput.json`, `fit_scaling.json`) against baselines
//! committed under `bench/baselines/`, so a PR that slows the hot path or
//! reintroduces per-miss bisections fails CI instead of silently shipping.
//!
//! The workspace builds without a registry (no `serde`), so this module
//! carries a minimal recursive-descent JSON parser for the flat shapes the
//! benches emit, plus the comparison rules. Every gated quantity is chosen
//! to be **machine-independent**, so a slower CI runner or background load
//! cannot fail the gate — only a change to the code's relative economics
//! can:
//!
//! * **fit evaluations per miss** — fail on any increase beyond a small
//!   scheduler-noise guard band (default +5%): the counter that keeps the
//!   open-loop (1 per miss) vs. closed-loop (9 per miss) economics honest.
//! * **p50 latency and throughput** — gated as ratios against the *same
//!   run's* single-thread row per workload (default ±25%): machine speed
//!   cancels, so a failure means the cache, the pool or the open-loop path
//!   got slower *relative to* the plain pipeline. Rows lacking a
//!   single-thread reference fall back to absolute comparison (which then
//!   assumes comparable hardware).
//! * **fit-scaling latencies** — gated as shape ratios: each metric's
//!   growth from its own smallest-scale value (the histogram fit must stay
//!   flat) and the pixel paths' cost relative to the histogram fit.
//!
//! The trade-off: a regression that slows *every* configuration uniformly
//! (e.g. the shared apply path) cancels out of the ratios too — absolute
//! numbers for such auditing are still in the uploaded artifacts, they are
//! just not CI-gated. Refresh baselines with `bench_check
//! --write-baselines` when a PR intentionally moves the gated ratios.

use std::collections::HashMap;
use std::fmt::Write as _;

/// A parsed JSON value (only what the bench artifacts need).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null` (also produced for non-finite numbers by the serializer).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, kept as `f64` (the artifacts stay well within the
    /// exactly-representable integer range).
    Number(f64),
    /// A string with escapes resolved.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, insertion-ordered.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a position-annotated description of the first syntax error.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_whitespace(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

fn skip_whitespace(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {} (found {:?})",
            byte as char,
            *pos,
            bytes.get(*pos).map(|b| *b as char)
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_whitespace(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(JsonValue::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(JsonValue::Number)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return Err(format!("invalid escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy a full UTF-8 scalar, not just one byte.
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().ok_or("unterminated string")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_whitespace(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_whitespace(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            other => return Err(format!("expected ',' or ']' in array, found {other:?}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_whitespace(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(members));
    }
    loop {
        skip_whitespace(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_whitespace(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        members.push((key, value));
        skip_whitespace(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(members));
            }
            other => return Err(format!("expected ',' or '}}' in object, found {other:?}")),
        }
    }
}

/// Tolerances of the regression gate.
#[derive(Debug, Clone, Copy)]
pub struct CheckConfig {
    /// Maximum tolerated relative p50-latency (and fit-latency) increase
    /// before a row fails (0.25 = +25%).
    pub latency_tolerance: f64,
    /// Maximum tolerated relative throughput decrease before a row fails
    /// (0.25 = −25%).
    pub throughput_tolerance: f64,
    /// Guard band on the fit-evaluations-per-miss ratio: any increase
    /// beyond it fails (kept small — the ratio is machine-independent, the
    /// band only absorbs single-flight scheduler noise).
    pub evaluations_tolerance: f64,
    /// Additive slack on every latency comparison, in milliseconds: a
    /// regression within `baseline × (1 + tolerance) + floor` passes.
    /// Keeps tiny baselines (a cache-hit p50 of a few µs) from turning
    /// scheduler jitter into a 25% "regression".
    pub latency_floor: f64,
    /// Throughput and p50 gates are skipped (reported as informational)
    /// for rows whose *baseline* wall time is below this many ms — there
    /// is not enough signal in a sub-jitter run to gate on. The
    /// fit-evaluations-per-miss gate still applies to such rows.
    pub min_gated_wall_ms: f64,
    /// Maximum tolerated relative decrease of the mixed-suite per-class
    /// savings-recovery ratio before the gate fails (0.10 = −10%). The
    /// savings are deterministic functions of the synthetic suite, so the
    /// band only absorbs intentional curve-fitting tweaks, not machine
    /// noise.
    pub savings_tolerance: f64,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            latency_tolerance: 0.25,
            throughput_tolerance: 0.25,
            evaluations_tolerance: 0.05,
            latency_floor: 0.5,
            min_gated_wall_ms: 20.0,
            savings_tolerance: 0.10,
        }
    }
}

/// The outcome of one artifact comparison: human-readable per-row lines
/// plus the violations that should fail CI.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// One line per compared metric (also covers passing rows, so the CI
    /// log shows what was gated).
    pub comparisons: Vec<String>,
    /// The failed comparisons.
    pub violations: Vec<String>,
}

impl CheckReport {
    /// Whether the artifact passed the gate.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    fn compare_latency(
        &mut self,
        label: &str,
        baseline: f64,
        current: f64,
        tolerance: f64,
        floor: f64,
    ) {
        let limit = baseline * (1.0 + tolerance) + floor;
        let line = format!("{label}: {current:.3} vs baseline {baseline:.3} (limit {limit:.3})");
        if current > limit {
            self.violations.push(line.clone());
        }
        self.comparisons.push(line);
    }

    fn compare_throughput(&mut self, label: &str, baseline: f64, current: f64, tolerance: f64) {
        let limit = baseline * (1.0 - tolerance);
        let line = format!("{label}: {current:.1} vs baseline {baseline:.1} (limit {limit:.1})");
        if current < limit {
            self.violations.push(line.clone());
        }
        self.comparisons.push(line);
    }
}

/// Pulls a named number out of a row object, tolerating `null`.
fn field(row: &JsonValue, name: &str) -> Option<f64> {
    row.get(name).and_then(JsonValue::as_number)
}

/// Indexes a throughput artifact's rows by `(workload, configuration)`.
fn throughput_rows(doc: &JsonValue) -> Result<HashMap<(String, String), JsonValue>, String> {
    let rows = doc
        .get("rows")
        .and_then(JsonValue::as_array)
        .ok_or("throughput artifact has no \"rows\" array")?;
    let mut index = HashMap::new();
    for row in rows {
        let workload = row
            .get("workload")
            .and_then(JsonValue::as_str)
            .ok_or("row missing \"workload\"")?;
        let configuration = row
            .get("configuration")
            .and_then(JsonValue::as_str)
            .ok_or("row missing \"configuration\"")?;
        index.insert(
            (workload.to_string(), configuration.to_string()),
            row.clone(),
        );
    }
    Ok(index)
}

/// The fit-evaluations-per-miss ratio for one row. Prefers the serialized
/// ratio; falls back to recomputing from the raw counters for baselines
/// produced by an older serializer.
fn evaluations_per_miss(row: &JsonValue) -> Option<f64> {
    if let Some(ratio) = field(row, "fit_evaluations_per_miss") {
        return Some(ratio);
    }
    let evaluations = field(row, "fit_evaluations")?;
    let misses = field(row, "cache_misses")
        .filter(|m| *m > 0.0)
        .or_else(|| field(row, "frames").filter(|f| *f > 0.0))?;
    Some(evaluations / misses)
}

/// The configuration each workload's timing gates are normalized against.
const REFERENCE_CONFIGURATION: &str = "single-thread";

/// Gates the artifact's `mixed_suite` savings comparison, when present.
/// Savings are deterministic functions of the synthetic suite (single
/// worker, no background rebuilds), so unlike timings they are gated
/// directly:
///
/// * the per-class bank must save **strictly more** backlight than the
///   single worst-case curve (the whole point of the bank — losing this
///   means mixed traffic stopped dimming again);
/// * the per-class recovery ratio (per-class saving / closed-loop saving)
///   must not drop more than `savings_tolerance` below the baseline's;
/// * the per-class engine must hold the open-loop economics: at most one
///   fit evaluation per miss on its own characterized traffic.
///
/// A baseline with a `mixed_suite` section and a current run without one is
/// a violation (the comparison must not silently disappear); the reverse
/// passes with a note.
fn check_mixed_suite(
    baseline: &JsonValue,
    current: &JsonValue,
    config: CheckConfig,
    report: &mut CheckReport,
) {
    let (base, cur) = match (baseline.get("mixed_suite"), current.get("mixed_suite")) {
        (None, None) => return,
        (Some(_), None) => {
            report
                .violations
                .push("mixed_suite: present in baseline but missing from current run".to_string());
            return;
        }
        (None, Some(_)) => {
            report
                .comparisons
                .push("mixed_suite: new section (no baseline yet)".to_string());
            return;
        }
        (Some(base), Some(cur)) => (base, cur),
    };
    if let (Some(per_class), Some(worst)) = (
        field(cur, "per_class_saving"),
        field(cur, "worst_case_saving"),
    ) {
        let line = format!(
            "mixed_suite per-class saving {per_class:.4} vs worst-case {worst:.4} \
             (must be strictly above)"
        );
        if per_class <= worst + 1e-9 {
            report.violations.push(line.clone());
        }
        report.comparisons.push(line);
    }
    if let (Some(base_recovery), Some(cur_recovery)) = (
        field(base, "per_class_recovery"),
        field(cur, "per_class_recovery"),
    ) {
        let limit = base_recovery * (1.0 - config.savings_tolerance);
        let line = format!(
            "mixed_suite per-class recovery: {cur_recovery:.3} vs baseline \
             {base_recovery:.3} (limit {limit:.3})"
        );
        if cur_recovery < limit {
            report.violations.push(line.clone());
        }
        report.comparisons.push(line);
    }
    if let Some(evals) = field(cur, "per_class_evals_per_miss") {
        let line =
            format!("mixed_suite per-class fit evals/miss: {evals:.3} (limit 1.000 + noise)");
        if evals > 1.0 + config.evaluations_tolerance {
            report.violations.push(line.clone());
        }
        report.comparisons.push(line);
    }
}

/// Gates a `runtime_throughput.json` artifact against its baseline, per
/// `(workload, configuration)` row:
///
/// * **fit evaluations per miss** — always gated (machine-independent);
/// * **p50 latency and throughput** — gated *relative to the same run's
///   single-thread row for the workload* when both artifacts have one:
///   machine speed and background load cancel out of the ratio, so only a
///   *differential* regression (the cache, the pool, or the open-loop
///   policy getting slower relative to the plain pipeline) fails. Rows
///   with no reference fall back to absolute comparison; reference rows
///   themselves measure machine speed and are reported but not gated.
///
/// A row present in the baseline but missing from the current artifact is
/// a violation (configurations must not silently disappear); new rows pass
/// with a note.
///
/// # Errors
///
/// Returns a description of the first malformed artifact.
pub fn check_throughput(
    baseline: &str,
    current: &str,
    config: CheckConfig,
) -> Result<CheckReport, String> {
    let baseline_doc = JsonValue::parse(baseline)?;
    let current_doc = JsonValue::parse(current)?;
    let baseline = throughput_rows(&baseline_doc)?;
    let current = throughput_rows(&current_doc)?;
    let mut report = CheckReport::default();
    check_mixed_suite(&baseline_doc, &current_doc, config, &mut report);

    let mut keys: Vec<_> = baseline.keys().collect();
    keys.sort();
    for key in keys {
        let (workload, configuration) = key;
        let base_row = &baseline[key];
        let Some(cur_row) = current.get(key) else {
            report.violations.push(format!(
                "{workload}/{configuration}: present in baseline but missing from current run"
            ));
            continue;
        };
        // Rows whose baseline run was faster than the jitter floor carry
        // no usable timing signal: skip their latency/throughput gates
        // (the machine-independent evals/miss gate below still applies).
        let gate_timing =
            field(base_row, "wall_ms").map_or(true, |w| w >= config.min_gated_wall_ms);
        if !gate_timing {
            report.comparisons.push(format!(
                "{workload}/{configuration}: timing gates skipped (baseline wall below \
                 {:.0} ms)",
                config.min_gated_wall_ms
            ));
        }
        // The same-run reference this workload's timing is normalized by.
        let reference_key = (workload.clone(), REFERENCE_CONFIGURATION.to_string());
        let reference = if configuration == REFERENCE_CONFIGURATION {
            None
        } else {
            baseline
                .get(&reference_key)
                .zip(current.get(&reference_key))
        };
        if gate_timing && configuration == REFERENCE_CONFIGURATION {
            report.comparisons.push(format!(
                "{workload}/{configuration}: reference row (absolute speed reflects the \
                 machine, not the code — not gated)"
            ));
        }
        if let (true, Some((base_ref, cur_ref))) = (gate_timing, reference) {
            // Normalized p50: row / same-run single-thread.
            if let (Some(base), Some(cur), Some(base_ref_p50), Some(cur_ref_p50)) = (
                field(base_row, "p50_latency_ms"),
                field(cur_row, "p50_latency_ms"),
                field(base_ref, "p50_latency_ms").filter(|v| *v > 0.0),
                field(cur_ref, "p50_latency_ms").filter(|v| *v > 0.0),
            ) {
                report.compare_latency(
                    &format!(
                        "{workload}/{configuration} p50 vs single-thread \
                         (abs {cur:.3} ms)"
                    ),
                    base / base_ref_p50,
                    cur / cur_ref_p50,
                    config.latency_tolerance,
                    config.latency_floor / base_ref_p50,
                );
            }
            // Normalized throughput: row speedup over same-run single-thread.
            if let (Some(base), Some(cur), Some(base_ref_fps), Some(cur_ref_fps)) = (
                field(base_row, "throughput_fps"),
                field(cur_row, "throughput_fps"),
                field(base_ref, "throughput_fps").filter(|v| *v > 0.0),
                field(cur_ref, "throughput_fps").filter(|v| *v > 0.0),
            ) {
                report.compare_throughput(
                    &format!(
                        "{workload}/{configuration} speedup vs single-thread \
                         (abs {cur:.1} fps)"
                    ),
                    base / base_ref_fps,
                    cur / cur_ref_fps,
                    config.throughput_tolerance,
                );
            }
        } else if gate_timing && configuration != REFERENCE_CONFIGURATION {
            // No same-run reference available: fall back to absolute
            // comparison (only meaningful on comparable hardware).
            if let (Some(base), Some(cur)) = (
                field(base_row, "p50_latency_ms"),
                field(cur_row, "p50_latency_ms"),
            ) {
                report.compare_latency(
                    &format!("{workload}/{configuration} p50 [ms]"),
                    base,
                    cur,
                    config.latency_tolerance,
                    config.latency_floor,
                );
            }
            if let (Some(base), Some(cur)) = (
                field(base_row, "throughput_fps"),
                field(cur_row, "throughput_fps"),
            ) {
                report.compare_throughput(
                    &format!("{workload}/{configuration} throughput [fps]"),
                    base,
                    cur,
                    config.throughput_tolerance,
                );
            }
        }
        if let (Some(base), Some(cur)) = (
            evaluations_per_miss(base_row),
            evaluations_per_miss(cur_row),
        ) {
            let limit = base * (1.0 + config.evaluations_tolerance) + 1e-9;
            let line = format!(
                "{workload}/{configuration} fit evals/miss: {cur:.3} vs baseline {base:.3} (limit {limit:.3})"
            );
            if cur > limit {
                report.violations.push(line.clone());
            }
            report.comparisons.push(line);
        }
    }
    for key in current.keys().filter(|k| !baseline.contains_key(*k)) {
        report.comparisons.push(format!(
            "{}/{}: new configuration (no baseline yet)",
            key.0, key.1
        ));
    }
    Ok(report)
}

/// Gates a `fit_scaling.json` artifact against its baseline via
/// machine-independent *shape* ratios:
///
/// * at the smallest scale, the cross-metric ratios `pixel/histogram` and
///   `windowed/histogram` (how much the pixel paths cost relative to the
///   level-space fit);
/// * at every larger scale, each metric's growth relative to its own
///   smallest-scale value — the experiment's headline is that the
///   histogram fit stays *flat* while the pixel paths grow linearly, and
///   this is exactly what a regression there moves.
///
/// A uniform machine slowdown cancels out of every gated ratio; absolute
/// per-fit latencies are never compared across runs.
///
/// # Errors
///
/// Returns a description of the first malformed artifact.
pub fn check_fit_scaling(
    baseline: &str,
    current: &str,
    config: CheckConfig,
) -> Result<CheckReport, String> {
    const METRICS: [&str; 3] = ["histogram_fit_us", "pixel_fit_us", "windowed_fit_us"];
    /// Additive slack on the gated shape ratios: both operands of a ratio
    /// jitter, so pure relative tolerance on a ratio near 1.0 would double
    /// the effective noise sensitivity.
    const RATIO_SLACK: f64 = 0.25;
    let index = |doc: &JsonValue| -> Result<HashMap<u64, JsonValue>, String> {
        let rows = doc
            .get("rows")
            .and_then(JsonValue::as_array)
            .ok_or("fit-scaling artifact has no \"rows\" array")?;
        let mut map = HashMap::new();
        for row in rows {
            let scale = field(row, "scale").ok_or("row missing \"scale\"")? as u64;
            map.insert(scale, row.clone());
        }
        Ok(map)
    };
    let baseline = index(&JsonValue::parse(baseline)?)?;
    let current = index(&JsonValue::parse(current)?)?;
    let mut report = CheckReport::default();
    let mut scales: Vec<_> = baseline.keys().copied().collect();
    scales.sort_unstable();
    let Some(&reference_scale) = scales.first() else {
        return Ok(report);
    };
    for &scale in &scales {
        let base_row = &baseline[&scale];
        let Some(cur_row) = current.get(&scale) else {
            report
                .violations
                .push(format!("scale {scale}x: missing from current run"));
            continue;
        };
        if scale == reference_scale {
            // Cross-metric shape at the reference scale: the pixel paths'
            // cost relative to the histogram-domain fit.
            for metric in ["pixel_fit_us", "windowed_fit_us"] {
                if let (Some(base), Some(cur), Some(base_hist), Some(cur_hist)) = (
                    field(base_row, metric),
                    field(cur_row, metric),
                    field(base_row, "histogram_fit_us").filter(|v| *v > 0.0),
                    field(cur_row, "histogram_fit_us").filter(|v| *v > 0.0),
                ) {
                    report.compare_latency(
                        &format!("scale {scale}x {metric} / histogram_fit_us"),
                        base / base_hist,
                        cur / cur_hist,
                        config.latency_tolerance,
                        RATIO_SLACK,
                    );
                }
            }
            continue;
        }
        // Growth relative to the metric's own reference-scale value: the
        // histogram fit must stay flat, the pixel paths must not steepen.
        let base_ref = &baseline[&reference_scale];
        let Some(cur_ref) = current.get(&reference_scale) else {
            continue; // already reported missing above
        };
        for metric in METRICS {
            if let (Some(base), Some(cur), Some(base_at_ref), Some(cur_at_ref)) = (
                field(base_row, metric),
                field(cur_row, metric),
                field(base_ref, metric).filter(|v| *v > 0.0),
                field(cur_ref, metric).filter(|v| *v > 0.0),
            ) {
                report.compare_latency(
                    &format!("scale {scale}x {metric} growth vs {reference_scale}x"),
                    base / base_at_ref,
                    cur / cur_at_ref,
                    config.latency_tolerance,
                    RATIO_SLACK,
                );
            }
        }
    }
    Ok(report)
}

/// Gates a `frame_scaling.json` artifact: real-resolution serve latency
/// must stay **sub-linear** in pixel count.
///
/// Structural gates read the **current** artifact only, so they hold on
/// any machine:
///
/// * `serve_miss(4K) / serve_miss(32×32)` must stay far below the 8100×
///   pixel ratio (the fit is histogram-domain; only the fused ingest and
///   the LUT apply scale with pixels);
/// * `serve_miss(4K) / serve_miss(1080p)` must not exceed the 4× pixel
///   ratio — per-pixel cost cannot steepen at the top end;
/// * at 1080p and above a hit must not cost more than its miss (a hit
///   does strictly less per-pixel work: the ingest alone);
/// * when the current artifact's `workers` is ≥ 2, the parallel ingest
///   must beat the serial pass at 1080p and 4K. A 1-CPU runner records
///   `workers: 1` and gets an informational note instead — conditioning
///   on the *baseline*'s worker count would let a multi-core regression
///   hide behind a single-core baseline.
///
/// The cross-run gate compares the machine-independent `4K / 1080p`
/// serve-miss and serial-ingest shape ratios against the baseline.
///
/// # Errors
///
/// Returns a description of the first malformed artifact.
pub fn check_frame_scaling(
    baseline: &str,
    current: &str,
    config: CheckConfig,
) -> Result<CheckReport, String> {
    /// Additive slack on gated shape ratios (see [`check_fit_scaling`]).
    const RATIO_SLACK: f64 = 0.25;
    /// Absolute ceiling on the 4K / 32×32 serve-miss ratio: ~30% of the
    /// 8100× pixel ratio. The small frame's serve carries fixed per-serve
    /// overhead (cache probe, fit, bookkeeping) that the big frame
    /// amortizes, so the measured ratio sits far below linear; crossing
    /// this ceiling means per-pixel work got superlinear or a second full
    /// traversal crept back into the serve path.
    const SUBLINEAR_CEILING: f64 = 2500.0;
    /// Required parallel-ingest advantage when workers ≥ 2.
    const PARALLEL_ADVANTAGE: f64 = 0.85;
    let index = |doc: &JsonValue| -> Result<HashMap<String, JsonValue>, String> {
        let rows = doc
            .get("rows")
            .and_then(JsonValue::as_array)
            .ok_or("frame-scaling artifact has no \"rows\" array")?;
        let mut map = HashMap::new();
        for row in rows {
            let label = row
                .get("label")
                .and_then(JsonValue::as_str)
                .ok_or("row missing \"label\"")?;
            map.insert(label.to_string(), row.clone());
        }
        Ok(map)
    };
    let baseline_doc = JsonValue::parse(baseline)?;
    let current_doc = JsonValue::parse(current)?;
    let baseline = index(&baseline_doc)?;
    let current = index(&current_doc)?;
    let mut report = CheckReport::default();

    let cur_miss = |label: &str| -> Option<f64> {
        current
            .get(label)
            .and_then(|row| field(row, "serve_miss_us"))
    };

    // Structural: whole-range sub-linearity, current artifact only.
    if let (Some(small), Some(large)) = (cur_miss("32x32"), cur_miss("4K")) {
        if small > 0.0 {
            let ratio = large / small;
            let line = format!(
                "serve_miss 4K / 32x32: {ratio:.1}x for 8100x the pixels \
                 (ceiling {SUBLINEAR_CEILING:.0}x)"
            );
            if ratio > SUBLINEAR_CEILING {
                report.violations.push(line.clone());
            }
            report.comparisons.push(line);
        }
    } else {
        report
            .violations
            .push("frame-scaling current run is missing the 32x32 or 4K row".to_string());
    }

    // Structural: the top end must not steepen past linear.
    if let (Some(mid), Some(large)) = (cur_miss("1080p"), cur_miss("4K")) {
        if mid > 0.0 {
            let ratio = large / mid;
            let limit = 4.0 + RATIO_SLACK;
            let line =
                format!("serve_miss 4K / 1080p: {ratio:.2}x for 4x the pixels (limit {limit:.2}x)");
            if ratio > limit {
                report.violations.push(line.clone());
            }
            report.comparisons.push(line);
        }
    }

    // Structural: at real resolutions a hit (ingest only) cannot cost
    // more than a miss (ingest + fit + apply).
    for label in ["1080p", "4K"] {
        if let Some(row) = current.get(label) {
            if let (Some(hit), Some(miss)) =
                (field(row, "serve_hit_us"), field(row, "serve_miss_us"))
            {
                let limit = miss * (1.0 + config.latency_tolerance);
                let line = format!(
                    "{label} serve_hit {hit:.1}us vs miss {miss:.1}us (limit {limit:.1}us)"
                );
                if hit > limit {
                    report.violations.push(line.clone());
                }
                report.comparisons.push(line);
            }
        }
    }

    // Conditional: parallel ingest speedup, armed by the current machine.
    let cur_workers = current_doc
        .get("workers")
        .and_then(JsonValue::as_number)
        .unwrap_or(1.0);
    for label in ["1080p", "4K"] {
        let Some(row) = current.get(label) else {
            continue;
        };
        let (Some(serial), Some(parallel)) = (
            field(row, "ingest_serial_us").filter(|v| *v > 0.0),
            field(row, "ingest_parallel_us"),
        ) else {
            continue;
        };
        if cur_workers >= 2.0 {
            let limit = serial * PARALLEL_ADVANTAGE;
            let line = format!(
                "{label} parallel ingest {parallel:.1}us vs serial {serial:.1}us \
                 ({cur_workers:.0} workers, limit {limit:.1}us)"
            );
            if parallel > limit {
                report.violations.push(line.clone());
            }
            report.comparisons.push(line);
        } else {
            report.comparisons.push(format!(
                "{label} parallel ingest {parallel:.1}us vs serial {serial:.1}us \
                 (single worker; speedup gate not armed)"
            ));
        }
    }

    // Cross-run: the machine-independent top-end shape ratios.
    for metric in ["serve_miss_us", "ingest_serial_us"] {
        let ratio = |rows: &HashMap<String, JsonValue>| -> Option<f64> {
            let mid = rows.get("1080p").and_then(|r| field(r, metric))?;
            let large = rows.get("4K").and_then(|r| field(r, metric))?;
            (mid > 0.0).then_some(large / mid)
        };
        if let (Some(base), Some(cur)) = (ratio(&baseline), ratio(&current)) {
            report.compare_latency(
                &format!("{metric} 4K / 1080p"),
                base,
                cur,
                config.latency_tolerance,
                RATIO_SLACK,
            );
        }
    }
    Ok(report)
}

/// Indexes a multi-tenant artifact as scenario name → tenant name → row.
#[allow(clippy::type_complexity)]
fn multi_tenant_rows(doc: &JsonValue) -> Result<Vec<(String, Vec<(String, JsonValue)>)>, String> {
    let scenarios = doc
        .get("scenarios")
        .and_then(JsonValue::as_array)
        .ok_or("multi-tenant artifact has no \"scenarios\" array")?;
    let mut index = Vec::new();
    for scenario in scenarios {
        let name = scenario
            .get("scenario")
            .and_then(JsonValue::as_str)
            .ok_or("scenario missing \"scenario\"")?;
        let tenants = scenario
            .get("tenants")
            .and_then(JsonValue::as_array)
            .ok_or("scenario missing \"tenants\" array")?;
        let mut rows = Vec::new();
        for tenant in tenants {
            let tenant_name = tenant
                .get("tenant")
                .and_then(JsonValue::as_str)
                .ok_or("tenant row missing \"tenant\"")?;
            rows.push((tenant_name.to_string(), tenant.clone()));
        }
        index.push((name.to_string(), rows));
    }
    Ok(index)
}

/// Gates a `multi_tenant.json` load-generator artifact.
///
/// Almost everything gated here is **machine-independent by construction**
/// — the load generator's schedules make the interesting counters
/// structural properties of the admission bounds, and the expectations
/// ship *inside the current artifact* (`expect_sheds`, `expect_degraded`,
/// `savings_rank`), so they hold on any machine:
///
/// * **counter reconciliation** — every tenant's `served + sheds` must
///   equal its offered `arrivals`: a frame is either admitted and served
///   or shed, never lost;
/// * **shed and degrade expectations** — a tenant whose admission bound
///   covers its whole schedule must shed zero; a tenant whose bursts
///   structurally overrun its bound must shed some; same for
///   deadline-degraded serves;
/// * **percentile ordering** — p50 ≤ p99 ≤ p999 within every tenant;
/// * **savings ordering** — tenants carrying a `savings_rank` must save
///   strictly more backlight at each higher rank (same content, looser
///   budget);
/// * **overload isolation** — the protected tenant's retention under a 2×
///   flood must stay ≥ 0.9 with zero sheds, while the flood is clamped.
///
/// The only cross-run comparison is the **p999/p50 tail shape ratio** per
/// tenant, gated against the committed baseline with a deliberately wide
/// band (4× + slack): machine speed cancels out of the ratio, and the band
/// only catches an order-of-magnitude tail collapse — e.g. the serve path
/// acquiring a lock that serializes the queue — not scheduler noise.
///
/// A scenario or tenant present in the baseline but missing from the
/// current artifact is a violation; new ones pass with a note.
///
/// # Errors
///
/// Returns a description of the first malformed artifact.
pub fn check_multi_tenant(
    baseline: &str,
    current: &str,
    _config: CheckConfig,
) -> Result<CheckReport, String> {
    /// Relative band on the p999/p50 tail ratio (4× the baseline ratio).
    const TAIL_TOLERANCE: f64 = 3.0;
    /// Additive slack on the tail ratio (both operands jitter).
    const TAIL_SLACK: f64 = 2.0;
    /// Minimum retention of the protected tenant's isolated throughput.
    const MIN_RETENTION: f64 = 0.9;

    let baseline_doc = JsonValue::parse(baseline)?;
    let current_doc = JsonValue::parse(current)?;
    let baseline = multi_tenant_rows(&baseline_doc)?;
    let current = multi_tenant_rows(&current_doc)?;
    let mut report = CheckReport::default();

    // Structural gates, evaluated on the current artifact alone.
    for (scenario, tenants) in &current {
        let mut ranked: Vec<(u64, &str, f64)> = Vec::new();
        for (tenant, row) in tenants {
            let label = format!("{scenario}/{tenant}");
            if let (Some(arrivals), Some(served), Some(sheds)) = (
                field(row, "arrivals"),
                field(row, "served"),
                field(row, "sheds"),
            ) {
                let line = format!(
                    "{label} reconciliation: served {served} + sheds {sheds} vs \
                     arrivals {arrivals}"
                );
                if served + sheds != arrivals {
                    report.violations.push(line.clone());
                }
                report.comparisons.push(line);
            }
            for (counter, expectation_key) in [
                ("sheds", "expect_sheds"),
                ("deadline_degraded", "expect_degraded"),
            ] {
                let Some(expectation) = row.get(expectation_key).and_then(JsonValue::as_str) else {
                    continue;
                };
                let Some(value) = field(row, counter) else {
                    continue;
                };
                let ok = match expectation {
                    "zero" => value == 0.0,
                    "some" => value > 0.0,
                    _ => true,
                };
                let line = format!("{label} {counter}: {value} (expected {expectation})");
                if !ok {
                    report.violations.push(line.clone());
                }
                report.comparisons.push(line);
            }
            if let (Some(p50), Some(p99), Some(p999)) = (
                field(row, "p50_ms"),
                field(row, "p99_ms"),
                field(row, "p999_ms"),
            ) {
                let line = format!(
                    "{label} percentile ordering: p50 {p50:.3} <= p99 {p99:.3} <= \
                     p999 {p999:.3} ms"
                );
                if !(p50 <= p99 && p99 <= p999) {
                    report.violations.push(line.clone());
                }
                report.comparisons.push(line);
            }
            if let (Some(rank), Some(saving)) =
                (field(row, "savings_rank"), field(row, "mean_power_saving"))
            {
                ranked.push((rank as u64, tenant, saving));
            }
        }
        // Each higher savings rank must dim strictly further: the ranked
        // tenants serve the same content cycle at ever looser budgets.
        ranked.sort_by_key(|&(rank, _, _)| rank);
        for pair in ranked.windows(2) {
            let (_, looser, more) = pair[1];
            let (_, tighter, less) = pair[0];
            let line = format!(
                "{scenario} savings ordering: {looser} {more:.4} vs {tighter} {less:.4} \
                 (must be strictly above)"
            );
            if more <= less {
                report.violations.push(line.clone());
            }
            report.comparisons.push(line);
        }
    }

    // Tail shape vs the committed baseline (the only cross-run gate).
    for (scenario, tenants) in &baseline {
        let Some((_, cur_tenants)) = current.iter().find(|(name, _)| name == scenario) else {
            report.violations.push(format!(
                "{scenario}: present in baseline but missing from current run"
            ));
            continue;
        };
        for (tenant, base_row) in tenants {
            let Some((_, cur_row)) = cur_tenants.iter().find(|(name, _)| name == tenant) else {
                report.violations.push(format!(
                    "{scenario}/{tenant}: present in baseline but missing from current run"
                ));
                continue;
            };
            if let (Some(base_p50), Some(base_p999), Some(cur_p50), Some(cur_p999)) = (
                field(base_row, "p50_ms").filter(|v| *v > 0.0),
                field(base_row, "p999_ms"),
                field(cur_row, "p50_ms").filter(|v| *v > 0.0),
                field(cur_row, "p999_ms"),
            ) {
                report.compare_latency(
                    &format!("{scenario}/{tenant} p999/p50 tail ratio"),
                    base_p999 / base_p50,
                    cur_p999 / cur_p50,
                    TAIL_TOLERANCE,
                    TAIL_SLACK,
                );
            }
        }
    }
    for (scenario, tenants) in &current {
        match baseline.iter().find(|(name, _)| name == scenario) {
            None => report
                .comparisons
                .push(format!("{scenario}: new scenario (no baseline yet)")),
            Some((_, base_tenants)) => {
                for (tenant, _) in tenants {
                    if !base_tenants.iter().any(|(name, _)| name == tenant) {
                        report
                            .comparisons
                            .push(format!("{scenario}/{tenant}: new tenant (no baseline yet)"));
                    }
                }
            }
        }
    }

    // The overload-isolation section: fully structural, gated from the
    // current run (the protected tenant's fair share covers its schedule,
    // so retention below 1.0 — let alone 0.9 — means isolation broke).
    match (baseline_doc.get("isolation"), current_doc.get("isolation")) {
        (Some(_), None) => report
            .violations
            .push("isolation: present in baseline but missing from current run".to_string()),
        (None, Some(_)) => report
            .comparisons
            .push("isolation: new section (no baseline yet)".to_string()),
        _ => {}
    }
    if let Some(iso) = current_doc.get("isolation") {
        if let Some(retention) = field(iso, "retention") {
            let line = format!(
                "isolation retention under 2x flood: {retention:.3} (limit {MIN_RETENTION})"
            );
            if retention < MIN_RETENTION {
                report.violations.push(line.clone());
            }
            report.comparisons.push(line);
        }
        if let Some(sheds) = field(iso, "protected_sheds") {
            let line = format!("isolation protected sheds: {sheds} (expected zero)");
            if sheds != 0.0 {
                report.violations.push(line.clone());
            }
            report.comparisons.push(line);
        }
        if let Some(sheds) = field(iso, "flood_sheds") {
            let line = format!("isolation flood sheds: {sheds} (expected some — the clamp)");
            if sheds == 0.0 {
                report.violations.push(line.clone());
            }
            report.comparisons.push(line);
        }
    }
    Ok(report)
}

/// Extracts the per-node rows of a warm-start artifact, keyed by role.
fn warm_start_nodes(doc: &JsonValue) -> Result<Vec<(String, JsonValue)>, String> {
    let nodes = doc
        .get("nodes")
        .and_then(|v| v.as_array().map(<[JsonValue]>::to_vec))
        .ok_or_else(|| "warm_start artifact has no nodes array".to_string())?;
    nodes
        .into_iter()
        .map(|row| {
            let name = row
                .get("node")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| "warm_start node row has no node name".to_string())?
                .to_string();
            Ok((name, row))
        })
        .collect()
}

/// Checks the warm-start artifact: the snapshot tier's serve economics.
///
/// Every gate is structural — a deterministic counter or saving over
/// synthetic single-worker traffic — so a slow or loaded runner cannot
/// fail it:
///
/// * the snapshot is non-empty and its hot-cache spill was re-admitted;
/// * the warm node's *first* cache miss costs ≤ 1 fit evaluation (the
///   whole point of restoring a characterized bank) and it never
///   recharacterizes;
/// * the cold node's first miss is strictly dearer and its recovery
///   (serves until a ≤ 1-evaluation miss) strictly longer;
/// * the warm node replays spilled fits as cache hits the cold node has
///   to re-fit;
/// * every node saves power, and the warm node's mean saving tracks the
///   canary's within the savings tolerance (the bank traveled intact —
///   restoring it preserves the canary's savings behaviour on in-class
///   traffic) as well as its own committed baseline.
///
/// # Errors
///
/// Returns an error when either artifact cannot be parsed or lacks the
/// expected nodes.
pub fn check_warm_start(
    baseline: &str,
    current: &str,
    config: CheckConfig,
) -> Result<CheckReport, String> {
    let baseline_doc = JsonValue::parse(baseline)?;
    let current_doc = JsonValue::parse(current)?;
    let current_nodes = warm_start_nodes(&current_doc)?;
    let baseline_nodes = warm_start_nodes(&baseline_doc)?;
    let mut report = CheckReport::default();

    let node = |name: &str| -> Result<&JsonValue, String> {
        current_nodes
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, row)| row)
            .ok_or_else(|| format!("warm_start artifact has no {name} node"))
    };
    let canary = node("canary")?;
    let cold = node("cold")?;
    let warm = node("warm")?;

    let mut structural = |label: String, ok: bool| {
        if !ok {
            report.violations.push(label.clone());
        }
        report.comparisons.push(label);
    };

    for (key, expect_positive) in [("snapshot_bytes", true), ("cache_restored", true)] {
        if let Some(value) = field(&current_doc, key) {
            structural(
                format!("{key}: {value} (expected > 0)"),
                !expect_positive || value > 0.0,
            );
        }
    }
    if let Some(skipped) = field(&current_doc, "cache_skipped") {
        structural(
            format!("cache_skipped: {skipped} (expected 0 — same cache shape)"),
            skipped == 0.0,
        );
    }

    if let (Some(warm_first), Some(cold_first)) = (
        field(warm, "first_miss_evaluations"),
        field(cold, "first_miss_evaluations"),
    ) {
        structural(
            format!("warm first-miss evaluations: {warm_first} (limit 1)"),
            warm_first <= 1.0,
        );
        structural(
            format!("cold first-miss evaluations: {cold_first} (must exceed warm's {warm_first})"),
            cold_first > warm_first,
        );
    }
    if let Some(rebuilds) = field(warm, "recharacterizations") {
        structural(
            format!("warm recharacterizations: {rebuilds} (expected 0 — the bank came in warm)"),
            rebuilds == 0.0,
        );
    }
    if let (Some(warm_recovery), Some(cold_recovery)) = (
        field(warm, "recovery_serves"),
        field(cold, "recovery_serves"),
    ) {
        structural(
            format!("warm recovery serves: {warm_recovery} (expected 0)"),
            warm_recovery == 0.0,
        );
        structural(
            format!("cold recovery serves: {cold_recovery} (must exceed warm's {warm_recovery})"),
            cold_recovery > warm_recovery,
        );
    }
    if let (Some(warm_hits), Some(cold_hits)) =
        (field(warm, "cache_hits"), field(cold, "cache_hits"))
    {
        structural(
            format!(
                "warm cache hits: {warm_hits} (must exceed cold's {cold_hits} — the \
                 restored spill replays the canary's fits)"
            ),
            warm_hits > cold_hits,
        );
    }
    for (name, row) in &current_nodes {
        if let Some(saving) = field(row, "mean_power_saving") {
            structural(
                format!("{name} mean power saving: {saving:.4} (expected > 0)"),
                saving > 0.0,
            );
        }
    }
    if let (Some(warm_saving), Some(canary_saving)) = (
        field(warm, "mean_power_saving"),
        field(canary, "mean_power_saving"),
    ) {
        let floor = canary_saving * (1.0 - config.savings_tolerance);
        structural(
            format!(
                "warm saving tracks the canary's bank: {warm_saving:.4} vs \
                 {canary_saving:.4} (floor {floor:.4})"
            ),
            warm_saving >= floor,
        );
    }

    // The only cross-run gate: the warm node's saving against its own
    // committed baseline (deterministic synthetic traffic, so the band
    // only absorbs intentional curve-fitting changes).
    for (name, base_row) in &baseline_nodes {
        let Some((_, cur_row)) = current_nodes.iter().find(|(n, _)| n == name) else {
            report.violations.push(format!(
                "{name}: present in baseline but missing from current run"
            ));
            continue;
        };
        if let (Some(base), Some(cur)) = (
            field(base_row, "mean_power_saving"),
            field(cur_row, "mean_power_saving"),
        ) {
            let floor = base * (1.0 - config.savings_tolerance);
            let line = format!(
                "{name} mean power saving: {cur:.4} vs baseline {base:.4} (floor {floor:.4})"
            );
            if cur < floor {
                report.violations.push(line.clone());
            }
            report.comparisons.push(line);
        }
    }
    Ok(report)
}

/// Renders a report section for the CI log.
pub fn render_report(name: &str, report: &CheckReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {name} ==");
    for line in &report.comparisons {
        let status = if report.violations.contains(line) {
            "FAIL"
        } else {
            "ok  "
        };
        let _ = writeln!(out, "  {status} {line}");
    }
    for violation in report
        .violations
        .iter()
        .filter(|v| !report.comparisons.contains(v))
    {
        let _ = writeln!(out, "  FAIL {violation}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn throughput_doc_with_wall(wall: f64, p50: f64, fps: f64, evals: u64, misses: u64) -> String {
        format!(
            r#"{{"budget": 0.1, "frame_size": 32, "video_frames": 16, "rows": [
                {{"workload": "suite x2", "configuration": "open-loop", "workers": 4,
                  "frames": 38, "wall_ms": {wall}, "p50_latency_ms": {p50},
                  "throughput_fps": {fps},
                  "cache_misses": {misses}, "fit_evaluations": {evals}}}
            ]}}"#
        )
    }

    fn throughput_doc(p50: f64, fps: f64, evals: u64, misses: u64) -> String {
        throughput_doc_with_wall(600.0, p50, fps, evals, misses)
    }

    #[test]
    fn parser_round_trips_the_bench_shapes() {
        let doc = JsonValue::parse(&throughput_doc(1.5, 300.0, 19, 19)).unwrap();
        assert_eq!(
            doc.get("frame_size").and_then(JsonValue::as_number),
            Some(32.0)
        );
        let rows = doc.get("rows").and_then(JsonValue::as_array).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(
            rows[0].get("configuration").and_then(JsonValue::as_str),
            Some("open-loop")
        );
    }

    #[test]
    fn parser_handles_escapes_null_and_nesting() {
        let doc = JsonValue::parse(
            r#"{"s": "a\"b\\c\nd A", "n": null, "b": [true, false], "x": -1.5e2}"#,
        )
        .unwrap();
        assert_eq!(
            doc.get("s").and_then(JsonValue::as_str),
            Some("a\"b\\c\nd A")
        );
        assert_eq!(doc.get("n"), Some(&JsonValue::Null));
        assert_eq!(doc.get("x").and_then(JsonValue::as_number), Some(-150.0));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1, 2,]").is_err());
        assert!(JsonValue::parse("{\"a\": 1} trailing").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
    }

    #[test]
    fn identical_artifacts_pass() {
        let doc = throughput_doc(2.0, 300.0, 19, 19);
        let report = check_throughput(&doc, &doc, CheckConfig::default()).unwrap();
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert!(!report.comparisons.is_empty());
    }

    #[test]
    fn latency_and_throughput_regressions_fail() {
        let base = throughput_doc(2.0, 300.0, 19, 19);
        // +60%: beyond both the 25% tolerance and the 0.5 ms floor.
        let slow = throughput_doc(3.2, 300.0, 19, 19);
        let report = check_throughput(&base, &slow, CheckConfig::default()).unwrap();
        assert!(!report.passed());
        assert!(report.violations[0].contains("p50"));

        let sluggish = throughput_doc(2.0, 200.0, 19, 19); // -33% fps
        let report = check_throughput(&base, &sluggish, CheckConfig::default()).unwrap();
        assert!(!report.passed());
        assert!(report.violations[0].contains("throughput"));

        // Within tolerance passes.
        let ok = throughput_doc(2.4, 250.0, 19, 19);
        assert!(check_throughput(&base, &ok, CheckConfig::default())
            .unwrap()
            .passed());
    }

    #[test]
    fn tiny_latencies_are_cushioned_by_the_floor() {
        // A 5 µs cache-hit p50 doubling to 10 µs is scheduler jitter, not a
        // regression: the additive 0.5 ms floor absorbs it.
        let base = throughput_doc(0.005, 300.0, 19, 19);
        let jitter = throughput_doc(0.010, 300.0, 19, 19);
        assert!(check_throughput(&base, &jitter, CheckConfig::default())
            .unwrap()
            .passed());
    }

    #[test]
    fn sub_jitter_walls_skip_timing_gates_but_not_the_evals_gate() {
        // Baseline wall 3 ms (< 20 ms): latency/throughput swings pass...
        let base = throughput_doc_with_wall(3.0, 0.003, 6000.0, 2, 2);
        let noisy = throughput_doc_with_wall(5.0, 0.030, 2000.0, 2, 2);
        let report = check_throughput(&base, &noisy, CheckConfig::default()).unwrap();
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert!(report
            .comparisons
            .iter()
            .any(|c| c.contains("timing gates skipped")));

        // ...but the machine-independent evals/miss gate still fires.
        let bisecting = throughput_doc_with_wall(3.0, 0.003, 6000.0, 16, 2);
        let report = check_throughput(&base, &bisecting, CheckConfig::default()).unwrap();
        assert!(!report.passed());
        assert!(report.violations[0].contains("fit evals/miss"));
    }

    #[test]
    fn fit_evaluation_per_miss_increases_fail() {
        let base = throughput_doc(2.0, 300.0, 40, 40); // 1.0 per miss
        let bisecting = throughput_doc(2.0, 300.0, 320, 40); // 8.0 per miss
        let report = check_throughput(&base, &bisecting, CheckConfig::default()).unwrap();
        assert!(!report.passed());
        assert!(report.violations[0].contains("fit evals/miss"));

        // Scheduler noise inside the 5% guard band passes (+2.5% here).
        let noisy = throughput_doc(2.0, 300.0, 41, 40);
        assert!(check_throughput(&base, &noisy, CheckConfig::default())
            .unwrap()
            .passed());
    }

    /// Baseline+current docs with a single-thread reference row and an
    /// open-loop row for one workload.
    fn throughput_pair_doc(ref_p50: f64, ref_fps: f64, ol_p50: f64, ol_fps: f64) -> String {
        format!(
            r#"{{"budget": 0.1, "rows": [
                {{"workload": "suite x2", "configuration": "single-thread",
                  "frames": 38, "wall_ms": 600.0, "p50_latency_ms": {ref_p50},
                  "throughput_fps": {ref_fps}, "cache_misses": 0,
                  "fit_evaluations": 342}},
                {{"workload": "suite x2", "configuration": "open-loop",
                  "frames": 38, "wall_ms": 30.0, "p50_latency_ms": {ol_p50},
                  "throughput_fps": {ol_fps}, "cache_misses": 19,
                  "fit_evaluations": 19}}
            ]}}"#
        )
    }

    #[test]
    fn uniform_machine_slowdown_passes_the_normalized_gates() {
        let base = throughput_pair_doc(16.0, 62.0, 1.1, 1600.0);
        // Everything 2x slower — a loaded or weaker machine, not a code
        // regression: all gated ratios are unchanged.
        let loaded = throughput_pair_doc(32.0, 31.0, 2.2, 800.0);
        let report = check_throughput(&base, &loaded, CheckConfig::default()).unwrap();
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert!(report
            .comparisons
            .iter()
            .any(|c| c.contains("reference row")));
    }

    #[test]
    fn differential_regressions_fail_the_normalized_gates() {
        let base = throughput_pair_doc(16.0, 62.0, 1.1, 1600.0);
        // The open-loop row alone slows 3x while the reference is steady:
        // a real regression in the gated path.
        let regressed = throughput_pair_doc(16.0, 62.0, 3.3, 530.0);
        let report = check_throughput(&base, &regressed, CheckConfig::default()).unwrap();
        assert!(!report.passed());
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("vs single-thread")));
    }

    /// Throughput doc with a mixed-suite savings section.
    fn mixed_doc(worst: f64, per_class: f64, recovery: f64, evals: f64) -> String {
        format!(
            r#"{{"budget": 0.1, "mixed_suite": {{"budget": 0.1, "frames": 19,
                "classes": 6, "closed_loop_saving": 0.41,
                "worst_case_saving": {worst}, "envelope_saving": 0.10,
                "per_class_saving": {per_class}, "per_class_recovery": {recovery},
                "per_class_fallbacks": 0, "per_class_evals_per_miss": {evals}}},
                "rows": []}}"#
        )
    }

    #[test]
    fn mixed_suite_savings_are_gated() {
        let base = mixed_doc(0.0, 0.24, 0.585, 1.0);
        // Identical savings pass.
        let report = check_throughput(&base, &base, CheckConfig::default()).unwrap();
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert!(report
            .comparisons
            .iter()
            .any(|c| c.contains("per-class recovery")));

        // Per-class dropping to the worst-case's level fails the strict
        // ordering even before the ratio check.
        let collapsed = mixed_doc(0.0, 0.0, 0.0, 1.0);
        let report = check_throughput(&base, &collapsed, CheckConfig::default()).unwrap();
        assert!(!report.passed());
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("strictly above")));

        // A >10% recovery regression fails; a smaller one passes.
        let regressed = mixed_doc(0.0, 0.20, 0.48, 1.0);
        let report = check_throughput(&base, &regressed, CheckConfig::default()).unwrap();
        assert!(!report.passed());
        assert!(report.violations.iter().any(|v| v.contains("recovery")));
        let wobble = mixed_doc(0.0, 0.23, 0.56, 1.0);
        assert!(check_throughput(&base, &wobble, CheckConfig::default())
            .unwrap()
            .passed());

        // Losing the ≤1 eval/miss economics fails.
        let bisecting = mixed_doc(0.0, 0.24, 0.585, 4.2);
        let report = check_throughput(&base, &bisecting, CheckConfig::default()).unwrap();
        assert!(!report.passed());
        assert!(report.violations.iter().any(|v| v.contains("evals/miss")));

        // Section disappearing fails; appearing fresh passes with a note.
        let bare = r#"{"rows": []}"#;
        let report = check_throughput(&base, bare, CheckConfig::default()).unwrap();
        assert!(!report.passed());
        let report = check_throughput(bare, &base, CheckConfig::default()).unwrap();
        assert!(report.passed());
        assert!(report.comparisons[0].contains("new section"));
    }

    #[test]
    fn missing_configurations_fail_and_new_ones_pass() {
        let base = throughput_doc(2.0, 300.0, 19, 19);
        let empty = r#"{"rows": []}"#;
        let report = check_throughput(&base, empty, CheckConfig::default()).unwrap();
        assert!(!report.passed());
        assert!(report.violations[0].contains("missing"));

        let report = check_throughput(empty, &base, CheckConfig::default()).unwrap();
        assert!(report.passed(), "new configurations are not violations");
        assert!(report.comparisons[0].contains("new configuration"));
    }

    /// Two-scale fit-scaling artifact: `(histogram, pixel, windowed)` per
    /// scale.
    fn fit_scaling_doc(s1: (f64, f64, f64), s4: (f64, f64, f64)) -> String {
        format!(
            r#"{{"base": 32, "repeats": 2, "rows": [
                {{"scale": 1, "width": 32, "pixels": 1024,
                  "histogram_fit_us": {}, "pixel_fit_us": {},
                  "windowed_fit_us": {}}},
                {{"scale": 4, "width": 128, "pixels": 16384,
                  "histogram_fit_us": {}, "pixel_fit_us": {},
                  "windowed_fit_us": {}}}
            ]}}"#,
            s1.0, s1.1, s1.2, s4.0, s4.1, s4.2
        )
    }

    #[test]
    fn fit_scaling_gates_shape_not_machine_speed() {
        // Flat histogram fit, linear pixel/windowed growth.
        let base = fit_scaling_doc((1400.0, 1500.0, 2000.0), (1400.0, 6000.0, 32000.0));

        // A uniformly 2x slower machine changes no gated ratio: passes.
        let slow_machine = fit_scaling_doc((2800.0, 3000.0, 4000.0), (2800.0, 12000.0, 64000.0));
        let report = check_fit_scaling(&base, &slow_machine, CheckConfig::default()).unwrap();
        assert!(report.passed(), "violations: {:?}", report.violations);

        // The histogram fit losing its flatness (growing 2.5x with pixels)
        // is a shape regression: fails even at identical absolute speed
        // elsewhere.
        let steepened = fit_scaling_doc((1400.0, 1500.0, 2000.0), (3500.0, 6000.0, 32000.0));
        let report = check_fit_scaling(&base, &steepened, CheckConfig::default()).unwrap();
        assert!(!report.passed());
        assert!(report.violations[0].contains("histogram_fit_us growth"));

        // The pixel path getting disproportionately expensive relative to
        // the histogram fit at the reference scale also fails.
        let heavier_pixels = fit_scaling_doc((1400.0, 4000.0, 2000.0), (1400.0, 6000.0, 32000.0));
        let report = check_fit_scaling(&base, &heavier_pixels, CheckConfig::default()).unwrap();
        assert!(!report.passed());
        assert!(report.violations[0].contains("pixel_fit_us / histogram_fit_us"));

        // A missing scale is a violation.
        let only_one = r#"{"rows": [{"scale": 1, "histogram_fit_us": 1400.0,
            "pixel_fit_us": 1500.0, "windowed_fit_us": 2000.0}]}"#;
        let report = check_fit_scaling(&base, only_one, CheckConfig::default()).unwrap();
        assert!(!report.passed());
        assert!(report.violations[0].contains("missing"));
    }

    /// Frame-scaling artifact. `speed` multiplies every latency uniformly
    /// (a slower machine); the other knobs move individual gated numbers,
    /// all expressed at `speed` 1.0: the 1080p and 4K miss latencies, the
    /// 4K hit latency, and the 4K parallel-ingest latency (4K serial is
    /// fixed at 24 ms).
    fn frame_scaling_doc(
        workers: u32,
        speed: f64,
        miss_1080: f64,
        miss_4k: f64,
        hit_4k: f64,
        parallel_4k: f64,
    ) -> String {
        let s = |v: f64| v * speed;
        format!(
            r#"{{"quick": true, "repeats": 2, "workers": {workers}, "rows": [
                {{"label": "32x32", "width": 32, "height": 32, "pixels": 1024,
                  "serve_miss_us": {}, "serve_hit_us": {},
                  "ingest_serial_us": {}, "ingest_parallel_us": {},
                  "lut_apply_us": {}}},
                {{"label": "480p", "width": 854, "height": 480, "pixels": 409920,
                  "serve_miss_us": {}, "serve_hit_us": {},
                  "ingest_serial_us": {}, "ingest_parallel_us": {},
                  "lut_apply_us": {}}},
                {{"label": "1080p", "width": 1920, "height": 1080, "pixels": 2073600,
                  "serve_miss_us": {}, "serve_hit_us": {},
                  "ingest_serial_us": {}, "ingest_parallel_us": {},
                  "lut_apply_us": {}}},
                {{"label": "4K", "width": 3840, "height": 2160, "pixels": 8294400,
                  "serve_miss_us": {}, "serve_hit_us": {},
                  "ingest_serial_us": {}, "ingest_parallel_us": {},
                  "lut_apply_us": {}}}
            ]}}"#,
            s(150.0),
            s(30.0),
            s(12.0),
            s(14.0),
            s(4.0),
            s(2600.0),
            s(900.0),
            s(1100.0),
            s(700.0),
            s(400.0),
            s(miss_1080),
            s(4500.0),
            s(6000.0),
            s(3200.0),
            s(2000.0),
            s(miss_4k),
            s(hit_4k),
            s(24000.0),
            s(parallel_4k),
            s(8000.0),
        )
    }

    fn healthy_frame_scaling_doc() -> String {
        frame_scaling_doc(4, 1.0, 13000.0, 50000.0, 18000.0, 13000.0)
    }

    #[test]
    fn frame_scaling_identical_artifacts_pass() {
        let doc = healthy_frame_scaling_doc();
        let report = check_frame_scaling(&doc, &doc, CheckConfig::default()).unwrap();
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert!(!report.comparisons.is_empty());
    }

    #[test]
    fn frame_scaling_structural_gates_read_the_current_artifact() {
        // The top end steepening past the 4x pixel ratio fails even when
        // the baseline has the identical shape: both ratio operands come
        // from the current artifact.
        let superlinear = frame_scaling_doc(4, 1.0, 13000.0, 60000.0, 18000.0, 13000.0);
        let report =
            check_frame_scaling(&superlinear, &superlinear, CheckConfig::default()).unwrap();
        assert!(!report.passed());
        // 60000/13000 ≈ 4.6x > the 4.25x limit; far below the 2500x
        // whole-range ceiling, so only the top-end gate fires.
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert!(report.violations[0].contains("4K / 1080p"));

        // A hit costing more than a miss at 4K means the hit path re-reads
        // pixels it should not touch.
        let base = healthy_frame_scaling_doc();
        let heavy_hit = frame_scaling_doc(4, 1.0, 13000.0, 50000.0, 70000.0, 13000.0);
        let report = check_frame_scaling(&base, &heavy_hit, CheckConfig::default()).unwrap();
        assert!(!report.passed());
        assert!(
            report.violations.iter().any(|v| v.contains("serve_hit")),
            "{:?}",
            report.violations
        );

        // A missing row is a violation.
        let truncated = r#"{"workers": 1, "rows": [{"label": "32x32",
            "serve_miss_us": 150.0, "serve_hit_us": 30.0}]}"#;
        let report = check_frame_scaling(&base, truncated, CheckConfig::default()).unwrap();
        assert!(!report.passed());
        assert!(report.violations[0].contains("missing"));
    }

    #[test]
    fn frame_scaling_parallel_gate_arms_only_on_multicore_runners() {
        let base = healthy_frame_scaling_doc();

        // workers >= 2 with the 4K fan-out no faster than serial: the
        // parallel ingest regressed.
        let no_speedup = frame_scaling_doc(4, 1.0, 13000.0, 50000.0, 18000.0, 23000.0);
        let report = check_frame_scaling(&base, &no_speedup, CheckConfig::default()).unwrap();
        assert!(!report.passed());
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("parallel ingest")));

        // The same degraded numbers from a single-core runner (which also
        // sees no 1080p speedup) are informational only: one CPU cannot
        // demonstrate a fan-out.
        let single_core = frame_scaling_doc(1, 1.0, 13000.0, 50000.0, 18000.0, 24000.0).replace(
            "\"ingest_parallel_us\": 3200",
            "\"ingest_parallel_us\": 6000",
        );
        let report = check_frame_scaling(&base, &single_core, CheckConfig::default()).unwrap();
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert!(report
            .comparisons
            .iter()
            .any(|c| c.contains("speedup gate not armed")));
    }

    #[test]
    fn frame_scaling_cross_run_shape_gates_cancel_machine_speed() {
        // Baseline with a comfortable 4K/1080p serve-miss shape of 2.5x.
        let base = frame_scaling_doc(4, 1.0, 20000.0, 50000.0, 18000.0, 13000.0);

        // A uniformly 2x slower machine moves no gated ratio: passes.
        let slow = frame_scaling_doc(4, 2.0, 20000.0, 50000.0, 18000.0, 13000.0);
        let report = check_frame_scaling(&base, &slow, CheckConfig::default()).unwrap();
        assert!(report.passed(), "violations: {:?}", report.violations);

        // The shape drifting from 2.5x to ~3.85x stays under the absolute
        // 4.25x structural limit but regresses the baseline's shape past
        // tolerance: only the cross-run gate catches it.
        let reshaped = frame_scaling_doc(4, 1.0, 13000.0, 50000.0, 18000.0, 13000.0);
        let report = check_frame_scaling(&base, &reshaped, CheckConfig::default()).unwrap();
        assert!(!report.passed());
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("serve_miss_us 4K / 1080p")));
    }

    /// Multi-tenant artifact with a bursty scenario and an isolation
    /// section; the interesting knobs are parameterized.
    #[allow(clippy::too_many_arguments)]
    fn multi_tenant_doc(
        batch_served: u64,
        batch_sheds: u64,
        interactive_saving: f64,
        batch_saving: f64,
        batch_p999: f64,
        retention: f64,
        protected_sheds: u64,
        flood_sheds: u64,
    ) -> String {
        format!(
            r#"{{"quick": true,
            "isolation": {{"isolated_served": 128, "isolated_fps": 2400.0,
                "contended_served": 128, "contended_fps": 2200.0,
                "contended_p999_ms": 5.1, "protected_sheds": {protected_sheds},
                "flood_sheds": {flood_sheds}, "retention": {retention}}},
            "scenarios": [
                {{"scenario": "bursty", "wall_ms": 60.0, "tenants": [
                    {{"tenant": "interactive", "arrivals": 96, "served": 96,
                      "sheds": 0, "deadline_degraded": 0, "p50_ms": 0.4,
                      "p99_ms": 2.1, "p999_ms": 4.8,
                      "mean_power_saving": {interactive_saving},
                      "throughput_fps": 1800.0, "cache_bytes": 2048,
                      "expect_sheds": "zero", "expect_degraded": "zero",
                      "savings_rank": 0}},
                    {{"tenant": "batch", "arrivals": 128, "served": {batch_served},
                      "sheds": {batch_sheds}, "deadline_degraded": 0,
                      "p50_ms": 0.6, "p99_ms": 3.0, "p999_ms": {batch_p999},
                      "mean_power_saving": {batch_saving},
                      "throughput_fps": 1500.0, "cache_bytes": 1024,
                      "expect_sheds": "some", "expect_degraded": "zero",
                      "savings_rank": 1}}
                ]}}
            ]}}"#
        )
    }

    fn healthy_multi_tenant_doc() -> String {
        multi_tenant_doc(100, 28, 0.30, 0.45, 6.0, 1.0, 0, 77)
    }

    #[test]
    fn multi_tenant_identical_artifacts_pass() {
        let doc = healthy_multi_tenant_doc();
        let report = check_multi_tenant(&doc, &doc, CheckConfig::default()).unwrap();
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert!(report.comparisons.iter().any(|c| c.contains("tail ratio")));
        assert!(report
            .comparisons
            .iter()
            .any(|c| c.contains("savings ordering")));
    }

    #[test]
    fn multi_tenant_structural_gates_fire_on_the_current_artifact() {
        let base = healthy_multi_tenant_doc();

        // Lost frames: served + sheds no longer covers the arrivals.
        let leaky = multi_tenant_doc(90, 28, 0.30, 0.45, 6.0, 1.0, 0, 77);
        let report = check_multi_tenant(&base, &leaky, CheckConfig::default()).unwrap();
        assert!(!report.passed());
        assert!(report.violations[0].contains("reconciliation"));

        // A tenant expected to shed that did not (admission broke).
        let unshed = multi_tenant_doc(128, 0, 0.30, 0.45, 6.0, 1.0, 0, 77);
        let report = check_multi_tenant(&base, &unshed, CheckConfig::default()).unwrap();
        assert!(!report.passed());
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("expected some")));

        // The looser-budget tenant no longer saving strictly more.
        let inverted = multi_tenant_doc(100, 28, 0.45, 0.30, 6.0, 1.0, 0, 77);
        let report = check_multi_tenant(&base, &inverted, CheckConfig::default()).unwrap();
        assert!(!report.passed());
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("savings ordering")));

        // Percentiles out of order (a broken percentile computation).
        let scrambled = multi_tenant_doc(100, 28, 0.30, 0.45, 1.0, 1.0, 0, 77);
        let report = check_multi_tenant(&base, &scrambled, CheckConfig::default()).unwrap();
        assert!(!report.passed());
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("percentile ordering")));
    }

    #[test]
    fn multi_tenant_tail_ratio_has_a_wide_machine_band() {
        let base = healthy_multi_tenant_doc();
        // The batch tail tripling (p999 6 → 18 ms at steady p50) stays
        // inside the deliberately wide 4x+slack band: not gated noise.
        let noisy = multi_tenant_doc(100, 28, 0.30, 0.45, 18.0, 1.0, 0, 77);
        let report = check_multi_tenant(&base, &noisy, CheckConfig::default()).unwrap();
        assert!(report.passed(), "violations: {:?}", report.violations);

        // An order-of-magnitude collapse (6 → 80 ms) fails.
        let collapsed = multi_tenant_doc(100, 28, 0.30, 0.45, 80.0, 1.0, 0, 77);
        let report = check_multi_tenant(&base, &collapsed, CheckConfig::default()).unwrap();
        assert!(!report.passed());
        assert!(report.violations.iter().any(|v| v.contains("tail ratio")));
    }

    #[test]
    fn multi_tenant_isolation_gates_retention_and_the_clamp() {
        let base = healthy_multi_tenant_doc();

        let starved = multi_tenant_doc(100, 28, 0.30, 0.45, 6.0, 0.6, 0, 77);
        let report = check_multi_tenant(&base, &starved, CheckConfig::default()).unwrap();
        assert!(!report.passed());
        assert!(report.violations.iter().any(|v| v.contains("retention")));

        let leaking = multi_tenant_doc(100, 28, 0.30, 0.45, 6.0, 1.0, 5, 77);
        let report = check_multi_tenant(&base, &leaking, CheckConfig::default()).unwrap();
        assert!(!report.passed());
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("protected sheds")));

        let unclamped = multi_tenant_doc(100, 28, 0.30, 0.45, 6.0, 1.0, 0, 0);
        let report = check_multi_tenant(&base, &unclamped, CheckConfig::default()).unwrap();
        assert!(!report.passed());
        assert!(report.violations.iter().any(|v| v.contains("flood sheds")));
    }

    #[test]
    fn multi_tenant_missing_rows_fail_and_new_rows_pass() {
        let base = healthy_multi_tenant_doc();
        let empty = r#"{"scenarios": []}"#;
        let report = check_multi_tenant(&base, empty, CheckConfig::default()).unwrap();
        assert!(!report.passed());
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("bursty: present in baseline")));
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("isolation: present in baseline")));

        let report = check_multi_tenant(empty, &base, CheckConfig::default()).unwrap();
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert!(report
            .comparisons
            .iter()
            .any(|c| c.contains("new scenario")));
        assert!(report
            .comparisons
            .iter()
            .any(|c| c.contains("isolation: new section")));
    }

    #[test]
    fn report_rendering_marks_failures() {
        let base = throughput_doc(2.0, 300.0, 19, 19);
        let slow = throughput_doc(4.0, 300.0, 19, 19);
        let report = check_throughput(&base, &slow, CheckConfig::default()).unwrap();
        let rendered = render_report("runtime_throughput", &report);
        assert!(rendered.contains("FAIL"));
        assert!(rendered.contains("ok  "));
    }

    /// Warm-start artifact; the interesting knobs are parameterized.
    fn warm_start_doc(
        warm_first: u64,
        cold_first: u64,
        warm_recovery: usize,
        cold_recovery: usize,
        warm_rebuilds: u64,
        warm_saving: f64,
        cache_restored: usize,
    ) -> String {
        format!(
            r#"{{"budget": 0.1, "classes": 2, "snapshot_bytes": 4096,
                "cache_restored": {cache_restored}, "cache_skipped": 0,
                "nodes": [
                  {{"node": "canary", "frames": 19, "first_miss_evaluations": 1,
                    "recovery_serves": 0, "fit_evaluations": 19, "cache_misses": 19,
                    "cache_hits": 0, "recharacterizations": 0, "mean_power_saving": 0.30}},
                  {{"node": "cold", "frames": 23, "first_miss_evaluations": {cold_first},
                    "recovery_serves": {cold_recovery}, "fit_evaluations": 40,
                    "cache_misses": 23, "cache_hits": 0, "recharacterizations": 1,
                    "mean_power_saving": 0.30}},
                  {{"node": "warm", "frames": 23, "first_miss_evaluations": {warm_first},
                    "recovery_serves": {warm_recovery}, "fit_evaluations": 19,
                    "cache_misses": 19, "cache_hits": 4, "recharacterizations": {warm_rebuilds},
                    "mean_power_saving": {warm_saving}}}
                ]}}"#
        )
    }

    #[test]
    fn warm_start_structural_gates_read_the_current_artifact() {
        let healthy = warm_start_doc(1, 8, 0, 1, 0, 0.30, 19);
        let report = check_warm_start(&healthy, &healthy, CheckConfig::default()).unwrap();
        assert!(report.passed(), "violations: {:?}", report.violations);

        // A warm node paying a multi-evaluation first miss lost the whole
        // point of the restore.
        let cold_warm = warm_start_doc(8, 8, 0, 1, 0, 0.30, 19);
        let report = check_warm_start(&healthy, &cold_warm, CheckConfig::default()).unwrap();
        assert!(!report.passed());
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("warm first-miss evaluations")));

        // A warm node that recharacterized did not come in warm.
        let rebuilt = warm_start_doc(1, 8, 0, 1, 1, 0.30, 19);
        let report = check_warm_start(&healthy, &rebuilt, CheckConfig::default()).unwrap();
        assert!(!report.passed());

        // A cold node recovering as fast as the warm one means the tier
        // buys nothing.
        let instant_cold = warm_start_doc(1, 8, 0, 0, 0, 0.30, 19);
        let report = check_warm_start(&healthy, &instant_cold, CheckConfig::default()).unwrap();
        assert!(!report.passed());
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("cold recovery serves")));

        // An empty spill restoration breaks the hot-cache half of the tier.
        let no_spill = warm_start_doc(1, 8, 0, 1, 0, 0.30, 0);
        let report = check_warm_start(&healthy, &no_spill, CheckConfig::default()).unwrap();
        assert!(!report.passed());
    }

    #[test]
    fn warm_start_savings_are_gated_against_canary_and_baseline() {
        let healthy = warm_start_doc(1, 8, 0, 1, 0, 0.30, 19);
        // Warm saving collapsing below the canary's means the restored
        // bank did not preserve the canary's savings behaviour.
        let dim = warm_start_doc(1, 8, 0, 1, 0, 0.20, 19);
        let report = check_warm_start(&healthy, &dim, CheckConfig::default()).unwrap();
        assert!(!report.passed());
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("warm saving tracks the canary")));
        // And a run whose savings regress their own committed baseline
        // past tolerance fails the cross-run gate even when warm still
        // tracks the canary. (Savings are deterministic, so the band
        // only absorbs intentional curve-fitting changes.)
        let both_dim = warm_start_doc(1, 8, 0, 1, 0, 0.30, 19).replace(
            "\"mean_power_saving\": 0.30}",
            "\"mean_power_saving\": 0.25}",
        );
        let report = check_warm_start(&healthy, &both_dim, CheckConfig::default()).unwrap();
        assert!(!report.passed());
        assert!(report.violations.iter().any(|v| v.contains("vs baseline")));
    }
}
