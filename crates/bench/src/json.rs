//! Minimal JSON serialization for the bench harnesses.
//!
//! The workspace builds without a registry, so there is no `serde`; the
//! handful of flat report shapes the benches emit are serialized by hand.
//! `runtime_throughput --json <path>` uses this to produce the
//! machine-readable artifact CI uploads, so throughput, hit rates and fit
//! evaluations can be tracked across PRs.

use crate::experiments::{
    FitScalingRow, FrameScalingRow, MixedSuiteReport, RuntimeThroughputRow, WarmStartReport,
};
use crate::loadgen::{IsolationReport, ScenarioReport};

/// Escapes a string for embedding in a JSON document.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` so the output is valid JSON (no `NaN`/`inf` tokens).
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// Serializes the runtime throughput comparison, with enough run metadata
/// (budget, frame size) to make artifacts from different PRs comparable.
/// The optional mixed-suite savings comparison rides along as a
/// `mixed_suite` object — its savings are deterministic, so `bench_check`
/// gates them directly (unlike the timing fields).
pub fn runtime_throughput_json(
    budget: f64,
    frame_size: u32,
    video_frames: usize,
    rows: &[RuntimeThroughputRow],
    mixed: Option<&MixedSuiteReport>,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"budget\": {},\n", number(budget)));
    out.push_str(&format!("  \"frame_size\": {frame_size},\n"));
    out.push_str(&format!("  \"video_frames\": {video_frames},\n"));
    if let Some(mixed) = mixed {
        out.push_str("  \"mixed_suite\": {");
        out.push_str(&format!("\"budget\": {}, ", number(mixed.budget)));
        out.push_str(&format!("\"frames\": {}, ", mixed.frames));
        out.push_str(&format!("\"classes\": {}, ", mixed.classes));
        out.push_str(&format!(
            "\"closed_loop_saving\": {}, ",
            number(mixed.closed_loop_saving)
        ));
        out.push_str(&format!(
            "\"worst_case_saving\": {}, ",
            number(mixed.worst_case_saving)
        ));
        out.push_str(&format!(
            "\"envelope_saving\": {}, ",
            number(mixed.envelope_saving)
        ));
        out.push_str(&format!(
            "\"per_class_saving\": {}, ",
            number(mixed.per_class_saving)
        ));
        out.push_str(&format!(
            "\"per_class_recovery\": {}, ",
            number(mixed.per_class_recovery())
        ));
        out.push_str(&format!(
            "\"per_class_fallbacks\": {}, ",
            mixed.per_class_fallbacks
        ));
        out.push_str(&format!(
            "\"per_class_evals_per_miss\": {}",
            number(mixed.per_class_evals_per_miss)
        ));
        out.push_str("},\n");
    }
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!("\"workload\": \"{}\", ", escape(&row.workload)));
        out.push_str(&format!(
            "\"configuration\": \"{}\", ",
            escape(&row.configuration)
        ));
        out.push_str(&format!("\"workers\": {}, ", row.workers));
        out.push_str(&format!("\"frames\": {}, ", row.frames));
        out.push_str(&format!(
            "\"wall_ms\": {}, ",
            number(row.wall_time.as_secs_f64() * 1e3)
        ));
        out.push_str(&format!(
            "\"throughput_fps\": {}, ",
            number(row.throughput_fps)
        ));
        out.push_str(&format!(
            "\"mean_latency_ms\": {}, ",
            number(row.mean_latency.as_secs_f64() * 1e3)
        ));
        out.push_str(&format!(
            "\"p50_latency_ms\": {}, ",
            number(row.p50_latency.as_secs_f64() * 1e3)
        ));
        out.push_str(&format!(
            "\"p95_latency_ms\": {}, ",
            number(row.p95_latency.as_secs_f64() * 1e3)
        ));
        out.push_str(&format!(
            "\"cache_hit_rate\": {}, ",
            number(row.cache_hit_rate)
        ));
        out.push_str(&format!("\"cache_bytes\": {}, ", row.cache_bytes));
        out.push_str(&format!("\"cache_coalesced\": {}, ", row.cache_coalesced));
        out.push_str(&format!("\"cache_rejected\": {}, ", row.cache_rejected));
        out.push_str(&format!("\"cache_misses\": {}, ", row.cache_misses));
        out.push_str(&format!("\"fit_evaluations\": {}, ", row.fit_evaluations));
        out.push_str(&format!(
            "\"fit_evaluations_per_miss\": {}, ",
            number(row.fit_evaluations_per_miss())
        ));
        out.push_str(&format!("\"coarsenings\": {}, ", row.coarsenings));
        out.push_str(&format!(
            "\"coarsenings_per_miss\": {}, ",
            number(row.coarsenings_per_miss())
        ));
        out.push_str(&format!(
            "\"open_loop_fallbacks\": {}, ",
            row.open_loop_fallbacks
        ));
        out.push_str(&format!(
            "\"recharacterizations\": {}, ",
            row.recharacterizations
        ));
        out.push_str(&format!(
            "\"mean_power_saving\": {}",
            number(row.mean_power_saving)
        ));
        out.push_str(if i + 1 < rows.len() { "},\n" } else { "}\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Serializes the fit-latency-versus-frame-size experiment.
pub fn fit_scaling_json(base: u32, repeats: usize, rows: &[FitScalingRow]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"base\": {base},\n"));
    out.push_str(&format!("  \"repeats\": {repeats},\n"));
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!("\"scale\": {}, ", row.scale));
        out.push_str(&format!("\"width\": {}, ", row.width));
        out.push_str(&format!("\"pixels\": {}, ", row.pixels));
        out.push_str(&format!(
            "\"histogram_fit_us\": {}, ",
            number(row.histogram_fit.as_secs_f64() * 1e6)
        ));
        out.push_str(&format!(
            "\"pixel_fit_us\": {}, ",
            number(row.pixel_fit.as_secs_f64() * 1e6)
        ));
        out.push_str(&format!(
            "\"windowed_fit_us\": {}",
            number(row.windowed_fit.as_secs_f64() * 1e6)
        ));
        out.push_str(if i + 1 < rows.len() { "},\n" } else { "}\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Serializes the serve-latency-versus-resolution experiment. `workers`
/// records how many ingest workers the producing machine had: the
/// parallel-speedup gate in `bench_check` only arms when the **current**
/// artifact reports two or more, so a 1-CPU runner cannot fail it.
pub fn frame_scaling_json(
    quick: bool,
    repeats: usize,
    workers: usize,
    rows: &[FrameScalingRow],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!("  \"repeats\": {repeats},\n"));
    out.push_str(&format!("  \"workers\": {workers},\n"));
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!("\"label\": \"{}\", ", row.label));
        out.push_str(&format!("\"width\": {}, ", row.width));
        out.push_str(&format!("\"height\": {}, ", row.height));
        out.push_str(&format!("\"pixels\": {}, ", row.pixels));
        out.push_str(&format!(
            "\"serve_miss_us\": {}, ",
            number(row.serve_miss.as_secs_f64() * 1e6)
        ));
        out.push_str(&format!(
            "\"serve_hit_us\": {}, ",
            number(row.serve_hit.as_secs_f64() * 1e6)
        ));
        out.push_str(&format!(
            "\"ingest_serial_us\": {}, ",
            number(row.ingest_serial.as_secs_f64() * 1e6)
        ));
        out.push_str(&format!(
            "\"ingest_parallel_us\": {}, ",
            number(row.ingest_parallel.as_secs_f64() * 1e6)
        ));
        out.push_str(&format!(
            "\"lut_apply_us\": {}",
            number(row.lut_apply.as_secs_f64() * 1e6)
        ));
        out.push_str(if i + 1 < rows.len() { "},\n" } else { "}\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Serializes the multi-tenant load-generator report. Each tenant row
/// carries its structural gate expectations (`expect_sheds`,
/// `expect_degraded`, `savings_rank`) alongside the measured counters, so
/// `bench_check` can verify the schedule-determined properties from the
/// current artifact and reserve the committed baseline for the
/// machine-dependent shape ratios (p999/p50).
pub fn multi_tenant_json(
    quick: bool,
    scenarios: &[ScenarioReport],
    isolation: Option<&IsolationReport>,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    if let Some(iso) = isolation {
        out.push_str("  \"isolation\": {");
        out.push_str(&format!("\"isolated_served\": {}, ", iso.isolated_served));
        out.push_str(&format!("\"isolated_fps\": {}, ", number(iso.isolated_fps)));
        out.push_str(&format!("\"contended_served\": {}, ", iso.contended_served));
        out.push_str(&format!(
            "\"contended_fps\": {}, ",
            number(iso.contended_fps)
        ));
        out.push_str(&format!(
            "\"contended_p999_ms\": {}, ",
            number(iso.contended_p999.as_secs_f64() * 1e3)
        ));
        out.push_str(&format!("\"protected_sheds\": {}, ", iso.protected_sheds));
        out.push_str(&format!("\"flood_sheds\": {}, ", iso.flood_sheds));
        out.push_str(&format!("\"retention\": {}", number(iso.retention())));
        out.push_str("},\n");
    }
    out.push_str("  \"scenarios\": [\n");
    for (i, scenario) in scenarios.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!(
            "      \"scenario\": \"{}\",\n",
            escape(&scenario.scenario)
        ));
        out.push_str(&format!(
            "      \"wall_ms\": {},\n",
            number(scenario.wall.as_secs_f64() * 1e3)
        ));
        out.push_str("      \"tenants\": [\n");
        for (j, tenant) in scenario.tenants.iter().enumerate() {
            out.push_str("        {");
            out.push_str(&format!("\"tenant\": \"{}\", ", escape(&tenant.tenant)));
            out.push_str(&format!("\"arrivals\": {}, ", tenant.arrivals));
            out.push_str(&format!("\"served\": {}, ", tenant.served));
            out.push_str(&format!("\"sheds\": {}, ", tenant.sheds));
            out.push_str(&format!(
                "\"deadline_degraded\": {}, ",
                tenant.deadline_degraded
            ));
            out.push_str(&format!(
                "\"p50_ms\": {}, ",
                number(tenant.p50.as_secs_f64() * 1e3)
            ));
            out.push_str(&format!(
                "\"p99_ms\": {}, ",
                number(tenant.p99.as_secs_f64() * 1e3)
            ));
            out.push_str(&format!(
                "\"p999_ms\": {}, ",
                number(tenant.p999.as_secs_f64() * 1e3)
            ));
            out.push_str(&format!(
                "\"mean_power_saving\": {}, ",
                number(tenant.mean_power_saving)
            ));
            out.push_str(&format!(
                "\"throughput_fps\": {}, ",
                number(tenant.throughput_fps)
            ));
            out.push_str(&format!("\"cache_bytes\": {}, ", tenant.cache_bytes));
            out.push_str(&format!(
                "\"expect_sheds\": \"{}\", ",
                tenant.expect_sheds.as_str()
            ));
            out.push_str(&format!(
                "\"expect_degraded\": \"{}\", ",
                tenant.expect_degraded.as_str()
            ));
            match tenant.savings_rank {
                Some(rank) => out.push_str(&format!("\"savings_rank\": {rank}")),
                None => out.push_str("\"savings_rank\": null"),
            }
            out.push_str(if j + 1 < scenario.tenants.len() {
                "},\n"
            } else {
                "}\n"
            });
        }
        out.push_str("      ]\n");
        out.push_str(if i + 1 < scenarios.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Serializes the warm-start comparison. Every gated field is a
/// deterministic counter or saving, so `bench_check` checks the artifact's
/// structure (warm ≤ 1 evaluation from serve #1, cold recovery strictly
/// longer) rather than cross-run timings.
pub fn warm_start_json(report: &WarmStartReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"budget\": {},\n", number(report.budget)));
    out.push_str(&format!("  \"classes\": {},\n", report.classes));
    out.push_str(&format!(
        "  \"snapshot_bytes\": {},\n",
        report.snapshot_bytes
    ));
    out.push_str(&format!(
        "  \"cache_restored\": {},\n",
        report.cache_restored
    ));
    out.push_str(&format!("  \"cache_skipped\": {},\n", report.cache_skipped));
    out.push_str("  \"nodes\": [\n");
    for (i, node) in report.nodes.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!("\"node\": \"{}\", ", escape(&node.node)));
        out.push_str(&format!("\"frames\": {}, ", node.frames));
        out.push_str(&format!(
            "\"first_miss_evaluations\": {}, ",
            node.first_miss_evaluations
        ));
        out.push_str(&format!("\"recovery_serves\": {}, ", node.recovery_serves));
        out.push_str(&format!("\"fit_evaluations\": {}, ", node.fit_evaluations));
        out.push_str(&format!("\"cache_misses\": {}, ", node.cache_misses));
        out.push_str(&format!("\"cache_hits\": {}, ", node.cache_hits));
        out.push_str(&format!(
            "\"recharacterizations\": {}, ",
            node.recharacterizations
        ));
        out.push_str(&format!(
            "\"mean_power_saving\": {}",
            number(node.mean_power_saving)
        ));
        out.push_str(if i + 1 < report.nodes.len() {
            "},\n"
        } else {
            "}\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::{CountExpectation, TenantLoadReport};
    use std::time::Duration;

    #[test]
    fn escaping_covers_quotes_and_control_characters() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("line\nbreak\t"), "line\\nbreak\\t");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn warm_start_json_is_well_formed() {
        use crate::experiments::{WarmStartNode, WarmStartReport};
        let node = |name: &str, first: u64, recovery: usize| WarmStartNode {
            node: name.to_string(),
            frames: 23,
            first_miss_evaluations: first,
            recovery_serves: recovery,
            fit_evaluations: 19,
            cache_misses: 19,
            cache_hits: 4,
            recharacterizations: u64::from(name == "cold"),
            mean_power_saving: 0.31,
        };
        let report = WarmStartReport {
            budget: 0.1,
            classes: 2,
            snapshot_bytes: 4096,
            cache_restored: 19,
            cache_skipped: 0,
            nodes: vec![node("canary", 1, 0), node("cold", 8, 1), node("warm", 1, 0)],
        };
        let json = warm_start_json(&report);
        assert!(json.contains("\"node\": \"warm\""));
        assert!(json.contains("\"cache_restored\": 19"));
        assert!(json.contains("\"first_miss_evaluations\": 8"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn throughput_json_is_well_formed() {
        let rows = vec![RuntimeThroughputRow {
            workload: "suite \"x2\"".to_string(),
            configuration: "pooled+cache".to_string(),
            workers: 4,
            frames: 38,
            wall_time: Duration::from_millis(120),
            throughput_fps: 316.7,
            mean_latency: Duration::from_micros(2500),
            p50_latency: Duration::from_micros(1900),
            p95_latency: Duration::from_micros(9000),
            cache_hit_rate: 0.5,
            cache_bytes: 4096,
            cache_coalesced: 2,
            cache_rejected: 1,
            cache_misses: 19,
            fit_evaluations: 77,
            coarsenings: 38,
            open_loop_fallbacks: 3,
            recharacterizations: 1,
            mean_power_saving: 0.41,
        }];
        let mixed = MixedSuiteReport {
            budget: 0.10,
            frames: 19,
            classes: 6,
            closed_loop_saving: 0.41,
            worst_case_saving: 0.0,
            envelope_saving: 0.10,
            per_class_saving: 0.24,
            per_class_fallbacks: 0,
            per_class_evals_per_miss: 1.0,
        };
        let json = runtime_throughput_json(0.10, 32, 16, &rows, Some(&mixed));
        assert!(json.contains("\"fit_evaluations\": 77"));
        assert!(json.contains("\"coarsenings_per_miss\": 2"));
        assert!(json.contains("\"cache_misses\": 19"));
        assert!(json.contains("\"open_loop_fallbacks\": 3"));
        assert!(json.contains("\"recharacterizations\": 1"));
        assert!(json.contains("\"workload\": \"suite \\\"x2\\\"\""));
        assert!(json.contains("\"p50_latency_ms\": 1.9"));
        assert!(json.contains("\"mixed_suite\": {"));
        assert!(json.contains("\"per_class_saving\": 0.24"));
        assert!(json.contains("\"per_class_recovery\": 0.585"));
        // Without the mixed section the document stays well-formed too.
        let bare = runtime_throughput_json(0.10, 32, 16, &rows, None);
        assert!(!bare.contains("mixed_suite"));
        assert_eq!(bare.matches('{').count(), bare.matches('}').count());
        // Braces and brackets balance (a cheap well-formedness check given
        // no JSON parser in the workspace).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn fit_scaling_json_lists_all_rows() {
        let rows = vec![
            FitScalingRow {
                scale: 1,
                width: 96,
                pixels: 9216,
                histogram_fit: Duration::from_micros(90),
                pixel_fit: Duration::from_micros(160),
                windowed_fit: Duration::from_micros(900),
            },
            FitScalingRow {
                scale: 4,
                width: 384,
                pixels: 147456,
                histogram_fit: Duration::from_micros(91),
                pixel_fit: Duration::from_micros(1800),
                windowed_fit: Duration::from_micros(14000),
            },
        ];
        let json = fit_scaling_json(96, 3, &rows);
        assert_eq!(json.matches("\"scale\":").count(), 2);
        assert!(json.contains("\"histogram_fit_us\": 91"));
    }

    #[test]
    fn frame_scaling_json_records_workers_and_rows() {
        let rows = vec![
            FrameScalingRow {
                label: "32x32",
                width: 32,
                height: 32,
                pixels: 1024,
                serve_miss: Duration::from_micros(120),
                serve_hit: Duration::from_micros(20),
                ingest_serial: Duration::from_micros(12),
                ingest_parallel: Duration::from_micros(14),
                lut_apply: Duration::from_micros(4),
            },
            FrameScalingRow {
                label: "4K",
                width: 3840,
                height: 2160,
                pixels: 8_294_400,
                serve_miss: Duration::from_micros(52_000),
                serve_hit: Duration::from_micros(18_000),
                ingest_serial: Duration::from_micros(17_000),
                ingest_parallel: Duration::from_micros(9_000),
                lut_apply: Duration::from_micros(6_000),
            },
        ];
        let json = frame_scaling_json(true, 2, 4, &rows);
        assert!(json.contains("\"workers\": 4"));
        assert_eq!(json.matches("\"label\":").count(), 2);
        assert!(json.contains("\"serve_miss_us\": 52000"));
        assert!(json.contains("\"ingest_parallel_us\": 9000"));
    }

    #[test]
    fn multi_tenant_json_embeds_expectations_and_balances() {
        let tenant = |name: &str, sheds: u64, expect: CountExpectation| TenantLoadReport {
            tenant: name.to_string(),
            arrivals: 96,
            served: 96 - sheds,
            sheds,
            deadline_degraded: 0,
            p50: Duration::from_micros(400),
            p99: Duration::from_micros(2100),
            p999: Duration::from_micros(4800),
            mean_power_saving: 0.37,
            throughput_fps: 1800.0,
            cache_bytes: 2048,
            expect_sheds: expect,
            expect_degraded: CountExpectation::Zero,
            savings_rank: Some(0),
        };
        let scenarios = vec![ScenarioReport {
            scenario: "bursty".to_string(),
            wall: Duration::from_millis(60),
            tenants: vec![
                tenant("interactive", 0, CountExpectation::Zero),
                tenant("batch", 12, CountExpectation::Some),
            ],
        }];
        let isolation = IsolationReport {
            isolated_served: 128,
            isolated_fps: 2400.0,
            contended_served: 128,
            contended_fps: 2200.0,
            contended_p999: Duration::from_micros(5100),
            protected_sheds: 0,
            flood_sheds: 77,
        };
        let json = multi_tenant_json(true, &scenarios, Some(&isolation));
        assert!(json.contains("\"scenario\": \"bursty\""));
        assert!(json.contains("\"expect_sheds\": \"some\""));
        assert!(json.contains("\"savings_rank\": 0"));
        assert!(json.contains("\"retention\": 1"));
        assert!(json.contains("\"flood_sheds\": 77"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // Without the isolation section the document stays well-formed.
        let bare = multi_tenant_json(false, &scenarios, None);
        assert!(!bare.contains("isolation"));
        assert_eq!(bare.matches('{').count(), bare.matches('}').count());
    }
}
