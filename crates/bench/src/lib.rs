//! Shared harness utilities for the figure-regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one figure or the implicit
//! chip-summary table of the paper (see DESIGN.md's per-experiment
//! index) and prints the series in a uniform, diff-friendly format; the
//! Criterion benches in `benches/` time the computational core of each
//! experiment.

use std::fmt::Display;
use std::sync::atomic::{AtomicUsize, Ordering};

pub mod netlists;

/// Newton-iteration / attempt counters at the previous [`paper_check`]
/// row, so each row can report the solve cost attributable to it.
static LAST_ITERS: AtomicUsize = AtomicUsize::new(0);
static LAST_ATTEMPTS: AtomicUsize = AtomicUsize::new(0);

/// Prints an experiment header.
pub fn header(id: &str, title: &str) {
    println!("=== {id}: {title} ===");
}

/// Prints a series row: an x value and named y values.
pub fn row<X: Display>(x: X, cols: &[(&str, f64)]) {
    print!("{x:>14}");
    for (name, v) in cols {
        print!("  {name}={v:.6e}");
    }
    println!();
}

/// Prints a key-value result line.
pub fn result(name: &str, value: f64, unit: &str) {
    println!("  {name} = {value:.4e} {unit}");
}

/// Prints a comparison against the paper's reported number.
///
/// When solver tracing is active (`ULP_TRACE` set), each row also
/// reports the Newton solve cost accrued since the previous check row —
/// the recorded baseline for future solver-performance work. With
/// tracing off the output is byte-identical to the untraced harness.
pub fn paper_check(name: &str, ours: f64, paper: f64, unit: &str) {
    let ratio = ours / paper;
    print!("  {name}: ours = {ours:.3e} {unit}, paper = {paper:.3e} {unit} (ratio {ratio:.2})");
    if let Some(m) = ulp_spice::telemetry::snapshot() {
        let k = m.counters;
        let iters = k.newton_iterations - LAST_ITERS.swap(k.newton_iterations, Ordering::Relaxed);
        let attempts = k.attempts - LAST_ATTEMPTS.swap(k.attempts, Ordering::Relaxed);
        let per_point = if attempts == 0 {
            0.0
        } else {
            iters as f64 / attempts as f64
        };
        print!(" [cost: {iters} newton iters, {per_point:.1}/point]");
    }
    println!();
}

/// Runs one bench binary's body inside the standard harness frame:
/// checks `ULP_JOBS` (a set-but-invalid value exits 2 with the reason
/// before anything runs), prints the experiment [`header`], runs
/// `body`, then renders the [`metrics_footer`] (solver metrics,
/// campaign summary tables, and — under `ULP_TRACE` — the
/// telemetry/observability exports) keyed by `id`. This is the single
/// entry point all the figure binaries share, so footer behaviour can
/// never diverge between harnesses.
pub fn harness(id: &str, experiment: &str, title: &str, body: impl FnOnce()) {
    if let Err(err) = ulp_exec::jobs_from_env() {
        eprintln!("{id}: {err}");
        std::process::exit(2);
    }
    header(experiment, title);
    body();
    metrics_footer(id);
}

/// Writes `content` under `results/<subdir>/<name>`, creating the
/// directory, and prints a `label : n -> path` line; warns on stderr
/// instead of failing the harness when the filesystem refuses.
fn export(subdir: &str, name: &str, label: &str, count: usize, content: &str) {
    let dir = std::path::Path::new("results").join(subdir);
    let path = dir.join(name);
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, content)) {
        Ok(()) => println!("{label:<18}: {count} -> {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Prints the solver-metrics footer for one bench binary, plus a
/// campaign summary table (throughput, ETA model, p50/p95 trial cost,
/// worker utilization) for every `ulp-exec` campaign the binary ran.
///
/// Exports, by trace mode:
/// * `ULP_TRACE=events` (and `spans`): the retained event log as JSONL
///   under `results/telemetry/<id>.jsonl`;
/// * `ULP_TRACE=spans`: the span hierarchy as Chrome trace-event JSON
///   under `results/obs/<id>.trace.json` (Perfetto-loadable) and the
///   campaign reports as `results/obs/<id>.report.json`;
/// * any trace mode, when registry metrics were recorded: Prometheus
///   text exposition under `results/obs/<id>.prom` and metric JSONL
///   under `results/obs/<id>.metrics.jsonl`.
///
/// A no-op (no output at all) when tracing is off, so untraced golden
/// output is unchanged.
pub fn metrics_footer(id: &str) {
    use ulp_spice::telemetry;
    let Some(metrics) = telemetry::snapshot() else {
        return;
    };
    println!("{}", metrics.summary());
    let reports = ulp_exec::obs::take_reports();
    for report in &reports {
        println!("{}", report.summary_table());
    }
    let mode = telemetry::global_mode().expect("snapshot implies a mode");
    if mode.keeps_events() {
        let events = telemetry::take_events();
        let jsonl = telemetry::render_jsonl(&events);
        export("telemetry", &format!("{id}.jsonl"), "telemetry events", events.len(), &jsonl);
    }
    if mode.keeps_spans() {
        let spans = telemetry::take_spans();
        export(
            "obs",
            &format!("{id}.trace.json"),
            "trace spans",
            spans.len(),
            &telemetry::render_chrome_trace(&spans),
        );
        let mut json = String::from("[");
        for (k, r) in reports.iter().enumerate() {
            if k > 0 {
                json.push(',');
            }
            json.push('\n');
            let full = r.to_json();
            json.push_str(full.trim_end());
        }
        json.push_str("\n]\n");
        export(
            "obs",
            &format!("{id}.report.json"),
            "campaign reports",
            reports.len(),
            &json,
        );
    }
    if let Some(registry) = telemetry::registry_snapshot() {
        if !registry.is_empty() {
            export(
                "obs",
                &format!("{id}.prom"),
                "registry metrics",
                registry.len(),
                &registry.render_prometheus(),
            );
            export(
                "obs",
                &format!("{id}.metrics.jsonl"),
                "registry jsonl",
                registry.len(),
                &registry.render_jsonl(),
            );
        }
    }
}

/// Formats an SI-engineering value for compact tables.
pub fn si(value: f64) -> String {
    let (scale, suffix) = match value.abs() {
        v if v >= 1.0 => (1.0, ""),
        v if v >= 1e-3 => (1e3, "m"),
        v if v >= 1e-6 => (1e6, "u"),
        v if v >= 1e-9 => (1e9, "n"),
        v if v >= 1e-12 => (1e12, "p"),
        _ => (1e15, "f"),
    };
    format!("{:.3}{}", value * scale, suffix)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn si_scaling() {
        assert_eq!(si(4e-6), "4.000u");
        assert_eq!(si(44e-9), "44.000n");
        assert_eq!(si(2.5), "2.500");
        assert_eq!(si(10e-12), "10.000p");
    }
}
