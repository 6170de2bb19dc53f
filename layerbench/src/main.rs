//! `layerbench`: host-time benchmark of the `.ulp` → result pipeline on
//! generated STSCL chain workloads, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path layerbench/Cargo.toml -- \
//!     --workload chain_op --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each workload runs as a closed loop with a single client: the next
//! job starts when the previous one has returned. Only `sweep_campaign`
//! uses worker threads (an `ulp-exec` ensemble of at most two).
//!
//! `--trace 0` measures the end-to-end metrics with the program's own
//! telemetry off. `--trace 1` alternates untraced and traced units of
//! the same loop and reports per-layer metrics: laps around every layer
//! the benchmark calls itself and, for the layers inside the solvers,
//! deterministic event counts times per-call costs measured on the
//! workload's own netlist. The part of the traced job time that neither
//! explains is `unattributed_s`; `trace_overhead` compares the traced
//! and untraced trimmed-mean job times.
//!
//! A layer a workload does not run reports 0. Counts (`*_n`, iterations,
//! steps) are per job, averaged over the workload's distinct inputs, and
//! repeat exactly for a seed; a traced job whose counts differ from the
//! first traced run of the same input counts as failed.
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it are the
//! same figures for people.

mod gen;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use trace::{median, trimmed_mean, Counts, MnaCosts};
use workloads::{CampaignStats, Ctx, Tally, TracedSample};

/// Environment knobs the library reads silently; the benchmark clears
/// them so every run measures the defaults.
const KNOBS: [&str; 4] = ["ULP_SOLVER", "ULP_TRAN", "ULP_TRACE", "ULP_LINT"];
/// Set-ups per untraced run, `setup_s` being their median: at least
/// `SETUP_REPS`, more while they have taken under `SETUP_BUDGET_S`, at
/// most `SETUP_MAX_REPS`.
const SETUP_REPS: usize = 3;
const SETUP_BUDGET_S: f64 = 1.5;
const SETUP_MAX_REPS: usize = 15;
/// Largest ensemble the benchmark runs.
const MAX_WORKERS: usize = 2;
/// Job samples reserved per second of a run (`sweep_campaign` runs
/// about 10k jobs a second on two workers).
const RESERVE_PER_SECOND: usize = 20_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (expected 0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {})",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident memory of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time the hypervisor took from this machine so far, s (the
/// `steal` column of `/proc/stat`, 100 ticks a second; 0 when absent).
/// Printed beside the figures: on a virtual host it explains most of
/// the run-to-run spread of `jobs_per_s`.
fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|ticks| ticks.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Runs `step` in a closed loop until `budget` has elapsed; returns the
/// loop's wall time.
fn closed_loop(budget: Duration, mut step: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    while t0.elapsed() < budget {
        step();
    }
    t0.elapsed().as_secs_f64()
}

/// The highest percentile up to p90 with at least ten samples beyond
/// it: `(value, percentile, samples beyond)`. Beyond p90 the
/// sub-millisecond `sweep_campaign` points time the host's scheduler:
/// their p99 spread by a third across five runs on a
/// shared two-core host, and by 13x when one other process competed.
fn tail(seconds: &[f64]) -> (f64, f64, usize) {
    let mut s = seconds.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let beyond = 10.max(n.div_ceil(10)).min(n - 1);
    let k = n - 1 - beyond;
    (s[k], 100.0 * (k + 1) as f64 / n as f64, beyond)
}

struct Report {
    /// (name, value, unit) in print order.
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: usize,
    failed: usize,
}

impl Report {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("  {name:<28} {value:>14.6} {unit}");
        }
        let fields: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        );
    }
}

fn end_to_end(args: &Args, ctx: &Ctx) -> Report {
    let mut setups = Vec::new();
    let mut setup_failures = 0;
    let mut w = None;
    while setups.len() < SETUP_REPS
        || (setups.iter().sum::<f64>() < SETUP_BUDGET_S && setups.len() < SETUP_MAX_REPS)
    {
        // Free the previous set-up first, so peak memory holds one.
        drop(w.take());
        let t0 = Instant::now();
        let s = workloads::setup(&args.workload, ctx).expect("workload name validated");
        setups.push(t0.elapsed().as_secs_f64());
        setup_failures += s.setup_failures();
        w = Some(s);
    }
    let mut w = w.expect("at least one set-up");
    println!("design: {}", w.describe());
    let mut jobs = Tally::with_capacity(RESERVE_PER_SECOND * args.seconds as usize);
    let steal0 = steal_s();
    let wall = closed_loop(Duration::from_secs(args.seconds), || w.run(ctx, &mut jobs));
    let stolen = steal_s() - steal0;
    let peak_rss = peak_rss_mb();
    let verify_failures = w.verify(ctx);
    println!("checks: {}", w.checks());
    let seconds = &jobs.seconds;
    let failed = jobs.failed + setup_failures + verify_failures;
    let attempted = seconds.len() + setup_failures + verify_failures;
    let (tail_s, tail_pct, beyond) = tail(seconds);
    println!(
        "jobs: {} in {wall:.3} s ({stolen:.2} CPU s stolen by the host); setups: {}; job p50 {:.6} s; job_s.tail is p{tail_pct:.2} ({beyond} samples beyond)",
        seconds.len(),
        setups.len(),
        median(seconds),
    );
    // 0 when healthy, so it travels as `failed`/`attempted` in the JSON.
    println!(
        "  {:<28} {:>14.6} ratio ({failed}/{attempted})",
        "fail_ratio",
        failed as f64 / attempted as f64
    );
    let mut r = Report {
        metrics: Vec::new(),
        attempted,
        failed,
    };
    r.push("setup_s", median(&setups), "s");
    r.push("job_s.mean", trimmed_mean(seconds), "s");
    r.push("job_s.tail", tail_s, "s");
    r.push("jobs_per_s", seconds.len() as f64 / wall, "1/s");
    r.push("peak_rss_mb", peak_rss, "MB");
    r
}

/// Time layers in report order.
const TIME_LAYERS: [&str; 11] = [
    "ir.parse_s",
    "ir.flatten_s",
    "ir.sweep.point_s",
    "spice.erc_s",
    "spice.lint_s",
    "spice.certify_s",
    "spice.mna.plan_s",
    "spice.mna.symbolic_s",
    "spice.mna.assemble_s",
    "spice.mna.refactor_s",
    "spice.mna.solve_s",
];

/// Adds the solver-internal layers: the traced jobs' summed counts times
/// the per-call costs. `solver_jobs` jobs each planned one workspace;
/// assembly is priced between the evaluated and the bypassed cost by
/// the share of device evaluations bypassed.
fn model_layers(
    total: &Counts,
    solver_jobs: usize,
    nonlinear: usize,
    m: &MnaCosts,
    layers: &mut BTreeMap<&'static str, f64>,
) {
    let bypassed = total.bypassed as f64 / nonlinear.max(1) as f64;
    let assembled = total.assembles() as f64 - bypassed;
    *layers.entry("spice.mna.plan_s").or_default() += solver_jobs as f64 * m.plan;
    *layers.entry("spice.mna.symbolic_s").or_default() += total.symbolic as f64 * m.symbolic;
    *layers.entry("spice.mna.assemble_s").or_default() +=
        assembled * m.assemble + bypassed * m.assemble_bypassed;
    *layers.entry("spice.mna.refactor_s").or_default() += total.refactor as f64 * m.refactor;
    *layers.entry("spice.mna.solve_s").or_default() += total.solves() as f64 * m.solve;
}

fn per_layer(args: &Args, ctx: &Ctx) -> Report {
    let mut w = workloads::setup(&args.workload, ctx).expect("workload name validated");
    let mut setup_failures = w.setup_failures();
    println!("design: {}", w.describe());
    let (flatten_slope, symbolic_slope) = w.slopes(ctx).unwrap_or_else(|e| {
        println!("slopes failed: {e}");
        setup_failures += 1;
        (0.0, 0.0)
    });
    let probe = w.mna_probe(ctx).unwrap_or_else(|e| {
        println!("MNA probe failed: {e}");
        setup_failures += 1;
        None
    });
    // Untraced units, traced units and MNA pricings alternate, so all
    // three see the same host.
    let reserve = RESERVE_PER_SECOND * args.seconds as usize / 2;
    let mut plain = Tally::with_capacity(reserve);
    let mut traced = Tally::with_capacity(reserve);
    let mut layers: BTreeMap<&'static str, f64> = TIME_LAYERS.iter().map(|k| (*k, 0.0)).collect();
    let mut counts = Counts::default();
    let mut solver_jobs = 0;
    let mut costs = Vec::new();
    let mut batch: Vec<TracedSample> = Vec::new();
    let mut camp = CampaignStats::default();
    closed_loop(Duration::from_secs(args.seconds), || {
        w.run(ctx, &mut plain);
        w.run_traced(ctx, &mut batch, &mut camp);
        for s in batch.drain(..) {
            for (k, v) in &s.trace.laps {
                *layers.entry(k).or_default() += v;
            }
            counts = counts + s.trace.counts;
            solver_jobs += usize::from(s.trace.counts.assembles() > 0);
            traced.push(s.seconds, s.ok);
        }
        if let Some(p) = &probe {
            costs.push(p.price());
        }
    });
    setup_failures += w.verify(ctx);
    println!("checks: {}", w.checks());
    let nonlinear = probe.as_ref().map_or(0, |p| p.nonlinear());
    model_layers(
        &counts,
        solver_jobs,
        nonlinear,
        &MnaCosts::median_of(&costs),
        &mut layers,
    );

    let attempted = plain.seconds.len() + traced.seconds.len() + setup_failures;
    let failed = plain.failed + traced.failed + setup_failures;

    // Per-job means of every layer's time.
    let n = traced.seconds.len() as f64;
    layers.values_mut().for_each(|v| *v /= n);
    let job_mean = traced.seconds.iter().sum::<f64>() / n;
    let attributed: f64 = layers.values().sum();

    // Per-job means of the deterministic counts, over distinct inputs.
    let refs = w.reference_counts();
    let k = refs.len().max(1) as f64;
    let total = refs.iter().fold(Counts::default(), |a, c| a + *c);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    println!(
        "traced jobs: {}; untraced jobs: {}; reconciliation: layers {attributed:.6} s + unattributed {:.6} s = traced job {job_mean:.6} s",
        traced.seconds.len(),
        plain.seconds.len(),
        job_mean - attributed
    );
    let mut r = Report {
        metrics: Vec::new(),
        attempted,
        failed,
    };
    for name in TIME_LAYERS {
        r.push(name, layers[name], "s");
    }
    r.push("unattributed_s", job_mean - attributed, "s");
    r.push("traced_job_s", job_mean, "s");
    r.push(
        "trace_overhead",
        ratio(trimmed_mean(&traced.seconds), trimmed_mean(&plain.seconds)),
        "ratio",
    );
    r.push("ir.flatten.slope", flatten_slope, "exponent");
    r.push("spice.mna.symbolic.slope", symbolic_slope, "exponent");
    r.push("spice.mna.symbolic_n", total.symbolic as f64 / k, "count");
    r.push(
        "spice.mna.assemble_n",
        total.assembles() as f64 / k,
        "count",
    );
    r.push("spice.mna.refactor_n", total.refactor as f64 / k, "count");
    r.push("spice.mna.solve_n", total.solves() as f64 / k, "count");
    r.push(
        "spice.mna.bypass_ratio",
        ratio(
            total.bypassed as f64,
            total.assembles() as f64 * nonlinear as f64,
        ),
        "ratio",
    );
    r.push(
        "spice.dcop.newton_iters",
        total.dcop_iters as f64 / k,
        "count",
    );
    r.push(
        "spice.dcop.gmin_rungs",
        total.gmin_rungs as f64 / k,
        "count",
    );
    r.push("spice.tran.steps", total.tran_steps as f64 / k, "count");
    r.push(
        "spice.tran.rejected",
        total.tran_rejected as f64 / k,
        "count",
    );
    r.push(
        "spice.tran.newton_per_step",
        ratio(total.tran_iters as f64, total.tran_steps as f64),
        "ratio",
    );
    r.push("exec.busy_ratio", ratio(camp.busy, camp.capacity), "ratio");
    r.push(
        "exec.gather_s",
        ratio(camp.gather, camp.campaigns as f64),
        "s",
    );
    r
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "layerbench: {e}\nusage: layerbench --workload <{}> --seed N [--seconds S] [--trace 0|1]",
                workloads::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    // Single-threaded here, before any library call reads the
    // environment (the telemetry mode is decided on first touch).
    let mut cleared = Vec::new();
    for knob in KNOBS {
        if let Some(v) = std::env::var_os(knob) {
            cleared.push(format!("{knob}={}", v.to_string_lossy()));
            std::env::remove_var(knob);
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = nproc.min(MAX_WORKERS);
    std::env::set_var("ULP_JOBS", workers.to_string());
    println!(
        "layerbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "settings: nproc={nproc} ULP_JOBS={workers} solver=auto newton=damped(max_step 0.05 V, max_iter 800) telemetry=off cleared=[{}]",
        cleared.join(" ")
    );
    let ctx = Ctx::new(args.seed, workers);
    let report = if args.trace {
        per_layer(&args, &ctx)
    } else {
        end_to_end(&args, &ctx)
    };
    report.print();
}

#[cfg(test)]
mod tests {
    use super::tail;

    #[test]
    fn tail_leaves_ten_samples_beyond_and_caps_at_p90() {
        let small: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&small), (30.0, 75.0, 10));
        let big: Vec<f64> = (1..=5000).map(f64::from).collect();
        assert_eq!(tail(&big), (4500.0, 90.0, 500));
    }
}
