//! `solver-bench`: times the dense and sparse MNA solver paths on every
//! shipped builder netlist and writes `BENCH_solver.json` at the repo
//! root.
//!
//! Three workloads per netlist, each forced through both backends via
//! [`NewtonOptions::solver`]:
//!
//! - `dcop`: a cold operating-point solve (gmin ladder included);
//! - `sweep`: a 21-point DC transfer sweep of the first voltage source,
//!   exercising the pattern-reuse path across `set_source` edits;
//! - `tran`: a 200-step transient from the operating point, the
//!   workload the reusable symbolic factorization is built for.
//!
//! A fourth workload, `tran-adaptive`, races the LTE-controlled
//! adaptive engine against the legacy points-per-tau fixed march on the
//! same sparse backend. Both runs are checked against a tight-step
//! reference so the recorded speedup is at matched accuracy, and the
//! run's deterministic outcome (step counts, rejections, bypasses,
//! worst deviation — no wall-clock) is written to
//! `BENCH_tran_adaptive.json` for the CI byte-stability check.
//!
//! Under `--assert`, exits nonzero unless the sparse path is at least
//! as fast as the dense path on the pre-amplifier transient AND the
//! adaptive engine beats the fixed march at least 2x on the same
//! pre-amplifier workload — the CI guards that neither optimisation
//! regresses into a pessimisation.
//!
//! `--stability PATH` skips all timed workloads and writes only the
//! deterministic adaptive artifact to PATH; CI compares it byte-for-
//! byte against the full run's `BENCH_tran_adaptive.json`.

use std::fmt::Write as _;
use std::time::Instant;
use ulp_bench::netlists::{builder_netlists, driven_tran_netlist, pulsed_tran_netlist};
use ulp_device::Technology;
use ulp_spice::dcop::{DcOperatingPoint, NewtonOptions};
use ulp_spice::mna::SolverKind;
use ulp_spice::netlist::Element;
use ulp_spice::sweep::dc_sweep_with;
use ulp_spice::telemetry::{MetricsCollector, TraceMode};
use ulp_spice::tran::{suggest_dt, AdaptiveOptions, TranOptions, Transient};
use ulp_spice::Netlist;

/// Newton controls matching the lint runner: the replica netlists
/// mirror nA-class currents through long-channel devices and need the
/// conservative damping.
fn newton(solver: SolverKind) -> NewtonOptions {
    NewtonOptions {
        max_iter: 800,
        max_step: 0.05,
        solver,
        ..NewtonOptions::default()
    }
}

/// Name of the first independent voltage source, for the sweep workload.
fn first_vsource(nl: &Netlist) -> Option<String> {
    nl.elements().iter().find_map(|e| match e {
        Element::Vsource { name, .. } => Some(name.clone()),
        _ => None,
    })
}

/// Median wall-clock seconds of `runs` repetitions after one warmup.
fn median_secs(runs: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

struct Workload {
    netlist: String,
    kind: &'static str,
    dense_s: f64,
    sparse_s: f64,
}

impl Workload {
    fn speedup(&self) -> f64 {
        self.dense_s / self.sparse_s
    }
}

fn time_backends(runs: usize, mut f: impl FnMut(SolverKind)) -> (f64, f64) {
    let dense = median_secs(runs, || f(SolverKind::Dense));
    let sparse = median_secs(runs, || f(SolverKind::Sparse));
    (dense, sparse)
}

/// Linear interpolation of unknown `j` of a transient at time `t`.
fn sample(tr: &Transient, j: usize, t: f64) -> f64 {
    let times = tr.time();
    let k = times.partition_point(|&ti| ti < t);
    if k == 0 {
        return tr.solution(0)[j];
    }
    if k >= times.len() {
        return tr.solution(times.len() - 1)[j];
    }
    let (t0, t1) = (times[k - 1], times[k]);
    let (a, b) = (tr.solution(k - 1)[j], tr.solution(k)[j]);
    if t1 > t0 {
        a + (b - a) * (t - t0) / (t1 - t0)
    } else {
        b
    }
}

/// Worst absolute deviation of `run` from `reference`, over every
/// reference time point and every unknown, with `run` linearly
/// interpolated onto the reference grid.
fn max_dev(run: &Transient, reference: &Transient) -> f64 {
    let dim = reference.solution(0).len();
    let mut worst = 0.0f64;
    for (i, &ti) in reference.time().iter().enumerate() {
        let want = reference.solution(i);
        for (j, &w) in want.iter().enumerate().take(dim) {
            let d = (sample(run, j, ti) - w).abs();
            if d > worst {
                worst = d;
            }
        }
    }
    worst
}

/// One adaptive-vs-fixed transient comparison at matched accuracy.
struct AdaptiveRow {
    netlist: String,
    /// Median seconds of the legacy points-per-tau fixed march.
    fixed_s: f64,
    /// Median seconds of the LTE-controlled adaptive run.
    adaptive_s: f64,
    fixed_points: usize,
    adaptive_points: usize,
    /// Worst deviation of each run from the tight-step reference.
    fixed_dev: f64,
    adaptive_dev: f64,
    accepted: usize,
    rejected: usize,
    lte_exceeded: usize,
    devices_bypassed: usize,
}

impl AdaptiveRow {
    fn speedup(&self) -> f64 {
        self.fixed_s / self.adaptive_s
    }
}

/// Runs the adaptive-vs-fixed comparison for one builder netlist.
///
/// `timed` skips the repeated wall-clock measurements (for the
/// `--stability` mode, which only needs the deterministic fields).
fn adaptive_row(name: &str, nl: &Netlist, tech: &Technology, timed: bool) -> AdaptiveRow {
    // Multi-scale workload: a latent lead-in, a current step rising
    // over tau/2, then a long settling tail — the fixed march pays the
    // edge rate everywhere, the adaptive engine only at the edge.
    let tau = suggest_dt(nl, 1.0);
    let t_stop = 50.0 * tau;
    let driven = pulsed_tran_netlist(nl, tau);

    let fixed_opts = TranOptions {
        newton: newton(SolverKind::Sparse),
        ..TranOptions::new(t_stop, tau / 10.0).trapezoidal()
    };
    let mut adaptive_opts = AdaptiveOptions::new(t_stop, tau);
    adaptive_opts.newton = newton(SolverKind::Sparse);

    let reference_opts = TranOptions {
        newton: newton(SolverKind::Sparse),
        ..TranOptions::new(t_stop, tau / 50.0).trapezoidal()
    };
    let reference = Transient::run(&driven, tech, &reference_opts).expect("reference tran");

    let fixed = Transient::run(&driven, tech, &fixed_opts).expect("fixed tran");
    let mut mc = MetricsCollector::new(TraceMode::Summary);
    let adaptive =
        Transient::run_adaptive_traced(&driven, tech, &adaptive_opts, &mut mc).expect("adaptive tran");
    let m = mc.metrics();

    let (fixed_s, adaptive_s) = if timed {
        (
            median_secs(5, || {
                Transient::run(&driven, tech, &fixed_opts).expect("fixed tran");
            }),
            median_secs(5, || {
                Transient::run_adaptive(&driven, tech, &adaptive_opts).expect("adaptive tran");
            }),
        )
    } else {
        (0.0, 0.0)
    };

    AdaptiveRow {
        netlist: name.to_string(),
        fixed_s,
        adaptive_s,
        fixed_points: fixed.len(),
        adaptive_points: adaptive.len(),
        fixed_dev: max_dev(&fixed, &reference),
        adaptive_dev: max_dev(&adaptive, &reference),
        accepted: m.counters.tran_steps,
        rejected: m.counters.tran_rejected,
        lte_exceeded: m.counters.lte_exceeded,
        devices_bypassed: m.counters.devices_bypassed,
    }
}

/// The deterministic subset of the adaptive rows: no wall-clock, no
/// worker identity — byte-identical across runs and `ULP_JOBS`.
fn stability_json(rows: &[AdaptiveRow]) -> String {
    let mut json = String::from("{\n  \"schema\": \"ulp-tran-adaptive/1\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        writeln!(
            json,
            "    {{\"netlist\": \"{}\", \"fixed_points\": {}, \"adaptive_points\": {}, \"steps_accepted\": {}, \"steps_rejected\": {}, \"lte_exceeded\": {}, \"devices_bypassed\": {}, \"fixed_dev\": {:e}, \"adaptive_dev\": {:e}}}{comma}",
            r.netlist,
            r.fixed_points,
            r.adaptive_points,
            r.accepted,
            r.rejected,
            r.lte_exceeded,
            r.devices_bypassed,
            r.fixed_dev,
            r.adaptive_dev
        )
        .expect("string write");
    }
    json.push_str("  ]\n}\n");
    json
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let assert_preamp = args.iter().any(|a| a == "--assert");
    let mut stability_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--assert" => {}
            "--stability" => {
                let Some(p) = it.next() else {
                    eprintln!("--stability needs a path; usage: solver_bench [--assert] [--stability PATH]");
                    std::process::exit(2);
                };
                stability_path = Some(p.clone());
            }
            bad => {
                eprintln!("unknown flag {bad}; usage: solver_bench [--assert] [--stability PATH]");
                std::process::exit(2);
            }
        }
    }

    let tech = Technology::default();

    // Stability mode: only the deterministic adaptive artifact, no
    // timed workloads.
    if let Some(path) = stability_path {
        let rows: Vec<AdaptiveRow> = builder_netlists(&tech)
            .iter()
            .map(|(name, nl)| adaptive_row(name, nl, &tech, false))
            .collect();
        std::fs::write(&path, stability_json(&rows)).expect("write stability artifact");
        println!("solver_bench: wrote deterministic adaptive artifact to {path}");
        return;
    }

    ulp_bench::header("SOLVER", "dense vs sparse MNA backend timings");
    let mut workloads = Vec::new();
    let mut adaptive_rows = Vec::new();

    for (name, nl) in builder_netlists(&tech) {
        // dcop: cold solve from zeros through the gmin ladder.
        let (dense_s, sparse_s) = time_backends(9, |solver| {
            DcOperatingPoint::solve_with(&nl, &tech, &newton(solver)).expect("dcop");
        });
        workloads.push(Workload {
            netlist: name.clone(),
            kind: "dcop",
            dense_s,
            sparse_s,
        });

        // sweep: 21 points on the first voltage source, ±50 mV about
        // its operating value.
        if let Some(src) = first_vsource(&nl) {
            let values: Vec<f64> = (0..21).map(|i| 0.05 + 0.005 * i as f64).collect();
            let (dense_s, sparse_s) = time_backends(7, |solver| {
                dc_sweep_with(&nl, &tech, &src, &values, &newton(solver)).expect("sweep");
            });
            workloads.push(Workload {
                netlist: name.clone(),
                kind: "sweep",
                dense_s,
                sparse_s,
            });
        }

        // tran: 200 fixed steps resolving the fastest RC, with a sine
        // stimulus so the Newton loop does real work each step.
        // `suggest_dt` now returns the adaptive dt_max hint (the
        // fastest time constant); dividing by 10 reproduces the legacy
        // points-per-tau march this workload has always timed.
        let dt = suggest_dt(&nl, 1.0) / 10.0;
        let t_stop = 200.0 * dt;
        let driven = driven_tran_netlist(&nl, 8.0 * dt);
        let (dense_s, sparse_s) = time_backends(5, |solver| {
            let opts = TranOptions {
                newton: newton(solver),
                ..TranOptions::new(t_stop, dt)
            };
            Transient::run(&driven, &tech, &opts).expect("tran");
        });
        workloads.push(Workload {
            netlist: name.clone(),
            kind: "tran",
            dense_s,
            sparse_s,
        });

        // tran-adaptive: the LTE-controlled engine against the legacy
        // fixed march, both on the sparse backend, accuracy-checked
        // against a tight-step reference.
        adaptive_rows.push(adaptive_row(&name, &nl, &tech, true));
    }

    for w in &workloads {
        println!(
            "  {:<22} {:<6} dense {:>10.3e} s  sparse {:>10.3e} s  speedup {:.2}x",
            w.netlist,
            w.kind,
            w.dense_s,
            w.sparse_s,
            w.speedup()
        );
    }

    for r in &adaptive_rows {
        println!(
            "  {:<22} tran-adaptive fixed {:>10.3e} s ({} pts, dev {:.1e})  adaptive {:>10.3e} s ({} pts, dev {:.1e})  speedup {:.2}x",
            r.netlist,
            r.fixed_s,
            r.fixed_points,
            r.fixed_dev,
            r.adaptive_s,
            r.adaptive_points,
            r.adaptive_dev,
            r.speedup()
        );
    }

    let preamp_tran = workloads
        .iter()
        .filter(|w| w.kind == "tran" && w.netlist.starts_with("preamp-"))
        .map(Workload::speedup)
        .fold(f64::INFINITY, f64::min);
    println!("  preamp tran speedup (worst of both wells): {preamp_tran:.2}x");

    let preamp_adaptive = adaptive_rows
        .iter()
        .filter(|r| r.netlist.starts_with("preamp-"))
        .map(AdaptiveRow::speedup)
        .fold(f64::INFINITY, f64::min);
    println!("  preamp adaptive-vs-fixed speedup (worst of both wells): {preamp_adaptive:.2}x");

    let mut json = String::from("{\n  \"schema\": \"ulp-solver-bench/1\",\n  \"workloads\": [\n");
    for w in &workloads {
        writeln!(
            json,
            "    {{\"netlist\": \"{}\", \"kind\": \"{}\", \"dense_s\": {:e}, \"sparse_s\": {:e}, \"speedup\": {:.3}}},",
            w.netlist,
            w.kind,
            w.dense_s,
            w.sparse_s,
            w.speedup()
        )
        .expect("string write");
    }
    for (i, r) in adaptive_rows.iter().enumerate() {
        let comma = if i + 1 < adaptive_rows.len() { "," } else { "" };
        writeln!(
            json,
            "    {{\"netlist\": \"{}\", \"kind\": \"tran-adaptive\", \"fixed_s\": {:e}, \"adaptive_s\": {:e}, \"fixed_points\": {}, \"adaptive_points\": {}, \"fixed_dev\": {:e}, \"adaptive_dev\": {:e}, \"speedup\": {:.3}}}{comma}",
            r.netlist,
            r.fixed_s,
            r.adaptive_s,
            r.fixed_points,
            r.adaptive_points,
            r.fixed_dev,
            r.adaptive_dev,
            r.speedup()
        )
        .expect("string write");
    }
    writeln!(
        json,
        "  ],\n  \"preamp_tran_speedup\": {preamp_tran:.3},\n  \"preamp_adaptive_speedup\": {preamp_adaptive:.3}\n}}"
    )
    .expect("string write");
    std::fs::write("BENCH_solver.json", json).expect("write BENCH_solver.json");
    println!("  wrote BENCH_solver.json");

    std::fs::write("BENCH_tran_adaptive.json", stability_json(&adaptive_rows))
        .expect("write BENCH_tran_adaptive.json");
    println!("  wrote BENCH_tran_adaptive.json");

    if assert_preamp {
        if preamp_tran < 1.0 {
            eprintln!("solver_bench: sparse path slower than dense on the preamp transient ({preamp_tran:.2}x)");
            std::process::exit(1);
        }
        if preamp_adaptive < 2.0 {
            eprintln!("solver_bench: adaptive engine under 2x on the preamp transient ({preamp_adaptive:.2}x)");
            std::process::exit(1);
        }
    }
}
