//! Adaptive-vs-reference transient equivalence, PR 5 style: the
//! fixed-step path is the accuracy oracle, and the LTE-controlled
//! adaptive engine must reproduce it within an explicit error bound on
//! every shipped workload — the six builder netlists under the
//! multi-scale pulse stimulus the solver benchmark times, plus both
//! `examples/*.ulp` designs driven by their own `.tran` cards.
//!
//! Also pinned here: a bit-level golden of every one of those runs
//! (fixed backward Euler, fixed trapezoidal and adaptive), byte-identical
//! adaptive results at 1 and 4 workers on the `ulp-exec` engine,
//! rejection-path coverage through a step-discontinuity stimulus, and a
//! property test that tightening tolerances never loses accuracy.

use proptest::prelude::*;
use std::path::PathBuf;
use ulp_bench::netlists::{builder_netlists, pulsed_tran_netlist};
use ulp_device::Technology;
use ulp_exec::Ensemble;
use ulp_ir::{flatten, parse};
use ulp_spice::dcop::NewtonOptions;
use ulp_spice::mna::SolverKind;
use ulp_spice::netlist::Waveform;
use ulp_spice::telemetry::{MetricsCollector, TraceMode, Tracer};
use ulp_spice::tran::{suggest_dt, AdaptiveOptions, TranOptions, Transient};
use ulp_spice::{Netlist, SimError, SimMetrics};

/// Every adaptive run must land within this distance of the tight
/// fixed-step reference, on every unknown at every reference time.
const BOUND: f64 = 2e-3;

fn newton(solver: SolverKind) -> NewtonOptions {
    // Matches the lint runner: the replica netlists mirror nA-class
    // currents through long-channel devices and need gentle damping.
    NewtonOptions {
        max_iter: 800,
        max_step: 0.05,
        solver,
        ..NewtonOptions::default()
    }
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

/// Worst absolute deviation of `run` from `reference` over every
/// reference time point and every unknown.
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

/// Bit-level golden of every transient this suite runs: per run, an
/// FNV-1a hash over the `to_bits` of every time point and every unknown,
/// then the accepted-step, rejected-step, bypassed-device, Newton-attempt
/// and Newton-iteration counters. Any change to either engine's
/// arithmetic, step sequence or solve count shows up here.
const GOLDEN: &[(&str, &str)] = &[
    (
        "scl_buffer/be",
        "46335dc48311d072 points=2001 steps=2000 rejected=0 bypassed=0 attempts=2001 newton=2024",
    ),
    (
        "scl_buffer/trap",
        "35c13882df0e0e83 points=2001 steps=2000 rejected=0 bypassed=0 attempts=2001 newton=2024",
    ),
    (
        "scl_buffer/adaptive",
        "3145b362002bc41a points=19 steps=18 rejected=0 bypassed=72 attempts=19 newton=42",
    ),
    (
        "comp_doubletail/be",
        "9c2aecfd620fa042 points=2001 steps=2000 rejected=0 bypassed=0 attempts=2001 newton=2017",
    ),
    (
        "comp_doubletail/trap",
        "48c766475d0c31be points=2001 steps=2000 rejected=0 bypassed=0 attempts=2001 newton=2017",
    ),
    (
        "comp_doubletail/adaptive",
        "c44e52477579f387 points=19 steps=18 rejected=0 bypassed=252 attempts=19 newton=35",
    ),
    (
        "scl-buffer-100p/be",
        "81bcd0191b524cd9 points=2501 steps=2500 rejected=0 bypassed=0 attempts=2501 newton=2578",
    ),
    (
        "scl-buffer-100p/trap",
        "66a41d4351bd7ffd points=2501 steps=2500 rejected=0 bypassed=0 attempts=2501 newton=2671",
    ),
    (
        "scl-buffer-100p/adaptive",
        "9186cdda4249700f points=89 steps=88 rejected=0 bypassed=460 attempts=89 newton=195",
    ),
    (
        "scl-buffer-1n/be",
        "731e460162ec44d8 points=2501 steps=2500 rejected=0 bypassed=0 attempts=2501 newton=2576",
    ),
    (
        "scl-buffer-1n/trap",
        "baefdce748a54d88 points=2501 steps=2500 rejected=0 bypassed=0 attempts=2501 newton=3309",
    ),
    (
        "scl-buffer-1n/adaptive",
        "23a5302101f1c281 points=85 steps=84 rejected=0 bypassed=452 attempts=85 newton=184",
    ),
    (
        "scl-buffer-10n/be",
        "41fd94c5372b18c1 points=2501 steps=2500 rejected=0 bypassed=0 attempts=2501 newton=2576",
    ),
    (
        "scl-buffer-10n/trap",
        "a8f7dabb9797d381 points=2501 steps=2500 rejected=0 bypassed=0 attempts=2501 newton=4800",
    ),
    (
        "scl-buffer-10n/adaptive",
        "99d565b5d01f5d0c points=83 steps=82 rejected=0 bypassed=482 attempts=83 newton=179",
    ),
    (
        "replica-buffer-1n/be",
        "7c57a9cb2b6d8c49 points=2501 steps=2500 rejected=0 bypassed=0 attempts=2501 newton=2578",
    ),
    (
        "replica-buffer-1n/trap",
        "7e265945964b4ce3 points=2501 steps=2500 rejected=0 bypassed=0 attempts=2501 newton=3310",
    ),
    (
        "replica-buffer-1n/adaptive",
        "767a5002db4ccaf6 points=85 steps=84 rejected=0 bypassed=747 attempts=85 newton=186",
    ),
    (
        "preamp-coupled-1n/be",
        "cfbea1c09e118a41 points=2501 steps=2500 rejected=0 bypassed=0 attempts=2501 newton=2582",
    ),
    (
        "preamp-coupled-1n/trap",
        "935350592e069570 points=2501 steps=2500 rejected=0 bypassed=0 attempts=2501 newton=2751",
    ),
    (
        "preamp-coupled-1n/adaptive",
        "29c674b5cca99e41 points=96 steps=95 rejected=0 bypassed=48 attempts=96 newton=216",
    ),
    (
        "preamp-decoupled-1n/be",
        "c5fa395a6b35f877 points=2501 steps=2500 rejected=0 bypassed=0 attempts=2501 newton=4811",
    ),
    (
        "preamp-decoupled-1n/trap",
        "f11c3e53218f6150 points=2501 steps=2500 rejected=0 bypassed=0 attempts=2501 newton=4809",
    ),
    (
        "preamp-decoupled-1n/adaptive",
        "fe2ee58108ac7e4d points=129 steps=128 rejected=0 bypassed=112 attempts=129 newton=281",
    ),
    (
        "step-discontinuity/adaptive",
        "5ec07755c7262293 points=3192 steps=3191 rejected=7 bypassed=0 attempts=3199 newton=6398",
    ),
    (
        "step-discontinuity/trap",
        "16c95c05753a0c06 points=5001 steps=5000 rejected=0 bypassed=0 attempts=5001 newton=10002",
    ),
];

/// Runs one transient on a fresh counting tracer, appends its golden
/// line (see [`GOLDEN`]) under `key`, and returns the run and its
/// counters.
fn golden_run(
    golden: &mut Vec<(String, String)>,
    key: String,
    run: impl FnOnce(&mut dyn Tracer) -> Result<Transient, SimError>,
) -> (Transient, SimMetrics) {
    let mut mc = MetricsCollector::new(TraceMode::Summary);
    let tr = run(&mut mc).unwrap_or_else(|e| panic!("{key}: {e:?}"));
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: f64| {
        for b in v.to_bits().to_le_bytes() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (i, &t) in tr.time().iter().enumerate() {
        eat(t);
        tr.solution(i).iter().for_each(|&v| eat(v));
    }
    let m = mc.metrics().clone();
    let line = format!(
        "{hash:016x} points={} steps={} rejected={} bypassed={} attempts={} newton={}",
        tr.len(),
        m.counters.tran_steps,
        m.counters.tran_rejected,
        m.counters.devices_bypassed,
        m.counters.attempts,
        m.counters.newton_iterations
    );
    golden.push((key, line));
    (tr, m)
}

/// Asserts that every `(key, line)` pair matches [`GOLDEN`], listing
/// all mismatches at once.
fn assert_golden(got: &[(String, String)]) {
    let mut bad = Vec::new();
    for (key, line) in got {
        let want = GOLDEN.iter().find(|(k, _)| k == key).map(|(_, l)| *l);
        if want != Some(line.as_str()) {
            bad.push(format!("    (\"{key}\", \"{line}\"),  // golden: {want:?}"));
        }
    }
    assert!(
        bad.is_empty(),
        "transient golden mismatches:\n{}",
        bad.join("\n")
    );
}

#[test]
fn adaptive_meets_the_bound_on_all_builder_netlists() {
    let tech = Technology::default();
    let mut golden = Vec::new();
    for (name, nl) in builder_netlists(&tech) {
        let tau = suggest_dt(&nl, 1.0);
        let t_stop = 50.0 * tau;
        let driven = pulsed_tran_netlist(&nl, tau);

        let be_opts = TranOptions {
            newton: newton(SolverKind::Sparse),
            ..TranOptions::new(t_stop, tau / 50.0)
        };
        golden_run(&mut golden, format!("{name}/be"), |t| {
            Transient::run_traced(&driven, &tech, &be_opts, t)
        });

        let reference_opts = be_opts.trapezoidal();
        let (reference, _) = golden_run(&mut golden, format!("{name}/trap"), |t| {
            Transient::run_traced(&driven, &tech, &reference_opts, t)
        });

        let mut opts = AdaptiveOptions::new(t_stop, tau);
        opts.newton = newton(SolverKind::Sparse);
        let (adaptive, _) = golden_run(&mut golden, format!("{name}/adaptive"), |t| {
            Transient::run_adaptive_traced(&driven, &tech, &opts, t)
        });

        let dev = max_dev(&adaptive, &reference);
        assert!(dev < BOUND, "{name}: adaptive deviates {dev:e} from the oracle");
        assert!(
            adaptive.len() * 3 < reference.len(),
            "{name}: adaptive took {} points, expected far fewer than the {}-point reference",
            adaptive.len(),
            reference.len()
        );
    }
    assert_eq!(golden.len(), 18);
    assert_golden(&golden);
}

fn examples_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../examples")
}

#[test]
fn adaptive_meets_the_bound_on_both_ulp_examples() {
    let tech = Technology::default();
    let mut golden = Vec::new();
    for name in ["scl_buffer", "comp_doubletail"] {
        let text = std::fs::read_to_string(examples_dir().join(format!("{name}.ulp")))
            .expect("read example");
        let design = parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let card = design
            .tran
            .as_ref()
            .unwrap_or_else(|| panic!("{name}: example must carry a .tran card"));
        let nl = flatten(&design).unwrap_or_else(|e| panic!("{name}: {e}"));

        let dt_max = card.t_stop / 10.0;
        let dt_max = card.dt_max.unwrap_or(dt_max);
        let be_opts = TranOptions {
            newton: newton(SolverKind::Sparse),
            ..TranOptions::new(card.t_stop, card.t_stop / 2000.0)
        };
        golden_run(&mut golden, format!("{name}/be"), |t| {
            Transient::run_traced(&nl, &tech, &be_opts, t)
        });

        let reference_opts = be_opts.trapezoidal();
        let (reference, _) = golden_run(&mut golden, format!("{name}/trap"), |t| {
            Transient::run_traced(&nl, &tech, &reference_opts, t)
        });

        let mut opts = AdaptiveOptions::new(card.t_stop, dt_max);
        opts.newton = newton(SolverKind::Sparse);
        let (adaptive, _) = golden_run(&mut golden, format!("{name}/adaptive"), |t| {
            Transient::run_adaptive_traced(&nl, &tech, &opts, t)
        });

        let dev = max_dev(&adaptive, &reference);
        assert!(dev < BOUND, "{name}: adaptive deviates {dev:e} from the oracle");
    }
    assert_eq!(golden.len(), 6);
    assert_golden(&golden);
}

#[test]
fn adaptive_is_byte_identical_across_worker_counts() {
    // Each trial runs the full adaptive engine on one builder netlist;
    // the result bits must not depend on the worker count.
    let run_campaign = |jobs: usize| -> Vec<Vec<u64>> {
        let tech = Technology::default();
        let netlists = builder_netlists(&tech);
        let n = netlists.len();
        Ensemble::new(n)
            .jobs(jobs)
            .run(move |ctx: &mut ulp_exec::TrialCtx| {
                let (_, nl) = &netlists[ctx.index()];
                let tau = suggest_dt(nl, 1.0);
                let driven = pulsed_tran_netlist(nl, tau);
                let mut opts = AdaptiveOptions::new(50.0 * tau, tau);
                opts.newton = newton(SolverKind::Sparse);
                let tr = Transient::run_adaptive(&driven, &tech, &opts).expect("adaptive tran");
                let mut bits: Vec<u64> = tr.time().iter().map(|t| t.to_bits()).collect();
                for i in 0..tr.len() {
                    bits.extend(tr.solution(i).iter().map(|v| v.to_bits()));
                }
                bits
            })
            .into_iter()
            .map(|r| r.expect("trial"))
            .collect()
    };
    let serial = run_campaign(1);
    let parallel = run_campaign(4);
    assert_eq!(serial, parallel, "adaptive results depend on ULP_JOBS");
}

#[test]
fn step_discontinuity_exercises_the_rejection_path() {
    // An RC node driven by an incommensurate sine after a hard step:
    // the controller must overshoot and reject at least once, and the
    // result must still meet the bound.
    let tech = Technology::default();
    let mut nl = Netlist::new();
    let inp = nl.node("in");
    let out = nl.node("out");
    nl.vsource_wave(
        "V1",
        inp,
        Netlist::GROUND,
        Waveform::Sine {
            offset: 0.5,
            amp: 0.4,
            freq: 2.3e3,
            delay: 0.0,
        },
    );
    nl.resistor("R1", inp, out, 1e3);
    nl.capacitor("C1", out, Netlist::GROUND, 1e-6);
    nl.isource_wave(
        "IST",
        Netlist::GROUND,
        out,
        Waveform::Pulse {
            v0: 0.0,
            v1: 2e-4,
            delay: 2e-3,
            rise: 1e-9,
            fall: 1e-9,
            width: 1.0,
            period: 0.0,
        },
    );
    let t_stop = 5e-3;
    let mut opts = AdaptiveOptions::new(t_stop, 1e-3);
    // Open at the cap so the controller has to discover the sine's
    // curvature (and the post-step restart) by rejecting.
    opts.dt_init = opts.dt_max;
    let mut golden = Vec::new();
    let (adaptive, m) = golden_run(&mut golden, "step-discontinuity/adaptive".into(), |t| {
        Transient::run_adaptive_traced(&nl, &tech, &opts, t)
    });
    assert!(
        m.counters.tran_rejected > 0,
        "no rejected steps on the discontinuous stimulus"
    );

    let reference_opts = TranOptions::new(t_stop, t_stop / 5000.0).trapezoidal();
    let (reference, _) = golden_run(&mut golden, "step-discontinuity/trap".into(), |t| {
        Transient::run_traced(&nl, &tech, &reference_opts, t)
    });
    let dev = max_dev(&adaptive, &reference);
    assert!(dev < BOUND, "adaptive deviates {dev:e} after rejections");
    assert_golden(&golden);
}

/// Shared RC fixture for the tolerance-monotonicity property.
fn rc_fixture() -> (Netlist, f64) {
    let mut nl = Netlist::new();
    let inp = nl.node("in");
    let out = nl.node("out");
    nl.vsource_wave(
        "V1",
        inp,
        Netlist::GROUND,
        Waveform::Sine {
            offset: 0.5,
            amp: 0.4,
            freq: 1.7e3,
            delay: 0.0,
        },
    );
    nl.resistor("R1", inp, out, 1e3);
    nl.capacitor("C1", out, Netlist::GROUND, 1e-6);
    (nl, 3e-3)
}

fn adaptive_error(nl: &Netlist, t_stop: f64, reltol: f64, abstol: f64, reference: &Transient) -> f64 {
    let tech = Technology::default();
    let opts = AdaptiveOptions::new(t_stop, 2e-4).tolerances(reltol, abstol);
    let tr = Transient::run_adaptive(nl, &tech, &opts).expect("adaptive tran");
    max_dev(&tr, reference)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Halving both tolerances never increases the worst deviation
    /// from the tight fixed-step oracle (1.05x slack for the floor
    /// where both runs bottom out on interpolation error).
    #[test]
    fn halving_tolerances_never_increases_error(exp in 0u32..6, frac in 1.0f64..2.0) {
        let (nl, t_stop) = rc_fixture();
        let tech = Technology::default();
        let reference_opts = TranOptions::new(t_stop, t_stop / 5000.0).trapezoidal();
        let reference = Transient::run(&nl, &tech, &reference_opts).expect("reference tran");

        let reltol = frac * 1e-2 / f64::powi(2.0, exp as i32);
        let abstol = reltol * 1e-3;
        let coarse = adaptive_error(&nl, t_stop, reltol, abstol, &reference);
        let fine = adaptive_error(&nl, t_stop, reltol / 2.0, abstol / 2.0, &reference);
        prop_assert!(
            fine <= coarse * 1.05 + 1e-9,
            "tightening tolerances from {reltol:e} increased error: {coarse:e} -> {fine:e}"
        );
    }
}
