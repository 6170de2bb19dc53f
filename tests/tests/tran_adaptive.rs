//! Adaptive-vs-reference transient equivalence, PR 5 style: the
//! fixed-step path is the accuracy oracle, and the LTE-controlled
//! adaptive engine must reproduce it within an explicit error bound on
//! every shipped workload — the six builder netlists under the
//! multi-scale pulse stimulus the solver benchmark times, plus both
//! `examples/*.ulp` designs driven by their own `.tran` cards.
//!
//! Also pinned here: byte-identical adaptive results at 1 and 4
//! workers on the `ulp-exec` engine, rejection-path coverage through a
//! step-discontinuity stimulus, and a property test that tightening
//! tolerances never loses accuracy.

use proptest::prelude::*;
use std::path::PathBuf;
use ulp_bench::netlists::{builder_netlists, pulsed_tran_netlist};
use ulp_device::Technology;
use ulp_exec::Ensemble;
use ulp_ir::{flatten, parse};
use ulp_spice::dcop::NewtonOptions;
use ulp_spice::mna::SolverKind;
use ulp_spice::netlist::Waveform;
use ulp_spice::telemetry::{MetricsCollector, TraceMode};
use ulp_spice::tran::{suggest_dt, AdaptiveOptions, TranOptions, Transient};
use ulp_spice::Netlist;

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

#[test]
fn adaptive_meets_the_bound_on_all_builder_netlists() {
    let tech = Technology::default();
    for (name, nl) in builder_netlists(&tech) {
        let tau = suggest_dt(&nl, 1.0);
        let t_stop = 50.0 * tau;
        let driven = pulsed_tran_netlist(&nl, tau);

        let reference_opts = TranOptions {
            newton: newton(SolverKind::Sparse),
            ..TranOptions::new(t_stop, tau / 50.0).trapezoidal()
        };
        let reference =
            Transient::run(&driven, &tech, &reference_opts).unwrap_or_else(|e| panic!("{name}: reference tran: {e:?}"));

        let mut opts = AdaptiveOptions::new(t_stop, tau);
        opts.newton = newton(SolverKind::Sparse);
        let adaptive = Transient::run_adaptive(&driven, &tech, &opts)
            .unwrap_or_else(|e| panic!("{name}: adaptive tran: {e:?}"));

        let dev = max_dev(&adaptive, &reference);
        assert!(dev < BOUND, "{name}: adaptive deviates {dev:e} from the oracle");
        assert!(
            adaptive.len() * 3 < reference.len(),
            "{name}: adaptive took {} points, expected far fewer than the {}-point reference",
            adaptive.len(),
            reference.len()
        );
    }
}

fn examples_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../examples")
}

#[test]
fn adaptive_meets_the_bound_on_both_ulp_examples() {
    let tech = Technology::default();
    let mut checked = 0;
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
        let reference_opts = TranOptions {
            newton: newton(SolverKind::Sparse),
            ..TranOptions::new(card.t_stop, card.t_stop / 2000.0).trapezoidal()
        };
        let reference = Transient::run(&nl, &tech, &reference_opts)
            .unwrap_or_else(|e| panic!("{name}: reference tran: {e:?}"));

        let mut opts = AdaptiveOptions::new(card.t_stop, dt_max);
        opts.newton = newton(SolverKind::Sparse);
        let adaptive = Transient::run_adaptive(&nl, &tech, &opts)
            .unwrap_or_else(|e| panic!("{name}: adaptive tran: {e:?}"));

        let dev = max_dev(&adaptive, &reference);
        assert!(dev < BOUND, "{name}: adaptive deviates {dev:e} from the oracle");
        checked += 1;
    }
    assert_eq!(checked, 2);
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
    let mut mc = MetricsCollector::new(TraceMode::Summary);
    let adaptive = Transient::run_adaptive_traced(&nl, &tech, &opts, &mut mc).unwrap();
    assert!(
        mc.metrics().tran_rejected > 0,
        "no rejected steps on the discontinuous stimulus"
    );

    let reference_opts = TranOptions::new(t_stop, t_stop / 5000.0).trapezoidal();
    let reference = Transient::run(&nl, &tech, &reference_opts).unwrap();
    let dev = max_dev(&adaptive, &reference);
    assert!(dev < BOUND, "adaptive deviates {dev:e} after rejections");
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
