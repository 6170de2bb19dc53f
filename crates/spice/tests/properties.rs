//! Property-based tests of the circuit simulator: conservation laws and
//! linear-circuit theorems must hold for arbitrary element values.

use proptest::prelude::*;
use ulp_device::Technology;
use ulp_spice::dcop::DcOperatingPoint;
use ulp_spice::tran::{TranOptions, Transient};
use ulp_spice::{Netlist, Waveform};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any resistive ladder driven by a source satisfies KCL: the
    /// source branch current equals the sum of currents into the
    /// resistor tree (checked via the voltage drops).
    #[test]
    fn resistor_chain_kcl(
        rs in prop::collection::vec(10.0f64..1e6, 2..8),
        v in 0.1f64..10.0
    ) {
        let mut nl = Netlist::new();
        let mut prev = nl.node("n0");
        nl.vsource("V1", prev, Netlist::GROUND, v);
        for (k, &r) in rs.iter().enumerate() {
            let next = nl.node(&format!("n{}", k + 1));
            nl.resistor(&format!("R{k}"), prev, next, r);
            prev = next;
        }
        // Terminate to ground so current flows.
        nl.resistor("Rend", prev, Netlist::GROUND, 1e3);
        let op = DcOperatingPoint::solve(&nl, &Technology::default()).expect("linear solves");
        let total_r: f64 = rs.iter().sum::<f64>() + 1e3;
        let i_expected = v / total_r;
        let i_source = -op.branch_current(&nl, "V1").expect("branch exists");
        // gmin (1e-12 S per node) shunts a little current around
        // high-impedance chains; tolerate its ppm-level contribution.
        prop_assert!((i_source / i_expected - 1.0).abs() < 1e-4);
        // Voltages decrease monotonically down the chain.
        let mut last = v;
        for k in 1..=rs.len() {
            let node = nl.clone().node(&format!("n{k}"));
            let vn = op.voltage(node);
            prop_assert!(vn <= last + 1e-12);
            last = vn;
        }
    }

    /// Superposition: the response to two sources equals the sum of the
    /// responses to each alone (linear network).
    #[test]
    fn superposition_holds(
        v1 in -5.0f64..5.0, v2 in -5.0f64..5.0,
        r1 in 100.0f64..1e5, r2 in 100.0f64..1e5, r3 in 100.0f64..1e5
    ) {
        let build = |va: f64, vb: f64| {
            let mut nl = Netlist::new();
            let a = nl.node("a");
            let b = nl.node("b");
            let m = nl.node("m");
            nl.vsource("VA", a, Netlist::GROUND, va);
            nl.vsource("VB", b, Netlist::GROUND, vb);
            nl.resistor("R1", a, m, r1);
            nl.resistor("R2", b, m, r2);
            nl.resistor("R3", m, Netlist::GROUND, r3);
            let op = DcOperatingPoint::solve(&nl, &Technology::default()).expect("linear");
            op.voltage(m)
        };
        let both = build(v1, v2);
        let only1 = build(v1, 0.0);
        let only2 = build(0.0, v2);
        prop_assert!((both - (only1 + only2)).abs() < 1e-7);
    }

    /// The RC step response always lands on the source value and never
    /// overshoots (first-order system).
    #[test]
    fn rc_step_no_overshoot(
        r_exp in 2.0f64..6.0, c_exp in -9.0f64..-5.0, v in 0.1f64..5.0
    ) {
        let r = 10f64.powf(r_exp);
        let c = 10f64.powf(c_exp);
        let tau = r * c;
        let mut nl = Netlist::new();
        let inp = nl.node("in");
        let out = nl.node("out");
        nl.vsource_wave(
            "V1",
            inp,
            Netlist::GROUND,
            Waveform::Pwl(vec![(0.0, 0.0), (tau * 1e-3, v)]),
        );
        nl.resistor("R1", inp, out, r);
        nl.capacitor("C1", out, Netlist::GROUND, c);
        let opts = TranOptions::new(6.0 * tau, tau / 100.0);
        let tr = Transient::run(&nl, &Technology::default(), &opts).expect("transient");
        let wave = tr.voltage(out);
        for &w in &wave {
            prop_assert!(w <= v * (1.0 + 1e-6), "overshoot: {w} > {v}");
            prop_assert!(w >= -1e-9);
        }
        prop_assert!((tr.final_voltage(out) / v - 1.0).abs() < 0.01);
    }

    /// VCCS gain composes linearly: doubling gm doubles the output.
    #[test]
    fn vccs_linear_in_gm(gm_exp in -6.0f64..-3.0, vin in 0.1f64..2.0) {
        let gm = 10f64.powf(gm_exp);
        let build = |g: f64| {
            let mut nl = Netlist::new();
            let a = nl.node("a");
            let o = nl.node("o");
            nl.vsource("V1", a, Netlist::GROUND, vin);
            nl.vccs("G1", Netlist::GROUND, o, a, Netlist::GROUND, g);
            nl.resistor("RL", o, Netlist::GROUND, 1e3);
            DcOperatingPoint::solve(&nl, &Technology::default())
                .expect("linear")
                .voltage(o)
        };
        let v1 = build(gm);
        let v2 = build(2.0 * gm);
        prop_assert!((v2 / v1 - 2.0).abs() < 1e-6);
    }
}

/// Random-netlist generator for the ERC soundness property: builds a
/// circuit from an arbitrary recipe of element kinds, terminals and
/// values over a small node pool (node 0 = ground).
fn build_random(recipe: &[(u8, usize, usize, f64)]) -> Netlist {
    use ulp_device::load::PmosLoad;
    use ulp_device::{Mosfet, Polarity};
    let mut nl = Netlist::new();
    let node = |nl: &mut Netlist, i: usize| {
        if i == 0 {
            Netlist::GROUND
        } else {
            nl.node(&format!("n{i}"))
        }
    };
    for (k, &(kind, ai, bi, val)) in recipe.iter().enumerate() {
        let a = node(&mut nl, ai);
        let b = node(&mut nl, bi);
        match kind % 7 {
            0 => {
                nl.resistor(&format!("R{k}"), a, b, 10f64.powf(2.0 + 5.0 * val));
            }
            1 => {
                nl.capacitor(&format!("C{k}"), a, b, 10f64.powf(-13.0 + 3.0 * val));
            }
            2 => {
                nl.vsource(&format!("V{k}"), a, b, 2.0 * val - 1.0);
            }
            3 => {
                nl.isource(&format!("I{k}"), a, b, (2.0 * val - 1.0) * 1e-9);
            }
            4 => {
                nl.diode(&format!("D{k}"), a, b, 1e-15, 1.0);
            }
            5 => {
                nl.scl_load(&format!("L{k}"), a, b, PmosLoad::new(0.2), 1e-9);
            }
            _ => {
                // Gate at b, channel a → ground; bulk grounded.
                let dev = Mosfet::new(Polarity::Nmos, 1e-6, 1e-6);
                nl.mosfet(&format!("M{k}"), a, b, Netlist::GROUND, Netlist::GROUND, dev);
            }
        }
    }
    nl
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Soundness of the electrical rule check as a pre-solve gate: any
    /// netlist the ERC declares clean must never hit a singular MNA
    /// matrix in the DC operating-point solver. (Non-convergence is a
    /// numerical matter and allowed; a zero pivot is a topological one
    /// and is exactly what the ERC exists to rule out.)
    #[test]
    fn erc_clean_netlists_never_go_singular(
        recipe in prop::collection::vec(
            (0u8..7, 0usize..5, 0usize..5, 0.0f64..1.0),
            2..12
        )
    ) {
        let nl = build_random(&recipe);
        let report = ulp_spice::erc::check(&nl);
        prop_assume!(report.is_clean());
        match DcOperatingPoint::solve(&nl, &Technology::default()) {
            Err(ulp_spice::SimError::Singular { step, unknown, .. }) => {
                prop_assert!(
                    false,
                    "ERC-clean netlist went singular at step {step} ({unknown})"
                );
            }
            Err(ulp_spice::SimError::LinearSolve(e)) => {
                prop_assert!(
                    !matches!(e, ulp_num::lu::SolveError::Singular { .. }),
                    "ERC-clean netlist went singular: {e}"
                );
            }
            // Converged, or a pure convergence failure: both fine here.
            Ok(_) | Err(_) => {}
        }
    }

    /// Completeness in the other direction for the headline rule: a
    /// netlist with a node reachable only through capacitors is always
    /// rejected by the gate, whatever the values involved.
    #[test]
    fn capacitor_isolated_node_always_rejected(
        c in 1e-15f64..1e-9, r in 1e2f64..1e6, v in 0.1f64..2.0
    ) {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let f = nl.node("float");
        nl.vsource("V1", a, Netlist::GROUND, v);
        nl.resistor("R1", a, Netlist::GROUND, r);
        nl.capacitor("C1", a, f, c);
        let err = DcOperatingPoint::solve(&nl, &Technology::default()).unwrap_err();
        match err {
            ulp_spice::SimError::Erc(report) => {
                let d = report
                    .find(ulp_spice::erc::rule::FLOATING_NODE)
                    .expect("floating-node diagnostic");
                prop_assert!(d.nodes.contains(&"float".to_string()));
            }
            other => prop_assert!(false, "expected ERC rejection, got {other}"),
        }
    }

    /// The sparse solver path agrees with the dense path to 1e-12 on
    /// arbitrary ERC-clean nonlinear ladders: a resistor chain with a
    /// grounding resistor at every node (DC path everywhere), plus
    /// diodes sprinkled from the randomness. Ranges keep the system
    /// moderately conditioned — resistances within three decades and a
    /// sub-500 mV rail so no diode clamps hard — because the achievable
    /// backend agreement is κ·ε·‖x‖ and the bound must stay above it.
    #[test]
    fn sparse_dcop_matches_dense_on_random_ladders(
        rs in prop::collection::vec(1e3f64..1e6, 4..9),
        gs in prop::collection::vec(1e4f64..1e6, 4..9),
        diode_mask in prop::collection::vec(any::<bool>(), 4..9),
        vdd in 0.2f64..0.5
    ) {
        use ulp_spice::dcop::NewtonOptions;
        use ulp_spice::mna::SolverKind;
        let n = rs.len().min(gs.len()).min(diode_mask.len());
        let mut nl = Netlist::new();
        let mut prev = nl.node("n0");
        nl.vsource("V1", prev, Netlist::GROUND, vdd);
        for k in 0..n {
            let next = nl.node(&format!("n{}", k + 1));
            nl.resistor(&format!("R{k}"), prev, next, rs[k]);
            nl.resistor(&format!("G{k}"), next, Netlist::GROUND, gs[k]);
            if diode_mask[k] {
                nl.diode(&format!("D{k}"), next, Netlist::GROUND, 1e-14, 1.0);
            }
            prev = next;
        }
        let solve = |solver| {
            // Tight vtol: at the default 1e-9 each backend stops within
            // its own convergence tail, which can differ by more than
            // the equivalence bound being asserted. Damped steps keep
            // the diode exponentials from limit-cycling on the way.
            let opts = NewtonOptions {
                solver,
                vtol: 1e-12,
                max_step: 0.05,
                max_iter: 2000,
                ..NewtonOptions::default()
            };
            DcOperatingPoint::solve_with(&nl, &Technology::default(), &opts)
                .expect("clean ladder solves")
        };
        let dense = solve(SolverKind::Dense);
        let sparse = solve(SolverKind::Sparse);
        for (d, s) in dense.solution().iter().zip(sparse.solution()) {
            prop_assert!((d - s).abs() <= 1e-12, "dense {d} vs sparse {s}");
        }
    }
}

/// One synthetic solver event, parameterized so shrunken cases stay
/// meaningful. Iteration counts are drawn from a narrow range to force
/// percentile ties, and wall times are dyadic rationals so f64 sums
/// are exact in any association order.
fn synth_event(kind: u8, iters: usize, converged: bool, rung: u8) -> ulp_spice::telemetry::Event {
    use ulp_spice::telemetry::Event;
    let seconds = iters as f64 * 0.25;
    match kind % 5 {
        0 => Event::NewtonAttempt {
            analysis: "dcop",
            gmin: 1e-12,
            rung: if rung == 0 { None } else { Some(rung as usize - 1) },
            iterations: iters,
            converged,
            residual: 1e-9,
            max_delta: 1e-6,
            clamps: iters / 2,
            lu_dim: 8,
            lu_swaps: iters,
            lu_symbolic: 1,
            lu_refactor: iters.saturating_sub(1),
            seconds,
        },
        1 => Event::TranStep {
            step: iters,
            time: seconds,
            newton_iterations: iters,
            method: "trapezoidal",
            devices_bypassed: iters / 3,
            seconds,
        },
        2 => Event::AcPoint {
            index: iters,
            freq: 1e3,
            lu_symbolic: usize::from(converged),
            lu_refactor: iters,
            seconds,
        },
        3 => Event::SweepPoint {
            index: iters,
            value: 0.5,
            newton_iterations: iters,
            seconds,
        },
        _ => Event::NoisePoint {
            index: iters,
            freq: 1e3,
            sources: iters,
            seconds,
        },
    }
}

/// The derived statistics the observability pipeline reports; the
/// fold-order contract is stated over these, not over the raw structs
/// (whose internal sample order legitimately differs).
fn derived_stats(m: &ulp_spice::telemetry::SimMetrics) -> (ulp_spice::telemetry::SolverCounters, usize, usize, usize, u64, String) {
    (
        m.counters,
        m.p50_iterations(),
        m.p95_iterations(),
        m.max_iterations(),
        m.solve_seconds.to_bits(),
        m.summary(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `SimMetrics::merge` is fold-order invariant for every derived
    /// statistic: splitting an event stream into per-worker shards and
    /// folding the shards in *any* order — or not sharding at all —
    /// yields identical counters, percentiles, wall-time total and
    /// summary footer. This is the contract `fold_worker` relies on.
    /// Shards may be empty, streams may be a single event, and the
    /// narrow iteration range forces percentile ties.
    #[test]
    fn sim_metrics_merge_is_fold_order_invariant(
        events in prop::collection::vec((0u8..5, 1usize..5, any::<bool>(), 0u8..3), 0..48),
        shards in 1usize..5,
    ) {
        use ulp_spice::telemetry::SimMetrics;
        // One-pass reference: absorb everything into a single collector.
        let mut reference = SimMetrics::default();
        let evs: Vec<_> = events.iter().map(|&(k, i, c, r)| synth_event(k, i, c, r)).collect();
        for e in &evs {
            reference.absorb(e);
        }
        // Shard round-robin (some shards may stay empty), then fold
        // forward and reverse.
        let mut parts = vec![SimMetrics::default(); shards];
        for (k, e) in evs.iter().enumerate() {
            parts[k % shards].absorb(e);
        }
        let mut forward = SimMetrics::default();
        for p in &parts {
            forward.merge(p);
        }
        let mut reverse = SimMetrics::default();
        for p in parts.iter().rev() {
            reverse.merge(p);
        }
        // Associativity: ((a+b)+c)+... vs a+(b+(c+...)).
        let mut right = parts.last().cloned().unwrap_or_default();
        for p in parts.iter().rev().skip(1) {
            let mut acc = p.clone();
            acc.merge(&right);
            right = acc;
        }
        prop_assert_eq!(derived_stats(&forward), derived_stats(&reference));
        prop_assert_eq!(derived_stats(&reverse), derived_stats(&reference));
        prop_assert_eq!(derived_stats(&right), derived_stats(&reference));
    }
}
