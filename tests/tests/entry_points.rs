//! Entry-point contract of `ulp-spice`: every analysis entry is
//! ERC-gated, and its default form is its `*_traced` twin.
//!
//! One table covers every public analysis entry. For each row:
//!
//! * on a netlist with a floating node, both the default form and the
//!   traced twin refuse with [`SimError::Erc`];
//! * on a clean netlist, the default form returns bit-identical results
//!   to its traced twin run with a [`NullTracer`] — the default form is
//!   exactly the traced twin behind the global tracer;
//! * on the empty design (`.end` alone, parsed and flattened), both
//!   forms and the raw Newton driver refuse with
//!   [`SimError::BadParameter`] instead of panicking.

use ulp_device::Technology;
use ulp_spice::ac::AcResult;
use ulp_spice::dcop::{newton_solve_gmin_stepping_traced, DcOperatingPoint, NewtonOptions};
use ulp_spice::mna::AssembleMode;
use ulp_spice::netlist::{Node, Waveform};
use ulp_spice::noise::{noise_analysis, noise_analysis_traced, NoiseReport};
use ulp_spice::sweep::{dc_sweep, dc_sweep_traced, dc_sweep_with, SweepResult};
use ulp_spice::telemetry::{NullTracer, Tracer};
use ulp_spice::tran::{AdaptiveOptions, TranOptions, Transient};
use ulp_spice::{Netlist, SimError};

type Out = Result<Vec<f64>, SimError>;
type Plain = fn(&Netlist, &Technology, &DcOperatingPoint) -> Out;
type Traced = fn(&Netlist, &Technology, &DcOperatingPoint, &mut dyn Tracer) -> Out;

const SWEEP: [f64; 4] = [0.2, 0.4, 0.6, 0.8];
const FREQS: [f64; 3] = [1e2, 1e3, 1e4];

fn fixed() -> TranOptions {
    TranOptions::new(2e-3, 1e-4).trapezoidal()
}

fn adaptive() -> AdaptiveOptions {
    AdaptiveOptions::new(2e-3, 2e-4)
}

fn dcop(op: DcOperatingPoint) -> Vec<f64> {
    op.solution().to_vec()
}

fn tran(tr: Transient) -> Vec<f64> {
    let mut v = tr.time().to_vec();
    for i in 0..tr.len() {
        v.extend_from_slice(tr.solution(i));
    }
    v
}

fn sweep(sw: SweepResult) -> Vec<f64> {
    (0..sw.len())
        .flat_map(|i| sw.solution(i).to_vec())
        .collect()
}

fn ac(nl: &Netlist, r: AcResult) -> Vec<f64> {
    let nodes: Vec<_> = ["in", "out"]
        .iter()
        .filter_map(|n| nl.find_node(n))
        .collect();
    let mut v = Vec::new();
    for i in 0..r.freqs().len() {
        for &n in &nodes {
            let p = r.phasor(n, i);
            v.extend([p.re, p.im]);
        }
    }
    v
}

/// The noise output node; ground when the netlist has no `out` (the
/// gate refuses such a netlist before the node is read).
fn out(nl: &Netlist) -> Node {
    nl.find_node("out").unwrap_or(Netlist::GROUND)
}

fn noise(r: NoiseReport) -> Vec<f64> {
    let mut v = r.output_psd;
    v.extend(r.contributions.iter().map(|c| c.output_power));
    v.push(r.output_rms);
    v
}

/// Every public analysis entry, paired with its traced twin.
fn entries() -> Vec<(&'static str, Plain, Traced)> {
    vec![
        (
            "DcOperatingPoint::solve",
            |nl, t, _| DcOperatingPoint::solve(nl, t).map(dcop),
            |nl, t, _, tr| {
                DcOperatingPoint::solve_traced(nl, t, &NewtonOptions::default(), tr).map(dcop)
            },
        ),
        (
            "DcOperatingPoint::solve_with",
            |nl, t, _| DcOperatingPoint::solve_with(nl, t, &NewtonOptions::default()).map(dcop),
            |nl, t, _, tr| {
                DcOperatingPoint::solve_traced(nl, t, &NewtonOptions::default(), tr).map(dcop)
            },
        ),
        (
            "Transient::run",
            |nl, t, _| Transient::run(nl, t, &fixed()).map(tran),
            |nl, t, _, tr| Transient::run_traced(nl, t, &fixed(), tr).map(tran),
        ),
        (
            "Transient::run_adaptive",
            |nl, t, _| Transient::run_adaptive(nl, t, &adaptive()).map(tran),
            |nl, t, _, tr| Transient::run_adaptive_traced(nl, t, &adaptive(), tr).map(tran),
        ),
        (
            "dc_sweep",
            |nl, t, _| dc_sweep(nl, t, "VIN", &SWEEP).map(sweep),
            |nl, t, _, tr| {
                dc_sweep_traced(nl, t, "VIN", &SWEEP, &NewtonOptions::default(), tr).map(sweep)
            },
        ),
        (
            "dc_sweep_with",
            |nl, t, _| dc_sweep_with(nl, t, "VIN", &SWEEP, &NewtonOptions::default()).map(sweep),
            |nl, t, _, tr| {
                dc_sweep_traced(nl, t, "VIN", &SWEEP, &NewtonOptions::default(), tr).map(sweep)
            },
        ),
        (
            "AcResult::run",
            |nl, t, op| AcResult::run(nl, t, op, &FREQS).map(|r| ac(nl, r)),
            |nl, t, op, tr| AcResult::run_traced(nl, t, op, &FREQS, tr).map(|r| ac(nl, r)),
        ),
        (
            "noise_analysis",
            |nl, t, op| noise_analysis(nl, t, op, out(nl), &FREQS).map(noise),
            |nl, t, op, tr| noise_analysis_traced(nl, t, op, out(nl), &FREQS, tr).map(noise),
        ),
    ]
}

/// A diode-clamped RC driven by an AC-carrying input source and a
/// pulsed current: nonlinear at DC, dynamic in time, and ERC-clean.
fn clean() -> Netlist {
    let mut nl = Netlist::new();
    let inp = nl.node("in");
    let out = nl.node("out");
    nl.vsource_ac("VIN", inp, Netlist::GROUND, 0.5, 1.0);
    nl.resistor("R1", inp, out, 1e3);
    nl.capacitor("C1", out, Netlist::GROUND, 1e-7);
    nl.diode("D1", out, Netlist::GROUND, 1e-15, 1.0);
    nl.isource_wave(
        "IP",
        Netlist::GROUND,
        out,
        Waveform::Pulse {
            v0: 0.0,
            v1: 1e-4,
            delay: 2e-4,
            rise: 1e-5,
            fall: 1e-5,
            width: 5e-4,
            period: 0.0,
        },
    );
    nl
}

/// [`clean`] plus a node reached only through a capacitor: no DC path
/// to ground, so the gate must refuse it.
fn floating() -> Netlist {
    let mut nl = clean();
    let out = nl.node("out");
    let fl = nl.node("float");
    nl.capacitor("CF", out, fl, 1e-12);
    nl
}

#[test]
fn every_entry_refuses_a_floating_node() {
    let t = Technology::default();
    let nl = floating();
    // The AC and noise entries need an operating point; the gate fires
    // before it is read, so the clean netlist's point serves.
    let op = DcOperatingPoint::solve(&clean(), &t).unwrap();
    for (name, plain, traced) in entries() {
        for (form, out) in [
            ("default", plain(&nl, &t, &op)),
            ("traced", traced(&nl, &t, &op, &mut NullTracer)),
        ] {
            match out {
                Err(SimError::Erc(report)) => assert!(
                    report.to_string().contains("`float`"),
                    "{name} ({form}): report does not name the node:\n{report}"
                ),
                other => panic!("{name} ({form}): expected SimError::Erc, got {other:?}"),
            }
        }
    }
}

#[test]
fn every_default_entry_is_its_traced_twin_bit_for_bit() {
    let t = Technology::default();
    let nl = clean();
    let op = DcOperatingPoint::solve(&nl, &t).unwrap();
    for (name, plain, traced) in entries() {
        let a = plain(&nl, &t, &op).unwrap_or_else(|e| panic!("{name}: {e}"));
        let b = traced(&nl, &t, &op, &mut NullTracer).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!a.is_empty(), "{name}: empty result");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&a),
            bits(&b),
            "{name}: default and traced forms differ"
        );
    }
}

#[test]
fn every_entry_refuses_the_empty_design() {
    let t = Technology::default();
    let design = ulp_ir::parse(".end\n").unwrap();
    let nl = ulp_ir::flatten(&design).unwrap();
    assert_eq!(nl.unknown_count(), 0);
    let op = DcOperatingPoint::solve(&clean(), &t).unwrap();
    let refused = |name: &str, out: Result<usize, SimError>| match out {
        Err(SimError::BadParameter(msg)) => assert!(
            msg.contains("no unknowns"),
            "{name}: unexpected message `{msg}`"
        ),
        other => panic!("{name}: expected SimError::BadParameter, got {other:?}"),
    };
    for (name, plain, traced) in entries() {
        refused(name, plain(&nl, &t, &op).map(|v| v.len()));
        refused(name, traced(&nl, &t, &op, &mut NullTracer).map(|v| v.len()));
    }
    let raw = newton_solve_gmin_stepping_traced(
        &nl,
        &t,
        AssembleMode::Dc,
        &[],
        &NewtonOptions::default(),
        "dcop",
        &mut NullTracer,
    );
    refused("newton_solve_gmin_stepping_traced", raw.map(|r| r.x.len()));
}
