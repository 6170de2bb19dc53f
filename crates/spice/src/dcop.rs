//! DC operating point: damped Newton–Raphson with gmin stepping.

use crate::error::SimError;
use crate::mna::{branch_index, voltage_of, AssembleMode, MnaWorkspace, SolverKind};
use crate::netlist::{Netlist, Node};
use crate::telemetry::{self, Event, Tracer};
use std::time::Instant;
use ulp_device::Technology;

/// Newton iteration controls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewtonOptions {
    /// Maximum iterations per attempt.
    pub max_iter: usize,
    /// Absolute convergence tolerance on node voltages, V.
    pub vtol: f64,
    /// Maximum node-voltage change applied per iteration (damping), V.
    pub max_step: f64,
    /// Final gmin left in the system, S.
    pub gmin: f64,
    /// Linear-solver backend selection (see [`SolverKind`]).
    pub solver: SolverKind,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        NewtonOptions {
            max_iter: 300,
            vtol: 1e-9,
            max_step: 0.5,
            gmin: 1e-12,
            solver: SolverKind::Auto,
        }
    }
}

/// Outcome of a converged Newton solve.
#[derive(Debug, Clone, PartialEq)]
pub struct NewtonResult {
    /// The converged solution vector.
    pub x: Vec<f64>,
    /// Iterations used by the accepted attempt.
    pub iterations: usize,
    /// ∞-norm KCL residual at the last iterate, A (see
    /// [`crate::mna::MnaSystem::residual_inf`]).
    pub residual: f64,
    /// Last damped maximum voltage update, V.
    pub max_delta: f64,
}

/// Scalar outcome of an in-place Newton solve ([`NewtonResult`] minus
/// the solution vector, which stays in the caller's buffer).
#[derive(Debug, Clone, Copy)]
pub(crate) struct NewtonInfo {
    pub iterations: usize,
    pub residual: f64,
    pub max_delta: f64,
}

/// One damped-Newton attempt at a fixed gmin, with telemetry.
///
/// `x` carries the iterate in and (on success) the converged solution
/// out; `x_new` is caller-owned scratch. Both the workspace and the two
/// buffers are reused across attempts, ladder rungs, sweep points and
/// time steps, so the steady-state loop performs no heap allocation.
#[allow(clippy::too_many_arguments)]
fn attempt(
    nl: &Netlist,
    tech: &Technology,
    mode: AssembleMode<'_>,
    ws: &mut MnaWorkspace,
    x: &mut [f64],
    x_new: &mut Vec<f64>,
    gmin: f64,
    opts: &NewtonOptions,
    analysis: &'static str,
    rung: Option<usize>,
    tracer: &mut dyn Tracer,
) -> Result<NewtonInfo, SimError> {
    let enabled = tracer.enabled();
    let t0 = enabled.then(Instant::now);
    // The dense backend reproduces the legacy loop bit for bit, residual
    // included; the sparse backend only computes the residual when it
    // will actually be observed — per iteration under tracing, otherwise
    // once on whichever iteration the attempt exits from.
    let eager_residual = enabled || !ws.is_sparse();
    let nn = nl.node_count() - 1;
    let lu_dim = nl.unknown_count();
    let swaps0 = ws.pivot_swaps();
    let symbolic0 = ws.symbolic_factorizations();
    let refactor0 = ws.numeric_refactorizations();
    let mut iterations = 0usize;
    let mut residual = f64::INFINITY;
    let mut max_delta = f64::INFINITY;
    let mut clamps = 0usize;
    let mut converged = false;
    let mut failure: Option<SimError> = None;
    while iterations < opts.max_iter {
        iterations += 1;
        ws.assemble(nl, tech, x, mode, gmin);
        // Companion models are assembled *at* x, so `A·x − b` is the
        // true nonlinear KCL residual at the current iterate.
        if eager_residual {
            residual = ws.residual_inf(x);
        }
        if let Err(e) = ws.factor() {
            if !eager_residual {
                residual = ws.residual_inf(x);
            }
            failure = Some(SimError::from_solve(nl, e));
            break;
        }
        if let Err(e) = ws.solve_into(x_new) {
            if !eager_residual {
                residual = ws.residual_inf(x);
            }
            failure = Some(SimError::from_solve(nl, e));
            break;
        }
        // Damping: limit the voltage part of the update.
        let mut dv_max = 0.0f64;
        for i in 0..nn {
            dv_max = dv_max.max((x_new[i] - x[i]).abs());
        }
        let scale = if dv_max > opts.max_step {
            clamps += 1;
            opts.max_step / dv_max
        } else {
            1.0
        };
        // Exiting after this iteration either way: capture the residual
        // of the assembled system before x moves off the iterate it was
        // built at, so the reported value matches the eager path.
        if !eager_residual && (dv_max <= opts.vtol || iterations == opts.max_iter) {
            residual = ws.residual_inf(x);
        }
        for (xi, xn) in x.iter_mut().zip(x_new.iter()) {
            *xi += scale * (*xn - *xi);
        }
        max_delta = dv_max * scale;
        if dv_max <= opts.vtol {
            converged = true;
            break;
        }
    }
    if let Some(t0) = t0 {
        tracer.record(&Event::NewtonAttempt {
            analysis,
            gmin,
            rung,
            iterations,
            converged,
            residual,
            max_delta,
            clamps,
            lu_dim,
            lu_swaps: ws.pivot_swaps() - swaps0,
            lu_symbolic: ws.symbolic_factorizations() - symbolic0,
            lu_refactor: ws.numeric_refactorizations() - refactor0,
            seconds: t0.elapsed().as_secs_f64(),
        });
    }
    if converged {
        Ok(NewtonInfo {
            iterations,
            residual,
            max_delta,
        })
    } else if let Some(e) = failure {
        Err(e)
    } else {
        Err(SimError::NoConvergence {
            iterations,
            residual,
            max_delta,
            gmin,
        })
    }
}

/// The gmin-stepping conductance ladder, heaviest rung first.
const GMIN_LADDER: [f64; 5] = [1e-3, 1e-5, 1e-7, 1e-9, 1e-11];

/// Newton solve with gmin stepping, recording telemetry: attempt the
/// target gmin first and, on failure, walk a conductance ladder from
/// heavy damping down, re-using each stage's solution as the next
/// stage's guess. Emits one [`Event::NewtonAttempt`] per attempt (rung
/// `None` for the direct attempt, then `Some(0..)` down the ladder),
/// tagged with `analysis`.
///
/// This is the raw Newton driver and the one public solve path that
/// runs **no** electrical rule check: every analysis entry point
/// ([`DcOperatingPoint::solve`], [`crate::tran::Transient::run`],
/// [`crate::sweep::dc_sweep`], [`crate::ac::AcResult::run`],
/// [`crate::noise::noise_analysis`]) gates its netlist through
/// [`crate::erc::gate`] first. Call it directly only to solve a
/// deliberately degenerate netlist (gmin then pins a floating node near
/// 0 V instead of failing cleanly).
///
/// # Errors
///
/// [`SimError::BadParameter`] if the netlist has no unknowns;
/// [`SimError::Singular`] (naming the failed node or branch) if the
/// Jacobian is singular; [`SimError::NoConvergence`] (carrying the
/// iterations used, the gmin, and the residuals of the failing attempt)
/// if the iteration stalls — its `gmin` field names the ladder rung
/// that gave up.
pub fn newton_solve_gmin_stepping_traced(
    nl: &Netlist,
    tech: &Technology,
    mode: AssembleMode<'_>,
    x0: &[f64],
    opts: &NewtonOptions,
    analysis: &'static str,
    tracer: &mut dyn Tracer,
) -> Result<NewtonResult, SimError> {
    crate::mna::require_unknowns(nl)?;
    let mut ws = MnaWorkspace::new(nl, opts.solver);
    let mut x = Vec::with_capacity(x0.len());
    let mut x_new = Vec::with_capacity(x0.len());
    let info = newton_solve_gmin_stepping_into(
        nl, tech, mode, x0, opts, analysis, tracer, &mut ws, &mut x, &mut x_new,
    )?;
    Ok(NewtonResult {
        x,
        iterations: info.iterations,
        residual: info.residual,
        max_delta: info.max_delta,
    })
}

/// [`newton_solve_gmin_stepping_traced`] against a caller-owned
/// workspace and solution/scratch buffers — the entry point the sweep
/// and transient drivers use so one workspace (pattern, symbolic
/// factorization, static stamps) and one pair of vectors survive across
/// every point/step. `x` receives the converged solution.
#[allow(clippy::too_many_arguments)]
pub(crate) fn newton_solve_gmin_stepping_into(
    nl: &Netlist,
    tech: &Technology,
    mode: AssembleMode<'_>,
    x0: &[f64],
    opts: &NewtonOptions,
    analysis: &'static str,
    tracer: &mut dyn Tracer,
    ws: &mut MnaWorkspace,
    x: &mut Vec<f64>,
    x_new: &mut Vec<f64>,
) -> Result<NewtonInfo, SimError> {
    x.clear();
    x.extend_from_slice(x0);
    if let Ok(info) = attempt(
        nl, tech, mode, ws, x, x_new, opts.gmin, opts, analysis, None, tracer,
    ) {
        return Ok(info);
    }
    // Ladder restarts from the caller's guess, not the failed iterate.
    x.clear();
    x.extend_from_slice(x0);
    for (i, g) in GMIN_LADDER.iter().enumerate() {
        attempt(nl, tech, mode, ws, x, x_new, *g, opts, analysis, Some(i), tracer)?;
    }
    attempt(
        nl,
        tech,
        mode,
        ws,
        x,
        x_new,
        opts.gmin,
        opts,
        analysis,
        Some(GMIN_LADDER.len()),
        tracer,
    )
}

/// A solved DC operating point.
///
/// # Example
///
/// A subthreshold NMOS diode-connected against a current source settles
/// at the gate voltage predicted by the EKV inverse:
///
/// ```
/// use ulp_spice::netlist::Netlist;
/// use ulp_spice::dcop::DcOperatingPoint;
/// use ulp_device::{Mosfet, Polarity, Technology};
///
/// # fn main() -> Result<(), ulp_spice::SimError> {
/// let tech = Technology::default();
/// let mut nl = Netlist::new();
/// let d = nl.node("d");
/// let dev = Mosfet::new(Polarity::Nmos, 4e-6, 1e-6);
/// nl.isource("IB", Netlist::GROUND, d, 1e-9); // 1 nA into the drain
/// nl.mosfet("M1", d, d, Netlist::GROUND, Netlist::GROUND, dev);
/// let op = DcOperatingPoint::solve(&nl, &tech)?;
/// let expect = dev.vgs_for_current(&tech, 1e-9);
/// assert!((op.voltage(d) - expect).abs() < 0.02);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DcOperatingPoint {
    x: Vec<f64>,
}

impl DcOperatingPoint {
    /// Solves the DC operating point with default Newton options.
    ///
    /// Runs the electrical rule check ([`crate::erc::gate`]) first and
    /// refuses to solve a netlist with deny-level diagnostics. A clean
    /// verdict is memoised on the netlist, so repeated solves of an
    /// unchanged netlist (bias search loops, sweep drivers) check only
    /// once. For region violations *at* the solved point — strong
    /// inversion, unsaturated channels, near-singular systems — run the
    /// result through [`crate::lint::audit`].
    ///
    /// # Errors
    ///
    /// [`SimError::Erc`] when the netlist fails the rule check;
    /// [`SimError::BadParameter`] when `ULP_LINT` is malformed;
    /// otherwise propagates [`SimError`] from the Newton driver.
    pub fn solve(nl: &Netlist, tech: &Technology) -> Result<Self, SimError> {
        Self::solve_with(nl, tech, &NewtonOptions::default())
    }

    /// Solves with explicit Newton options, after the rule check.
    ///
    /// # Errors
    ///
    /// As for [`DcOperatingPoint::solve`].
    pub fn solve_with(
        nl: &Netlist,
        tech: &Technology,
        opts: &NewtonOptions,
    ) -> Result<Self, SimError> {
        telemetry::with_tracer(|tracer| Self::solve_traced(nl, tech, opts, tracer))
    }

    /// [`DcOperatingPoint::solve_with`] recording telemetry on the
    /// given tracer: every Newton attempt (including gmin-ladder rungs)
    /// emits an [`Event::NewtonAttempt`] tagged `"dcop"`.
    ///
    /// # Errors
    ///
    /// As for [`DcOperatingPoint::solve`].
    pub fn solve_traced(
        nl: &Netlist,
        tech: &Technology,
        opts: &NewtonOptions,
        tracer: &mut dyn Tracer,
    ) -> Result<Self, SimError> {
        crate::erc::gate(nl)?;
        let x0 = vec![0.0; nl.unknown_count()];
        let r = newton_solve_gmin_stepping_traced(nl, tech, AssembleMode::Dc, &x0, opts, "dcop", tracer)?;
        Ok(DcOperatingPoint { x: r.x })
    }

    /// Node voltage, V.
    pub fn voltage(&self, node: Node) -> f64 {
        voltage_of(&self.x, node)
    }

    /// Branch current of a named voltage-defined element, A.
    ///
    /// The sign convention: positive current flows *into* the positive
    /// terminal from the external circuit (so a source delivering power
    /// reads negative).
    ///
    /// # Errors
    ///
    /// [`SimError::NotFound`] if no such voltage-defined element exists.
    pub fn branch_current(&self, nl: &Netlist, name: &str) -> Result<f64, SimError> {
        branch_index(nl, name)
            .map(|i| self.x[i])
            .ok_or_else(|| SimError::NotFound(name.to_string()))
    }

    /// Borrows the raw solution vector.
    pub fn solution(&self) -> &[f64] {
        &self.x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulp_device::load::PmosLoad;
    use ulp_device::{Mosfet, Polarity};

    fn tech() -> Technology {
        Technology::default()
    }

    #[test]
    fn linear_circuit_one_iteration() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V1", a, Netlist::GROUND, 1.5);
        nl.resistor("R1", a, Netlist::GROUND, 1e3);
        let op = DcOperatingPoint::solve(&nl, &tech()).unwrap();
        assert!((op.voltage(a) - 1.5).abs() < 1e-12);
        let i = op.branch_current(&nl, "V1").unwrap();
        assert!((i + 1.5e-3).abs() < 1e-9);
    }

    #[test]
    fn diode_forward_drop() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.isource("I1", Netlist::GROUND, a, 1e-6);
        nl.diode("D1", a, Netlist::GROUND, 1e-15, 1.0);
        let op = DcOperatingPoint::solve(&nl, &tech()).unwrap();
        // V = n·UT·ln(I/Is) ≈ 0.0259·ln(1e9) ≈ 0.536 V.
        let expect = tech().thermal_voltage() * (1e-6f64 / 1e-15).ln();
        assert!((op.voltage(a) - expect).abs() < 1e-3, "v = {}", op.voltage(a));
    }

    #[test]
    fn mos_diode_connected_tracks_ekv_inverse() {
        let t = tech();
        let mut nl = Netlist::new();
        let d = nl.node("d");
        let dev = Mosfet::new(Polarity::Nmos, 4e-6, 1e-6);
        nl.isource("IB", Netlist::GROUND, d, 10e-9);
        nl.mosfet("M1", d, d, Netlist::GROUND, Netlist::GROUND, dev);
        let op = DcOperatingPoint::solve(&nl, &t).unwrap();
        let expect = dev.vgs_for_current(&t, 10e-9);
        assert!(
            (op.voltage(d) - expect).abs() < 0.02,
            "v = {} expect {}",
            op.voltage(d),
            expect
        );
    }

    #[test]
    fn nmos_common_source_amplifier_biases() {
        let t = tech();
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let g = nl.node("g");
        let d = nl.node("d");
        nl.vsource("VDD", vdd, Netlist::GROUND, 1.0);
        nl.vsource("VG", g, Netlist::GROUND, 0.35);
        nl.resistor("RD", vdd, d, 5e6);
        nl.mosfet(
            "M1",
            d,
            g,
            Netlist::GROUND,
            Netlist::GROUND,
            Mosfet::new(Polarity::Nmos, 2e-6, 1e-6),
        );
        let op = DcOperatingPoint::solve(&nl, &t).unwrap();
        let vd = op.voltage(d);
        assert!(vd > 0.0 && vd < 1.0, "drain must bias inside the rails: {vd}");
    }

    #[test]
    fn pmos_current_mirror() {
        let t = tech();
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let ref_n = nl.node("ref");
        let out = nl.node("out");
        nl.vsource("VDD", vdd, Netlist::GROUND, 1.2);
        // 10 nA drawn out of the diode-connected PMOS reference leg.
        nl.isource("IREF", ref_n, Netlist::GROUND, 10e-9);
        let p = Mosfet::new(Polarity::Pmos, 4e-6, 2e-6);
        nl.mosfet("MP1", ref_n, ref_n, vdd, vdd, p);
        nl.mosfet("MP2", out, ref_n, vdd, vdd, p);
        nl.resistor("RL", out, Netlist::GROUND, 1e6);
        let op = DcOperatingPoint::solve(&nl, &t).unwrap();
        // Mirror output ≈ 10 nA through 1 MΩ = 10 mV.
        let vout = op.voltage(out);
        assert!((vout - 10e-3).abs() < 3e-3, "vout = {vout}");
    }

    #[test]
    fn scl_load_develops_swing() {
        let t = tech();
        let load = PmosLoad::new(0.2);
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let out = nl.node("out");
        nl.vsource("VDD", vdd, Netlist::GROUND, 1.0);
        nl.scl_load("RL", vdd, out, load, 1e-9);
        nl.isource("ITAIL", out, Netlist::GROUND, 1e-9);
        let op = DcOperatingPoint::solve(&nl, &t).unwrap();
        // Full tail current through the calibrated load → full swing.
        assert!((op.voltage(out) - 0.8).abs() < 1e-3, "vout = {}", op.voltage(out));
    }

    #[test]
    fn missing_branch_reports_not_found() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V1", a, Netlist::GROUND, 1.0);
        nl.resistor("R1", a, Netlist::GROUND, 1.0);
        let op = DcOperatingPoint::solve(&nl, &tech()).unwrap();
        assert!(matches!(
            op.branch_current(&nl, "VX"),
            Err(SimError::NotFound(_))
        ));
    }

    #[test]
    fn floating_node_is_singular_or_gmin_pinned() {
        // A node with no DC path to ground: the checked entry point
        // refuses it up front with a named diagnostic; the raw Newton
        // driver still solves, with gmin pinning the node near 0.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vsource("V1", a, Netlist::GROUND, 1.0);
        nl.capacitor("C1", a, b, 1e-12);
        nl.resistor("R1", b, b, 1.0); // degenerate self-loop, no path
        match DcOperatingPoint::solve(&nl, &tech()) {
            Err(SimError::Erc(report)) => {
                let d = report.find(crate::erc::rule::FLOATING_NODE).unwrap();
                assert!(d.nodes.contains(&"b".to_string()), "{d}");
            }
            other => panic!("expected ERC rejection, got {other:?}"),
        }
        let x0 = vec![0.0; nl.unknown_count()];
        let r = newton_solve_gmin_stepping_traced(
            &nl,
            &tech(),
            AssembleMode::Dc,
            &x0,
            &NewtonOptions::default(),
            "dcop",
            &mut crate::telemetry::NullTracer,
        )
        .unwrap();
        assert!(voltage_of(&r.x, b).abs() < 1e-6);
    }

    #[test]
    fn default_options_sane() {
        let o = NewtonOptions::default();
        assert!(o.max_iter >= 100);
        assert!(o.gmin <= 1e-9);
    }

    #[test]
    fn newton_solve_reports_iterations_and_kcl_residual() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.isource("I1", Netlist::GROUND, a, 1e-6);
        nl.diode("D1", a, Netlist::GROUND, 1e-15, 1.0);
        let x0 = vec![0.0; nl.unknown_count()];
        let opts = NewtonOptions::default();
        let r = newton_solve_gmin_stepping_traced(
            &nl,
            &tech(),
            AssembleMode::Dc,
            &x0,
            &opts,
            "dcop",
            &mut crate::telemetry::NullTracer,
        )
        .unwrap();
        // The diode is nonlinear: more than one iteration, and the KCL
        // residual at the converged point is far below the 1 µA drive.
        assert!(r.iterations > 1, "iterations = {}", r.iterations);
        assert!(r.residual.is_finite() && r.residual < 1e-9, "residual = {}", r.residual);
        assert!(r.max_delta <= opts.vtol, "max_delta = {}", r.max_delta);
        assert!(r.x[0] > 0.4);
    }

    #[test]
    fn hard_netlist_trace_shows_gmin_ladder_engagement() {
        use crate::telemetry::{Event, MetricsCollector, TraceMode};
        // 1 µA pushed into a node whose only outlet is a reverse-biased
        // diode: at the target gmin (1e-12 S) the solution sits near
        // 1e6 V, unreachable under 0.5 V/iteration damping in 300
        // iterations. The ladder walks 1e-3 → 1e-5 → 1e-7 fine, then the
        // 1e-9 rung (≈1000 V) exhausts the budget.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.isource("I1", Netlist::GROUND, a, 1e-6);
        nl.diode("D1", Netlist::GROUND, a, 1e-15, 1.0);
        let x0 = vec![0.0; nl.unknown_count()];
        let opts = NewtonOptions::default();
        let mut mc = MetricsCollector::new(TraceMode::Events);
        let err = newton_solve_gmin_stepping_traced(
            &nl,
            &tech(),
            AssembleMode::Dc,
            &x0,
            &opts,
            "dcop",
            &mut mc,
        )
        .unwrap_err();
        match err {
            SimError::NoConvergence {
                iterations,
                residual,
                gmin,
                ..
            } => {
                assert_eq!(iterations, opts.max_iter);
                assert!((gmin - 1e-9).abs() < 1e-24, "gmin = {gmin}");
                assert!(residual.is_finite() && residual > 0.0, "residual = {residual}");
            }
            other => panic!("expected NoConvergence, got {other:?}"),
        }
        // Trace: failed direct attempt, three converged rungs, the
        // failing 1e-9 rung — and the ladder counted as one fallback.
        let rungs: Vec<(Option<usize>, bool)> = mc
            .events()
            .iter()
            .filter_map(|e| match &e.event {
                Event::NewtonAttempt { rung, converged, .. } => Some((*rung, *converged)),
                _ => None,
            })
            .collect();
        assert_eq!(
            rungs,
            vec![
                (None, false),
                (Some(0), true),
                (Some(1), true),
                (Some(2), true),
                (Some(3), false),
            ]
        );
        assert_eq!(mc.metrics().counters.gmin_fallbacks, 1);
        assert!(mc.metrics().damping_clamps > 0);
    }

    #[test]
    fn solve_traced_records_nothing_extra_for_easy_circuits() {
        use crate::telemetry::{MetricsCollector, TraceMode};
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V1", a, Netlist::GROUND, 1.5);
        nl.resistor("R1", a, Netlist::GROUND, 1e3);
        let mut mc = MetricsCollector::new(TraceMode::Summary);
        let op =
            DcOperatingPoint::solve_traced(&nl, &tech(), &NewtonOptions::default(), &mut mc)
                .unwrap();
        assert!((op.voltage(a) - 1.5).abs() < 1e-12);
        let m = mc.metrics();
        assert_eq!((m.counters.attempts, m.counters.solves, m.counters.gmin_fallbacks), (1, 1, 0));
        assert!(m.solve_seconds > 0.0);
        assert_eq!(m.max_dimension, nl.unknown_count());
    }
}
