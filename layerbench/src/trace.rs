//! Bench-side tracing: layer timings taken around the benchmark's own
//! calls into the public entry points, deterministic solver counts
//! folded from the events of the `*_traced` entry points, and per-call
//! costs of the MNA workspace layers that run inside the solvers.
//!
//! Counts and timings stay apart: [`Counts`] holds only discrete work
//! and must repeat exactly for the same input; everything in seconds is
//! best-effort host time.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use ulp_device::Technology;
use ulp_spice::mna::{AssembleMode, Integrator, MnaWorkspace, SolverKind};
use ulp_spice::netlist::Element;
use ulp_spice::telemetry::{Event, Tracer};
use ulp_spice::Netlist;

/// Deterministic solver work folded from telemetry events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Newton iterations of DC operating-point attempts.
    pub dcop_iters: u64,
    /// Newton iterations of transient attempts (including the initial
    /// DC point the transient solves itself).
    pub tran_iters: u64,
    /// Newton attempts made on a gmin-ladder rung.
    pub gmin_rungs: u64,
    /// Full symbolic factorizations.
    pub symbolic: u64,
    /// Pattern-reusing numeric refactorizations.
    pub refactor: u64,
    /// Accepted transient steps.
    pub tran_steps: u64,
    /// Rejected transient steps.
    pub tran_rejected: u64,
    /// Device evaluations skipped by the latency bypass.
    pub bypassed: u64,
}

impl Counts {
    /// Matrix assemblies: one per Newton iteration.
    pub fn assembles(&self) -> u64 {
        self.dcop_iters + self.tran_iters
    }

    /// Triangular solves: one per successful factorization.
    pub fn solves(&self) -> u64 {
        self.symbolic + self.refactor
    }
}

impl std::ops::Add for Counts {
    type Output = Counts;

    fn add(self, o: Counts) -> Counts {
        Counts {
            dcop_iters: self.dcop_iters + o.dcop_iters,
            tran_iters: self.tran_iters + o.tran_iters,
            gmin_rungs: self.gmin_rungs + o.gmin_rungs,
            symbolic: self.symbolic + o.symbolic,
            refactor: self.refactor + o.refactor,
            tran_steps: self.tran_steps + o.tran_steps,
            tran_rejected: self.tran_rejected + o.tran_rejected,
            bypassed: self.bypassed + o.bypassed,
        }
    }
}

impl Tracer for Counts {
    fn record(&mut self, event: &Event) {
        match event {
            Event::NewtonAttempt {
                analysis,
                rung,
                iterations,
                lu_symbolic,
                lu_refactor,
                ..
            } => {
                let it = *iterations as u64;
                if *analysis == "tran" {
                    self.tran_iters += it;
                } else {
                    self.dcop_iters += it;
                }
                self.gmin_rungs += u64::from(rung.is_some());
                self.symbolic += *lu_symbolic as u64;
                self.refactor += *lu_refactor as u64;
            }
            Event::TranStep {
                devices_bypassed, ..
            } => {
                self.tran_steps += 1;
                self.bypassed += *devices_bypassed as u64;
            }
            Event::TranReject { .. } => self.tran_rejected += 1,
            _ => {}
        }
    }
}

/// One traced job: wall-clock laps of the layers the benchmark calls
/// directly, and the solver counts of the layers it cannot reach.
#[derive(Debug, Default)]
pub struct JobTrace {
    pub laps: BTreeMap<&'static str, f64>,
    pub counts: Counts,
}

impl JobTrace {
    /// Runs `f`, adding its wall time to the lap `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        *self.laps.entry(name).or_default() += t0.elapsed().as_secs_f64();
        r
    }
}

/// [`JobTrace::time`] when tracing, a plain call otherwise.
pub fn lap<R>(trace: &mut Option<&mut JobTrace>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match trace {
        Some(t) => t.time(name, f),
        None => f(),
    }
}

/// Median of a sample (0 for an empty one).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        0.5 * (s[m - 1] + s[m])
    }
}

/// Mean of the samples between the 10th and 90th percentiles (0 for an
/// empty sample). Linear in the share of jobs a fast or slow host phase
/// holds, where the median jumps between the two.
pub fn trimmed_mean(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let cut = s.len() / 10;
    let kept = &s[cut..s.len() - cut];
    if kept.is_empty() {
        return 0.0;
    }
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Median wall time of `reps` calls of `f`.
pub fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&v)
}

/// Per-call host cost of each MNA workspace layer, s.
#[derive(Debug, Clone, Copy, Default)]
pub struct MnaCosts {
    /// `MnaWorkspace::new`.
    pub plan: f64,
    /// First `factor` of a fresh workspace (pivot choice + fill-in).
    pub symbolic: f64,
    /// `assemble` with every device evaluated.
    pub assemble: f64,
    /// `assemble` with every nonlinear device bypassed.
    pub assemble_bypassed: f64,
    /// Pattern-reusing `factor`.
    pub refactor: f64,
    /// `solve_into`.
    pub solve: f64,
}

impl MnaCosts {
    /// Component-wise median of several pricings.
    pub fn median_of(v: &[MnaCosts]) -> MnaCosts {
        let m = |f: fn(&MnaCosts) -> f64| median(&v.iter().map(f).collect::<Vec<_>>());
        MnaCosts {
            plan: m(|c| c.plan),
            symbolic: m(|c| c.symbolic),
            assemble: m(|c| c.assemble),
            assemble_bypassed: m(|c| c.assemble_bypassed),
            refactor: m(|c| c.refactor),
            solve: m(|c| c.solve),
        }
    }
}

/// Nonlinear devices (the ones the bypass can skip).
pub fn nonlinear_devices(nl: &Netlist) -> usize {
    nl.elements()
        .iter()
        .filter(|e| {
            matches!(
                e,
                Element::Diode { .. } | Element::Mos { .. } | Element::SclLoad { .. }
            )
        })
        .count()
}

/// A workload's own netlist and solver state, for pricing the public
/// `MnaWorkspace` calls the solvers make.
pub struct MnaProbe {
    nl: Netlist,
    tech: Technology,
    /// The state the solver first factors at (its initial guess).
    x_first: Vec<f64>,
    /// A state the solver iterates at.
    x: Vec<f64>,
    /// `(time, dt)` of a trapezoidal step from `x`; `None` for DC.
    step: Option<(f64, f64)>,
    cap_currents: Vec<f64>,
    gmin: f64,
    bypass_tol: f64,
}

impl MnaProbe {
    /// DC assembly, first at the zero initial guess, then at `x`.
    pub fn dc(nl: Netlist, tech: Technology, x: Vec<f64>, gmin: f64) -> MnaProbe {
        MnaProbe {
            nl,
            tech,
            x_first: vec![0.0; x.len()],
            x,
            step: None,
            cap_currents: Vec::new(),
            gmin,
            bypass_tol: 0.0,
        }
    }

    /// A trapezoidal step of `dt` ending at `time`, from state `x` with
    /// zero capacitor currents, with the transient's bypass window.
    pub fn transient(
        nl: Netlist,
        tech: Technology,
        x: Vec<f64>,
        (time, dt): (f64, f64),
        gmin: f64,
        bypass_tol: f64,
    ) -> MnaProbe {
        let caps = nl
            .elements()
            .iter()
            .filter(|e| matches!(e, Element::Capacitor { .. }))
            .count();
        MnaProbe {
            nl,
            tech,
            x_first: x.clone(),
            x,
            step: Some((time, dt)),
            cap_currents: vec![0.0; caps],
            gmin,
            bypass_tol,
        }
    }

    pub fn nonlinear(&self) -> usize {
        nonlinear_devices(&self.nl)
    }

    fn mode(&self) -> AssembleMode<'_> {
        match self.step {
            None => AssembleMode::Dc,
            Some((time, dt)) => AssembleMode::Transient {
                time,
                dt,
                prev: &self.x,
                cap_currents: &self.cap_currents,
                method: Integrator::Trapezoidal,
            },
        }
    }

    /// Prices planning and the symbolic factorization once on a fresh
    /// workspace at the first state, and the steady-state calls as the
    /// median of four at the iterated state.
    pub fn price(&self) -> MnaCosts {
        const STEADY: usize = 4;
        let (nl, tech, x, mode, gmin) = (&self.nl, &self.tech, &self.x[..], self.mode(), self.gmin);
        let t0 = Instant::now();
        let mut ws = MnaWorkspace::new(nl, SolverKind::Auto);
        let plan = t0.elapsed().as_secs_f64();
        ws.assemble(nl, tech, &self.x_first, mode, gmin);
        let t0 = Instant::now();
        ws.factor().expect("probe state must factor");
        let symbolic = t0.elapsed().as_secs_f64();
        ws.assemble(nl, tech, x, mode, gmin);
        let assemble = time_median(STEADY, || ws.assemble(nl, tech, x, mode, gmin));
        let refactors0 = ws.numeric_refactorizations();
        let refactor = time_median(STEADY, || ws.factor().expect("probe state must refactor"));
        assert_eq!(
            ws.numeric_refactorizations() - refactors0,
            STEADY,
            "steady-state factor must reuse the pivot order"
        );
        let mut sol = Vec::with_capacity(x.len());
        let solve = time_median(STEADY, || {
            ws.solve_into(&mut sol).expect("probe state must solve");
            black_box(&sol);
        });
        let assemble_bypassed = if self.bypass_tol > 0.0 {
            ws.set_bypass_tol(self.bypass_tol);
            ws.assemble(nl, tech, x, mode, gmin);
            ws.commit_bypass();
            time_median(STEADY, || ws.assemble(nl, tech, x, mode, gmin))
        } else {
            assemble
        };
        MnaCosts {
            plan,
            symbolic,
            assemble,
            assemble_bypassed,
            refactor,
            solve,
        }
    }
}

/// Log-log slope of a cost between two sizes.
pub fn slope(n_small: usize, t_small: f64, n_big: usize, t_big: f64) -> f64 {
    (t_big / t_small).ln() / (n_big as f64 / n_small as f64).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use rand::rngs::SplitMix64;
    use rand::SeedableRng;
    use ulp_spice::dcop::NewtonOptions;
    use ulp_spice::tran::{AdaptiveOptions, Transient};

    fn traced_counts(nl: &Netlist, opts: &AdaptiveOptions) -> Counts {
        let mut counts = Counts::default();
        Transient::run_adaptive_traced(nl, &Technology::default(), opts, &mut counts)
            .expect("pulsed chain simulates");
        counts
    }

    #[test]
    fn counts_repeat_exactly_and_see_every_layer() {
        let chain = gen::chain_tran(&mut SplitMix64::seed_from_u64(4), 12);
        let nl = ulp_ir::flatten(&ulp_ir::parse(&chain.to_ulp()).unwrap()).unwrap();
        let (t_stop, dt_max) = chain.tran.unwrap();
        let mut opts = AdaptiveOptions::new(t_stop, dt_max);
        opts.newton = NewtonOptions {
            max_iter: 800,
            max_step: 0.05,
            ..NewtonOptions::default()
        };
        let a = traced_counts(&nl, &opts);
        assert_eq!(a, traced_counts(&nl, &opts));
        assert!(a.tran_steps > 0 && a.tran_iters > a.tran_steps);
        assert!(a.symbolic >= 1 && a.solves() == a.assembles());
        assert!(a.bypassed > 0, "the latent tail must bypass");
    }

    #[test]
    fn median_trimmed_mean_and_slope() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut v: Vec<f64> = (1..=18).map(f64::from).collect();
        v.extend([1000.0, -1000.0]);
        assert_eq!(trimmed_mean(&v), 9.5);
        assert_eq!(slope(10, 1.0, 100, 100.0), 2.0);
    }
}
