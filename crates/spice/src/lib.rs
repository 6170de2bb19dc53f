//! A small SPICE-class analog circuit simulator for the ULP-SCL
//! platform.
//!
//! The paper's circuits (STSCL gates, current-mode folders, the
//! decoupled-load pre-amplifier of Fig. 6) were designed and verified
//! with commercial SPICE and foundry models. No analog simulation
//! tooling exists in the Rust ecosystem, so this crate implements the
//! required subset from scratch:
//!
//! * [`netlist`] — circuit description: named nodes, two-terminal and
//!   controlled elements, EKV MOS devices ([`ulp_device::Mosfet`]) with
//!   explicit bulk terminals (required for the bulk-drain-shorted STSCL
//!   load), and the replica-calibrated [`ulp_device::load::PmosLoad`];
//! * [`dcop`] — DC operating point via damped Newton–Raphson over the
//!   modified nodal analysis (MNA) equations, with gmin stepping for
//!   robustness;
//! * [`sweep`] — DC transfer sweeps with solution continuation;
//! * [`tran`] — fixed-step transient analysis (backward Euler or
//!   trapezoidal companion models) with a full Newton solve per step;
//! * [`ac`] — complex-valued small-signal analysis around the DC
//!   operating point;
//! * [`noise`] — output-referred thermal and shot noise, solved on the
//!   same small-signal sweep as [`ac`].
//!
//! Deliberate scope limits, documented here so users are not surprised:
//! no inductors (none appear in the paper's circuits) and no implicit
//! MOS capacitances (attach explicit [`netlist::Netlist::capacitor`]s —
//! the Fig. 6 experiment models the well diode capacitance explicitly).
//!
//! # Linear algebra backends
//!
//! Every analysis solves its MNA systems through a reusable
//! [`mna::MnaWorkspace`] with two interchangeable backends:
//!
//! * **sparse** (default for systems of a handful of unknowns and up) —
//!   compressed row storage, one symbolic analysis per (netlist,
//!   analysis-mode) pair, then allocation-free in-place restamping and
//!   numeric-only refactorization ([`ulp_num::sparse::SparseLu`]) on
//!   every Newton iteration, sweep point and time step;
//! * **dense** — the original [`ulp_num::lu::LuFactor`] path, kept
//!   verbatim as the bitwise-stable oracle the sparse path is tested
//!   against (to 1e-12 in the ∞-norm; see `tests/sparse_equivalence`).
//!
//! Selection: [`dcop::NewtonOptions::solver`]; its default,
//! [`mna::SolverKind::Auto`], goes by system dimension alone. The
//! small-signal analyses ([`ac`], [`noise`]) always run one sparse
//! complex sweep.
//!
//! # Example
//!
//! A resistive divider:
//!
//! ```
//! use ulp_spice::netlist::Netlist;
//! use ulp_spice::dcop::DcOperatingPoint;
//! use ulp_device::Technology;
//!
//! # fn main() -> Result<(), ulp_spice::SimError> {
//! let mut nl = Netlist::new();
//! let vin = nl.node("in");
//! let mid = nl.node("mid");
//! nl.vsource("V1", vin, Netlist::GROUND, 1.0);
//! nl.resistor("R1", vin, mid, 10_000.0);
//! nl.resistor("R2", mid, Netlist::GROUND, 10_000.0);
//! let op = DcOperatingPoint::solve(&nl, &Technology::default())?;
//! assert!((op.voltage(mid) - 0.5).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```
//!
//! # Static analysis / ERC
//!
//! Every analysis entry point ([`dcop::DcOperatingPoint::solve`],
//! [`sweep::dc_sweep`], [`tran::Transient::run`], [`ac::AcResult::run`],
//! [`noise::noise_analysis`]) first runs the electrical rule checker ([`erc::check`]) and refuses
//! netlists whose MNA system would be singular or meaningless: floating
//! nodes, loops of voltage sources, current sources with no return
//! path, undriven MOS gates, duplicate instance names and non-finite
//! values. The failure is a [`SimError::Erc`] carrying severity-tiered
//! [`diag::Diagnostic`]s that name the offending nodes and elements —
//! instead of a zero-pivot index from inside the LU factorisation.
//!
//! ```
//! use ulp_spice::netlist::Netlist;
//! use ulp_spice::dcop::{self, DcOperatingPoint, NewtonOptions};
//! use ulp_spice::mna::{self, AssembleMode};
//! use ulp_spice::telemetry::NullTracer;
//! use ulp_spice::{erc, SimError};
//! use ulp_device::Technology;
//!
//! let mut nl = Netlist::new();
//! let a = nl.node("a");
//! let fl = nl.node("float");
//! nl.vsource("V1", a, Netlist::GROUND, 1.0);
//! nl.resistor("R1", a, Netlist::GROUND, 1e3);
//! nl.capacitor("C1", a, fl, 1e-12); // capacitors are open at DC
//! match DcOperatingPoint::solve(&nl, &Technology::default()) {
//!     Err(SimError::Erc(report)) => {
//!         let d = report.find(erc::rule::FLOATING_NODE).unwrap();
//!         assert!(d.nodes.contains(&"float".to_string()));
//!     }
//!     other => panic!("expected ERC rejection, got {other:?}"),
//! }
//! // The raw Newton driver runs no rule check; gmin pins the node:
//! let x0 = vec![0.0; nl.unknown_count()];
//! let r = dcop::newton_solve_gmin_stepping_traced(
//!     &nl, &Technology::default(), AssembleMode::Dc, &x0,
//!     &NewtonOptions::default(), "dcop", &mut NullTracer,
//! ).unwrap();
//! assert!(mna::voltage_of(&r.x, fl).abs() < 1e-6);
//! ```
//!
//! Every analysis has exactly one gated entry point plus its `*_traced`
//! twin; [`dcop::newton_solve_gmin_stepping_traced`] is the one
//! ungated solve path. A rule can be demoted at run time without code
//! changes (`ULP_LINT=<rule>=warn`), and [`erc::check`] can be called
//! directly for lint-style use. When a singular matrix does slip
//! through (e.g. via the raw Newton driver), the solver maps the
//! zero-pivot elimination step back through the MNA variable ordering
//! to a named node or branch ([`SimError::Singular`], via
//! [`mna::unknown_name`]).
//!
//! # Design lints
//!
//! The ERC rules are one group of the wider design lint framework
//! ([`lint`]): a registry of topology, electrical and numerics rules,
//! each with a configurable level (`allow`/`warn`/`deny` via
//! [`lint::LintConfig`] or the `ULP_LINT` environment variable). The
//! electrical rules apply EKV analytics *without a solve* — weak
//! inversion at the inferred bias, STSCL swing compatibility between
//! cascaded gates, VDD headroom across PVT corners, Pelgrom mismatch
//! budget — and [`lint::audit`] inspects a *solved* operating point for
//! region violations and near-singular MNA systems. Reports export as
//! SARIF 2.1.0 ([`sarif::to_sarif`]) for code-scanning tooling:
//!
//! ```
//! use ulp_spice::netlist::Netlist;
//! use ulp_spice::lint::{self, LintConfig, LintLevel};
//! use ulp_spice::sarif;
//! use ulp_device::{Mosfet, Polarity, Technology};
//! use ulp_device::load::PmosLoad;
//!
//! // An STSCL buffer biased 10 000x past the paper's nA design point.
//! let mut nl = Netlist::new();
//! let vdd = nl.node("vdd");
//! let inp = nl.node("inp");
//! let inn = nl.node("inn");
//! let outp = nl.node("outp");
//! let outn = nl.node("outn");
//! let cs = nl.node("cs");
//! nl.vsource("VDD", vdd, Netlist::GROUND, 1.0);
//! nl.vsource("VINP", inp, Netlist::GROUND, 0.6);
//! nl.vsource("VINN", inn, Netlist::GROUND, 0.6);
//! let pair = Mosfet::new(Polarity::Nmos, 1e-6, 0.5e-6);
//! nl.mosfet("M1", outn, inp, cs, Netlist::GROUND, pair);
//! nl.mosfet("M2", outp, inn, cs, Netlist::GROUND, pair);
//! nl.scl_load("RLP", vdd, outp, PmosLoad::new(0.2), 10e-6);
//! nl.scl_load("RLN", vdd, outn, PmosLoad::new(0.2), 10e-6);
//! nl.isource("ITAIL", cs, Netlist::GROUND, 10e-6);
//!
//! let tech = Technology::default();
//! // Default config: the over-bias is a warning...
//! let report = lint::run(&nl, &tech, &LintConfig::new());
//! let d = report.find(lint::rule::WEAK_INVERSION).unwrap();
//! assert!(report.is_clean());
//! assert!(d.message.contains("inversion coefficient"));
//! // ...but a config (or `ULP_LINT=weak-inversion=deny`) can deny it.
//! let strict = LintConfig::new().set("electrical", LintLevel::Deny);
//! assert!(!lint::run(&nl, &tech, &strict).is_clean());
//! // Findings export as deterministic SARIF 2.1.0 for review tooling.
//! let json = sarif::to_sarif(&report, "netlists/doc-example");
//! assert_eq!(sarif::validate(&json), Ok(report.diagnostics().len()));
//! ```
//!
//! # Sound certification
//!
//! Point analyses — and even Monte-Carlo sweeps — can only sample the
//! PVT/mismatch space. The interval abstract interpreter ([`absint`])
//! *certifies* it: every device becomes a directed-rounding envelope
//! over a [`ulp_device::envelope::PvtBox`] (all five process corners,
//! 233.15–358.15 K, ±6σ Pelgrom mismatch), and [`absint::certify`]
//! returns a solution enclosure plus proofs — `proved-nonsingular`
//! (no die in the box can hit [`SimError::Singular`], shown either
//! structurally or by an interval-Jacobian argument),
//! `proved-infeasible` (a spec fails on *every* die), or `unproven`
//! (box too wide; never an error). The certificates and the sound
//! box variants of the electrical lints join the lint registry under
//! the `certify` group and render through the same SARIF pipeline:
//!
//! ```
//! use ulp_spice::absint::{certify, CertifyOptions};
//! use ulp_spice::dcop::DcOperatingPoint;
//! use ulp_spice::netlist::Netlist;
//! use ulp_device::load::PmosLoad;
//! use ulp_device::{Mosfet, Polarity, Technology};
//!
//! # fn main() -> Result<(), ulp_spice::SimError> {
//! // The paper's STSCL buffer at its 1 nA / 200 mV design point.
//! let mut nl = Netlist::new();
//! let vdd = nl.node("vdd");
//! let inp = nl.node("inp");
//! let inn = nl.node("inn");
//! let outp = nl.node("outp");
//! let outn = nl.node("outn");
//! let cs = nl.node("cs");
//! nl.vsource("VDD", vdd, Netlist::GROUND, 1.0);
//! nl.vsource("VINP", inp, Netlist::GROUND, 0.6);
//! nl.vsource("VINN", inn, Netlist::GROUND, 0.6);
//! let pair = Mosfet::new(Polarity::Nmos, 1e-6, 0.5e-6);
//! nl.mosfet("M1", outn, inp, cs, Netlist::GROUND, pair);
//! nl.mosfet("M2", outp, inn, cs, Netlist::GROUND, pair);
//! nl.scl_load("RLP", vdd, outp, PmosLoad::new(0.2), 1e-9);
//! nl.scl_load("RLN", vdd, outn, PmosLoad::new(0.2), 1e-9);
//! nl.isource("ITAIL", cs, Netlist::GROUND, 1e-9);
//!
//! let tech = Technology::default();
//! let cert = certify(&nl, &tech, &CertifyOptions::default())?;
//! assert!(cert.proved_nonsingular()); // for every die in the box
//! assert!(!cert.proved_infeasible());
//! // Soundness: the concrete solution lies inside the certified box.
//! let op = DcOperatingPoint::solve(&nl, &tech)?;
//! assert!(cert.voltage_box(outp).contains(op.voltage(outp)));
//! # Ok(())
//! # }
//! ```
//!
//! # Telemetry
//!
//! Every analysis also has a `*_traced` twin taking a
//! [`telemetry::Tracer`], which receives structured [`telemetry::Event`]s
//! describing what the solver did: per-Newton-attempt records (iterations,
//! true ∞-norm KCL residual, damping clamps, gmin-ladder rungs, LU
//! pivoting stats, wall-clock), per-transient-step, per-AC-frequency,
//! per-sweep-point and per-noise-point records. The stock tracer is
//! [`telemetry::MetricsCollector`], which aggregates exact
//! [`telemetry::SimMetrics`] (counts, p50/p95/max iterations,
//! gmin-fallback rate, solve time) and, in
//! [`telemetry::TraceMode::Events`], retains the full event log for
//! JSONL export:
//!
//! ```
//! use ulp_spice::netlist::Netlist;
//! use ulp_spice::dcop::{DcOperatingPoint, NewtonOptions};
//! use ulp_spice::telemetry::{MetricsCollector, TraceMode};
//! use ulp_device::Technology;
//!
//! # fn main() -> Result<(), ulp_spice::SimError> {
//! let mut nl = Netlist::new();
//! let a = nl.node("a");
//! nl.isource("I1", Netlist::GROUND, a, 1e-6);
//! nl.diode("D1", a, Netlist::GROUND, 1e-15, 1.0);
//! let mut mc = MetricsCollector::new(TraceMode::Summary);
//! let op = DcOperatingPoint::solve_traced(
//!     &nl,
//!     &Technology::default(),
//!     &NewtonOptions::default(),
//!     &mut mc,
//! )?;
//! assert!(op.voltage(a) > 0.4);
//! let m = mc.metrics();
//! assert_eq!(m.counters.solves, 1);
//! assert!(m.counters.newton_iterations > 1); // the diode is nonlinear
//! println!("{}", m.summary()); // the stable `-- solver metrics --` footer
//! # Ok(())
//! # }
//! ```
//!
//! The *default* entry points route through a process-global collector
//! activated by the `ULP_TRACE` environment variable (`summary` |
//! `events` | `spans`), so existing callers gain telemetry without code
//! changes; with the variable unset the drivers consult a
//! [`telemetry::NullTracer`] and skip event construction and clock
//! reads entirely. See [`telemetry`] for the JSONL schema and the
//! global-collector API ([`telemetry::snapshot`],
//! [`telemetry::take_events`], [`telemetry::phase`]).
//!
//! # Campaign observability
//!
//! `ULP_TRACE=spans` additionally records hierarchical wall-clock spans
//! (campaign → trial → analysis phase → newton attempt, one timeline
//! per ensemble worker) exportable as Chrome trace-event JSON
//! ([`telemetry::render_chrome_trace`], loadable in Perfetto), and the
//! [`registry`] module provides named counters/gauges/histograms with
//! Prometheus text exposition — both fed per-worker and merged in
//! deterministic worker order through the same
//! [`telemetry::worker_capture_on`]/[`telemetry::fold_worker`] seam the
//! aggregates use.

pub mod absint;
pub mod ac;
pub mod dcop;
pub mod diag;
pub mod erc;
pub mod error;
pub mod json;
pub mod lint;
pub mod mna;
pub mod netlist;
pub mod noise;
pub mod registry;
pub mod report;
pub mod sarif;
pub mod sweep;
pub mod telemetry;
pub mod tran;

pub use diag::{Diagnostic, ErcReport, Severity};
pub use error::SimError;
pub use lint::{LintConfig, LintGroup, LintLevel};
pub use netlist::{Netlist, Node, Waveform};
pub use telemetry::{Event, MetricsCollector, SimMetrics, TraceMode, Tracer};
