//! `ulp-lint`: design-lint every transistor-level builder netlist and
//! export the findings as SARIF 2.1.0 under `results/lint/`.
//!
//! For each shipped builder circuit — the STSCL buffer across the
//! paper's bias range, the replica-biased buffer, and the ADC front-end
//! pre-amplifier in both well configurations — this runs:
//!
//! 1. the full static lint ([`ulp_spice::lint::run_ctx`]): topology ERC
//!    plus the EKV electrical rules (weak inversion, swing
//!    compatibility, VDD headroom at PVT corners, mismatch budget) and
//!    the RC-vs-timestep numerics rule;
//! 2. a DC operating-point solve followed by the post-solve audit
//!    ([`ulp_spice::lint::audit`]): operating-region violations and
//!    near-singular MNA detection.
//!
//! The merged report is written to `results/lint/<name>.sarif`. Exit is
//! nonzero if any netlist has error-severity findings — or, under
//! `--deny-warnings` (the CI configuration), any warning at all.
//! `--check` re-parses every written SARIF file with the crate's own
//! JSON reader, so CI also proves the exports are well-formed.

use std::path::Path;
use ulp_bench::netlists::builder_netlists;
use ulp_device::Technology;
use ulp_spice::dcop::{DcOperatingPoint, NewtonOptions};
use ulp_spice::lint::{self, LintConfig, LintContext};
use ulp_spice::netlist::Element;
use ulp_spice::sarif;
use ulp_spice::{ErcReport, Netlist, Severity};

/// A timestep resolving the fastest RC in `nl` by a comfortable margin
/// (10 points per τ), mirroring the lint's own r/c scan so the
/// `rc-time-step` rule is exercised — and clean — on every netlist.
fn conservative_dt(nl: &Netlist) -> Option<f64> {
    let mut r_min = f64::INFINITY;
    let mut c_min = f64::INFINITY;
    for e in nl.elements() {
        match e {
            Element::Resistor { ohms, .. } => r_min = r_min.min(*ohms),
            Element::SclLoad { load, iss, .. } => r_min = r_min.min(load.resistance(*iss)),
            Element::Capacitor { farads, .. } => c_min = c_min.min(*farads),
            _ => {}
        }
    }
    (r_min.is_finite() && c_min.is_finite()).then(|| r_min * c_min / 10.0)
}

/// Static lint + DC solve + post-solve audit, merged into one report.
fn lint_netlist(nl: &Netlist, tech: &Technology, config: &LintConfig) -> ErcReport {
    let mut cx = LintContext::with_tech(nl, tech);
    if let Some(dt) = conservative_dt(nl) {
        cx = cx.with_dt(dt);
    }
    let mut merged = lint::run_ctx(&cx, config);
    // The replica netlists mirror nA-class currents through long-channel
    // devices; use the same conservative damping their drivers do.
    let opts = NewtonOptions {
        max_iter: 800,
        max_step: 0.05,
        ..NewtonOptions::default()
    };
    match DcOperatingPoint::solve_with(nl, tech, &opts) {
        Ok(op) => {
            for d in lint::audit(nl, tech, &op, config).diagnostics() {
                merged.push(d.clone());
            }
        }
        Err(err) => {
            // A netlist that fails to solve cannot be audited; surface
            // that as a finding rather than dying mid-run.
            merged.push(
                ulp_spice::Diagnostic::new(
                    Severity::Error,
                    lint::rule::NEAR_SINGULAR,
                    format!("DC operating point failed to solve: {err}"),
                )
                .with_hint("fix convergence before trusting any other result"),
            );
        }
    }
    merged.sort();
    merged
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let deny_warnings = args.iter().any(|a| a == "--deny-warnings");
    let check = args.iter().any(|a| a == "--check");
    if let Some(bad) = args
        .iter()
        .find(|a| *a != "--deny-warnings" && *a != "--check")
    {
        eprintln!("unknown flag {bad}; usage: ulp_lint [--deny-warnings] [--check]");
        std::process::exit(2);
    }

    ulp_bench::header("LINT", "design lints over all builder netlists");
    let tech = Technology::default();
    // A set-but-broken ULP_LINT is a configuration error, not something
    // to lint through silently: name the bad key and stop.
    let config = LintConfig::try_from_env().unwrap_or_else(|err| {
        eprintln!("ulp-lint: {err}");
        std::process::exit(2);
    });
    let dir = Path::new("results/lint");
    std::fs::create_dir_all(dir).expect("create results/lint");

    let mut failed = false;
    for (name, nl) in builder_netlists(&tech) {
        let report = lint_netlist(&nl, &tech, &config);
        let errors = report.count(Severity::Error);
        let warnings = report.count(Severity::Warning);
        let sarif_text = sarif::to_sarif(&report, &format!("netlists/{name}"));
        let path = dir.join(format!("{name}.sarif"));
        std::fs::write(&path, &sarif_text).expect("write sarif");
        if check {
            sarif::validate(&sarif_text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        }
        let bad = errors > 0 || (deny_warnings && warnings > 0);
        println!(
            "  {name:<22} errors {errors}  warnings {warnings}  -> {}",
            path.display()
        );
        if bad {
            failed = true;
            println!("{report}");
        }
    }

    if failed {
        eprintln!("ulp-lint: findings above the configured threshold");
        std::process::exit(1);
    }
    println!("ulp-lint: all builder netlists clean");
}
