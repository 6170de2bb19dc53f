//! OBS: campaign observability exercise and self-check.
//!
//! Runs two representative campaigns under the span profiler — the
//! Fig. 11 parametric-yield ensemble (behavioural, zero solver
//! counters) and a solver-backed STSCL-buffer DC-operating-point
//! sweep (non-zero Newton/solve counters) — then exports the
//! deterministic per-trial cost ledgers and, with `--check`, validates
//! every observability artifact with the built-in readers:
//!
//! * the Chrome trace-event JSON (`results/obs/ulp_obs.trace.json`)
//!   via [`ulp_spice::telemetry::validate_chrome_trace`];
//! * the Prometheus text exposition (`results/obs/ulp_obs.prom`) via
//!   [`ulp_spice::registry::validate_prometheus`].
//!
//! The counter-only ledger written by `--ledger-out` excludes worker
//! identity and wall-clock time, so it is byte-identical at any
//! `ULP_JOBS` — ci.sh compares the `ULP_JOBS=1` and `ULP_JOBS=4`
//! ledgers with `cmp`. An invalid `ULP_JOBS` exits 2 with the reason
//! before any campaign runs. Unlike the figure binaries, this harness
//! installs `ULP_TRACE=spans` itself when no trace mode is set in the
//! environment, so it is self-contained.

use ulp_adc::yield_analysis::{parametric_yield, LinearitySpec};
use ulp_adc::AdcConfig;
use ulp_bench::result;
use ulp_device::Technology;
use ulp_spice::dcop::DcOperatingPoint;
use ulp_spice::telemetry::{self, TraceMode};
use ulp_spice::Waveform;
use ulp_stscl::vtc::SclBufferCircuit;
use ulp_stscl::SclParams;

/// Command-line configuration: `--dies N`, `--ledger-out PATH`,
/// `--check`.
struct Args {
    dies: usize,
    ledger_out: Option<String>,
    check: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        dies: 64,
        ledger_out: None,
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--dies" => {
                let v = it.next().expect("--dies needs a value");
                args.dies = v.parse().expect("--dies must be an integer");
            }
            "--ledger-out" => {
                args.ledger_out = Some(it.next().expect("--ledger-out needs a path"));
            }
            "--check" => args.check = true,
            other => panic!("unknown argument: {other} (try --dies N, --ledger-out PATH, --check)"),
        }
    }
    args
}

fn main() {
    // Self-contained: default to the full span profile when the caller
    // did not pick a mode. `install_global` is first-wins, so an
    // explicit `ULP_TRACE=events` (say) is respected.
    let mode = TraceMode::from_env().unwrap_or(TraceMode::Spans);
    telemetry::install_global(mode);
    let args = parse_args();
    let jobs = ulp_exec::jobs_from_env().unwrap_or_else(|err| {
        eprintln!("ulp_obs: {err}");
        std::process::exit(2);
    });
    ulp_bench::harness(
        "ulp_obs",
        "OBS",
        "campaign observability: span profiler, cost ledger, metrics pipeline",
        || body(&args, jobs),
    );
}

fn body(args: &Args, jobs: usize) {
    let tech = Technology::default();

    // Campaign 1: the paper's Fig. 11 mismatch/yield ensemble. The die
    // measurement is behavioural (no Newton solves), so its ledger
    // records zero solver counters — the report still carries per-trial
    // wall cost and worker utilization.
    println!("--- campaign: parametric yield, {} dies ---", args.dies);
    let report = parametric_yield(
        &tech,
        &AdcConfig::default(),
        LinearitySpec::paper_die(),
        args.dies,
        256 * 32,
    )
    .expect("yield ensemble");
    result("yield fraction", report.yield_fraction(), "");

    // Campaign 2: a solver-backed ensemble, so the ledger's Newton /
    // solve / refactorization counters are non-trivial. Each trial
    // solves the STSCL buffer's DC operating point at a trial-indexed
    // tail bias across the paper's pA..10 nA range.
    println!("--- campaign: STSCL buffer dcop sweep, 16 bias points ---");
    let params = SclParams::default();
    let dcops = ulp_exec::Ensemble::new(16)
        .jobs(jobs)
        .label("obs::dcop")
        .run(|ctx: &mut ulp_exec::TrialCtx| {
            let iss = 10e-12 * 10f64.powf(ctx.index() as f64 * 3.0 / 15.0);
            let circuit = SclBufferCircuit::build(&tech, &params, iss, 0.6, Waveform::Dc(0.05));
            let op = DcOperatingPoint::solve(&circuit.netlist, &tech).expect("dcop solves");
            op.solution().iter().map(|v| v.abs()).sum::<f64>()
        });
    let norm: f64 = dcops.iter().map(|r| *r.as_ref().expect("trial ok")).sum();
    result("dcop solution 1-norm (summed)", norm, "V");

    // Export the deterministic (counter-only) ledgers before the footer
    // drains the reports. Snapshot, don't take: the footer still needs
    // them for the summary tables and the full report JSON.
    let reports = ulp_exec::obs::reports_snapshot();
    assert_eq!(reports.len(), 2, "both campaigns must publish a report");
    if let Some(path) = &args.ledger_out {
        let mut out = String::new();
        for r in &reports {
            out.push_str(&r.counters_json());
        }
        if let Some(dir) = std::path::Path::new(path).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).expect("create ledger directory");
            }
        }
        std::fs::write(path, &out).expect("write ledger");
        println!("counter ledger    : {} campaigns -> {path}", reports.len());
    }

    if args.check {
        run_checks(&reports);
    }
}

/// Validates every observability artifact with the built-in readers
/// and panics (non-zero exit) on the first failure.
fn run_checks(reports: &[ulp_exec::CampaignReport]) {
    println!("--- self-check ---");

    // The span buffer is still intact (the footer drains it later):
    // render and validate the Chrome trace from a snapshot.
    let trace = telemetry::render_chrome_trace(&telemetry::spans_snapshot());
    match telemetry::validate_chrome_trace(&trace) {
        Ok(n) => {
            println!("trace check       : ok ({n} events)");
            assert!(n > 0, "span profile must record events");
        }
        Err(e) => panic!("chrome trace invalid: {e}"),
    }

    // Prometheus exposition round-trips through the validator.
    let registry = telemetry::registry_snapshot().expect("tracing is on");
    assert!(!registry.is_empty(), "campaigns must record registry metrics");
    match ulp_spice::registry::validate_prometheus(&registry.render_prometheus()) {
        Ok(n) => println!("prometheus check  : ok ({n} samples)"),
        Err(e) => panic!("prometheus exposition invalid: {e}"),
    }

    // The solver-backed campaign must have accrued real Newton work;
    // the behavioural one must not.
    let yield_report = &reports[0];
    let dcop_report = &reports[1];
    assert_eq!(yield_report.label, "adc::linearity");
    assert_eq!(dcop_report.label, "obs::dcop");
    assert_eq!(
        yield_report.counters_total().newton_iterations,
        0,
        "behavioural campaign records no solver work"
    );
    assert!(
        dcop_report.counters_total().newton_iterations > 0,
        "solver campaign records Newton work"
    );
    assert!(dcop_report.counters_recorded);
    println!("ledger check      : ok (2 campaigns)");
}
