//! `ulp-check` CLI: explore the `ulp-exec` pool model and emit SARIF.
//!
//! ```text
//! ulp_check [--workers N] [--trials N] [--bound B]
//!           [--walk N --seed S]            # random walk instead of exhaustive DFS
//!           [--fault none|race|fold|cancel] [--cancel]
//!           [--sarif PATH] [--expect-findings]
//! ```
//!
//! Every modelled worker is a real thread, so `--workers` is capped at
//! 8 and `--trials` at 64 (2–3 workers and 4–8 trials are what
//! exhaustive exploration can afford); a larger value is a usage error
//! before any thread starts.
//!
//! Exit status: 0 when the outcome matches expectation (clean by
//! default, defective with `--expect-findings`), 1 on mismatch, 2 on
//! usage errors.

use std::process::ExitCode;

use ulp_check::{explore, Config, Fault, PoolModel, Scenario};

/// Largest accepted `--workers`.
const MAX_WORKERS: usize = 8;
/// Largest accepted `--trials`.
const MAX_TRIALS: usize = 64;

struct Args {
    workers: usize,
    trials: usize,
    bound: usize,
    walk: usize,
    seed: u64,
    fault: Fault,
    cancel: bool,
    sarif: Option<String>,
    expect_findings: bool,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("ulp_check: {msg}");
    eprintln!(
        "usage: ulp_check [--workers N] [--trials N] [--bound B] [--walk N] [--seed S] \
         [--fault none|race|fold|cancel] [--cancel] [--sarif PATH] [--expect-findings]"
    );
    ExitCode::from(2)
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workers: 2,
        trials: 4,
        bound: 2,
        walk: 0,
        seed: 0xC0FFEE,
        fault: Fault::None,
        cancel: false,
        sarif: None,
        expect_findings: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workers" => args.workers = value("--workers")?.parse().map_err(|e| format!("--workers: {e}"))?,
            "--trials" => args.trials = value("--trials")?.parse().map_err(|e| format!("--trials: {e}"))?,
            "--bound" => args.bound = value("--bound")?.parse().map_err(|e| format!("--bound: {e}"))?,
            "--walk" => args.walk = value("--walk")?.parse().map_err(|e| format!("--walk: {e}"))?,
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--fault" => {
                args.fault = match value("--fault")?.as_str() {
                    "none" => Fault::None,
                    "race" => Fault::RacyClaim,
                    "fold" => Fault::CompletionOrderFold,
                    "cancel" => Fault::DroppedCancelResult,
                    other => return Err(format!("unknown fault `{other}`")),
                }
            }
            "--cancel" => args.cancel = true,
            "--sarif" => args.sarif = Some(value("--sarif")?),
            "--expect-findings" => args.expect_findings = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.workers == 0 || args.trials == 0 {
        return Err("--workers and --trials must be positive".to_string());
    }
    if args.workers > MAX_WORKERS {
        return Err(format!(
            "--workers {} exceeds the cap of {MAX_WORKERS}",
            args.workers
        ));
    }
    if args.trials > MAX_TRIALS {
        return Err(format!(
            "--trials {} exceeds the cap of {MAX_TRIALS}",
            args.trials
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    let mut model = PoolModel {
        workers: args.workers,
        trials: args.trials,
        seed: args.seed,
        fault: Fault::None,
        cancel: args.cancel,
    }
    .with_fault(args.fault);
    if args.cancel {
        model.cancel = true;
    }
    let cfg = if args.walk > 0 {
        Config::walk(args.bound, args.seed, args.walk)
    } else {
        Config::exhaustive(args.bound)
    };
    let mode = if args.walk > 0 {
        format!("random walk x{}", args.walk)
    } else {
        "exhaustive".to_string()
    };
    println!(
        "ulp-check: pool model, {} worker(s), {} trial(s), {} thread(s), fault {:?}, bound {}, {mode}",
        model.workers,
        model.trials,
        model.threads(),
        model.fault,
        args.bound,
    );
    let report = explore(&cfg, &model);
    println!("ulp-check: {}", report.summary());
    let erc = report.to_erc();
    if !erc.is_empty() {
        print!("{}", erc.render());
    }
    if let Some(path) = &args.sarif {
        let sarif = report.to_sarif("exec/pool-model");
        if let Some(dir) = std::path::Path::new(path).parent() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("ulp_check: cannot create {}: {e}", dir.display());
                return ExitCode::from(2);
            }
        }
        if let Err(e) = std::fs::write(path, sarif) {
            eprintln!("ulp_check: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("ulp-check: SARIF written to {path}");
    }
    match (report.is_clean(), args.expect_findings) {
        (true, false) => ExitCode::SUCCESS,
        (false, true) => {
            println!("ulp-check: findings expected and found — defect detected as intended");
            ExitCode::SUCCESS
        }
        (true, true) => {
            eprintln!("ulp-check: FAIL — expected the injected defect to be detected, report is clean");
            ExitCode::FAILURE
        }
        (false, false) => {
            eprintln!("ulp-check: FAIL — concurrency findings on a supposedly healthy model");
            ExitCode::FAILURE
        }
    }
}
