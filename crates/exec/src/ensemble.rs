//! The `Job`/`Ensemble` campaign API.

use crate::cancel::CancelToken;
use crate::error::{panic_message, JobsError, TrialError};
use crate::obs::{CampaignReport, TrialCost, TrialOutcome};
use crate::pool;
use crate::sync::{StdSync, SyncCounter, SyncProvider};
use rand::rngs::SplitMix64;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ulp_spice::telemetry;

/// Resolves the worker count from the `ULP_JOBS` environment variable:
/// a positive integer is taken literally (`1` runs every trial on the
/// calling thread); unset or empty falls back to the machine's
/// available parallelism.
///
/// # Panics
///
/// On a set-but-invalid `ULP_JOBS` (`0`, a negative count, garbage) —
/// with the [`JobsError`] message naming the variable. A broken
/// environment is an operator error; silently running on a default
/// worker count would hide it. Use [`jobs_from_env`] for the
/// non-panicking, typed-error form.
pub fn default_jobs() -> usize {
    match jobs_from_env() {
        Ok(jobs) => jobs,
        Err(e) => panic!("{e}"),
    }
}

/// Resolves the worker count from `ULP_JOBS` with a typed error.
///
/// Unset or empty resolves to the machine's available parallelism;
/// a set value must be a positive integer.
///
/// # Errors
///
/// [`JobsError`] describing why the set value was rejected (zero,
/// negative, or not a number), naming `ULP_JOBS` in its rendering.
pub fn jobs_from_env() -> Result<usize, JobsError> {
    resolve_jobs(std::env::var("ULP_JOBS").ok().as_deref())
}

/// The pure resolution rule behind [`jobs_from_env`], testable without
/// touching the process environment: `None`/blank falls back to
/// available parallelism, anything else must parse via
/// [`jobs_from_str`].
fn resolve_jobs(var: Option<&str>) -> Result<usize, JobsError> {
    match var {
        None => Ok(available_parallelism()),
        Some(s) if s.trim().is_empty() => Ok(available_parallelism()),
        Some(s) => jobs_from_str(s),
    }
}

/// Parses one `ULP_JOBS` value.
///
/// # Errors
///
/// [`JobsError::Zero`] for `0`, [`JobsError::Negative`] for a
/// negative integer, [`JobsError::NotANumber`] for everything else
/// that is not a positive integer.
pub fn jobs_from_str(s: &str) -> Result<usize, JobsError> {
    let trimmed = s.trim();
    match trimmed.parse::<usize>() {
        Ok(0) => Err(JobsError::Zero),
        Ok(n) => Ok(n),
        Err(_) => {
            if trimmed.strip_prefix('-').is_some_and(|rest| {
                !rest.is_empty() && rest.chars().all(|c| c.is_ascii_digit())
            }) {
                Err(JobsError::Negative {
                    value: trimmed.to_string(),
                })
            } else {
                Err(JobsError::NotANumber {
                    value: trimmed.to_string(),
                })
            }
        }
    }
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Per-trial context handed to the [`Job`] closure.
///
/// The RNG is derived from the campaign's root seed and the *trial
/// index* alone (`SplitMix64::derive_stream`), never from worker
/// identity or scheduling order — the keystone of the engine's
/// "parallel output is byte-identical to serial output" contract.
#[derive(Debug)]
pub struct TrialCtx {
    index: usize,
    total: usize,
    rng: SplitMix64,
    cancel: CancelToken,
}

impl TrialCtx {
    /// This trial's index, `0..total`.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Number of trials in the campaign.
    pub fn total(&self) -> usize {
        self.total
    }

    /// The trial's private deterministic random stream.
    pub fn rng(&mut self) -> &mut SplitMix64 {
        &mut self.rng
    }

    /// Whether the campaign has been cancelled (long trials may poll
    /// this and return early).
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }
}

/// A unit of campaign work: anything runnable once per trial.
///
/// Blanket-implemented for `Fn(&mut TrialCtx) -> T + Sync` closures, so
/// `ensemble.run(|ctx| ...)` just works; implement it by hand only for
/// jobs carrying non-closure state.
pub trait Job: Sync {
    /// The per-trial result type.
    type Output: Send;

    /// Runs one trial.
    fn run(&self, ctx: &mut TrialCtx) -> Self::Output;
}

impl<T: Send, F: Fn(&mut TrialCtx) -> T + Sync> Job for F {
    type Output = T;

    fn run(&self, ctx: &mut TrialCtx) -> T {
        self(ctx)
    }
}

/// A progress report, delivered to the campaign's callback after a
/// trial finishes (including trials that panicked or were skipped as
/// cancelled). With a rate limit installed
/// ([`Ensemble::progress_interval`]) intermediate reports may be
/// suppressed, but the final (`completed == total`) report always
/// fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Progress {
    /// Trials finished so far (monotone across callbacks).
    pub completed: usize,
    /// Total trials in the campaign.
    pub total: usize,
    /// Index of the trial that just finished.
    pub trial: usize,
    /// Worker that ran it (0 on the serial path).
    pub worker: usize,
    /// Estimated throughput, trials per second, over a sliding window
    /// of recent completions (0 until the clock has advanced).
    pub rate_per_sec: f64,
    /// Estimated seconds until the campaign completes at the current
    /// rate (0 when done, `f64::INFINITY` while the rate is unknown).
    pub eta_seconds: f64,
}

type ProgressFn = dyn Fn(&Progress) + Send + Sync;

/// How many recent completions the throughput estimator remembers.
const RATE_WINDOW: usize = 32;

/// The progress pacer: a sliding-window trials/sec estimator plus the
/// optional callback rate limiter, shared by all workers under one
/// `Mutex` (taken only when a progress callback is installed).
struct Pacer {
    started: Instant,
    /// `(when, completed)` samples, oldest first, at most
    /// [`RATE_WINDOW`] long.
    window: VecDeque<(Instant, usize)>,
    last_emit: Option<Instant>,
    min_interval: Option<Duration>,
}

impl Pacer {
    fn new(min_interval: Option<Duration>) -> Self {
        Pacer {
            started: Instant::now(),
            window: VecDeque::with_capacity(RATE_WINDOW),
            last_emit: None,
            min_interval,
        }
    }

    /// Records one completion; returns `Some((rate, eta))` when the
    /// callback should fire for it.
    fn note(&mut self, completed: usize, total: usize) -> Option<(f64, f64)> {
        let now = Instant::now();
        if self.window.len() == RATE_WINDOW {
            self.window.pop_front();
        }
        let rate = match self.window.front() {
            Some(&(t0, c0)) if completed > c0 && now > t0 => {
                (completed - c0) as f64 / now.duration_since(t0).as_secs_f64()
            }
            _ => {
                let dt = now.duration_since(self.started).as_secs_f64();
                if dt > 0.0 {
                    completed as f64 / dt
                } else {
                    0.0
                }
            }
        };
        self.window.push_back((now, completed));
        let remaining = total.saturating_sub(completed);
        let eta = if remaining == 0 {
            0.0
        } else if rate > 0.0 {
            remaining as f64 / rate
        } else {
            f64::INFINITY
        };
        let fire = completed >= total
            || match (self.min_interval, self.last_emit) {
                (None, _) | (Some(_), None) => true,
                (Some(iv), Some(last)) => now.duration_since(last) >= iv,
            };
        if fire {
            self.last_emit = Some(now);
            Some((rate, eta))
        } else {
            None
        }
    }
}

/// A campaign of `N` indexed trials: the engine's entry point.
///
/// `run` executes the [`Job`] once per trial on `jobs` workers
/// (default: `ULP_JOBS`, else available parallelism), each claiming the
/// next unstarted trial from one shared counter, and gathers results
/// **by trial index**, so reductions downstream see index order no
/// matter which worker finished first. With `jobs = 1` the one worker
/// is the calling thread — no threads are spawned at all — and the
/// engine's contract is that every worker count produces
/// byte-identical results.
pub struct Ensemble {
    trials: usize,
    root_seed: u64,
    jobs: Option<usize>,
    label: String,
    cancel: CancelToken,
    progress: Option<Box<ProgressFn>>,
    progress_every: Option<Duration>,
}

impl fmt::Debug for Ensemble {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ensemble")
            .field("trials", &self.trials)
            .field("root_seed", &self.root_seed)
            .field("jobs", &self.jobs)
            .field("label", &self.label)
            .field("cancelled", &self.cancel.is_cancelled())
            .field("progress", &self.progress.as_ref().map(|_| "<callback>"))
            .finish()
    }
}

impl Ensemble {
    /// A campaign of `trials` trials with root seed 0, default worker
    /// count, and no progress callback.
    pub fn new(trials: usize) -> Self {
        Ensemble {
            trials,
            root_seed: 0,
            jobs: None,
            label: "campaign".to_string(),
            cancel: CancelToken::new(),
            progress: None,
            progress_every: None,
        }
    }

    /// Sets the root seed all per-trial streams derive from.
    pub fn seed(mut self, root_seed: u64) -> Self {
        self.root_seed = root_seed;
        self
    }

    /// Overrides the worker count (clamped to ≥ 1); without this the
    /// engine consults [`default_jobs`] at run time.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = Some(jobs.max(1));
        self
    }

    /// Names the campaign; the name tags the `exec::<label>` phase
    /// event recorded on the solver-telemetry collector.
    pub fn label(mut self, label: &str) -> Self {
        self.label = label.to_string();
        self
    }

    /// Installs a progress callback, invoked after every finished trial
    /// (possibly concurrently from several workers).
    pub fn on_progress(mut self, f: impl Fn(&Progress) + Send + Sync + 'static) -> Self {
        self.progress = Some(Box::new(f));
        self
    }

    /// Rate-limits the progress callback: intermediate reports fire at
    /// most once per `interval` (high-trial-count campaigns otherwise
    /// pay a callback per trial). The first report and the final
    /// (`completed == total`) report always fire. Without this, every
    /// trial reports — the default, which cancellation-from-callback
    /// tests and fine-grained consumers rely on.
    pub fn progress_interval(mut self, interval: Duration) -> Self {
        self.progress_every = Some(interval);
        self
    }

    /// A handle for cancelling the campaign from outside (or from a
    /// progress callback).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Runs the job over every trial; element `i` of the returned vec
    /// is trial `i`'s outcome. A panicking trial yields
    /// [`TrialError::Panicked`] in its own slot and nothing else.
    pub fn run<J: Job>(&self, job: J) -> Vec<Result<J::Output, TrialError>> {
        self.run_with_report(job).0
    }

    /// [`Ensemble::run`], additionally returning the campaign's
    /// [`CampaignReport`] — the per-trial cost ledger in trial-index
    /// order with summary statistics. The report's counter fields are
    /// populated only when telemetry is active (a worker collector
    /// records the solver's work); its wall-clock fields are
    /// best-effort observability data and never influence results.
    ///
    /// When telemetry is active the report is also published to the
    /// process-wide log ([`crate::obs::take_reports`]) for footer
    /// rendering.
    pub fn run_with_report<J: Job>(
        &self,
        job: J,
    ) -> (Vec<Result<J::Output, TrialError>>, CampaignReport) {
        let jobs = self
            .jobs
            .unwrap_or_else(default_jobs)
            .clamp(1, self.trials.max(1));
        let name = format!("exec::{}", self.label);
        let (results, report) = telemetry::span("campaign", &name, None, || {
            telemetry::phase(&name, || self.run_on(jobs, &job))
        });
        if telemetry::global_enabled() {
            crate::obs::publish(report.clone());
        }
        (results, report)
    }

    /// Runs the job and folds the per-trial outputs **in trial-index
    /// order** with `fold`, short-circuiting on the first failed trial.
    ///
    /// # Errors
    ///
    /// The first (lowest-index) [`TrialError`] of the campaign.
    pub fn run_reduce<J: Job, A>(
        &self,
        job: J,
        init: A,
        mut fold: impl FnMut(A, J::Output) -> A,
    ) -> Result<A, TrialError> {
        let mut acc = init;
        for r in self.run(job) {
            acc = fold(acc, r?);
        }
        Ok(acc)
    }

    fn run_on<J: Job>(
        &self,
        jobs: usize,
        job: &J,
    ) -> (Vec<Result<J::Output, TrialError>>, CampaignReport) {
        let total = self.trials;
        let campaign_start = Instant::now();
        let counters_recorded = telemetry::global_enabled();
        // Routed through the sync shim so the model checker sees the
        // same counter discipline production uses.
        let completed = <StdSync as SyncProvider>::AtomicUsize::new(0);
        let pacer = Mutex::new(Pacer::new(self.progress_every));
        let root = SplitMix64::seed_from_u64(self.root_seed);
        let label: Arc<str> = Arc::from(self.label.as_str());
        let run_one = |trial: usize, worker: usize| -> (Result<J::Output, TrialError>, TrialCost) {
            let trial_start = Instant::now();
            let counters_before = telemetry::local_counters();
            let result = if self.cancel.is_cancelled() {
                Err(TrialError::Cancelled { trial })
            } else {
                let mut ctx = TrialCtx {
                    index: trial,
                    total,
                    rng: root.derive_stream(trial as u64),
                    cancel: self.cancel.clone(),
                };
                // Trial context tags this trial's telemetry events; the
                // span puts the trial on its worker's trace timeline.
                telemetry::with_trial_context(label.clone(), trial, || {
                    telemetry::span("trial", &label, Some(trial), || {
                        catch_unwind(AssertUnwindSafe(|| job.run(&mut ctx))).map_err(|payload| {
                            TrialError::Panicked {
                                trial,
                                message: panic_message(payload.as_ref()),
                            }
                        })
                    })
                })
            };
            let seconds = trial_start.elapsed().as_secs_f64();
            let counters = match (counters_before, telemetry::local_counters()) {
                (Some(before), Some(after)) => after.delta_since(before),
                _ => Default::default(),
            };
            let outcome = match &result {
                Ok(_) => TrialOutcome::Ok,
                Err(TrialError::Panicked { .. }) => TrialOutcome::Panicked,
                Err(TrialError::Cancelled { .. }) => TrialOutcome::Cancelled,
            };
            // Registry shards (no-ops when tracing is off): counters are
            // deterministic totals, the histogram is observability-only.
            telemetry::counter_add("ulp_trials_total", 1);
            if outcome == TrialOutcome::Panicked {
                telemetry::counter_add("ulp_trial_panics_total", 1);
            }
            if counters.newton_iterations > 0 {
                telemetry::counter_add(
                    "ulp_newton_iterations_total",
                    counters.newton_iterations as u64,
                );
            }
            telemetry::observe_seconds("ulp_trial_seconds", seconds);
            if let Some(cb) = &self.progress {
                let done = completed.fetch_add_acq_rel(1) + 1;
                let update = pacer
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .note(done, total);
                if let Some((rate_per_sec, eta_seconds)) = update {
                    cb(&Progress {
                        completed: done,
                        total,
                        trial,
                        worker,
                        rate_per_sec,
                        eta_seconds,
                    });
                }
            }
            let cost = TrialCost {
                trial,
                worker,
                seconds,
                outcome,
                counters,
            };
            (result, cost)
        };

        // Every worker runs the same claim loop on one shared counter;
        // a lone worker runs it on the calling thread, with no spawn.
        let next = <StdSync as SyncProvider>::AtomicUsize::new(0);
        let claim = |w: usize| {
            telemetry::worker_capture_on(w, || pool::worker_loop(w, &next, total, &run_one))
        };
        // Per-worker (batch, collector) pairs, in worker-index order.
        type WorkerBatch<T> = (
            Vec<(usize, (Result<T, TrialError>, TrialCost))>,
            Option<telemetry::MetricsCollector>,
        );
        let worker_batches: Vec<WorkerBatch<J::Output>> = if jobs == 1 {
            vec![claim(0)]
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..jobs)
                    .map(|w| {
                        let claim = &claim;
                        s.spawn(move || claim(w))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker thread machinery must not panic"))
                    .collect()
            })
        };

        // Deterministic gather: results and ledger entries land in
        // their trial slot, and worker telemetry folds into the global
        // collector in worker-index order — never completion order.
        let mut slots: Vec<Option<Result<J::Output, TrialError>>> =
            (0..total).map(|_| None).collect();
        let mut costs: Vec<Option<TrialCost>> = (0..total).map(|_| None).collect();
        for (batch, collector) in worker_batches {
            for (trial, (result, cost)) in batch {
                debug_assert!(slots[trial].is_none(), "trial scheduled twice");
                slots[trial] = Some(result);
                costs[trial] = Some(cost);
            }
            if let Some(mc) = collector {
                telemetry::fold_worker(&mc);
            }
        }
        let report = CampaignReport {
            label: self.label.clone(),
            trials: total,
            jobs,
            root_seed: self.root_seed,
            wall_seconds: campaign_start.elapsed().as_secs_f64(),
            counters_recorded,
            costs: costs
                .into_iter()
                .map(|c| c.expect("every trial costed exactly once"))
                .collect(),
        };
        let results = slots
            .into_iter()
            .map(|s| s.expect("every trial scheduled exactly once"))
            .collect();
        (results, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// A stochastic trial: its output depends only on (root seed,
    /// index) if the seed-derivation contract holds.
    fn noisy_trial(ctx: &mut TrialCtx) -> (usize, u64, f64) {
        let first: u64 = ctx.rng().gen();
        let mean = (0..100).map(|_| ctx.rng().gen::<f64>()).sum::<f64>() / 100.0;
        (ctx.index(), first, mean)
    }

    #[test]
    fn parallel_equals_serial_exactly() {
        let serial = Ensemble::new(17).seed(42).jobs(1).run(noisy_trial);
        let parallel = Ensemble::new(17).seed(42).jobs(4).run(noisy_trial);
        let s: Vec<_> = serial.into_iter().map(Result::unwrap).collect();
        let p: Vec<_> = parallel.into_iter().map(Result::unwrap).collect();
        assert_eq!(s, p, "trial outputs must not depend on scheduling");
        for (i, (idx, _, _)) in s.iter().enumerate() {
            assert_eq!(*idx, i, "gather must be in trial-index order");
        }
    }

    #[test]
    fn different_root_seeds_give_different_trials() {
        let a = Ensemble::new(4).seed(1).jobs(1).run(noisy_trial);
        let b = Ensemble::new(4).seed(2).jobs(1).run(noisy_trial);
        assert_ne!(a[0].as_ref().unwrap(), b[0].as_ref().unwrap());
    }

    #[test]
    fn panicking_trial_is_isolated() {
        for jobs in [1, 4] {
            let results = Ensemble::new(8).jobs(jobs).run(|ctx: &mut TrialCtx| {
                assert!(ctx.index() != 3, "die 3 is cursed");
                ctx.index() * 10
            });
            assert_eq!(results.len(), 8);
            for (i, r) in results.iter().enumerate() {
                if i == 3 {
                    let err = r.as_ref().unwrap_err();
                    assert_eq!(err.trial(), 3);
                    assert!(
                        err.to_string().contains("cursed"),
                        "payload must surface: {err}"
                    );
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i * 10, "siblings unpoisoned");
                }
            }
        }
    }

    #[test]
    fn cancel_before_run_skips_every_trial() {
        let ensemble = Ensemble::new(5).jobs(2);
        ensemble.cancel_token().cancel();
        let ran = AtomicBool::new(false);
        let results = ensemble.run(|_ctx: &mut TrialCtx| {
            ran.store(true, Ordering::Relaxed);
        });
        assert!(!ran.load(Ordering::Relaxed), "no trial body may run");
        for (i, r) in results.iter().enumerate() {
            assert_eq!(*r.as_ref().unwrap_err(), TrialError::Cancelled { trial: i });
        }
    }

    #[test]
    fn cancel_from_progress_callback_stops_the_serial_tail() {
        let ensemble = Ensemble::new(6).jobs(1);
        let token = ensemble.cancel_token();
        let ensemble = ensemble.on_progress(move |p| {
            if p.completed == 2 {
                token.cancel();
            }
        });
        let results = ensemble.run(|ctx: &mut TrialCtx| ctx.index());
        // Serial order: trials 0 and 1 ran, the rest were skipped.
        assert!(results[0].is_ok() && results[1].is_ok());
        for r in &results[2..] {
            assert!(matches!(r, Err(TrialError::Cancelled { .. })));
        }
    }

    #[test]
    fn progress_reports_every_trial_once() {
        let seen = std::sync::Arc::new(Mutex::new(Vec::new()));
        let completed_max = std::sync::Arc::new(AtomicUsize::new(0));
        // Progress callbacks fire concurrently; collect under a lock.
        let (seen_cb, max_cb) = (seen.clone(), completed_max.clone());
        let results = Ensemble::new(20)
            .jobs(4)
            .on_progress(move |p: &Progress| {
                assert_eq!(p.total, 20);
                assert!(p.worker < 4);
                max_cb.fetch_max(p.completed, Ordering::Relaxed);
                seen_cb.lock().unwrap().push(p.trial);
            })
            .run(|ctx: &mut TrialCtx| ctx.index());
        assert_eq!(results.len(), 20);
        let mut trials = seen.lock().unwrap().clone();
        trials.sort_unstable();
        assert_eq!(trials, (0..20).collect::<Vec<_>>());
        assert_eq!(completed_max.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn run_reduce_folds_in_index_order_and_short_circuits() {
        let concat = Ensemble::new(5)
            .jobs(3)
            .run_reduce(
                |ctx: &mut TrialCtx| ctx.index().to_string(),
                String::new(),
                |acc, s| acc + &s,
            )
            .unwrap();
        assert_eq!(concat, "01234");
        let err = Ensemble::new(5)
            .jobs(3)
            .run_reduce(
                |ctx: &mut TrialCtx| assert!(ctx.index() < 2),
                (),
                |(), ()| (),
            )
            .unwrap_err();
        assert_eq!(err.trial(), 2, "lowest failing index wins");
    }

    #[test]
    fn zero_trials_is_a_clean_no_op() {
        let results = Ensemble::new(0).jobs(4).run(|ctx: &mut TrialCtx| ctx.index());
        assert!(results.is_empty());
    }

    #[test]
    fn more_workers_than_trials_is_fine() {
        let results = Ensemble::new(2).jobs(64).run(|ctx: &mut TrialCtx| ctx.index());
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(Result::is_ok));
    }

    #[test]
    fn idle_workers_claim_every_trial_a_slow_one_leaves() {
        // Trial 0 holds its worker until every other trial has
        // finished, so the remaining workers must claim all of 1..N;
        // any static partition of the indices leaves some of them
        // queued behind trial 0 and trips the deadline.
        const N: usize = 24;
        let reference = Ensemble::new(N).seed(9).jobs(1).run(noisy_trial);
        for jobs in [2, 4] {
            let finished = AtomicUsize::new(0);
            let runs: Vec<AtomicUsize> = (0..N).map(|_| AtomicUsize::new(0)).collect();
            let ensemble = Ensemble::new(N).seed(9).jobs(jobs);
            let results = ensemble.run(|ctx: &mut TrialCtx| {
                runs[ctx.index()].fetch_add(1, Ordering::Relaxed);
                if ctx.index() == 0 {
                    let deadline = Instant::now() + Duration::from_secs(60);
                    while finished.load(Ordering::Acquire) < N - 1 {
                        assert!(
                            Instant::now() < deadline,
                            "trials 1..{N} were not drained by the other {} worker(s)",
                            jobs - 1
                        );
                        std::thread::yield_now();
                    }
                }
                let out = noisy_trial(ctx);
                finished.fetch_add(1, Ordering::Release);
                out
            });
            assert!(
                runs.iter().all(|r| r.load(Ordering::Relaxed) == 1),
                "jobs {jobs}"
            );
            assert_eq!(results, reference, "jobs {jobs}");
        }
    }

    #[test]
    fn jobs_parsing_accepts_positive_integers() {
        assert_eq!(jobs_from_str("4"), Ok(4));
        assert_eq!(jobs_from_str(" 1 "), Ok(1));
        assert_eq!(jobs_from_str("64"), Ok(64));
    }

    #[test]
    fn jobs_parsing_rejects_zero_with_a_typed_error() {
        assert_eq!(jobs_from_str("0"), Err(JobsError::Zero));
        assert_eq!(jobs_from_str(" 0 "), Err(JobsError::Zero));
    }

    #[test]
    fn jobs_parsing_rejects_negatives_with_a_typed_error() {
        assert_eq!(
            jobs_from_str("-2"),
            Err(JobsError::Negative { value: "-2".into() })
        );
        assert_eq!(
            jobs_from_str("-999"),
            Err(JobsError::Negative {
                value: "-999".into()
            })
        );
    }

    #[test]
    fn jobs_parsing_rejects_garbage_with_a_typed_error() {
        for garbage in ["many", "4.5", "1e3", "four", "--3", "-", "0x10"] {
            assert_eq!(
                jobs_from_str(garbage),
                Err(JobsError::NotANumber {
                    value: garbage.into()
                }),
                "{garbage:?} must be rejected as not-a-number"
            );
        }
    }

    #[test]
    fn jobs_resolution_falls_back_only_when_unset_or_blank() {
        assert!(resolve_jobs(None).unwrap() >= 1, "unset: machine default");
        assert!(resolve_jobs(Some("")).unwrap() >= 1, "empty: machine default");
        assert!(resolve_jobs(Some("  ")).unwrap() >= 1, "blank: machine default");
        assert_eq!(resolve_jobs(Some("3")), Ok(3));
        assert_eq!(resolve_jobs(Some("0")), Err(JobsError::Zero));
        assert_eq!(
            resolve_jobs(Some("-1")),
            Err(JobsError::Negative { value: "-1".into() })
        );
        assert_eq!(
            resolve_jobs(Some("lots")),
            Err(JobsError::NotANumber {
                value: "lots".into()
            })
        );
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn debug_does_not_explode_on_callbacks() {
        let e = Ensemble::new(3).jobs(2).label("dbg").on_progress(|_| {});
        let s = format!("{e:?}");
        assert!(s.contains("dbg") && s.contains("<callback>"), "{s}");
    }

    #[test]
    fn run_with_report_ledger_is_index_ordered_and_complete() {
        for jobs in [1, 4] {
            let (results, report) = Ensemble::new(9)
                .seed(3)
                .jobs(jobs)
                .label("ledger")
                .run_with_report(noisy_trial);
            assert_eq!(results.len(), 9);
            assert_eq!(report.label, "ledger");
            assert_eq!((report.trials, report.jobs, report.root_seed), (9, jobs, 3));
            assert_eq!(report.costs.len(), 9);
            for (i, c) in report.costs.iter().enumerate() {
                assert_eq!(c.trial, i, "ledger must be in trial-index order");
                assert!(c.worker < jobs);
                assert!(c.seconds >= 0.0);
                assert_eq!(c.outcome, crate::obs::TrialOutcome::Ok);
            }
            assert!(report.wall_seconds >= 0.0);
        }
    }

    #[test]
    fn ledger_counter_subset_is_byte_identical_across_job_counts() {
        // noisy_trial never touches the solver, so the counters are all
        // zero — but the *rendering* (trial order, outcomes, structure)
        // must still match byte-for-byte between schedules.
        let (_, serial) = Ensemble::new(12).seed(5).jobs(1).run_with_report(noisy_trial);
        let (_, parallel) = Ensemble::new(12).seed(5).jobs(4).run_with_report(noisy_trial);
        assert_eq!(serial.counters_json(), parallel.counters_json());
    }

    #[test]
    fn ledger_records_panicked_and_cancelled_outcomes() {
        let (_, report) = Ensemble::new(6).jobs(1).run_with_report(|ctx: &mut TrialCtx| {
            assert!(ctx.index() != 2, "die 2 is cursed");
        });
        assert_eq!(report.costs[2].outcome, crate::obs::TrialOutcome::Panicked);
        assert_eq!(report.panicked_trials(), 1);
        assert_eq!(report.ok_trials(), 5);

        let ensemble = Ensemble::new(4).jobs(1);
        ensemble.cancel_token().cancel();
        let (_, report) = ensemble.run_with_report(|_ctx: &mut TrialCtx| ());
        assert_eq!(report.cancelled_trials(), 4);
        assert!(report
            .costs
            .iter()
            .all(|c| c.outcome == crate::obs::TrialOutcome::Cancelled));
    }

    #[test]
    fn progress_carries_rate_and_eta() {
        let final_report = std::sync::Arc::new(Mutex::new(None));
        let sink = final_report.clone();
        Ensemble::new(10)
            .jobs(2)
            .on_progress(move |p: &Progress| {
                assert!(p.rate_per_sec >= 0.0);
                assert!(p.eta_seconds >= 0.0);
                if p.completed == p.total {
                    *sink.lock().unwrap() = Some(*p);
                }
            })
            .run(|ctx: &mut TrialCtx| ctx.index());
        let last = final_report.lock().unwrap().expect("final report fires");
        assert_eq!(last.completed, 10);
        assert_eq!(last.eta_seconds, 0.0, "done means zero ETA");
    }

    #[test]
    fn progress_interval_rate_limits_but_always_fires_the_final_report() {
        let calls = std::sync::Arc::new(AtomicUsize::new(0));
        let saw_final = std::sync::Arc::new(AtomicBool::new(false));
        let (calls_cb, final_cb) = (calls.clone(), saw_final.clone());
        Ensemble::new(200)
            .jobs(1)
            .progress_interval(std::time::Duration::from_secs(3600))
            .on_progress(move |p: &Progress| {
                calls_cb.fetch_add(1, Ordering::Relaxed);
                if p.completed == p.total {
                    final_cb.store(true, Ordering::Relaxed);
                }
            })
            .run(|ctx: &mut TrialCtx| ctx.index());
        let n = calls.load(Ordering::Relaxed);
        assert!(n < 200, "an hour-long interval must suppress per-trial reports, got {n}");
        assert!(saw_final.load(Ordering::Relaxed), "final report always fires");
    }

    #[test]
    fn pacer_window_rate_and_eta_units() {
        let mut p = Pacer::new(None);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let (rate, eta) = p.note(1, 3).expect("unlimited pacer always fires");
        assert!(rate > 0.0, "clock advanced, rate known: {rate}");
        assert!(eta.is_finite() && eta > 0.0);
        let (_, eta) = p.note(3, 3).expect("final always fires");
        assert_eq!(eta, 0.0);
        // The window never outgrows its bound.
        for k in 0..100 {
            let _ = p.note(k, 1000);
        }
        assert!(p.window.len() <= RATE_WINDOW);
    }
}
