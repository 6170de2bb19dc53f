//! The `ulp-exec` pool model: a scaled-down campaign (2–3 workers,
//! 4–8 trials) run through the **shipped** scheduling code —
//! [`ulp_exec::pool::worker_loop`] claiming from one virtual counter,
//! and [`CancelToken`] — instantiated with the [`Virtual`] provider,
//! under every schedule the explorer generates.
//!
//! The invariant checked on each schedule is the engine's determinism
//! contract: every trial gathered exactly once, every gathered value
//! bit-identical to the serial reference, cancellation leaving either a
//! complete value or a clean `Cancelled` marker — never a hole.
//!
//! [`Fault`] injects the defects the toolkit exists to catch, each a
//! realistic regression of the real engine, so the test suite can
//! assert the explorer/auditor actually fires:
//!
//! * [`Fault::RacyClaim`] — the claim counter's atomic fetch-add
//!   "optimized" into a plain `next += 1` (a [`RaceCell`] read, then a
//!   write) → `race`, and a trial gathered twice;
//! * [`Fault::CompletionOrderFold`] — telemetry folded in completion
//!   order instead of index order → `non-deterministic-fold`;
//! * [`Fault::DroppedCancelResult`] — a late cancellation check that
//!   drops an already-computed result record → `lost-cancel`.

use rand::rngs::SplitMix64;
use rand::{RngCore, SeedableRng};

use ulp_exec::pool;
use ulp_exec::sync::{SyncCounter, SyncProvider};
use ulp_exec::CancelToken;
use ulp_spice::lint::rule;

use crate::report::Finding;
use crate::sync::{Mutex, RaceCell, Virtual};
use crate::Scenario;

type VAtomicUsize = <Virtual as SyncProvider>::AtomicUsize;

/// A deliberately broken variant of the pool, or none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The shipped, healthy pool.
    None,
    /// The claim counter as a plain `next += 1`: a read, then a write.
    RacyClaim,
    /// Telemetry folded in completion order.
    CompletionOrderFold,
    /// A result record dropped when cancellation lands mid-trial.
    DroppedCancelResult,
}

/// One trial's gathered outcome in the model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trial {
    /// The trial's deterministic value (the serial reference is
    /// recomputable from seed and index alone).
    Value(u64),
    /// Skipped after cancellation — a legitimate, complete outcome.
    Cancelled,
}

/// The scaled-down campaign scenario.
#[derive(Debug, Clone)]
pub struct PoolModel {
    /// Worker thread count (2–3 keeps exhaustive exploration tractable).
    pub workers: usize,
    /// Trial count (4–8).
    pub trials: usize,
    /// Root seed for the per-trial reference values.
    pub seed: u64,
    /// Which defect to inject, if any.
    pub fault: Fault,
    /// Adds a canceller thread that raises the [`CancelToken`] at
    /// whatever point the schedule places it.
    pub cancel: bool,
}

impl PoolModel {
    /// The healthy pool, no cancellation.
    pub fn healthy(workers: usize, trials: usize, seed: u64) -> Self {
        PoolModel {
            workers,
            trials,
            seed,
            fault: Fault::None,
            cancel: false,
        }
    }

    /// The healthy pool with a schedule-placed cancellation.
    pub fn cancelling(workers: usize, trials: usize, seed: u64) -> Self {
        PoolModel {
            cancel: true,
            ..PoolModel::healthy(workers, trials, seed)
        }
    }

    /// Injects `fault` into this model.
    pub fn with_fault(mut self, fault: Fault) -> Self {
        self.fault = fault;
        if fault == Fault::DroppedCancelResult {
            self.cancel = true; // the defect only fires under cancellation
        }
        self
    }

    /// The serial reference value of `trial` — same derivation the real
    /// engine uses (`SplitMix64::derive_stream(trial)`).
    pub fn reference(&self, trial: usize) -> u64 {
        SplitMix64::seed_from_u64(self.seed)
            .derive_stream(trial as u64)
            .next_u64()
    }

    fn run_one(&self, trial: usize, state: &PoolState) -> Option<Trial> {
        match self.fault {
            Fault::DroppedCancelResult => {
                // BUG under test: compute first, check cancellation last,
                // and drop the whole record when it fires — the gather
                // ends up with a hole instead of a Cancelled marker.
                let v = self.reference(trial);
                state.progress.fetch_add_acq_rel(1);
                if state.cancel.is_cancelled() {
                    None
                } else {
                    Some(Trial::Value(v))
                }
            }
            _ => {
                if state.cancel.is_cancelled() {
                    return Some(Trial::Cancelled);
                }
                let v = self.reference(trial);
                state.progress.fetch_add_acq_rel(1);
                if self.fault == Fault::CompletionOrderFold {
                    state.log.with(|l| l.push(trial));
                }
                Some(Trial::Value(v))
            }
        }
    }

    /// Order-sensitive fold a broken implementation might compute from
    /// a completion log.
    fn order_hash(log: &[usize]) -> u64 {
        log.iter()
            .fold(0u64, |h, &t| h.wrapping_mul(31).wrapping_add(t as u64 + 1))
    }
}

/// The model's claim counter: the shipped virtual atomic, or under
/// [`Fault::RacyClaim`] the same claim split into an unordered read
/// and write.
enum Claim {
    Atomic(VAtomicUsize),
    Racy(RaceCell<usize>),
}

impl SyncCounter for Claim {
    fn new(value: usize) -> Self {
        Claim::Atomic(VAtomicUsize::new(value))
    }

    fn fetch_add_acq_rel(&self, n: usize) -> usize {
        match self {
            Claim::Atomic(next) => next.fetch_add_acq_rel(n),
            Claim::Racy(next) => {
                let claimed = next.with_read(|v| *v);
                next.with_write(|v| *v = claimed + n);
                claimed
            }
        }
    }
}

/// Shared state of one modelled campaign.
pub struct PoolState {
    next: Claim,
    cancel: CancelToken<Virtual>,
    progress: VAtomicUsize,
    batches: Vec<Mutex<Vec<(usize, Trial)>>>,
    log: Mutex<Vec<usize>>,
}

impl Scenario for PoolModel {
    type State = PoolState;

    fn threads(&self) -> usize {
        self.workers + usize::from(self.cancel)
    }

    fn setup(&self) -> PoolState {
        PoolState {
            next: if self.fault == Fault::RacyClaim {
                Claim::Racy(RaceCell::new("claim-counter", 0))
            } else {
                Claim::new(0)
            },
            cancel: CancelToken::new(),
            progress: VAtomicUsize::new(0),
            batches: (0..self.workers).map(|_| Mutex::new(Vec::new())).collect(),
            log: Mutex::new(Vec::new()),
        }
    }

    fn worker(&self, tid: usize, state: &PoolState) {
        if self.cancel && tid == self.workers {
            // The canceller: one release-store, placed anywhere in the
            // campaign by the schedule explorer.
            state.cancel.cancel();
            return;
        }
        let batch = pool::worker_loop(tid, &state.next, self.trials, &|trial, _w| {
            self.run_one(trial, state)
        });
        // The engine gathers per-worker batches; dropped records
        // (`None` from the faulty run_one) vanish here, exactly like a
        // result slot never written.
        let keep: Vec<(usize, Trial)> = batch
            .into_iter()
            .filter_map(|(t, r)| r.map(|v| (t, v)))
            .collect();
        state.batches[tid].with(|b| *b = keep.clone());
    }

    fn check(&self, state: &PoolState) -> Vec<Finding> {
        let mut findings = Vec::new();
        // Reassemble by trial index, as Ensemble::run does.
        let mut slots: Vec<Option<Trial>> = vec![None; self.trials];
        for w in 0..self.workers {
            for (trial, out) in state.batches[w].with(|b| b.clone()) {
                if slots[trial].is_some() {
                    findings.push(
                        Finding::new(
                            rule::RACE,
                            format!("slot {trial}"),
                            format!("trial {trial} was gathered twice — the claim counter issued it twice"),
                        )
                        .with_threads([self.thread_name(w)]),
                    );
                }
                slots[trial] = Some(out);
            }
        }
        for (trial, slot) in slots.iter().enumerate() {
            match slot {
                None => findings.push(Finding::new(
                    rule::LOST_CANCEL,
                    format!("slot {trial}"),
                    format!(
                        "trial {trial} produced no result record — cancellation must yield \
                         TrialError::Cancelled, never a hole in the gather"
                    ),
                )),
                Some(Trial::Value(v)) if *v != self.reference(trial) => {
                    findings.push(Finding::new(
                        rule::NON_DETERMINISTIC_FOLD,
                        format!("slot {trial}"),
                        format!("trial {trial} gathered a value differing from the serial reference"),
                    ))
                }
                Some(Trial::Cancelled) if !self.cancel => findings.push(Finding::new(
                    rule::LOST_CANCEL,
                    format!("slot {trial}"),
                    format!("trial {trial} reported Cancelled but no cancellation was requested"),
                )),
                _ => {}
            }
        }
        if self.fault == Fault::CompletionOrderFold {
            // The broken fold consumes the completion log as-is; the
            // reference folds trial order. Any schedule where they
            // differ leaks scheduling into an output.
            let folded = state.log.with(|l| PoolModel::order_hash(l));
            let serial: Vec<usize> = (0..self.trials).collect();
            if folded != PoolModel::order_hash(&serial) {
                findings.push(Finding::new(
                    rule::NON_DETERMINISTIC_FOLD,
                    "telemetry fold",
                    "fold over completion order differs from the serial-order reference \
                     — outputs must fold in trial/worker index order",
                ));
            }
        }
        findings
    }

    fn thread_name(&self, tid: usize) -> String {
        if self.cancel && tid == self.workers {
            "canceller".to_string()
        } else {
            format!("worker-{tid}")
        }
    }
}
