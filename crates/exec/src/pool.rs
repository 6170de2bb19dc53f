//! The scheduling core: one shared claim counter.
//!
//! A campaign's trials are the indices `0..total`, all known up front.
//! Every worker runs the same loop: an `AcqRel` fetch-add on one shared
//! counter claims the next unstarted index, and a claim at or past
//! `total` ends the loop. Each index is returned by exactly one
//! fetch-add, so each trial runs exactly once; a worker held up by a
//! slow trial simply claims less, which is all the load balance a
//! fixed work set needs — no queues, no stealing, no condition
//! variables, no spinning.
//!
//! [`worker_loop`] is generic over a [`SyncCounter`] and `pub`: this
//! module *is* the code the `ulp-check` model checker drives through a
//! virtual scheduler, so the schedule explorer exercises the shipped
//! claim loop, not a re-implementation. Production callers
//! ([`crate::Ensemble`]) pass the [`StdSync`](crate::sync::StdSync)
//! counter, a plain `std::sync::atomic::AtomicUsize`.

use crate::sync::SyncCounter;

/// One worker's claim loop: claims trial indices from `next` until one
/// reaches `total`, running `run_one(trial, worker)` on each and
/// collecting `(trial, result)` pairs in claim order. The caller
/// reassembles results by trial index, so the order here carries no
/// meaning.
pub fn worker_loop<T>(
    worker: usize,
    next: &impl SyncCounter,
    total: usize,
    run_one: &(impl Fn(usize, usize) -> T + Sync),
) -> Vec<(usize, T)> {
    let mut out = Vec::new();
    loop {
        let trial = next.fetch_add_acq_rel(1);
        if trial >= total {
            return out;
        }
        out.push((trial, run_one(trial, worker)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn lone_worker_drains_everything() {
        let next = AtomicUsize::new(0);
        let out = worker_loop(0, &next, 7, &|t, w| {
            assert_eq!(w, 0);
            t * t
        });
        assert_eq!(out, (0..7).map(|t| (t, t * t)).collect::<Vec<_>>());
    }

    #[test]
    fn claims_hand_out_every_trial_exactly_once() {
        let next = AtomicUsize::new(0);
        let runs: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        let run_one = |t: usize, _w: usize| {
            runs[t].fetch_add(1, Ordering::Relaxed);
            t
        };
        let mut all: Vec<(usize, usize)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|w| {
                    let (next, run_one) = (&next, &run_one);
                    s.spawn(move || worker_loop(w, next, 100, run_one))
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("worker must not panic"))
                .collect()
        });
        assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
        all.sort_unstable();
        assert_eq!(all, (0..100).map(|t| (t, t)).collect::<Vec<_>>());
    }
}
