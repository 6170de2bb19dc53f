//! The synchronization shim: every primitive the engine schedules
//! through, behind one swappable [`SyncProvider`].
//!
//! The scheduling core ([`crate::pool`]'s claim counter,
//! [`crate::cancel`], the progress counter in [`crate::ensemble`])
//! never names `std::sync` types directly; it names the associated
//! types of a `SyncProvider`. Normal builds use [`StdSync`], whose
//! associated types *are* the `std::sync::atomic` primitives and whose
//! trait methods are single inlinable calls — the seam monomorphizes
//! away to plain atomics. The `ulp-check` crate substitutes a `Virtual`
//! provider that routes every load, store and read-modify-write through
//! a deterministic model-checking scheduler, so the same scheduling
//! code that ships can be driven through systematically permuted
//! preemption schedules and audited for happens-before violations.
//!
//! Memory-order discipline is part of the seam's contract, not a detail
//! of each call site: flag stores are `Release`, loads are `Acquire`,
//! counters RMW with `AcqRel` — the orderings the engine's determinism
//! proof (DESIGN.md "Concurrency model") assumes, and the orderings the
//! virtual provider's vector clocks model.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// A shared boolean flag with release/acquire ordering
/// (`std::sync::atomic::AtomicBool` shaped).
pub trait SyncFlag: Send + Sync {
    /// Creates the flag.
    fn new(value: bool) -> Self;

    /// `Acquire` load.
    fn load_acquire(&self) -> bool;

    /// `Release` store.
    fn store_release(&self, value: bool);
}

/// A shared monotone counter (`AtomicUsize` shaped).
pub trait SyncCounter: Send + Sync {
    /// Creates the counter.
    fn new(value: usize) -> Self;

    /// `AcqRel` fetch-add, returning the previous value.
    fn fetch_add_acq_rel(&self, n: usize) -> usize;
}

/// The family of synchronization primitives a build of the engine runs
/// on.
///
/// [`StdSync`] is the production provider; `ulp_check::Virtual` is the
/// model-checking one. Code generic over `P: SyncProvider` writes
/// `P::AtomicBool` and `P::AtomicUsize` and stays identical to direct
/// `std::sync::atomic` use after monomorphization with `StdSync`.
pub trait SyncProvider: Sized + Send + Sync + 'static {
    /// The cancellation flag.
    type AtomicBool: SyncFlag;
    /// The trial-claim and progress counter.
    type AtomicUsize: SyncCounter;
}

/// The production provider: plain `std::sync::atomic`, zero added cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StdSync;

impl SyncProvider for StdSync {
    type AtomicBool = AtomicBool;
    type AtomicUsize = AtomicUsize;
}

impl SyncFlag for AtomicBool {
    #[inline]
    fn new(value: bool) -> Self {
        AtomicBool::new(value)
    }

    #[inline]
    fn load_acquire(&self) -> bool {
        self.load(Ordering::Acquire)
    }

    #[inline]
    fn store_release(&self, value: bool) {
        self.store(value, Ordering::Release)
    }
}

impl SyncCounter for AtomicUsize {
    #[inline]
    fn new(value: usize) -> Self {
        AtomicUsize::new(value)
    }

    #[inline]
    fn fetch_add_acq_rel(&self, n: usize) -> usize {
        self.fetch_add(n, Ordering::AcqRel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn std_flag_round_trips() {
        let f = <StdSync as SyncProvider>::AtomicBool::new(false);
        assert!(!f.load_acquire());
        f.store_release(true);
        assert!(f.load_acquire());
    }

    #[test]
    fn std_counter_fetch_add_returns_the_previous_value() {
        let c = <StdSync as SyncProvider>::AtomicUsize::new(3);
        assert_eq!(c.fetch_add_acq_rel(2), 3);
        assert_eq!(c.fetch_add_acq_rel(1), 5);
    }
}
