//! Findings and reports: what the explorer and the race auditor emit,
//! rendered through `ulp-spice`'s `Diagnostic`/`ErcReport`/SARIF
//! machinery so concurrency verdicts land in the same `results/lint/`
//! pipeline as the electrical lints.

use std::collections::BTreeSet;

use ulp_spice::lint::rule;
use ulp_spice::sarif;
use ulp_spice::{Diagnostic, ErcReport, Severity};

/// Rule id for a scenario worker that panicked under the model (not in
/// the shared lint registry — it marks a broken *model*, not a broken
/// engine).
pub const MODEL_PANIC: &str = "model-panic";

/// One concurrency defect observed on at least one explored schedule.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Rule id (`ulp_spice::lint::rule::{RACE, NON_DETERMINISTIC_FOLD,
    /// LOST_CANCEL, SCHEDULE_DEADLOCK}` or [`MODEL_PANIC`]).
    pub rule: &'static str,
    /// Human-readable defect statement.
    pub message: String,
    /// What the finding is anchored to — a [`crate::RaceCell`] label,
    /// a result slot, a fold.
    pub location: String,
    /// The virtual threads involved.
    pub threads: Vec<String>,
}

impl Finding {
    /// Builds a finding with no thread attribution.
    pub fn new(rule: &'static str, location: impl Into<String>, message: impl Into<String>) -> Self {
        Finding {
            rule,
            message: message.into(),
            location: location.into(),
            threads: Vec::new(),
        }
    }

    /// Attaches the virtual threads involved.
    pub fn with_threads<I: IntoIterator<Item = String>>(mut self, threads: I) -> Self {
        self.threads = threads.into_iter().collect();
        self
    }
}

/// The aggregate verdict of one exploration: every distinct finding,
/// with the number of schedules it fired on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// How many schedules the explorer ran.
    pub schedules: usize,
    /// True when the exploration hit `Config::max_schedules` before the
    /// DFS frontier was exhausted — a clean truncated report is *not* a
    /// proof.
    pub truncated: bool,
    findings: Vec<(Finding, usize)>,
}

impl Report {
    pub(crate) fn new() -> Self {
        Report {
            schedules: 0,
            truncated: false,
            findings: Vec::new(),
        }
    }

    /// Folds one schedule's findings in, deduplicating within the
    /// schedule and counting across schedules. First-seen order is kept,
    /// which is deterministic because exploration order is.
    pub(crate) fn absorb(&mut self, schedule_findings: Vec<Finding>) {
        let distinct: BTreeSet<Finding> = schedule_findings.into_iter().collect();
        for f in distinct {
            match self.findings.iter_mut().find(|(seen, _)| *seen == f) {
                Some((_, hits)) => *hits += 1,
                None => self.findings.push((f, 1)),
            }
        }
    }

    /// True when no schedule produced any finding.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Distinct findings in first-seen order.
    pub fn findings(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().map(|(f, _)| f)
    }

    /// Whether any finding carries `rule`.
    pub fn has_rule(&self, rule: &str) -> bool {
        self.findings.iter().any(|(f, _)| f.rule == rule)
    }

    /// Renders findings as an [`ErcReport`] (severity Error — every
    /// concurrency rule is deny-by-default in the lint registry).
    pub fn to_erc(&self) -> ErcReport {
        let mut erc = ErcReport::new();
        for (f, hits) in &self.findings {
            erc.push(
                Diagnostic::new(
                    Severity::Error,
                    f.rule,
                    format!("{} [on {hits} of {} schedules]", f.message, self.schedules),
                )
                .with_nodes([f.location.clone()])
                .with_elements(f.threads.clone())
                .with_hint(hint_for(f.rule)),
            );
        }
        erc.sort();
        erc
    }

    /// Renders the report as a SARIF 2.1.0 log for `results/lint/`.
    pub fn to_sarif(&self, artifact: &str) -> String {
        sarif::to_sarif(&self.to_erc(), artifact)
    }

    /// One-line outcome for CI logs.
    pub fn summary(&self) -> String {
        format!(
            "{} schedule{} explored, {} distinct finding{}{}",
            self.schedules,
            if self.schedules == 1 { "" } else { "s" },
            self.findings.len(),
            if self.findings.len() == 1 { "" } else { "s" },
            if self.truncated {
                " (TRUNCATED at max_schedules — not exhaustive)"
            } else {
                ""
            }
        )
    }
}

fn hint_for(rule_id: &str) -> &'static str {
    match rule_id {
        rule::RACE => {
            "order the two accesses: make the update one atomic read-modify-write or \
             publish it through a release store / acquire load on the SyncProvider seam"
        }
        rule::NON_DETERMINISTIC_FOLD => {
            "fold worker results in trial/worker index order; completion order is \
             schedule-dependent and must never reach an output"
        }
        rule::LOST_CANCEL => {
            "a cancelled trial must still fill its result slot with \
             TrialError::Cancelled — dropping the record leaves a partial merge"
        }
        rule::SCHEDULE_DEADLOCK => {
            "break the wait cycle: acquire locks in one global order and re-check \
             conditions after every wake"
        }
        _ => "re-run ulp-check with the same seed/bound to replay this schedule deterministically",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_dedups_within_and_counts_across_schedules() {
        let mut r = Report::new();
        let f = || Finding::new(rule::RACE, "counter", "boom");
        r.absorb(vec![f(), f()]); // same schedule: one distinct finding
        r.absorb(vec![f()]);
        r.schedules = 2;
        assert_eq!(r.findings().count(), 1);
        assert_eq!(r.findings[0].1, 2);
        assert!(r.has_rule(rule::RACE));
        assert!(!r.has_rule(rule::LOST_CANCEL));
        assert!(!r.is_clean());
    }

    #[test]
    fn erc_and_sarif_carry_the_rule_id() {
        let mut r = Report::new();
        r.absorb(vec![Finding::new(rule::LOST_CANCEL, "slot 3", "hole in gather")
            .with_threads(["worker-0".to_string()])]);
        r.schedules = 1;
        let erc = r.to_erc();
        assert!(!erc.is_clean());
        assert!(erc.find(rule::LOST_CANCEL).is_some());
        let sarif = r.to_sarif("exec/pool-model");
        assert!(sarif.contains("\"ruleId\": \"lost-cancel\""));
        assert!(sarif.contains("exec/pool-model"));
    }

    #[test]
    fn summary_flags_truncation() {
        let mut r = Report::new();
        r.schedules = 3;
        assert!(r.summary().contains("3 schedules"));
        r.truncated = true;
        assert!(r.summary().contains("TRUNCATED"));
    }
}
