//! SARIF 2.1.0 export for design lint reports.
//!
//! [Static Analysis Results Interchange Format][sarif] is the exchange
//! format code-review tooling (GitHub code scanning, VS Code SARIF
//! viewers) ingests, which makes the design lints of [`crate::lint`]
//! reviewable next to software lints. [`to_sarif`] renders an
//! [`ErcReport`] as one SARIF run: the rule catalogue comes from the
//! lint registry ([`crate::lint::REGISTRY`]), each [`Diagnostic`]
//! becomes a `result` whose location is the linted netlist (as an
//! artifact URI) plus logical locations for the named nodes and
//! elements.
//!
//! The emitter is hand-rendered (no serde in the workspace) and fully
//! deterministic: same report in, byte-identical JSON out, so exports
//! can be golden-tested and diffed in CI. [`validate`] reads an export
//! back with the crate's JSON reader ([`crate::json`]) so the bench
//! binaries can check emitted files without external tooling.
//!
//! [sarif]: https://docs.oasis-open.org/sarif/sarif/v2.1.0/sarif-v2.1.0.html

use crate::diag::{Diagnostic, ErcReport, Severity};
use crate::json::{escape, parse_json, JsonValue};
use crate::lint::{self, LintLevel};
use std::fmt::Write as _;

/// The SARIF schema this module emits.
pub const SCHEMA: &str = "https://json.schemastore.org/sarif-2.1.0.json";
/// The SARIF spec version.
pub const VERSION: &str = "2.1.0";
/// Tool name recorded in `runs[].tool.driver.name`.
pub const TOOL_NAME: &str = "ulp-lint";

/// SARIF `level` for a diagnostic severity: errors map to `error`,
/// warnings to `warning`, infos to `note`.
fn level_of(severity: Severity) -> &'static str {
    match severity {
        Severity::Error => "error",
        Severity::Warning => "warning",
        Severity::Info => "note",
    }
}

fn push_result(out: &mut String, d: &Diagnostic, artifact: &str, indent: &str) {
    let _ = write!(
        out,
        "{indent}{{\n\
         {indent}  \"ruleId\": \"{}\",\n\
         {indent}  \"level\": \"{}\",\n\
         {indent}  \"message\": {{ \"text\": \"{}\" }},\n",
        escape(d.rule),
        level_of(d.severity),
        escape(&d.message)
    );
    if !d.hint.is_empty() {
        let _ = writeln!(
            out,
            "{indent}  \"properties\": {{ \"hint\": \"{}\" }},",
            escape(&d.hint)
        );
    }
    // One physical location (the netlist artifact) carrying the logical
    // locations of the nodes and elements the diagnostic names.
    let _ = write!(
        out,
        "{indent}  \"locations\": [\n\
         {indent}    {{\n\
         {indent}      \"physicalLocation\": {{\n\
         {indent}        \"artifactLocation\": {{ \"uri\": \"{}\" }}\n\
         {indent}      }}",
        escape(artifact)
    );
    let logicals: Vec<(&str, &String)> = d
        .nodes
        .iter()
        .map(|n| ("node", n))
        .chain(d.elements.iter().map(|e| ("element", e)))
        .collect();
    if logicals.is_empty() {
        out.push('\n');
    } else {
        let _ = writeln!(out, ",\n{indent}      \"logicalLocations\": [");
        for (i, (kind, name)) in logicals.iter().enumerate() {
            let comma = if i + 1 < logicals.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "{indent}        {{ \"kind\": \"{kind}\", \"name\": \"{}\" }}{comma}",
                escape(name)
            );
        }
        let _ = writeln!(out, "{indent}      ]");
    }
    let _ = write!(out, "{indent}    }}\n{indent}  ]\n{indent}}}");
}

/// Renders `report` as a complete SARIF 2.1.0 log with one run.
///
/// `artifact` names the linted netlist and lands in every result's
/// `artifactLocation.uri` (e.g. `netlists/scl-buffer-1n`). The rule
/// catalogue in `tool.driver.rules` lists the full lint registry with
/// each rule's group and *default* level, so consumers can resolve
/// `ruleId`s even for rules that produced no findings.
///
/// Output is deterministic: report order is already content-sorted by
/// [`ErcReport::sort`] and the registry order is fixed, so identical
/// reports serialise byte-identically.
pub fn to_sarif(report: &ErcReport, artifact: &str) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"$schema\": \"{SCHEMA}\",\n  \"version\": \"{VERSION}\",\n  \
         \"runs\": [\n    {{\n      \"tool\": {{\n        \"driver\": {{\n          \
         \"name\": \"{TOOL_NAME}\",\n          \"informationUri\": \
         \"https://example.invalid/ulp-lint\",\n          \"rules\": [\n"
    );
    for (i, r) in lint::REGISTRY.iter().enumerate() {
        let comma = if i + 1 < lint::REGISTRY.len() { "," } else { "" };
        let configured = match r.default_level {
            LintLevel::Allow => "\"enabled\": false, \"level\": \"none\"",
            LintLevel::Warn => "\"enabled\": true, \"level\": \"warning\"",
            LintLevel::Deny => "\"enabled\": true, \"level\": \"error\"",
        };
        let _ = writeln!(
            out,
            "            {{ \"id\": \"{}\", \"shortDescription\": {{ \"text\": \
             \"{}\" }}, \"defaultConfiguration\": {{ {configured} }}, \
             \"properties\": {{ \"group\": \"{}\" }} }}{comma}",
            escape(r.code),
            escape(r.summary),
            r.group.name()
        );
    }
    let _ = write!(
        out,
        "          ]\n        }}\n      }},\n      \"artifacts\": [\n        \
         {{ \"location\": {{ \"uri\": \"{}\" }} }}\n      ],\n      \
         \"results\": [",
        escape(artifact)
    );
    let diags = report.diagnostics();
    if diags.is_empty() {
        out.push_str("]\n");
    } else {
        out.push('\n');
        for (i, d) in diags.iter().enumerate() {
            push_result(&mut out, d, artifact, "        ");
            out.push_str(if i + 1 < diags.len() { ",\n" } else { "\n" });
        }
        out.push_str("      ]\n");
    }
    out.push_str("    }\n  ]\n}\n");
    out
}

/// Validates a SARIF log with the crate's JSON reader: it must parse,
/// carry `"version": "2.1.0"` and hold a `runs` array whose every run
/// has a `results` array. Returns the number of results over all runs.
///
/// # Errors
///
/// A description of the first violation.
pub fn validate(text: &str) -> Result<usize, String> {
    let doc = parse_json(text).map_err(|e| format!("SARIF does not parse: {e}"))?;
    let version = doc.get("version").and_then(JsonValue::as_str);
    if version != Some(VERSION) {
        return Err(format!("SARIF version {version:?}, expected {VERSION:?}"));
    }
    let runs = doc
        .get("runs")
        .and_then(JsonValue::as_arr)
        .ok_or("no runs array at top level")?;
    let mut results = 0;
    for (k, run) in runs.iter().enumerate() {
        results += run
            .get("results")
            .and_then(JsonValue::as_arr)
            .ok_or_else(|| format!("runs[{k}]: no results array"))?
            .len();
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ErcReport {
        let mut r = ErcReport::new();
        r.push(
            Diagnostic::new(
                Severity::Warning,
                crate::lint::rule::WEAK_INVERSION,
                "`M1` would run at inversion coefficient 7.1",
            )
            .with_elements(["M1".to_string()])
            .with_hint("widen W/L"),
        );
        r.push(
            Diagnostic::new(
                Severity::Error,
                crate::erc::rule::FLOATING_NODE,
                "node `x` has no DC path to ground",
            )
            .with_nodes(["x".to_string()]),
        );
        r.push(Diagnostic::new(
            Severity::Info,
            crate::erc::rule::ZERO_VALUE_SOURCE,
            "`I1` has zero value \"quoted\"\n",
        ));
        r.sort();
        r
    }

    /// The satellite acceptance test: the export parses as JSON and the
    /// severity/rule/location of every diagnostic round-trips.
    #[test]
    fn sarif_round_trips_severity_rule_and_location() {
        let report = sample_report();
        let sarif = to_sarif(&report, "netlists/unit-test");
        let doc = parse_json(&sarif).expect("emitted SARIF must parse");
        assert_eq!(
            doc.get("version").and_then(JsonValue::as_str),
            Some(VERSION)
        );
        let run = doc.get("runs").and_then(|r| r.idx(0)).expect("one run");
        assert_eq!(
            run.get("tool")
                .and_then(|t| t.get("driver"))
                .and_then(|d| d.get("name"))
                .and_then(JsonValue::as_str),
            Some(TOOL_NAME)
        );
        // Rule catalogue covers the whole registry.
        let rules = run
            .get("tool")
            .and_then(|t| t.get("driver"))
            .and_then(|d| d.get("rules"))
            .and_then(JsonValue::as_arr)
            .expect("rules");
        assert_eq!(rules.len(), crate::lint::REGISTRY.len());
        // Results mirror the report, in report order.
        let results = run
            .get("results")
            .and_then(JsonValue::as_arr)
            .expect("results");
        assert_eq!(results.len(), report.diagnostics().len());
        for (res, d) in results.iter().zip(report.diagnostics()) {
            assert_eq!(
                res.get("ruleId").and_then(JsonValue::as_str),
                Some(d.rule)
            );
            let level = match d.severity {
                Severity::Error => "error",
                Severity::Warning => "warning",
                Severity::Info => "note",
            };
            assert_eq!(res.get("level").and_then(JsonValue::as_str), Some(level));
            assert_eq!(
                res.get("message")
                    .and_then(|m| m.get("text"))
                    .and_then(JsonValue::as_str),
                Some(d.message.as_str())
            );
            let uri = res
                .get("locations")
                .and_then(|l| l.idx(0))
                .and_then(|l| l.get("physicalLocation"))
                .and_then(|p| p.get("artifactLocation"))
                .and_then(|a| a.get("uri"))
                .and_then(JsonValue::as_str);
            assert_eq!(uri, Some("netlists/unit-test"));
        }
        // The error result leads (report is severity-sorted) and carries
        // its node as a logical location.
        let first = &results[0];
        assert_eq!(
            first.get("ruleId").and_then(JsonValue::as_str),
            Some("floating-node")
        );
        let logical = first
            .get("locations")
            .and_then(|l| l.idx(0))
            .and_then(|l| l.get("logicalLocations"))
            .and_then(|a| a.idx(0))
            .expect("logical location");
        assert_eq!(
            logical.get("name").and_then(JsonValue::as_str),
            Some("x")
        );
        assert_eq!(
            logical.get("kind").and_then(JsonValue::as_str),
            Some("node")
        );
    }

    /// Golden structure: the export is byte-stable for a fixed report.
    #[test]
    fn sarif_export_is_byte_stable() {
        let a = to_sarif(&sample_report(), "netlists/unit-test");
        let b = to_sarif(&sample_report(), "netlists/unit-test");
        assert_eq!(a, b);
        // Golden prefix: the header never drifts silently.
        let expected_head = format!(
            "{{\n  \"$schema\": \"{SCHEMA}\",\n  \"version\": \"2.1.0\",\n  \"runs\": ["
        );
        assert!(a.starts_with(&expected_head), "header drifted:\n{a}");
        // And it stays parseable with escapes intact.
        let doc = parse_json(&a).unwrap();
        let msg = doc
            .get("runs")
            .and_then(|r| r.idx(0))
            .and_then(|r| r.get("results"))
            .and_then(|r| r.idx(2))
            .and_then(|r| r.get("message"))
            .and_then(|m| m.get("text"))
            .and_then(JsonValue::as_str)
            .unwrap();
        assert_eq!(msg, "`I1` has zero value \"quoted\"\n");
    }

    #[test]
    fn validate_counts_results_and_rejects_bad_logs() {
        let sarif = to_sarif(&sample_report(), "netlists/unit-test");
        assert_eq!(validate(&sarif), Ok(3));
        assert_eq!(validate(&to_sarif(&ErcReport::new(), "netlists/clean")), Ok(0));
        let truncated = &sarif[..sarif.len() / 2];
        assert!(validate(truncated).unwrap_err().contains("does not parse"));
        let wrong = sarif.replacen("\"version\": \"2.1.0\"", "\"version\": \"2.0.0\"", 1);
        assert_ne!(wrong, sarif);
        assert!(validate(&wrong).unwrap_err().contains("version"));
        assert!(validate("{\"version\": \"2.1.0\"}").unwrap_err().contains("runs"));
        assert!(validate("{\"version\": \"2.1.0\", \"runs\": [{}]}").is_err());
    }

    #[test]
    fn empty_report_is_valid_sarif_with_no_results() {
        let sarif = to_sarif(&ErcReport::new(), "netlists/clean");
        let doc = parse_json(&sarif).expect("must parse");
        let results = doc
            .get("runs")
            .and_then(|r| r.idx(0))
            .and_then(|r| r.get("results"))
            .and_then(JsonValue::as_arr)
            .expect("results array present");
        assert!(results.is_empty());
    }
}
