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
//! can be golden-tested and diffed in CI. A minimal recursive-descent
//! JSON reader ([`parse_json`]) rides along so the bench binary and the
//! tests can validate emitted files without external tooling, and the
//! two writer primitives ([`escape`], [`json_num`]) are shared by every
//! hand-rendered JSON export in the workspace (telemetry JSONL, metrics
//! registry, campaign ledgers).
//!
//! [sarif]: https://docs.oasis-open.org/sarif/sarif/v2.1.0/sarif-v2.1.0.html

use crate::diag::{Diagnostic, ErcReport, Severity};
use crate::lint::{self, LintLevel};
use std::collections::BTreeMap;
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

/// Escapes a string for embedding in a JSON string literal (RFC 8259:
/// quote, backslash and control characters; everything else passes
/// through as UTF-8). [`parse_json`] reads the result back to the
/// original string.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON number (`null` for non-finite values,
/// which JSON cannot represent).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:e}")
    } else {
        "null".to_string()
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

// ---------------------------------------------------------------------
// Minimal JSON reader, for validating emitted SARIF.
// ---------------------------------------------------------------------

/// A parsed JSON value.
///
/// Objects use a [`BTreeMap`] so re-serialisation and comparison are
/// order-independent; SARIF key order is not semantically meaningful.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (kept as f64; SARIF uses none we would truncate).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object.
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Member lookup on an object, `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Index into an array, `None` otherwise.
    pub fn idx(&self, i: usize) -> Option<&JsonValue> {
        match self {
            JsonValue::Arr(v) => v.get(i),
            _ => None,
        }
    }

    /// The string payload, `None` for non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array payload, `None` for non-arrays.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The numeric payload, `None` for non-numbers.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }
}

/// Parses one JSON document (rejecting trailing garbage).
///
/// # Errors
///
/// A human-readable description of the first syntax error, with its byte
/// offset.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(JsonValue::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", JsonValue::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        _ => Err(format!("unexpected end or byte at {}", *pos)),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(JsonValue::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        // Surrogate pairs are not emitted by this crate;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte safe).
                let s = std::str::from_utf8(&b[*pos..])
                    .map_err(|_| format!("invalid UTF-8 at byte {}", *pos))?;
                let c = s.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(map));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
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

    #[test]
    fn json_reader_handles_core_forms() {
        let v = parse_json(
            r#"{"a": [1, -2.5e3, true, false, null], "b": {"nested": "xA\n"}}"#,
        )
        .unwrap();
        assert_eq!(v.get("a").and_then(|a| a.idx(1)), Some(&JsonValue::Num(-2.5e3)));
        assert_eq!(
            v.get("b").and_then(|b| b.get("nested")).and_then(JsonValue::as_str),
            Some("xA\n")
        );
        assert!(parse_json("{\"unterminated\": ").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{} trailing").is_err());
    }
}
