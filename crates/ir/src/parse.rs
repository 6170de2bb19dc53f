//! Hand-rolled parser for the `.ulp` netlist dialect.
//!
//! The dialect is line-oriented: one card per line, `*`/`;` comment
//! lines, blank lines ignored. Every failure is a typed
//! [`ParseError`] carrying the 1-based line and column and the
//! offending token, so a service front-end can point at the exact
//! character a user got wrong.
//!
//! Grammar (see DESIGN.md "Netlist IR" for the full card reference):
//!
//! ```text
//! .param NAME=NUM …
//! .default nmos|pmos [w=NUM] [l=NUM]
//! .subckt NAME PORT[:in|out|io]… [NAME=NUM …]
//!   <device and X cards>
//! .ends
//! <top-level device and X cards>
//! .tran T_STOP [DT_MAX] [be|trap]
//! .tech NAME…
//! .sweep DEV… PARAM=NUM,NUM,… …
//! .end
//! ```
//!
//! Device cards dispatch on their first letter (case-insensitive):
//! `R C V I E G D M L`, instances on `X`. Numbers accept SPICE SI
//! suffixes (`f p n u m k meg g t`); any value position also accepts a
//! bare identifier naming a `.param`.

use crate::ast::*;
use std::fmt;
use ulp_device::Polarity;

/// Where in the input a [`ParseError`] points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// 1-based column of the offending token.
    pub col: usize,
    /// The offending token (empty at end of line / end of input).
    pub token: String,
    /// What went wrong.
    pub kind: ParseErrorKind,
}

/// The typed failure classes of the `.ulp` parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// A card position needed `what`, but `token` (or end of line) was
    /// found.
    Expected {
        /// Human description of the expected token class.
        what: &'static str,
    },
    /// A token in a value position is neither a number nor a parameter
    /// name.
    BadValue,
    /// A token in a numeric-literal position does not parse as a
    /// number (param defaults and sweep grids do not allow references).
    BadNumber,
    /// First letter of a card is not a known device class.
    UnknownCard,
    /// A `.directive` that is not part of the dialect.
    UnknownDirective,
    /// Unknown port role after `:` (expected `in`, `out` or `io`).
    BadRole,
    /// Unknown MOS polarity keyword (expected `nmos` or `pmos`).
    BadPolarity,
    /// Unknown stimulus keyword (expected `dc`, `pulse`, `sine` or
    /// `pwl`).
    BadWave,
    /// Unknown integration method on a `.tran` card (expected `be` or
    /// `trap`).
    BadMethod,
    /// A second `.tran` card.
    DuplicateTran,
    /// Duplicate device/instance name within one scope.
    DuplicateName,
    /// Duplicate `.subckt` definition name.
    DuplicateSubckt,
    /// Duplicate `.param` name within one scope.
    DuplicateParam,
    /// `.subckt` while a previous definition is still open.
    NestedSubckt,
    /// `.ends` with no open definition.
    StrayEnds,
    /// End of input with an unterminated `.subckt`.
    MissingEnds,
    /// A directive only valid at top level appeared inside a
    /// `.subckt`.
    NotInSubckt,
    /// A card after `.end`.
    AfterEnd,
    /// Leftover token after a complete card.
    Trailing,
    /// A net name on a device or instance card contains `.`, the
    /// hierarchy separator of flattened names: top-level `X1.mid` would
    /// silently merge with instance `X1`'s internal net `mid`.
    DottedNet,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, col {}: ", self.line, self.col)?;
        let tok = &self.token;
        match &self.kind {
            ParseErrorKind::Expected { what } => {
                if tok.is_empty() {
                    write!(f, "expected {what}, found end of line")
                } else {
                    write!(f, "expected {what}, found `{tok}`")
                }
            }
            ParseErrorKind::BadValue => {
                write!(f, "`{tok}` is neither a number nor a parameter name")
            }
            ParseErrorKind::BadNumber => write!(f, "`{tok}` is not a number"),
            ParseErrorKind::UnknownCard => write!(
                f,
                "unknown card `{tok}`: device cards start with R, C, V, I, E, G, D, M or L, instances with X"
            ),
            ParseErrorKind::UnknownDirective => write!(
                f,
                "unknown directive `{tok}`: expected .param, .default, .subckt, .ends, .tran, .tech, .sweep or .end"
            ),
            ParseErrorKind::BadRole => {
                write!(f, "unknown port role `{tok}`: expected in, out or io")
            }
            ParseErrorKind::BadPolarity => {
                write!(f, "unknown polarity `{tok}`: expected nmos or pmos")
            }
            ParseErrorKind::BadWave => {
                write!(f, "unknown stimulus `{tok}`: expected dc, pulse, sine or pwl")
            }
            ParseErrorKind::BadMethod => {
                write!(f, "unknown integration method `{tok}`: expected be or trap")
            }
            ParseErrorKind::DuplicateTran => write!(f, "duplicate .tran card"),
            ParseErrorKind::DuplicateName => {
                write!(f, "duplicate device or instance name `{tok}` in this scope")
            }
            ParseErrorKind::DuplicateSubckt => write!(f, "duplicate .subckt name `{tok}`"),
            ParseErrorKind::DuplicateParam => write!(f, "duplicate parameter `{tok}`"),
            ParseErrorKind::NestedSubckt => {
                write!(f, ".subckt definitions cannot nest (missing .ends above?)")
            }
            ParseErrorKind::StrayEnds => write!(f, ".ends without an open .subckt"),
            ParseErrorKind::MissingEnds => {
                write!(f, ".subckt `{tok}` is never closed by .ends")
            }
            ParseErrorKind::NotInSubckt => {
                write!(f, "`{tok}` is only valid at top level, not inside .subckt")
            }
            ParseErrorKind::AfterEnd => write!(f, "card after .end"),
            ParseErrorKind::Trailing => write!(f, "unexpected trailing token `{tok}`"),
            ParseErrorKind::DottedNet => write!(
                f,
                "net name `{tok}` contains `.`, which separates hierarchy levels in flattened names"
            ),
        }
    }
}

impl std::error::Error for ParseError {}

/// One whitespace-delimited token with its 1-based starting column.
#[derive(Debug, Clone)]
struct Tok<'a> {
    text: &'a str,
    col: usize,
}

fn tokenize(line: &str) -> Vec<Tok<'_>> {
    let mut toks = Vec::new();
    let mut start: Option<usize> = None;
    for (i, c) in line.char_indices() {
        if c.is_whitespace() {
            if let Some(s) = start.take() {
                toks.push(Tok {
                    text: &line[s..i],
                    col: s + 1,
                });
            }
        } else if start.is_none() {
            start = Some(i);
        }
    }
    if let Some(s) = start {
        toks.push(Tok {
            text: &line[s..],
            col: s + 1,
        });
    }
    toks
}

/// Parses a number with an optional SPICE SI suffix
/// (`f p n u m k meg g t`, case-insensitive).
pub fn parse_number(tok: &str) -> Option<f64> {
    if let Ok(v) = tok.parse::<f64>() {
        return v.is_finite().then_some(v);
    }
    let lower = tok.to_ascii_lowercase();
    let (body, exp) = if let Some(b) = lower.strip_suffix("meg") {
        (b, 6i32)
    } else {
        let exp = match lower.as_bytes().last()? {
            b'f' => -15,
            b'p' => -12,
            b'n' => -9,
            b'u' => -6,
            b'm' => -3,
            b'k' => 3,
            b'g' => 9,
            b't' => 12,
            _ => return None,
        };
        (&lower[..lower.len() - 1], exp)
    };
    // Compose the suffix textually so `2.5u` parses bit-exact as
    // `2.5e-6` (a multiply can land one ulp off); fall back to
    // arithmetic for bodies that carry their own exponent (`2e3k`).
    let scaled = match format!("{body}e{exp}").parse::<f64>() {
        Ok(v) => v,
        Err(_) => body.parse::<f64>().ok()? * 10f64.powi(exp),
    };
    scaled.is_finite().then_some(scaled)
}

fn is_ident(tok: &str) -> bool {
    let mut chars = tok.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
}

/// A cursor over one line's tokens, shared by all card parsers.
struct Cursor<'a> {
    toks: Vec<Tok<'a>>,
    pos: usize,
    line: usize,
    len: usize,
}

impl<'a> Cursor<'a> {
    fn new(line_no: usize, line: &'a str) -> Self {
        let toks = tokenize(line);
        Cursor {
            toks,
            pos: 0,
            line: line_no,
            len: line.chars().count(),
        }
    }

    fn peek(&self) -> Option<&Tok<'a>> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<Tok<'a>> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err_here(&self, kind: ParseErrorKind) -> ParseError {
        match self.peek() {
            Some(t) => ParseError {
                line: self.line,
                col: t.col,
                token: t.text.to_string(),
                kind,
            },
            None => ParseError {
                line: self.line,
                col: self.len + 1,
                token: String::new(),
                kind,
            },
        }
    }

    fn err_at(&self, tok: &Tok<'_>, kind: ParseErrorKind) -> ParseError {
        ParseError {
            line: self.line,
            col: tok.col,
            token: tok.text.to_string(),
            kind,
        }
    }

    fn expect(&mut self, what: &'static str) -> Result<Tok<'a>, ParseError> {
        match self.next() {
            Some(t) => Ok(t),
            None => Err(self.err_here(ParseErrorKind::Expected { what })),
        }
    }

    /// Node-name position: any token without `=` (which would indicate
    /// a key=value pair reaching a position expecting a node) and
    /// without `.` (see [`Cursor::net`]).
    fn expect_node(&mut self) -> Result<String, ParseError> {
        let t = self.expect("a node name")?;
        if t.text.contains('=') {
            return Err(self.err_at(&t, ParseErrorKind::Expected { what: "a node name" }));
        }
        self.net(&t)
    }

    /// A net name: `.` is reserved for the flattened hierarchy path.
    fn net(&self, t: &Tok<'_>) -> Result<String, ParseError> {
        if t.text.contains('.') {
            return Err(self.err_at(t, ParseErrorKind::DottedNet));
        }
        Ok(t.text.to_string())
    }

    /// Value position: literal number (SI suffixes allowed) or a
    /// parameter reference.
    fn expect_value(&mut self) -> Result<Value, ParseError> {
        let t = self.expect("a number or parameter name")?;
        self.value_of(&t)
    }

    fn value_of(&self, t: &Tok<'_>) -> Result<Value, ParseError> {
        if let Some(v) = parse_number(t.text) {
            Ok(Value::Lit(v))
        } else if is_ident(t.text) {
            Ok(Value::Ref(t.text.to_string()))
        } else {
            Err(self.err_at(t, ParseErrorKind::BadValue))
        }
    }

    fn expect_done(&mut self) -> Result<(), ParseError> {
        if self.peek().is_some() {
            return Err(self.err_here(ParseErrorKind::Trailing));
        }
        Ok(())
    }
}

/// Splits `key=value`, or returns `None` for a bare token.
fn split_kv(text: &str) -> Option<(&str, &str)> {
    let (k, v) = text.split_once('=')?;
    Some((k, v))
}

/// Parses `.ulp` source text into a [`Design`].
///
/// # Errors
///
/// The first syntactic problem, as a typed [`ParseError`] with line,
/// column and the offending token.
pub fn parse(text: &str) -> Result<Design, ParseError> {
    let mut design = Design::default();
    let mut open: Option<Subckt> = None;
    let mut open_line = 0usize;
    let mut ended = false;

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let trimmed = raw.trim_start();
        if trimmed.is_empty() || trimmed.starts_with('*') || trimmed.starts_with(';') {
            continue;
        }
        let mut cur = Cursor::new(line_no, raw);
        let head = cur.next().expect("non-blank line has a first token");
        if ended {
            return Err(cur.err_at(&head, ParseErrorKind::AfterEnd));
        }
        let head_lower = head.text.to_ascii_lowercase();
        match head_lower.as_str() {
            ".param" => parse_param(&mut cur, &head, &mut design, &mut open)?,
            ".default" => {
                if open.is_some() {
                    return Err(cur.err_at(&head, ParseErrorKind::NotInSubckt));
                }
                parse_default(&mut cur, &mut design)?;
            }
            ".subckt" => {
                if open.is_some() {
                    return Err(cur.err_at(&head, ParseErrorKind::NestedSubckt));
                }
                open = Some(parse_subckt_header(&mut cur, &design)?);
                open_line = line_no;
            }
            ".ends" => {
                let Some(done) = open.take() else {
                    return Err(cur.err_at(&head, ParseErrorKind::StrayEnds));
                };
                cur.expect_done()?;
                design.subckts.push(done);
            }
            ".tran" => {
                if open.is_some() {
                    return Err(cur.err_at(&head, ParseErrorKind::NotInSubckt));
                }
                if design.tran.is_some() {
                    return Err(cur.err_at(&head, ParseErrorKind::DuplicateTran));
                }
                design.tran = Some(parse_tran(&mut cur)?);
            }
            ".tech" => {
                if open.is_some() {
                    return Err(cur.err_at(&head, ParseErrorKind::NotInSubckt));
                }
                if cur.peek().is_none() {
                    return Err(cur.err_here(ParseErrorKind::Expected {
                        what: "a technology target name",
                    }));
                }
                let sweep = design.sweep.get_or_insert_with(SweepSpec::default);
                while let Some(t) = cur.next() {
                    sweep.techs.push(t.text.to_string());
                }
            }
            ".sweep" => {
                if open.is_some() {
                    return Err(cur.err_at(&head, ParseErrorKind::NotInSubckt));
                }
                let axis = parse_sweep_axis(&mut cur)?;
                design
                    .sweep
                    .get_or_insert_with(SweepSpec::default)
                    .axes
                    .push(axis);
            }
            ".end" => {
                cur.expect_done()?;
                ended = true;
            }
            _ if head_lower.starts_with('.') => {
                return Err(cur.err_at(&head, ParseErrorKind::UnknownDirective));
            }
            _ => {
                let item = parse_card(&mut cur, &head)?;
                let scope: &[Item] = match &open {
                    Some(s) => &s.items,
                    None => &design.top,
                };
                if scope.iter().any(|i| i.name() == item.name()) {
                    return Err(cur.err_at(&head, ParseErrorKind::DuplicateName));
                }
                match &mut open {
                    Some(s) => s.items.push(item),
                    None => design.top.push(item),
                }
            }
        }
    }
    if let Some(s) = open {
        return Err(ParseError {
            line: open_line,
            col: 1,
            token: s.name,
            kind: ParseErrorKind::MissingEnds,
        });
    }
    Ok(design)
}

fn parse_param(
    cur: &mut Cursor<'_>,
    head: &Tok<'_>,
    design: &mut Design,
    open: &mut Option<Subckt>,
) -> Result<(), ParseError> {
    if cur.peek().is_none() {
        return Err(cur.err_at(head, ParseErrorKind::Expected {
            what: "at least one name=number pair",
        }));
    }
    while let Some(t) = cur.next() {
        let Some((k, v)) = split_kv(t.text) else {
            return Err(cur.err_at(&t, ParseErrorKind::Expected { what: "name=number" }));
        };
        if !is_ident(k) {
            return Err(cur.err_at(&t, ParseErrorKind::Expected { what: "name=number" }));
        }
        let Some(num) = parse_number(v) else {
            return Err(cur.err_at(&t, ParseErrorKind::BadNumber));
        };
        let params = match open {
            Some(s) => &mut s.params,
            None => &mut design.params,
        };
        if params.iter().any(|(name, _)| name == k) {
            return Err(cur.err_at(&t, ParseErrorKind::DuplicateParam));
        }
        params.push((k.to_string(), num));
    }
    Ok(())
}

fn parse_tran(cur: &mut Cursor<'_>) -> Result<TranSpec, ParseError> {
    let t = cur.expect("a stop time")?;
    let Some(t_stop) = parse_number(t.text) else {
        return Err(cur.err_at(&t, ParseErrorKind::BadNumber));
    };
    if t_stop <= 0.0 {
        return Err(cur.err_at(
            &t,
            ParseErrorKind::Expected {
                what: "a positive stop time",
            },
        ));
    }
    let mut spec = TranSpec {
        t_stop,
        dt_max: None,
        method: None,
    };
    // Optional `dt_max`: a number in the second position. A keyword
    // here is the method instead (`.tran 1u trap` is legal).
    if let Some(t) = cur.peek() {
        if let Some(dt) = parse_number(t.text) {
            let t = t.clone();
            cur.next();
            if dt <= 0.0 {
                return Err(cur.err_at(
                    &t,
                    ParseErrorKind::Expected {
                        what: "a positive maximum step",
                    },
                ));
            }
            if dt > t_stop {
                return Err(cur.err_at(
                    &t,
                    ParseErrorKind::Expected {
                        what: "a maximum step no longer than the stop time",
                    },
                ));
            }
            spec.dt_max = Some(dt);
        }
    }
    if let Some(t) = cur.next() {
        spec.method = Some(match t.text.to_ascii_lowercase().as_str() {
            "be" => TranMethod::Be,
            "trap" => TranMethod::Trap,
            _ => return Err(cur.err_at(&t, ParseErrorKind::BadMethod)),
        });
    }
    cur.expect_done()?;
    Ok(spec)
}

fn parse_default(cur: &mut Cursor<'_>, design: &mut Design) -> Result<(), ParseError> {
    let t = cur.expect("nmos or pmos")?;
    let polarity = match t.text.to_ascii_lowercase().as_str() {
        "nmos" => Polarity::Nmos,
        "pmos" => Polarity::Pmos,
        _ => return Err(cur.err_at(&t, ParseErrorKind::BadPolarity)),
    };
    if design.class_default(polarity).is_some() {
        return Err(cur.err_at(&t, ParseErrorKind::DuplicateParam));
    }
    let mut def = ClassDefault {
        polarity,
        w: None,
        l: None,
    };
    while let Some(t) = cur.next() {
        let Some((k, v)) = split_kv(t.text) else {
            return Err(cur.err_at(&t, ParseErrorKind::Expected { what: "w=… or l=…" }));
        };
        let Some(num) = parse_number(v) else {
            return Err(cur.err_at(&t, ParseErrorKind::BadNumber));
        };
        let slot = match k {
            "w" => &mut def.w,
            "l" => &mut def.l,
            _ => return Err(cur.err_at(&t, ParseErrorKind::Expected { what: "w=… or l=…" })),
        };
        if slot.is_some() {
            return Err(cur.err_at(&t, ParseErrorKind::DuplicateParam));
        }
        *slot = Some(num);
    }
    design.defaults.push(def);
    Ok(())
}

fn parse_subckt_header(cur: &mut Cursor<'_>, design: &Design) -> Result<Subckt, ParseError> {
    let name_tok = cur.expect("a subcircuit name")?;
    if !is_ident(name_tok.text) {
        return Err(cur.err_at(&name_tok, ParseErrorKind::Expected {
            what: "a subcircuit name",
        }));
    }
    if design.subckt(name_tok.text).is_some() {
        return Err(cur.err_at(&name_tok, ParseErrorKind::DuplicateSubckt));
    }
    let mut sub = Subckt {
        name: name_tok.text.to_string(),
        ports: Vec::new(),
        params: Vec::new(),
        items: Vec::new(),
    };
    while let Some(t) = cur.next() {
        if let Some((k, v)) = split_kv(t.text) {
            // Parameter default (literal number).
            let Some(num) = parse_number(v) else {
                return Err(cur.err_at(&t, ParseErrorKind::BadNumber));
            };
            if sub.params.iter().any(|(name, _)| name == k) {
                return Err(cur.err_at(&t, ParseErrorKind::DuplicateParam));
            }
            sub.params.push((k.to_string(), num));
        } else {
            // Port, optionally role-tagged.
            if !sub.params.is_empty() {
                return Err(cur.err_at(&t, ParseErrorKind::Expected {
                    what: "name=number (ports must precede parameter defaults)",
                }));
            }
            let (name, role) = match t.text.split_once(':') {
                Some((n, r)) => {
                    let role = match r {
                        "in" => PortRole::In,
                        "out" => PortRole::Out,
                        "io" => PortRole::Bidir,
                        _ => return Err(cur.err_at(&t, ParseErrorKind::BadRole)),
                    };
                    (n, role)
                }
                None => (t.text, PortRole::Bidir),
            };
            if sub.ports.iter().any(|p| p.name == name) {
                return Err(cur.err_at(&t, ParseErrorKind::DuplicateName));
            }
            sub.ports.push(Port {
                name: name.to_string(),
                role,
            });
        }
    }
    Ok(sub)
}

fn parse_sweep_axis(cur: &mut Cursor<'_>) -> Result<SweepAxis, ParseError> {
    let mut axis = SweepAxis {
        devices: Vec::new(),
        grid: Vec::new(),
    };
    while let Some(t) = cur.next() {
        if let Some((k, v)) = split_kv(t.text) {
            if axis.devices.is_empty() {
                return Err(cur.err_at(&t, ParseErrorKind::Expected {
                    what: "a device path before the first grid",
                }));
            }
            if axis.grid.iter().any(|(name, _)| name == k) {
                return Err(cur.err_at(&t, ParseErrorKind::DuplicateParam));
            }
            let mut values = Vec::new();
            for piece in v.split(',') {
                let Some(num) = parse_number(piece) else {
                    return Err(cur.err_at(&t, ParseErrorKind::BadNumber));
                };
                values.push(num);
            }
            axis.grid.push((k.to_string(), values));
        } else {
            if !axis.grid.is_empty() {
                return Err(cur.err_at(&t, ParseErrorKind::Expected {
                    what: "param=v1,v2,… (devices must precede grids)",
                }));
            }
            axis.devices.push(t.text.to_string());
        }
    }
    if axis.devices.is_empty() {
        return Err(cur.err_here(ParseErrorKind::Expected {
            what: "a device path",
        }));
    }
    if axis.grid.is_empty() {
        return Err(cur.err_here(ParseErrorKind::Expected {
            what: "param=v1,v2,…",
        }));
    }
    Ok(axis)
}

fn parse_card(cur: &mut Cursor<'_>, head: &Tok<'_>) -> Result<Item, ParseError> {
    let name = head.text.to_string();
    let letter = name
        .chars()
        .next()
        .expect("card token is non-empty")
        .to_ascii_uppercase();
    let item = match letter {
        'R' => {
            let (a, b) = (cur.expect_node()?, cur.expect_node()?);
            let ohms = cur.expect_value()?;
            Item::Device(Device {
                name,
                nodes: vec![a, b],
                kind: DeviceKind::Resistor { ohms },
            })
        }
        'C' => {
            let (a, b) = (cur.expect_node()?, cur.expect_node()?);
            let farads = cur.expect_value()?;
            Item::Device(Device {
                name,
                nodes: vec![a, b],
                kind: DeviceKind::Capacitor { farads },
            })
        }
        'V' | 'I' => {
            let (p, n) = (cur.expect_node()?, cur.expect_node()?);
            let (wave, ac) = parse_wave(cur)?;
            let kind = if letter == 'V' {
                DeviceKind::Vsource { wave, ac }
            } else {
                DeviceKind::Isource { wave, ac }
            };
            Item::Device(Device {
                name,
                nodes: vec![p, n],
                kind,
            })
        }
        'E' | 'G' => {
            let nodes = vec![
                cur.expect_node()?,
                cur.expect_node()?,
                cur.expect_node()?,
                cur.expect_node()?,
            ];
            let v = cur.expect_value()?;
            let kind = if letter == 'E' {
                DeviceKind::Vcvs { gain: v }
            } else {
                DeviceKind::Vccs { gm: v }
            };
            Item::Device(Device { name, nodes, kind })
        }
        'D' => {
            let (p, n) = (cur.expect_node()?, cur.expect_node()?);
            let mut is_sat = None;
            let mut n_id = None;
            parse_kv_values(cur, &mut [("is", &mut is_sat), ("n", &mut n_id)])?;
            let (Some(is_sat), Some(n_id)) = (is_sat, n_id) else {
                return Err(cur.err_here(ParseErrorKind::Expected {
                    what: "is=… and n=…",
                }));
            };
            Item::Device(Device {
                name,
                nodes: vec![p, n],
                kind: DeviceKind::Diode { is_sat, n_id },
            })
        }
        'M' => {
            let nodes = vec![
                cur.expect_node()?,
                cur.expect_node()?,
                cur.expect_node()?,
                cur.expect_node()?,
            ];
            let pol_tok = cur.expect("nmos or pmos")?;
            let polarity = match pol_tok.text.to_ascii_lowercase().as_str() {
                "nmos" => Polarity::Nmos,
                "pmos" => Polarity::Pmos,
                _ => return Err(cur.err_at(&pol_tok, ParseErrorKind::BadPolarity)),
            };
            let mut w = None;
            let mut l = None;
            parse_kv_values(cur, &mut [("w", &mut w), ("l", &mut l)])?;
            Item::Device(Device {
                name,
                nodes,
                kind: DeviceKind::Mos { polarity, w, l },
            })
        }
        'L' => {
            let (a, b) = (cur.expect_node()?, cur.expect_node()?);
            let mut vsw = None;
            let mut iss = None;
            parse_kv_values(cur, &mut [("vsw", &mut vsw), ("iss", &mut iss)])?;
            let (Some(vsw), Some(iss)) = (vsw, iss) else {
                return Err(cur.err_here(ParseErrorKind::Expected {
                    what: "vsw=… and iss=…",
                }));
            };
            Item::Device(Device {
                name,
                nodes: vec![a, b],
                kind: DeviceKind::SclLoad { vsw, iss },
            })
        }
        'X' => {
            // Bare tokens are connections; the last bare token is the
            // subcircuit name; key=value pairs are parameter overrides.
            let mut bare: Vec<Tok<'_>> = Vec::new();
            let mut params: Vec<(String, Value)> = Vec::new();
            while let Some(t) = cur.next() {
                if let Some((k, v)) = split_kv(t.text) {
                    if params.iter().any(|(name, _)| name == k) {
                        return Err(cur.err_at(&t, ParseErrorKind::DuplicateParam));
                    }
                    let vt = Tok { text: v, col: t.col };
                    params.push((k.to_string(), cur.value_of(&vt)?));
                } else {
                    if !params.is_empty() {
                        return Err(cur.err_at(&t, ParseErrorKind::Expected {
                            what: "name=value (connections must precede overrides)",
                        }));
                    }
                    bare.push(t);
                }
            }
            let Some(sub_tok) = bare.pop() else {
                return Err(cur.err_here(ParseErrorKind::Expected {
                    what: "a subcircuit name",
                }));
            };
            if !is_ident(sub_tok.text) {
                return Err(cur.err_at(&sub_tok, ParseErrorKind::Expected {
                    what: "a subcircuit name",
                }));
            }
            return Ok(Item::Instance(Instance {
                name,
                conns: bare.iter().map(|t| cur.net(t)).collect::<Result<_, _>>()?,
                subckt: sub_tok.text.to_string(),
                params,
            }));
        }
        _ => return Err(cur.err_at(head, ParseErrorKind::UnknownCard)),
    };
    cur.expect_done()?;
    Ok(item)
}

/// Parses a run of `key=value` pairs into the given slots; keys outside
/// the slot list and duplicate keys are errors.
fn parse_kv_values(
    cur: &mut Cursor<'_>,
    slots: &mut [(&str, &mut Option<Value>)],
) -> Result<(), ParseError> {
    while let Some(t) = cur.next() {
        let Some((k, v)) = split_kv(t.text) else {
            return Err(cur.err_at(&t, ParseErrorKind::Expected { what: "name=value" }));
        };
        let vt = Tok { text: v, col: t.col };
        let value = cur.value_of(&vt)?;
        let Some(slot) = slots.iter_mut().find(|(name, _)| *name == k) else {
            return Err(cur.err_at(&t, ParseErrorKind::Expected { what: "a known parameter" }));
        };
        if slot.1.is_some() {
            return Err(cur.err_at(&t, ParseErrorKind::DuplicateParam));
        }
        *slot.1 = Some(value);
    }
    Ok(())
}

fn parse_wave(cur: &mut Cursor<'_>) -> Result<(WaveSpec, Value), ParseError> {
    let kw = cur.expect("dc, pulse, sine or pwl")?;
    let wave = match kw.text.to_ascii_lowercase().as_str() {
        "dc" => WaveSpec::Dc(cur.expect_value()?),
        "pulse" => WaveSpec::Pulse {
            v0: cur.expect_value()?,
            v1: cur.expect_value()?,
            delay: cur.expect_value()?,
            rise: cur.expect_value()?,
            fall: cur.expect_value()?,
            width: cur.expect_value()?,
            period: cur.expect_value()?,
        },
        "sine" => WaveSpec::Sine {
            offset: cur.expect_value()?,
            amp: cur.expect_value()?,
            freq: cur.expect_value()?,
            delay: cur.expect_value()?,
        },
        "pwl" => {
            let mut points = Vec::new();
            while cur
                .peek()
                .is_some_and(|t| !t.text.eq_ignore_ascii_case("ac"))
            {
                let t = cur.expect_value()?;
                let v = cur.expect_value()?;
                points.push((t, v));
            }
            if points.is_empty() {
                return Err(cur.err_here(ParseErrorKind::Expected {
                    what: "at least one time/value pair",
                }));
            }
            WaveSpec::Pwl(points)
        }
        _ => return Err(cur.err_at(&kw, ParseErrorKind::BadWave)),
    };
    let ac = if let Some(t) = cur.peek() {
        if t.text.eq_ignore_ascii_case("ac") {
            cur.next();
            cur.expect_value()?
        } else {
            return Err(cur.err_here(ParseErrorKind::Trailing));
        }
    } else {
        Value::Lit(0.0)
    };
    cur.expect_done()?;
    Ok((wave, ac))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn err(text: &str) -> ParseError {
        parse(text).expect_err("expected a parse error")
    }

    #[test]
    fn si_suffixes() {
        assert_eq!(parse_number("1k"), Some(1e3));
        assert_eq!(parse_number("100p"), Some(100e-12));
        assert_eq!(parse_number("1meg"), Some(1e6));
        assert_eq!(parse_number("2.5u"), Some(2.5e-6));
        assert_eq!(parse_number("1e-9"), Some(1e-9));
        assert_eq!(parse_number("-3m"), Some(-3e-3));
        assert_eq!(parse_number("x1"), None);
        assert_eq!(parse_number("1q"), None);
        assert_eq!(parse_number("inf"), None);
        assert_eq!(parse_number("nan"), None);
    }

    #[test]
    fn minimal_divider_parses() {
        let d = parse("V1 a 0 dc 1.0\nR1 a b 1k\nR2 b 0 1k\n.end\n").unwrap();
        assert_eq!(d.top.len(), 3);
        assert_eq!(d.top[0].name(), "V1");
        match &d.top[1] {
            Item::Device(dev) => assert_eq!(dev.kind, DeviceKind::Resistor {
                ohms: Value::Lit(1e3)
            }),
            _ => panic!("expected a device"),
        }
    }

    #[test]
    fn subckt_ports_roles_and_defaults() {
        let d = parse(
            ".subckt buf a:in y:out vdd:io gnd iss=1n\nR1 a y 1k\n.ends\nX1 p q r 0 buf iss=2n\n",
        )
        .unwrap();
        let s = &d.subckts[0];
        assert_eq!(s.ports.len(), 4);
        assert_eq!(s.ports[0].role, PortRole::In);
        assert_eq!(s.ports[1].role, PortRole::Out);
        assert_eq!(s.ports[2].role, PortRole::Bidir);
        assert_eq!(s.ports[3].role, PortRole::Bidir); // untagged default
        assert_eq!(s.params, vec![("iss".to_string(), 1e-9)]);
        match &d.top[0] {
            Item::Instance(x) => {
                assert_eq!(x.conns, vec!["p", "q", "r", "0"]);
                assert_eq!(x.subckt, "buf");
                assert_eq!(x.params, vec![("iss".to_string(), Value::Lit(2e-9))]);
            }
            _ => panic!("expected an instance"),
        }
    }

    // -- golden error messages: these strings are the contract a
    // service front-end renders to users, pinned byte-for-byte. --

    #[test]
    fn golden_unknown_card() {
        let e = err("Q1 a b 1k\n");
        assert_eq!(e.line, 1);
        assert_eq!(e.col, 1);
        assert_eq!(e.token, "Q1");
        assert_eq!(
            e.to_string(),
            "line 1, col 1: unknown card `Q1`: device cards start with R, C, V, I, E, G, D, M or L, instances with X"
        );
    }

    #[test]
    fn golden_bad_value() {
        let e = err("V1 a 0 dc 1.0\nR1 a 0 1k!\n");
        assert_eq!((e.line, e.col), (2, 8));
        assert_eq!(
            e.to_string(),
            "line 2, col 8: `1k!` is neither a number nor a parameter name"
        );
    }

    #[test]
    fn golden_missing_node() {
        let e = err("R1 a\n");
        assert_eq!(
            e.to_string(),
            "line 1, col 5: expected a node name, found end of line"
        );
    }

    #[test]
    fn golden_bad_wave() {
        let e = err("V1 a 0 step 1.0\n");
        assert_eq!(
            e.to_string(),
            "line 1, col 8: unknown stimulus `step`: expected dc, pulse, sine or pwl"
        );
    }

    #[test]
    fn golden_missing_ends() {
        let e = err(".subckt buf a b\nR1 a b 1k\n");
        assert_eq!((e.line, e.col), (1, 1));
        assert_eq!(e.token, "buf");
        assert_eq!(
            e.to_string(),
            "line 1, col 1: .subckt `buf` is never closed by .ends"
        );
    }

    #[test]
    fn golden_stray_ends_and_after_end() {
        assert_eq!(
            err(".ends\n").to_string(),
            "line 1, col 1: .ends without an open .subckt"
        );
        assert_eq!(
            err(".end\nR1 a 0 1k\n").to_string(),
            "line 2, col 1: card after .end"
        );
    }

    #[test]
    fn golden_duplicate_name() {
        let e = err("R1 a 0 1k\nR1 b 0 2k\n");
        assert_eq!(
            e.to_string(),
            "line 2, col 1: duplicate device or instance name `R1` in this scope"
        );
    }

    #[test]
    fn golden_bad_polarity_and_role() {
        assert_eq!(
            err("M1 d g s b cmos w=1u l=1u\n").to_string(),
            "line 1, col 12: unknown polarity `cmos`: expected nmos or pmos"
        );
        assert_eq!(
            err(".subckt buf a:inout\n.ends\n").to_string(),
            "line 1, col 13: unknown port role `a:inout`: expected in, out or io"
        );
    }

    #[test]
    fn golden_trailing_token() {
        assert_eq!(
            err("R1 a 0 1k extra\n").to_string(),
            "line 1, col 11: unexpected trailing token `extra`"
        );
    }

    #[test]
    fn golden_unknown_directive() {
        assert_eq!(
            err(".model foo\n").to_string(),
            "line 1, col 1: unknown directive `.model`: expected .param, .default, .subckt, .ends, .tran, .tech, .sweep or .end"
        );
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let d = parse("* a comment\n\n; another\nR1 a 0 1k\n").unwrap();
        assert_eq!(d.top.len(), 1);
    }

    #[test]
    fn sweep_cards_parse() {
        let d = parse(
            "R1 a 0 1k\n.tech tt ss ff\n.default nmos w=1u l=0.5u\n.sweep M1 M2 w=1u,2u,4u\n.sweep MT w=2u,4u l=0.5u,1u\n.end\n",
        )
        .unwrap();
        let sweep = d.sweep.unwrap();
        assert_eq!(sweep.techs, vec!["tt", "ss", "ff"]);
        assert_eq!(sweep.axes.len(), 2);
        assert_eq!(sweep.axes[0].devices, vec!["M1", "M2"]);
        assert_eq!(sweep.axes[0].grid[0].0, "w");
        assert_eq!(sweep.axes[0].grid[0].1, vec![1e-6, 2e-6, 4e-6]);
        assert_eq!(d.defaults[0].w, Some(1e-6));
        assert_eq!(d.defaults[0].l, Some(0.5e-6));
    }

    #[test]
    fn ac_magnitude_parses() {
        let d = parse("V1 a 0 dc 1.0 ac 0.5\n").unwrap();
        match &d.top[0] {
            Item::Device(Device {
                kind: DeviceKind::Vsource { ac, .. },
                ..
            }) => assert_eq!(*ac, Value::Lit(0.5)),
            _ => panic!("expected a vsource"),
        }
    }

    #[test]
    fn pwl_and_pulse_parse() {
        let d = parse("I1 a 0 pwl 0 0 1u 1n 2u 0\nV2 b 0 pulse 0 1 0 1n 1n 5n 10n\n").unwrap();
        match &d.top[0] {
            Item::Device(Device {
                kind: DeviceKind::Isource { wave: WaveSpec::Pwl(pts), .. },
                ..
            }) => assert_eq!(pts.len(), 3),
            _ => panic!("expected pwl isource"),
        }
    }

    #[test]
    fn tran_card_forms() {
        let d = parse("R1 a 0 1k\n.tran 1u\n.end\n").unwrap();
        assert_eq!(d.tran, Some(TranSpec {
            t_stop: 1e-6,
            dt_max: None,
            method: None,
        }));
        let d = parse("R1 a 0 1k\n.tran 1u 10n\n.end\n").unwrap();
        assert_eq!(d.tran.unwrap().dt_max, Some(1e-8));
        let d = parse("R1 a 0 1k\n.tran 1u 10n trap\n.end\n").unwrap();
        assert_eq!(d.tran.as_ref().unwrap().method, Some(TranMethod::Trap));
        // Method without dt_max is legal: the second field dispatches
        // on whether it parses as a number.
        let d = parse("R1 a 0 1k\n.tran 1u be\n.end\n").unwrap();
        let tran = d.tran.unwrap();
        assert_eq!(tran.dt_max, None);
        assert_eq!(tran.method, Some(TranMethod::Be));
    }

    #[test]
    fn golden_tran_errors() {
        assert_eq!(
            err(".tran 1u 10n euler\n").to_string(),
            "line 1, col 14: unknown integration method `euler`: expected be or trap"
        );
        assert_eq!(
            err(".tran 1u\n.tran 2u\n.end\n").to_string(),
            "line 2, col 1: duplicate .tran card"
        );
        assert_eq!(
            err(".tran\n").to_string(),
            "line 1, col 6: expected a stop time, found end of line"
        );
        assert_eq!(
            err(".tran abc\n").to_string(),
            "line 1, col 7: `abc` is not a number"
        );
        assert_eq!(
            err(".tran -1u\n").to_string(),
            "line 1, col 7: expected a positive stop time, found `-1u`"
        );
        assert_eq!(
            err(".tran 1u 0\n").to_string(),
            "line 1, col 10: expected a positive maximum step, found `0`"
        );
        assert_eq!(
            err(".tran 1u 1m\n").to_string(),
            "line 1, col 10: expected a maximum step no longer than the stop time, found `1m`"
        );
        assert_eq!(
            err(".subckt s a\n.tran 1u\n.ends\n").to_string(),
            "line 2, col 1: `.tran` is only valid at top level, not inside .subckt"
        );
        assert_eq!(
            err(".tran 1u 10n trap extra\n").to_string(),
            "line 1, col 19: unexpected trailing token `extra`"
        );
    }

    #[test]
    fn golden_dotted_net() {
        let e =
            err(".subckt half a\nR1 a mid 1k\nR2 mid 0 1k\n.ends\nX1 in half\nR9 X1.mid 0 1k\n");
        assert_eq!(
            (e.line, e.col, e.kind.clone()),
            (6, 4, ParseErrorKind::DottedNet)
        );
        assert_eq!(e.token, "X1.mid");
        assert_eq!(
            e.to_string(),
            "line 6, col 4: net name `X1.mid` contains `.`, which separates hierarchy levels in flattened names"
        );
        // Every net position of every card, and instance connections.
        for (text, col) in [
            ("M1 d g s.x 0 nmos\n", 8),
            ("E1 a 0 c. 0 2\n", 8),
            ("V1 .a 0 dc 1\n", 4),
            (".subckt s p\nR1 p 0 1k\n.ends\nX1 a.b s\n", 4),
        ] {
            let e = err(text);
            assert_eq!((e.kind, e.col), (ParseErrorKind::DottedNet, col), "{text}");
        }
        // Device paths in `.sweep` keep their dots.
        let d = parse(".subckt s g\nM1 0 g 0 0 nmos\n.ends\nX3 a s\n.sweep X3.M1 w=1u,2u\n.end\n")
            .unwrap();
        assert_eq!(d.sweep.unwrap().axes[0].devices, vec!["X3.M1"]);
    }
}
