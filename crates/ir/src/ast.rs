//! The netlist intermediate representation: plain data with stable
//! ordering.
//!
//! A [`Design`] is a list of [`Subckt`] definitions plus a top-level
//! testbench (devices and [`Instance`] cards), global `.param`
//! constants, per-device-class geometry defaults and an optional
//! [`SweepSpec`]. Everything is ordinary owned data — `Vec`s preserve
//! declaration order, so serializing and re-parsing a design
//! reproduces it exactly (see [`crate::parse`](fn@crate::parse) and [`Design::to_text`]).

use std::fmt;
use ulp_device::Polarity;

/// Direction role of a subcircuit port, in the frida `subcircuit()`
/// idiom (`I`/`O`/`B`). Roles are declarative metadata carried through
/// round-trips; the flattener treats all roles identically today.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PortRole {
    /// Signal input (`in`).
    In,
    /// Signal output (`out`).
    Out,
    /// Bidirectional / supply (`io`), the default when no role is
    /// written.
    #[default]
    Bidir,
}

impl PortRole {
    /// The dialect token for this role.
    pub fn token(self) -> &'static str {
        match self {
            PortRole::In => "in",
            PortRole::Out => "out",
            PortRole::Bidir => "io",
        }
    }
}

/// A named, role-tagged subcircuit port.
#[derive(Debug, Clone, PartialEq)]
pub struct Port {
    /// Net name inside the subcircuit.
    pub name: String,
    /// Direction role.
    pub role: PortRole,
}

/// A device parameter value: either a literal number or a reference to
/// a `.param` name resolved at flatten time (subcircuit defaults can be
/// overridden per instance).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Literal value (SI suffixes are resolved at parse time).
    Lit(f64),
    /// Named parameter, looked up in the instantiation environment.
    Ref(String),
}

impl Value {
    /// The literal value, if this is one.
    pub fn as_lit(&self) -> Option<f64> {
        match self {
            Value::Lit(v) => Some(*v),
            Value::Ref(_) => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Lit(v) => write!(f, "{}", fmt_f64(*v)),
            Value::Ref(name) => write!(f, "{name}"),
        }
    }
}

/// Stimulus specification for independent sources — the IR mirror of
/// [`ulp_spice::Waveform`], with every number a [`Value`].
#[derive(Debug, Clone, PartialEq)]
pub enum WaveSpec {
    /// Constant value (`dc <v>`).
    Dc(Value),
    /// Trapezoidal pulse train
    /// (`pulse <v0> <v1> <delay> <rise> <fall> <width> <period>`).
    Pulse {
        /// Initial value.
        v0: Value,
        /// Pulsed value.
        v1: Value,
        /// Delay before the first edge, s.
        delay: Value,
        /// Rise time, s.
        rise: Value,
        /// Fall time, s.
        fall: Value,
        /// Time at `v1`, s.
        width: Value,
        /// Repetition period, s (0 = single pulse).
        period: Value,
    },
    /// Sinusoid (`sine <offset> <amp> <freq> <delay>`).
    Sine {
        /// DC offset.
        offset: Value,
        /// Amplitude.
        amp: Value,
        /// Frequency, Hz.
        freq: Value,
        /// Start delay, s.
        delay: Value,
    },
    /// Piecewise-linear points (`pwl <t0> <v0> <t1> <v1> …`).
    Pwl(Vec<(Value, Value)>),
}

/// What a device card *is*, minus its name and nodes. Values may be
/// parameter references; geometry on MOS cards may be omitted and
/// filled from `.default` class defaults at flatten time.
#[derive(Debug, Clone, PartialEq)]
pub enum DeviceKind {
    /// Linear resistor (`R<name> a b <ohms>`).
    Resistor {
        /// Resistance, Ω.
        ohms: Value,
    },
    /// Linear capacitor (`C<name> a b <farads>`).
    Capacitor {
        /// Capacitance, F.
        farads: Value,
    },
    /// Independent voltage source
    /// (`V<name> p n dc <v> [ac <mag>]`, or `pulse`/`sine`/`pwl`).
    Vsource {
        /// Large-signal stimulus.
        wave: WaveSpec,
        /// AC magnitude for small-signal analysis.
        ac: Value,
    },
    /// Independent current source (same stimulus grammar as `V`).
    Isource {
        /// Large-signal stimulus.
        wave: WaveSpec,
        /// AC magnitude.
        ac: Value,
    },
    /// Voltage-controlled voltage source (`E<name> p n cp cn <gain>`).
    Vcvs {
        /// Voltage gain.
        gain: Value,
    },
    /// Voltage-controlled current source (`G<name> p n cp cn <gm>`).
    Vccs {
        /// Transconductance, S.
        gm: Value,
    },
    /// Junction diode (`D<name> p n is=<v> n=<v>`).
    Diode {
        /// Saturation current, A.
        is_sat: Value,
        /// Ideality factor.
        n_id: Value,
    },
    /// EKV MOS device (`M<name> d g s b nmos|pmos [w=<v>] [l=<v>]`).
    Mos {
        /// Channel polarity.
        polarity: Polarity,
        /// Drawn width, m (class default when omitted).
        w: Option<Value>,
        /// Drawn length, m (class default when omitted).
        l: Option<Value>,
    },
    /// Replica-calibrated STSCL load
    /// (`L<name> a b vsw=<v> iss=<v>`).
    SclLoad {
        /// Calibrated output swing, V.
        vsw: Value,
        /// Calibration tail current, A.
        iss: Value,
    },
}

impl DeviceKind {
    /// Terminal names in card argument order — the pin map of this
    /// device class.
    pub fn pins(&self) -> &'static [&'static str] {
        match self {
            DeviceKind::Resistor { .. }
            | DeviceKind::Capacitor { .. }
            | DeviceKind::SclLoad { .. } => &["a", "b"],
            DeviceKind::Vsource { .. } | DeviceKind::Isource { .. } | DeviceKind::Diode { .. } => {
                &["p", "n"]
            }
            DeviceKind::Vcvs { .. } | DeviceKind::Vccs { .. } => &["p", "n", "cp", "cn"],
            DeviceKind::Mos { .. } => &["d", "g", "s", "b"],
        }
    }

    /// The card letter this device class serializes under.
    pub fn card_letter(&self) -> char {
        match self {
            DeviceKind::Resistor { .. } => 'R',
            DeviceKind::Capacitor { .. } => 'C',
            DeviceKind::Vsource { .. } => 'V',
            DeviceKind::Isource { .. } => 'I',
            DeviceKind::Vcvs { .. } => 'E',
            DeviceKind::Vccs { .. } => 'G',
            DeviceKind::Diode { .. } => 'D',
            DeviceKind::Mos { .. } => 'M',
            DeviceKind::SclLoad { .. } => 'L',
        }
    }
}

/// One device card: a name (whose first letter must match the class
/// card letter), positional nodes, and the class payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    /// Instance name (e.g. `M1`, `RLOAD`).
    pub name: String,
    /// Connected net names, in [`DeviceKind::pins`] order.
    pub nodes: Vec<String>,
    /// Device class and parameters.
    pub kind: DeviceKind,
}

impl Device {
    /// `(pin, net)` pairs — the explicit pin map of this card.
    pub fn pin_map(&self) -> impl Iterator<Item = (&'static str, &str)> + '_ {
        self.kind
            .pins()
            .iter()
            .zip(&self.nodes)
            .map(|(&p, n)| (p, n.as_str()))
    }
}

/// A hierarchical subcircuit instantiation
/// (`X<name> conn… <subckt> [param=value …]`).
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Instance name (becomes the `name.` prefix of flattened nets).
    pub name: String,
    /// Parent nets bound to the subcircuit ports, positionally.
    pub conns: Vec<String>,
    /// Name of the instantiated subcircuit.
    pub subckt: String,
    /// Parameter overrides, evaluated in the *parent* scope.
    pub params: Vec<(String, Value)>,
}

/// One card in a subcircuit body or the top-level testbench, in
/// declaration order.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// A primitive device.
    Device(Device),
    /// A subcircuit instantiation.
    Instance(Instance),
}

impl Item {
    /// The card's instance name.
    pub fn name(&self) -> &str {
        match self {
            Item::Device(d) => &d.name,
            Item::Instance(i) => &i.name,
        }
    }
}

/// A subcircuit definition: `.subckt name port[:role]… [param=default…]`
/// through `.ends`.
#[derive(Debug, Clone, PartialEq)]
pub struct Subckt {
    /// Definition name.
    pub name: String,
    /// Ports, in header order.
    pub ports: Vec<Port>,
    /// Parameter defaults (literal numbers), overridable per instance.
    pub params: Vec<(String, f64)>,
    /// Body cards, in declaration order.
    pub items: Vec<Item>,
}

impl Subckt {
    /// Position of the named port, if declared.
    pub fn port_index(&self, name: &str) -> Option<usize> {
        self.ports.iter().position(|p| p.name == name)
    }
}

/// Per-device-class geometry defaults
/// (`.default nmos|pmos [w=<num>] [l=<num>]`), applied to MOS cards
/// that omit `w`/`l`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDefault {
    /// Which device class the defaults apply to.
    pub polarity: Polarity,
    /// Default drawn width, m.
    pub w: Option<f64>,
    /// Default drawn length, m.
    pub l: Option<f64>,
}

/// One sweep axis (`.sweep dev… param=v1,v2,… …`): a set of flattened
/// device paths swept jointly over the cartesian product of the listed
/// parameter grids.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepAxis {
    /// Flattened device paths (e.g. `x1.MNINP`) that move together.
    pub devices: Vec<String>,
    /// `(param, values)` grids, in declaration order; the first param
    /// varies slowest within the axis.
    pub grid: Vec<(String, Vec<f64>)>,
}

/// Corrector family requested by a `.tran` card's optional third field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TranMethod {
    /// Backward Euler (`be`): L-stable, first order.
    Be,
    /// Trapezoidal (`trap`): A-stable, second order.
    Trap,
}

impl TranMethod {
    /// The keyword used in `.tran` cards.
    pub fn token(self) -> &'static str {
        match self {
            TranMethod::Be => "be",
            TranMethod::Trap => "trap",
        }
    }
}

/// Transient analysis card (`.tran t_stop [dt_max] [be|trap]`).
///
/// `t_stop` is the simulated interval; `dt_max` bounds the adaptive
/// engine's step size (engines pick their own default when omitted);
/// `method` pins the corrector family (adaptive TRAP↔BE selection when
/// omitted).
#[derive(Debug, Clone, PartialEq)]
pub struct TranSpec {
    /// Simulated stop time, s. Strictly positive.
    pub t_stop: f64,
    /// Optional upper bound on the time step, s.
    pub dt_max: Option<f64>,
    /// Optional corrector family override.
    pub method: Option<TranMethod>,
}

/// Declarative sweep specification: named technology targets times the
/// per-device geometry grids.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepSpec {
    /// Named tech targets (`.tech tt ss …`); empty means nominal only.
    pub techs: Vec<String>,
    /// Sweep axes, in declaration order; the first axis varies slowest
    /// after the tech dimension.
    pub axes: Vec<SweepAxis>,
}

/// A complete parsed design: subcircuit definitions plus the top-level
/// testbench.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Design {
    /// Global `.param` constants, visible in every scope.
    pub params: Vec<(String, f64)>,
    /// Per-class geometry defaults.
    pub defaults: Vec<ClassDefault>,
    /// Subcircuit definitions, in file order.
    pub subckts: Vec<Subckt>,
    /// Top-level testbench cards, in file order.
    pub top: Vec<Item>,
    /// Optional transient analysis card.
    pub tran: Option<TranSpec>,
    /// Optional sweep specification.
    pub sweep: Option<SweepSpec>,
}

impl Design {
    /// Finds a subcircuit definition by name.
    pub fn subckt(&self, name: &str) -> Option<&Subckt> {
        self.subckts.iter().find(|s| s.name == name)
    }

    /// Geometry default for a device class, if declared.
    pub fn class_default(&self, polarity: Polarity) -> Option<&ClassDefault> {
        self.defaults.iter().find(|d| d.polarity == polarity)
    }

    /// Serializes the design to the canonical text form.
    ///
    /// The output is byte-stable (same design, same bytes) and
    /// round-trips: `parse(&d.to_text()) == d` for any well-formed
    /// design. Canonical order is `.param`, `.default`, subcircuit
    /// definitions, testbench cards, `.tran`, `.tech`, `.sweep`,
    /// `.end`.
    ///
    /// # Panics
    ///
    /// Panics when a device name does not start with its class card
    /// letter or an instance name does not start with `X` — such a
    /// design could not be re-parsed (constructors in this crate never
    /// build one).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.params {
            out.push_str(&format!(".param {name}={}\n", fmt_f64(*v)));
        }
        for d in &self.defaults {
            out.push_str(&format!(".default {}", d.polarity));
            if let Some(w) = d.w {
                out.push_str(&format!(" w={}", fmt_f64(w)));
            }
            if let Some(l) = d.l {
                out.push_str(&format!(" l={}", fmt_f64(l)));
            }
            out.push('\n');
        }
        for s in &self.subckts {
            out.push_str(&format!(".subckt {}", s.name));
            for p in &s.ports {
                out.push_str(&format!(" {}:{}", p.name, p.role.token()));
            }
            for (name, v) in &s.params {
                out.push_str(&format!(" {name}={}", fmt_f64(*v)));
            }
            out.push('\n');
            for item in &s.items {
                write_item(&mut out, item);
            }
            out.push_str(".ends\n");
        }
        for item in &self.top {
            write_item(&mut out, item);
        }
        if let Some(tran) = &self.tran {
            out.push_str(&format!(".tran {}", fmt_f64(tran.t_stop)));
            if let Some(dt) = tran.dt_max {
                out.push_str(&format!(" {}", fmt_f64(dt)));
            }
            if let Some(m) = tran.method {
                out.push_str(&format!(" {}", m.token()));
            }
            out.push('\n');
        }
        if let Some(sweep) = &self.sweep {
            if !sweep.techs.is_empty() {
                out.push_str(".tech");
                for t in &sweep.techs {
                    out.push_str(&format!(" {t}"));
                }
                out.push('\n');
            }
            for axis in &sweep.axes {
                out.push_str(".sweep");
                for d in &axis.devices {
                    out.push_str(&format!(" {d}"));
                }
                for (param, values) in &axis.grid {
                    out.push_str(&format!(" {param}="));
                    for (i, v) in values.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str(&fmt_f64(*v));
                    }
                }
                out.push('\n');
            }
        }
        out.push_str(".end\n");
        out
    }
}

fn write_item(out: &mut String, item: &Item) {
    match item {
        Item::Device(d) => {
            let letter = d.kind.card_letter();
            assert!(
                d.name
                    .chars()
                    .next()
                    .is_some_and(|c| c.eq_ignore_ascii_case(&letter)),
                "device `{}` must be named with a leading `{letter}` to serialize",
                d.name
            );
            out.push_str(&d.name);
            for n in &d.nodes {
                out.push_str(&format!(" {n}"));
            }
            match &d.kind {
                DeviceKind::Resistor { ohms } => out.push_str(&format!(" {ohms}")),
                DeviceKind::Capacitor { farads } => out.push_str(&format!(" {farads}")),
                DeviceKind::Vsource { wave, ac } | DeviceKind::Isource { wave, ac } => {
                    write_wave(out, wave);
                    if *ac != Value::Lit(0.0) {
                        out.push_str(&format!(" ac {ac}"));
                    }
                }
                DeviceKind::Vcvs { gain } => out.push_str(&format!(" {gain}")),
                DeviceKind::Vccs { gm } => out.push_str(&format!(" {gm}")),
                DeviceKind::Diode { is_sat, n_id } => {
                    out.push_str(&format!(" is={is_sat} n={n_id}"));
                }
                DeviceKind::Mos { polarity, w, l } => {
                    out.push_str(&format!(" {polarity}"));
                    if let Some(w) = w {
                        out.push_str(&format!(" w={w}"));
                    }
                    if let Some(l) = l {
                        out.push_str(&format!(" l={l}"));
                    }
                }
                DeviceKind::SclLoad { vsw, iss } => {
                    out.push_str(&format!(" vsw={vsw} iss={iss}"));
                }
            }
            out.push('\n');
        }
        Item::Instance(inst) => {
            assert!(
                inst.name
                    .chars()
                    .next()
                    .is_some_and(|c| c.eq_ignore_ascii_case(&'X')),
                "instance `{}` must be named with a leading `X` to serialize",
                inst.name
            );
            out.push_str(&inst.name);
            for c in &inst.conns {
                out.push_str(&format!(" {c}"));
            }
            out.push_str(&format!(" {}", inst.subckt));
            for (name, v) in &inst.params {
                out.push_str(&format!(" {name}={v}"));
            }
            out.push('\n');
        }
    }
}

fn write_wave(out: &mut String, wave: &WaveSpec) {
    match wave {
        WaveSpec::Dc(v) => out.push_str(&format!(" dc {v}")),
        WaveSpec::Pulse {
            v0,
            v1,
            delay,
            rise,
            fall,
            width,
            period,
        } => out.push_str(&format!(
            " pulse {v0} {v1} {delay} {rise} {fall} {width} {period}"
        )),
        WaveSpec::Sine {
            offset,
            amp,
            freq,
            delay,
        } => out.push_str(&format!(" sine {offset} {amp} {freq} {delay}")),
        WaveSpec::Pwl(points) => {
            out.push_str(" pwl");
            for (t, v) in points {
                out.push_str(&format!(" {t} {v}"));
            }
        }
    }
}

/// Formats an `f64` in the shortest form that parses back to the exact
/// same value (Rust's `{:?}` float repr) — the contract behind the
/// byte-stable, lossless round-trip of [`Design::to_text`].
pub fn fmt_f64(v: f64) -> String {
    format!("{v:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_formatting_round_trips_exactly() {
        for v in [
            0.0,
            1.0,
            -1.0,
            1e-9,
            100e-12,
            0.15,
            600.0,
            std::f64::consts::PI,
            5e-324,
            f64::MAX,
            -2.5e-17,
        ] {
            let s = fmt_f64(v);
            let back: f64 = s.parse().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} -> {s} -> {back}");
        }
    }

    #[test]
    fn pin_maps_name_every_node() {
        let d = Device {
            name: "M1".into(),
            nodes: vec!["d".into(), "g".into(), "s".into(), "b".into()],
            kind: DeviceKind::Mos {
                polarity: Polarity::Nmos,
                w: None,
                l: None,
            },
        };
        let pins: Vec<_> = d.pin_map().collect();
        assert_eq!(pins, vec![("d", "d"), ("g", "g"), ("s", "s"), ("b", "b")]);
    }

    #[test]
    #[should_panic(expected = "must be named with a leading `R`")]
    fn serializer_rejects_mismatched_card_letter() {
        let d = Design {
            top: vec![Item::Device(Device {
                name: "Q1".into(),
                nodes: vec!["a".into(), "0".into()],
                kind: DeviceKind::Resistor {
                    ohms: Value::Lit(1.0),
                },
            })],
            ..Design::default()
        };
        let _ = d.to_text();
    }
}
