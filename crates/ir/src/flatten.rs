//! Recursive elaboration of a [`Design`] into a flat
//! [`ulp_spice::Netlist`].
//!
//! ## Naming contract
//!
//! Flattened names are the dot-joined instance path: a device `M1`
//! inside instance `x2` of instance `x1` becomes element `x1.x2.M1`,
//! and an internal net `cs` of that scope becomes node `x1.x2.cs`.
//! Ports do not create nodes — they bind to the parent net the
//! instance card connects, so the parent's name wins. The net `0` is
//! the global ground at every depth. Because `.` separates the levels,
//! the parser rejects it in net names
//! ([`ParseErrorKind::DottedNet`](crate::ParseErrorKind::DottedNet)),
//! so no written net can alias an internal one.
//!
//! ## Parameters
//!
//! Each instantiation evaluates in its own environment: global
//! `.param` constants, shadowed by the subcircuit's declared defaults,
//! shadowed by the instance card's overrides (which are themselves
//! evaluated in the *parent* environment, so values chain down the
//! hierarchy). Referencing an undeclared parameter, overriding one the
//! subcircuit does not declare, or producing a physically invalid
//! value (e.g. a non-positive resistance) is a typed [`FlattenError`],
//! not a panic.

use crate::ast::*;
use std::collections::HashMap;
use std::fmt;
use ulp_device::{Mosfet, Polarity};
use ulp_device::load::PmosLoad;
use ulp_spice::{Netlist, Node, Waveform};

/// Why a design could not be flattened.
#[derive(Debug, Clone, PartialEq)]
pub enum FlattenError {
    /// An instance names a subcircuit the design does not define.
    UnknownSubckt {
        /// Flattened instance path.
        instance: String,
        /// The missing definition name.
        subckt: String,
    },
    /// The instantiation hierarchy contains a cycle.
    Recursion {
        /// The definition-name path that closed the cycle.
        path: Vec<String>,
    },
    /// An instance connects a different number of nets than the
    /// subcircuit declares ports.
    PortArity {
        /// Flattened instance path.
        instance: String,
        /// The instantiated subcircuit.
        subckt: String,
        /// Declared port count.
        expected: usize,
        /// Connected net count.
        got: usize,
    },
    /// An instance overrides a parameter the subcircuit does not
    /// declare.
    UnknownOverride {
        /// Flattened instance path.
        instance: String,
        /// The undeclared parameter.
        param: String,
    },
    /// A device references a parameter not visible in its scope.
    UnknownParam {
        /// Flattened device path.
        device: String,
        /// The unresolved name.
        param: String,
    },
    /// A MOS card has no `w`/`l` and no `.default` for its class.
    MissingGeometry {
        /// Flattened device path.
        device: String,
        /// Which dimension is missing (`w` or `l`).
        field: &'static str,
    },
    /// A resolved value is outside the physical domain of its field.
    BadValue {
        /// Flattened device path.
        device: String,
        /// The offending field.
        field: &'static str,
        /// The resolved value.
        value: f64,
    },
}

impl fmt::Display for FlattenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlattenError::UnknownSubckt { instance, subckt } => {
                write!(f, "instance `{instance}` uses undefined subcircuit `{subckt}`")
            }
            FlattenError::Recursion { path } => {
                write!(f, "recursive subcircuit instantiation: {}", path.join(" -> "))
            }
            FlattenError::PortArity {
                instance,
                subckt,
                expected,
                got,
            } => write!(
                f,
                "instance `{instance}` connects {got} net(s) but subcircuit `{subckt}` declares {expected} port(s)"
            ),
            FlattenError::UnknownOverride { instance, param } => write!(
                f,
                "instance `{instance}` overrides `{param}`, which its subcircuit does not declare"
            ),
            FlattenError::UnknownParam { device, param } => {
                write!(f, "device `{device}` references undefined parameter `{param}`")
            }
            FlattenError::MissingGeometry { device, field } => write!(
                f,
                "MOS device `{device}` has no `{field}` and no .default for its class"
            ),
            FlattenError::BadValue {
                device,
                field,
                value,
            } => write!(
                f,
                "device `{device}`: `{field}` must be positive, got {}",
                crate::ast::fmt_f64(*value)
            ),
        }
    }
}

impl std::error::Error for FlattenError {}

/// Flattens `design` into a single-level [`Netlist`], recursively
/// elaborating every instance.
///
/// # Errors
///
/// Any [`FlattenError`] — unknown definitions, recursion, port-arity
/// mismatches, unresolved or invalid parameter values.
pub fn flatten(design: &Design) -> Result<Netlist, FlattenError> {
    let mut nl = Netlist::new();
    let genv: HashMap<&str, f64> = design
        .params
        .iter()
        .map(|(k, v)| (k.as_str(), *v))
        .collect();
    let mut stack = Vec::new();
    let mut scope = Scope {
        prefix: String::new(),
        env: genv.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        bindings: HashMap::new(),
    };
    emit_items(&mut nl, design, &design.top, &mut scope, &mut stack)?;
    Ok(nl)
}

/// One elaboration scope: the flattened name prefix, the parameter
/// environment, and the port→parent-node bindings.
struct Scope {
    prefix: String,
    env: HashMap<String, f64>,
    bindings: HashMap<String, Node>,
}

impl Scope {
    fn device_path(&self, name: &str) -> String {
        format!("{}{name}", self.prefix)
    }

    fn resolve_node(&self, nl: &mut Netlist, net: &str) -> Node {
        if net == "0" {
            return Netlist::GROUND;
        }
        if let Some(&n) = self.bindings.get(net) {
            return n;
        }
        nl.node(&format!("{}{net}", self.prefix))
    }

    fn eval(&self, device: &str, value: &Value) -> Result<f64, FlattenError> {
        match value {
            Value::Lit(v) => Ok(*v),
            Value::Ref(name) => {
                self.env
                    .get(name)
                    .copied()
                    .ok_or_else(|| FlattenError::UnknownParam {
                        device: device.to_string(),
                        param: name.clone(),
                    })
            }
        }
    }
}

fn emit_items(
    nl: &mut Netlist,
    design: &Design,
    items: &[Item],
    scope: &mut Scope,
    stack: &mut Vec<String>,
) -> Result<(), FlattenError> {
    for item in items {
        match item {
            Item::Device(d) => emit_device(nl, design, d, scope)?,
            Item::Instance(inst) => emit_instance(nl, design, inst, scope, stack)?,
        }
    }
    Ok(())
}

fn emit_instance(
    nl: &mut Netlist,
    design: &Design,
    inst: &Instance,
    scope: &mut Scope,
    stack: &mut Vec<String>,
) -> Result<(), FlattenError> {
    let path = scope.device_path(&inst.name);
    let Some(sub) = design.subckt(&inst.subckt) else {
        return Err(FlattenError::UnknownSubckt {
            instance: path,
            subckt: inst.subckt.clone(),
        });
    };
    if stack.contains(&sub.name) {
        let mut cycle = stack.clone();
        cycle.push(sub.name.clone());
        return Err(FlattenError::Recursion { path: cycle });
    }
    if inst.conns.len() != sub.ports.len() {
        return Err(FlattenError::PortArity {
            instance: path,
            subckt: sub.name.clone(),
            expected: sub.ports.len(),
            got: inst.conns.len(),
        });
    }
    // Child environment: globals, shadowed by subckt defaults,
    // shadowed by overrides evaluated in the *parent* scope.
    let mut env: HashMap<String, f64> = design
        .params
        .iter()
        .map(|(k, v)| (k.clone(), *v))
        .collect();
    for (k, v) in &sub.params {
        env.insert(k.clone(), *v);
    }
    for (k, v) in &inst.params {
        if !sub.params.iter().any(|(name, _)| name == k) {
            return Err(FlattenError::UnknownOverride {
                instance: path,
                param: k.clone(),
            });
        }
        env.insert(k.clone(), scope.eval(&path, v)?);
    }
    // Port bindings resolve in the parent scope.
    let bindings: HashMap<String, Node> = sub
        .ports
        .iter()
        .zip(&inst.conns)
        .map(|(p, net)| (p.name.clone(), scope.resolve_node(nl, net)))
        .collect();
    let mut child = Scope {
        prefix: format!("{path}."),
        env,
        bindings,
    };
    stack.push(sub.name.clone());
    emit_items(nl, design, &sub.items, &mut child, stack)?;
    stack.pop();
    Ok(())
}

/// Evaluates a value and requires it strictly positive — the IR-level
/// mirror of the `Netlist` builder's assertions, as typed errors.
fn positive(
    scope: &Scope,
    device: &str,
    field: &'static str,
    value: &Value,
) -> Result<f64, FlattenError> {
    let v = scope.eval(device, value)?;
    if v > 0.0 {
        Ok(v)
    } else {
        Err(FlattenError::BadValue {
            device: device.to_string(),
            field,
            value: v,
        })
    }
}

fn emit_device(
    nl: &mut Netlist,
    design: &Design,
    d: &Device,
    scope: &mut Scope,
) -> Result<(), FlattenError> {
    let path = scope.device_path(&d.name);
    let nodes: Vec<Node> = d.nodes.iter().map(|n| scope.resolve_node(nl, n)).collect();
    match &d.kind {
        DeviceKind::Resistor { ohms } => {
            let ohms = positive(scope, &path, "ohms", ohms)?;
            nl.resistor(&path, nodes[0], nodes[1], ohms);
        }
        DeviceKind::Capacitor { farads } => {
            let farads = positive(scope, &path, "farads", farads)?;
            nl.capacitor(&path, nodes[0], nodes[1], farads);
        }
        DeviceKind::Vsource { wave, ac } => {
            let wave = eval_wave(scope, &path, wave)?;
            let ac = scope.eval(&path, ac)?;
            nl.vsource_wave_ac(&path, nodes[0], nodes[1], wave, ac);
        }
        DeviceKind::Isource { wave, ac } => {
            let wave = eval_wave(scope, &path, wave)?;
            let ac = scope.eval(&path, ac)?;
            nl.isource_wave_ac(&path, nodes[0], nodes[1], wave, ac);
        }
        DeviceKind::Vcvs { gain } => {
            let gain = scope.eval(&path, gain)?;
            nl.vcvs(&path, nodes[0], nodes[1], nodes[2], nodes[3], gain);
        }
        DeviceKind::Vccs { gm } => {
            let gm = scope.eval(&path, gm)?;
            nl.vccs(&path, nodes[0], nodes[1], nodes[2], nodes[3], gm);
        }
        DeviceKind::Diode { is_sat, n_id } => {
            let is_sat = positive(scope, &path, "is", is_sat)?;
            let n_id = positive(scope, &path, "n", n_id)?;
            nl.diode(&path, nodes[0], nodes[1], is_sat, n_id);
        }
        DeviceKind::Mos { polarity, w, l } => {
            let (w, l) = mos_geometry(design, scope, &path, *polarity, w, l)?;
            let dev = Mosfet::new(*polarity, w, l);
            nl.mosfet(&path, nodes[0], nodes[1], nodes[2], nodes[3], dev);
        }
        DeviceKind::SclLoad { vsw, iss } => {
            let vsw = positive(scope, &path, "vsw", vsw)?;
            let iss = positive(scope, &path, "iss", iss)?;
            nl.scl_load(&path, nodes[0], nodes[1], PmosLoad::new(vsw), iss);
        }
    }
    Ok(())
}

fn mos_geometry(
    design: &Design,
    scope: &Scope,
    path: &str,
    polarity: Polarity,
    w: &Option<Value>,
    l: &Option<Value>,
) -> Result<(f64, f64), FlattenError> {
    let default = design.class_default(polarity);
    let resolve = |field: &'static str,
                   explicit: &Option<Value>,
                   fallback: Option<f64>|
     -> Result<f64, FlattenError> {
        match explicit {
            Some(v) => positive(scope, path, field, v),
            None => match fallback {
                Some(v) if v > 0.0 => Ok(v),
                Some(v) => Err(FlattenError::BadValue {
                    device: path.to_string(),
                    field,
                    value: v,
                }),
                None => Err(FlattenError::MissingGeometry {
                    device: path.to_string(),
                    field,
                }),
            },
        }
    };
    let w = resolve("w", w, default.and_then(|d| d.w))?;
    let l = resolve("l", l, default.and_then(|d| d.l))?;
    Ok((w, l))
}

fn eval_wave(scope: &Scope, path: &str, wave: &WaveSpec) -> Result<Waveform, FlattenError> {
    let ev = |v: &Value| scope.eval(path, v);
    Ok(match wave {
        WaveSpec::Dc(v) => Waveform::Dc(ev(v)?),
        WaveSpec::Pulse {
            v0,
            v1,
            delay,
            rise,
            fall,
            width,
            period,
        } => Waveform::Pulse {
            v0: ev(v0)?,
            v1: ev(v1)?,
            delay: ev(delay)?,
            rise: ev(rise)?,
            fall: ev(fall)?,
            width: ev(width)?,
            period: ev(period)?,
        },
        WaveSpec::Sine {
            offset,
            amp,
            freq,
            delay,
        } => Waveform::Sine {
            offset: ev(offset)?,
            amp: ev(amp)?,
            freq: ev(freq)?,
            delay: ev(delay)?,
        },
        WaveSpec::Pwl(points) => Waveform::Pwl(
            points
                .iter()
                .map(|(t, v)| Ok((ev(t)?, ev(v)?)))
                .collect::<Result<Vec<_>, FlattenError>>()?,
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    #[test]
    fn hierarchical_names_follow_the_contract() {
        let d = parse(
            ".subckt inner a b\nR1 a mid 1k\nR2 mid b 1k\n.ends\n.subckt outer p q\nX2 p q inner\n.ends\nV1 top 0 dc 1.0\nX1 top 0 outer\n.end\n",
        )
        .unwrap();
        let nl = flatten(&d).unwrap();
        let names: Vec<&str> = nl.elements().iter().map(|e| e.name()).collect();
        assert_eq!(names, vec!["V1", "X1.X2.R1", "X1.X2.R2"]);
        // The internal net of the innermost scope carries the full path.
        let mut nl = nl;
        let mid = nl.node("X1.X2.mid");
        assert_eq!(nl.node_name(mid), "X1.X2.mid");
    }

    #[test]
    fn a_top_level_net_cannot_alias_an_instance_net() {
        use crate::parse::ParseErrorKind;
        use ulp_spice::netlist::Element;
        // `X1.mid` is the flattened name of X1's internal net `mid`; a
        // top-level net spelled the same way would silently merge with it.
        let text =
            ".subckt half a\nR1 a mid 1k\nR2 mid 0 1k\n.ends\nX1 in half\nR9 NET 0 1k\n.end\n";
        let e = parse(&text.replace("NET", "X1.mid")).unwrap_err();
        assert_eq!((e.line, e.col, e.kind), (6, 4, ParseErrorKind::DottedNet));
        // Spelled without the separator, it is a net of its own.
        let nl = flatten(&parse(&text.replace("NET", "X1_mid")).unwrap()).unwrap();
        let top = |name: &str| match nl.element(name) {
            Some(Element::Resistor { a, .. }) => *a,
            e => panic!("unexpected element {e:?}"),
        };
        assert_eq!(nl.node_name(top("X1.R2")), "X1.mid");
        assert_eq!(nl.node_name(top("R9")), "X1_mid");
    }

    #[test]
    fn ports_bind_to_parent_nets_and_ground_is_global() {
        let d = parse(
            ".subckt load a\nR1 a 0 1k\n.ends\nV1 x 0 dc 1.0\nX1 x load\n.end\n",
        )
        .unwrap();
        let nl = flatten(&d).unwrap();
        // R1's `a` is the parent's `x`; its other terminal is ground.
        match &nl.elements()[1] {
            ulp_spice::netlist::Element::Resistor { a, b, .. } => {
                assert_eq!(nl.node_name(*a), "x");
                assert!(b.is_ground());
            }
            e => panic!("unexpected element {e:?}"),
        }
    }

    #[test]
    fn parameter_overrides_chain_through_scopes() {
        let d = parse(
            ".param base=1k\n.subckt stage a ohms=2k\nR1 a 0 ohms\n.ends\nX1 p stage ohms=base\nX2 p stage\nV1 p 0 dc 1.0\n.end\n",
        )
        .unwrap();
        let nl = flatten(&d).unwrap();
        let get = |name: &str| -> f64 {
            match nl.element(name) {
                Some(ulp_spice::netlist::Element::Resistor { ohms, .. }) => *ohms,
                other => panic!("{name}: {other:?}"),
            }
        };
        assert_eq!(get("X1.R1"), 1e3); // override via global
        assert_eq!(get("X2.R1"), 2e3); // subckt default
    }

    #[test]
    fn recursion_is_detected() {
        let d = parse(
            ".subckt a p\nX1 p b\n.ends\n.subckt b p\nX1 p a\n.ends\nX1 top a\n.end\n",
        )
        .unwrap();
        match flatten(&d) {
            Err(FlattenError::Recursion { path }) => {
                assert_eq!(path, vec!["a", "b", "a"]);
            }
            other => panic!("expected recursion error, got {other:?}"),
        }
    }

    #[test]
    fn self_recursion_is_detected() {
        let d = parse(".subckt a p\nX1 p a\n.ends\nX1 top a\n.end\n").unwrap();
        let err = flatten(&d).unwrap_err();
        assert!(matches!(err, FlattenError::Recursion { .. }), "{err}");
        assert_eq!(
            err.to_string(),
            "recursive subcircuit instantiation: a -> a"
        );
    }

    #[test]
    fn port_arity_mismatch_is_reported() {
        let d = parse(".subckt buf a b\nR1 a b 1k\n.ends\nX1 p buf\n.end\n").unwrap();
        assert_eq!(
            flatten(&d).unwrap_err().to_string(),
            "instance `X1` connects 1 net(s) but subcircuit `buf` declares 2 port(s)"
        );
    }

    #[test]
    fn unknown_subckt_param_and_override_errors() {
        let d = parse("X1 a b nothere\n.end\n").unwrap();
        assert_eq!(
            flatten(&d).unwrap_err().to_string(),
            "instance `X1` uses undefined subcircuit `nothere`"
        );

        let d = parse(".subckt buf a\nR1 a 0 ohms\n.ends\nX1 p buf\n.end\n").unwrap();
        assert_eq!(
            flatten(&d).unwrap_err().to_string(),
            "device `X1.R1` references undefined parameter `ohms`"
        );

        let d = parse(".subckt buf a\nR1 a 0 1k\n.ends\nX1 p buf gain=2\n.end\n").unwrap();
        assert_eq!(
            flatten(&d).unwrap_err().to_string(),
            "instance `X1` overrides `gain`, which its subcircuit does not declare"
        );
    }

    #[test]
    fn invalid_values_are_typed_errors_not_panics() {
        let d = parse("R1 a 0 -5\n.end\n").unwrap();
        assert_eq!(
            flatten(&d).unwrap_err().to_string(),
            "device `R1`: `ohms` must be positive, got -5.0"
        );
    }

    #[test]
    fn missing_geometry_without_default_errors() {
        let d = parse("M1 d g s 0 nmos\n.end\n").unwrap();
        assert_eq!(
            flatten(&d).unwrap_err().to_string(),
            "MOS device `M1` has no `w` and no .default for its class"
        );
        let d = parse(".default nmos w=1u l=0.5u\nM1 d g s 0 nmos\n.end\n").unwrap();
        let nl = flatten(&d).unwrap();
        match nl.element("M1") {
            Some(ulp_spice::netlist::Element::Mos { dev, .. }) => {
                assert_eq!(dev.w, 1e-6);
                assert_eq!(dev.l, 0.5e-6);
            }
            other => panic!("{other:?}"),
        }
    }
}
