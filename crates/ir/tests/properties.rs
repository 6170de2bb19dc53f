//! Property tests of the text dialect: any well-formed [`Design`] the
//! generator below can produce must survive `parse(to_text(d)) == d`,
//! and the canonical text must be a serializer fixed point.

use proptest::prelude::*;
use ulp_device::Polarity;
use ulp_ir::ast::*;
use ulp_ir::parse;

/// Deterministic design generator (SplitMix64 core). Produces only
/// designs that satisfy the dialect's invariants — card-letter device
/// names, unique names per scope, finite literals — which is exactly
/// the value space the serializer promises to round-trip.
struct Gen {
    s: u64,
}

impl Gen {
    fn new(seed: u64) -> Self {
        Gen {
            s: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn next(&mut self) -> u64 {
        self.s = self.s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> usize {
        (self.next() % bound) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }

    /// A finite literal spanning many magnitudes, both signs, and the
    /// subnormal/huge extremes that stress shortest-repr formatting.
    fn lit(&mut self) -> f64 {
        match self.below(12) {
            0 => 0.0,
            1 => -1.5,
            2 => 5e-324,
            3 => f64::MAX,
            4 => -f64::MIN_POSITIVE,
            _ => {
                let mantissa = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
                let exp = self.below(37) as i32 - 18;
                let sign = if self.chance(40) { -1.0 } else { 1.0 };
                sign * (0.5 + mantissa) * 10f64.powi(exp)
            }
        }
    }

    /// A strictly positive literal (geometry, component values).
    fn pos(&mut self) -> f64 {
        let mantissa = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        (0.5 + mantissa) * 10f64.powi(self.below(25) as i32 - 12)
    }

    fn value(&mut self, params: &[String]) -> Value {
        if !params.is_empty() && self.chance(30) {
            Value::Ref(params[self.below(params.len() as u64)].clone())
        } else {
            Value::Lit(self.lit())
        }
    }

    fn pos_value(&mut self, params: &[String]) -> Value {
        if !params.is_empty() && self.chance(30) {
            Value::Ref(params[self.below(params.len() as u64)].clone())
        } else {
            Value::Lit(self.pos())
        }
    }

    fn net(&mut self, nets: &[String]) -> String {
        if self.chance(15) {
            "0".to_string()
        } else {
            nets[self.below(nets.len() as u64)].clone()
        }
    }

    fn wave(&mut self, params: &[String]) -> WaveSpec {
        match self.below(4) {
            0 => WaveSpec::Dc(self.value(params)),
            1 => WaveSpec::Pulse {
                v0: self.value(params),
                v1: self.value(params),
                delay: self.value(params),
                rise: self.pos_value(params),
                fall: self.pos_value(params),
                width: self.value(params),
                period: self.value(params),
            },
            2 => WaveSpec::Sine {
                offset: self.value(params),
                amp: self.value(params),
                freq: self.pos_value(params),
                delay: self.value(params),
            },
            _ => {
                let n = 1 + self.below(4);
                WaveSpec::Pwl(
                    (0..n)
                        .map(|_| (self.value(params), self.value(params)))
                        .collect(),
                )
            }
        }
    }

    fn device(&mut self, idx: usize, nets: &[String], params: &[String]) -> Device {
        let kind = match self.below(9) {
            0 => DeviceKind::Resistor {
                ohms: self.pos_value(params),
            },
            1 => DeviceKind::Capacitor {
                farads: self.pos_value(params),
            },
            2 => DeviceKind::Vsource {
                wave: self.wave(params),
                ac: if self.chance(30) {
                    self.value(params)
                } else {
                    Value::Lit(0.0)
                },
            },
            3 => DeviceKind::Isource {
                wave: self.wave(params),
                ac: Value::Lit(0.0),
            },
            4 => DeviceKind::Vcvs {
                gain: self.value(params),
            },
            5 => DeviceKind::Vccs {
                gm: self.value(params),
            },
            6 => DeviceKind::Diode {
                is_sat: self.pos_value(params),
                n_id: self.pos_value(params),
            },
            7 => DeviceKind::Mos {
                polarity: if self.chance(50) {
                    Polarity::Nmos
                } else {
                    Polarity::Pmos
                },
                w: self.chance(70).then(|| self.pos_value(params)),
                l: self.chance(70).then(|| self.pos_value(params)),
            },
            _ => DeviceKind::SclLoad {
                vsw: self.pos_value(params),
                iss: self.pos_value(params),
            },
        };
        let letter = kind.card_letter();
        let arity = kind.pins().len();
        Device {
            name: format!("{letter}{idx}"),
            nodes: (0..arity).map(|_| self.net(nets)).collect(),
            kind,
        }
    }

    fn items(
        &mut self,
        count: usize,
        nets: &[String],
        params: &[String],
        subckts: &[(String, Vec<(String, f64)>)],
    ) -> Vec<Item> {
        (0..count)
            .map(|i| {
                if !subckts.is_empty() && self.chance(25) {
                    let (sub, sub_params) = &subckts[self.below(subckts.len() as u64)];
                    let conns = 1 + self.below(4);
                    let mut overrides = Vec::new();
                    for (k, _) in sub_params {
                        if self.chance(30) {
                            overrides.push((k.clone(), self.value(params)));
                        }
                    }
                    Item::Instance(Instance {
                        name: format!("X{i}"),
                        conns: (0..conns).map(|_| self.net(nets)).collect(),
                        subckt: sub.clone(),
                        params: overrides,
                    })
                } else {
                    Item::Device(self.device(i, nets, params))
                }
            })
            .collect()
    }

    fn design(&mut self) -> Design {
        let mut d = Design::default();
        let param_count = self.below(4);
        for i in 0..param_count {
            d.params.push((format!("p{i}"), self.lit()));
        }
        let param_names: Vec<String> = d.params.iter().map(|(k, _)| k.clone()).collect();
        if self.chance(40) {
            d.defaults.push(ClassDefault {
                polarity: Polarity::Nmos,
                w: self.chance(80).then(|| self.pos()),
                l: self.chance(80).then(|| self.pos()),
            });
        }
        if self.chance(25) {
            d.defaults.push(ClassDefault {
                polarity: Polarity::Pmos,
                w: Some(self.pos()),
                l: Some(self.pos()),
            });
        }
        let nets: Vec<String> = ["a", "b", "mid", "out", "n5"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let sub_count = self.below(3);
        for si in 0..sub_count {
            let port_count = 1 + self.below(3);
            let roles = [PortRole::In, PortRole::Out, PortRole::Bidir];
            let ports: Vec<Port> = (0..port_count)
                .map(|pi| Port {
                    name: format!("port{pi}"),
                    role: roles[self.below(3)],
                })
                .collect();
            let sp_count = self.below(3);
            let sparams: Vec<(String, f64)> =
                (0..sp_count).map(|k| (format!("sp{k}"), self.lit())).collect();
            let mut scope_params = param_names.clone();
            scope_params.extend(sparams.iter().map(|(k, _)| k.clone()));
            let mut scope_nets = nets.clone();
            scope_nets.extend(ports.iter().map(|p| p.name.clone()));
            let prior: Vec<(String, Vec<(String, f64)>)> = d
                .subckts
                .iter()
                .map(|s| (s.name.clone(), s.params.clone()))
                .collect();
            let item_count = self.below(5);
            let items = self.items(item_count, &scope_nets, &scope_params, &prior);
            d.subckts.push(Subckt {
                name: format!("sub{si}"),
                ports,
                params: sparams,
                items,
            });
        }
        let known: Vec<(String, Vec<(String, f64)>)> = d
            .subckts
            .iter()
            .map(|s| (s.name.clone(), s.params.clone()))
            .collect();
        let top_count = 1 + self.below(6);
        d.top = self.items(top_count, &nets, &param_names, &known);
        if self.chance(40) {
            // The parser refuses a step bound above the stop time, so
            // the larger of two draws is the stop time.
            let (a, b) = (self.pos(), self.pos());
            d.tran = Some(TranSpec {
                t_stop: a.max(b),
                dt_max: self.chance(60).then_some(a.min(b)),
            });
        }
        if self.chance(50) {
            let mut spec = SweepSpec::default();
            let techs = ["tt", "ss", "ff", "sf", "fs", "hot", "cold"];
            let tech_count = self.below(4);
            for t in techs.iter().take(tech_count) {
                spec.techs.push(t.to_string());
            }
            let axis_count = self.below(3);
            for _ in 0..axis_count {
                let dev_count = 1 + self.below(2);
                let grid_params = if self.chance(50) {
                    vec!["w"]
                } else {
                    vec!["w", "l"]
                };
                spec.axes.push(SweepAxis {
                    devices: (0..dev_count).map(|k| format!("M{k}")).collect(),
                    grid: grid_params
                        .into_iter()
                        .map(|p| {
                            let n = 1 + self.below(4);
                            (p.to_string(), (0..n).map(|_| self.pos()).collect())
                        })
                        .collect(),
                });
            }
            // An empty spec serializes to nothing and would parse back
            // as None; only attach a spec with at least one card.
            if !spec.techs.is_empty() || !spec.axes.is_empty() {
                d.sweep = Some(spec);
            }
        }
        d
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `parse(serialize(d)) == d` for arbitrary well-formed designs,
    /// and serialization is a fixed point on the canonical form.
    #[test]
    fn random_designs_round_trip(seed in any::<u64>()) {
        let design = Gen::new(seed).design();
        let text = design.to_text();
        let reparsed = parse(&text)
            .unwrap_or_else(|e| panic!("seed {seed}: canonical text failed to parse: {e}\n{text}"));
        prop_assert_eq!(&design, &reparsed, "seed {}:\n{}", seed, text);
        prop_assert_eq!(text, reparsed.to_text(), "seed {}: serializer not a fixed point", seed);
    }
}
