//! Seeded `.ulp` generators for the four workloads.
//!
//! Every generator takes the seed (through a [`SplitMix64`] stream) and
//! returns `.ulp` text; the program under test sees only that text. All
//! chains cascade the `scl_buf` cell of `examples/scl_buffer.ulp`: each
//! stage's outputs drive the next stage's inputs, and all stages share
//! the paper's 1 nA / 10 fF / 200 mV bias.

use rand::rngs::SplitMix64;
use rand::Rng;
use std::fmt::Write as _;

/// The shipped buffer testbench, signed off as-is.
pub const SCL_BUFFER_ULP: &str = include_str!("../../examples/scl_buffer.ulp");
/// The shipped double-tail comparator testbench, signed off as-is.
pub const COMP_DOUBLETAIL_ULP: &str = include_str!("../../examples/comp_doubletail.ulp");

/// Stages of the `chain_op` chain (3 unknowns per stage + 10 for the
/// testbench: 3010 unknowns).
pub const OP_STAGES: usize = 1000;
/// Stages of the `chain_tran` chain (310 unknowns).
pub const TRAN_STAGES: usize = 100;
/// Stages of the `sweep_campaign` chain (34 unknowns).
pub const SWEEP_STAGES: usize = 8;
/// Stages of the generated `signoff` chain (25 unknowns).
pub const SIGNOFF_STAGES: usize = 5;

/// MNA unknowns of an `n`-stage chain: `outp`, `outn` and the tail
/// node per stage, plus the testbench's five nodes (`vdd`, `ctl`,
/// `vcm`, `inp`, `inn`) and five branch currents (`VDD`, `VCTL`, `VCM`,
/// `EP`, `EN`).
pub fn chain_unknowns(stages: usize) -> usize {
    3 * stages + 10
}

/// How the differential control input `ctl` is driven.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Drive {
    /// A constant differential input, V.
    Dc(f64),
    /// One differential pulse from `-amp` to `+amp` and back (`amp` in
    /// V, times in s).
    Pulse {
        amp: f64,
        delay: f64,
        edge: f64,
        width: f64,
    },
}

/// A generated chain testbench.
#[derive(Debug, Clone, PartialEq)]
pub struct Chain {
    pub stages: usize,
    /// Input common mode, V.
    pub vcm: f64,
    pub drive: Drive,
    /// `.tran T_STOP DT_MAX` card, s.
    pub tran: Option<(f64, f64)>,
    /// `.tech` tokens; empty for no sweep.
    pub techs: Vec<&'static str>,
    pub sweeps: Vec<SweepCard>,
}

/// One `.sweep` card: device paths and `param=v1,v2,…` grids.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCard {
    pub devices: Vec<String>,
    pub grid: Vec<(&'static str, Vec<f64>)>,
}

/// Five significant digits keep the generated literals short.
fn lit(v: f64) -> String {
    format!("{v:.4e}")
}

impl Chain {
    fn dc(stages: usize, vcm: f64, vctl: f64) -> Chain {
        Chain {
            stages,
            vcm,
            drive: Drive::Dc(vctl),
            tran: None,
            techs: Vec::new(),
            sweeps: Vec::new(),
        }
    }

    /// The node names of stage `k`'s outputs (stage 0 is the testbench
    /// input pair).
    pub fn out_nodes(k: usize) -> (String, String) {
        if k == 0 {
            ("inp".to_string(), "inn".to_string())
        } else {
            (format!("o{k}p"), format!("o{k}n"))
        }
    }

    /// Renders the `.ulp` text.
    pub fn to_ulp(&self) -> String {
        let mut s = String::with_capacity(96 * self.stages + 1024);
        let _ = writeln!(s, "* {}-stage scl_buf chain, generated", self.stages);
        s.push_str(".default nmos w=1u l=0.5u\n\n");
        s.push_str(
            ".subckt scl_buf vdd:in inp:in inn:in outp:out outn:out vsw=0.2 iss=1n cl=10f\n\
             M1 outn inp cs 0 nmos\n\
             M2 outp inn cs 0 nmos\n\
             ITAIL cs 0 dc iss\n\
             LP vdd outp vsw=vsw iss=iss\n\
             LN vdd outn vsw=vsw iss=iss\n\
             CLP outp 0 cl\n\
             CLN outn 0 cl\n\
             .ends\n\n",
        );
        s.push_str("VDD vdd 0 dc 1.0\n");
        match self.drive {
            Drive::Dc(v) => {
                let _ = writeln!(s, "VCTL ctl 0 dc {}", lit(v));
            }
            Drive::Pulse {
                amp,
                delay,
                edge,
                width,
            } => {
                let _ = writeln!(
                    s,
                    "VCTL ctl 0 pulse {} {} {} {} {} {} 0",
                    lit(-amp),
                    lit(amp),
                    lit(delay),
                    lit(edge),
                    lit(edge),
                    lit(width)
                );
            }
        }
        let _ = writeln!(s, "VCM vcm 0 dc {}", lit(self.vcm));
        s.push_str("EP inp vcm ctl 0 0.5\nEN inn vcm ctl 0 -0.5\n");
        for k in 1..=self.stages {
            let (ip, in_) = Chain::out_nodes(k - 1);
            let (op, on) = Chain::out_nodes(k);
            let _ = writeln!(s, "X{k} vdd {ip} {in_} {op} {on} scl_buf");
        }
        if let Some((t_stop, dt_max)) = self.tran {
            let _ = writeln!(s, ".tran {} {}", lit(t_stop), lit(dt_max));
        }
        if !self.techs.is_empty() {
            let _ = writeln!(s, ".tech {}", self.techs.join(" "));
        }
        for card in &self.sweeps {
            let _ = write!(s, ".sweep {}", card.devices.join(" "));
            for (param, values) in &card.grid {
                let vals: Vec<String> = values.iter().map(|v| lit(*v)).collect();
                let _ = write!(s, " {param}={}", vals.join(","));
            }
            s.push('\n');
        }
        s.push_str(".end\n");
        s
    }
}

fn uniform(rng: &mut SplitMix64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.gen::<f64>()
}

/// A differential DC input of random sign and 20–100 mV magnitude.
fn vctl(rng: &mut SplitMix64) -> f64 {
    let size = uniform(rng, 0.02, 0.1);
    if rng.gen::<bool>() {
        size
    } else {
        -size
    }
}

/// `chain_op`, and the generated chain of `signoff`: a DC chain with
/// VCM in 0.6–0.9 V and a random VCTL.
pub fn chain_op(rng: &mut SplitMix64, stages: usize) -> Chain {
    let vcm = uniform(rng, 0.6, 0.9);
    Chain::dc(stages, vcm, vctl(rng))
}

/// `chain_tran`: a pulsed chain whose wavefront reaches only the first
/// few stages before `t_stop` (each stage delays ~ln2·CL·VSW/ISS ≈
/// 1.4 µs), leaving a latent tail for device bypass.
pub fn chain_tran(rng: &mut SplitMix64, stages: usize) -> Chain {
    let amp = uniform(rng, 0.05, 0.1);
    let delay = uniform(rng, 1e-6, 3e-6);
    let edge = uniform(rng, 50e-9, 200e-9);
    let width = uniform(rng, 6e-6, 10e-6);
    Chain {
        tran: Some((20e-6, 2e-6)),
        drive: Drive::Pulse {
            amp,
            delay,
            edge,
            width,
        },
        ..Chain::dc(stages, 0.75, 0.0)
    }
}

/// Draws `n` distinct sorted grid values in `[lo, hi]`, each a multiple
/// of `step`.
fn grid(rng: &mut SplitMix64, n: usize, lo: f64, hi: f64, step: f64) -> Vec<f64> {
    let slots = ((hi - lo) / step).round() as usize + 1;
    assert!(slots >= n, "grid too narrow");
    let mut picked: Vec<usize> = Vec::with_capacity(n);
    while picked.len() < n {
        let k = (rng.gen::<u64>() % slots as u64) as usize;
        if !picked.contains(&k) {
            picked.push(k);
        }
    }
    picked.sort_unstable();
    picked.iter().map(|&k| lo + step * k as f64).collect()
}

/// `sweep_campaign`: every `.tech` corner × a seeded w/l grid on the
/// first two stages' input pairs (7 × 4 × 3 × 3 = 252 points).
pub fn sweep_campaign(rng: &mut SplitMix64, stages: usize) -> Chain {
    let mut chain = chain_op(rng, stages);
    chain.techs = vec!["tt", "ss", "ff", "sf", "fs", "hot", "cold"];
    let pair = |k: usize| vec![format!("X{k}.M1"), format!("X{k}.M2")];
    chain.sweeps = vec![
        SweepCard {
            devices: pair(1),
            grid: vec![
                ("w", grid(rng, 4, 0.5e-6, 4e-6, 0.25e-6)),
                ("l", grid(rng, 3, 0.25e-6, 1.5e-6, 0.125e-6)),
            ],
        },
        SweepCard {
            devices: pair(2),
            grid: vec![("w", grid(rng, 3, 0.5e-6, 4e-6, 0.25e-6))],
        },
    ];
    chain
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use ulp_ir::{flatten, parse, SweepPlan};

    fn round_trips(text: &str) -> ulp_ir::Design {
        let d = parse(text).unwrap_or_else(|e| panic!("generated text must parse: {e}\n{text}"));
        let canon = d.to_text();
        let again = parse(&canon).expect("canonical text re-parses");
        assert_eq!(d, again, "round-trip changed the design");
        assert_eq!(canon, again.to_text(), "to_text is not a fixed point");
        d
    }

    #[test]
    fn generated_designs_parse_round_trip_and_flatten_to_the_expected_size() {
        for seed in [0u64, 1, 7, 12345] {
            let mut rng = SplitMix64::seed_from_u64(seed);
            let cases = [
                (chain_op(&mut rng, 60), 60),
                (chain_tran(&mut rng, TRAN_STAGES), TRAN_STAGES),
                (sweep_campaign(&mut rng, SWEEP_STAGES), SWEEP_STAGES),
                (chain_op(&mut rng, SIGNOFF_STAGES), SIGNOFF_STAGES),
            ];
            for (chain, stages) in cases {
                let d = round_trips(&chain.to_ulp());
                let nl = flatten(&d).expect("generated design flattens");
                assert_eq!(nl.unknown_count(), chain_unknowns(stages));
            }
        }
    }

    #[test]
    fn full_size_op_chain_flattens_to_3010_unknowns() {
        let mut rng = SplitMix64::seed_from_u64(3);
        let d = round_trips(&chain_op(&mut rng, OP_STAGES).to_ulp());
        assert_eq!(flatten(&d).unwrap().unknown_count(), 3010);
    }

    #[test]
    fn sweep_grid_expands_to_252_points() {
        let mut rng = SplitMix64::seed_from_u64(9);
        let d = round_trips(&sweep_campaign(&mut rng, SWEEP_STAGES).to_ulp());
        assert_eq!(SweepPlan::build(&d).unwrap().len(), 252);
    }

    #[test]
    fn shipped_examples_round_trip() {
        round_trips(SCL_BUFFER_ULP);
        round_trips(COMP_DOUBLETAIL_ULP);
    }

    #[test]
    fn same_seed_same_text() {
        let a = sweep_campaign(&mut SplitMix64::seed_from_u64(5), SWEEP_STAGES).to_ulp();
        let b = sweep_campaign(&mut SplitMix64::seed_from_u64(5), SWEEP_STAGES).to_ulp();
        let c = sweep_campaign(&mut SplitMix64::seed_from_u64(6), SWEEP_STAGES).to_ulp();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
