//! The four workloads: generated `.ulp` text in, checked results out.
//!
//! Each workload owns its generated inputs and the references its
//! output checks compare against. Untraced work goes through the same
//! default entry points a user calls; traced work goes through the
//! `*_traced` entry points with a [`Counts`] tracer, plus laps around
//! every layer the benchmark calls itself.

use crate::gen::{self, Chain};
use crate::trace::{lap, median, slope, time_median, Counts, JobTrace, MnaProbe};
use rand::rngs::SplitMix64;
use rand::SeedableRng;
use std::time::Instant;
use ulp_device::Technology;
use ulp_exec::{CampaignReport, Ensemble, TrialCtx};
use ulp_ir::{flatten, parse, Design, SweepPlan};
use ulp_spice::absint::{self, CertifyOptions, Verdict};
use ulp_spice::dcop::{DcOperatingPoint, NewtonOptions};
use ulp_spice::lint::{self, LintConfig, LintContext};
use ulp_spice::mna::{AssembleMode, MnaWorkspace, SolverKind};
use ulp_spice::tran::{AdaptiveOptions, TranOptions, Transient};
use ulp_spice::{erc, Netlist};

/// Largest KCL residual accepted at a DC solution, A: a millionth of
/// the 1 nA every chain branch carries (converged solves sit near
/// 1e-19 A).
const KCL_TOL: f64 = 1e-15;
/// Sparse and dense solutions of the reduced chain agree to this, V.
const DENSE_TOL: f64 = 1e-12;
/// Adaptive transient stays within this of the fixed-step oracle, V.
const TRAN_TOL: f64 = 2e-3;
/// Stages of the reduced chain the dense oracle solves.
const DENSE_STAGES: usize = 30;
/// Fixed steps of the transient oracle over `t_stop`.
const ORACLE_STEPS: f64 = 2000.0;

/// Shared solver settings.
pub struct Ctx {
    pub tech: Technology,
    /// The damped Newton the repository uses for nA-class circuits
    /// (`max_step` 0.05 V).
    pub newton: NewtonOptions,
    /// `sweep_campaign` workers.
    pub workers: usize,
    pub seed: u64,
}

impl Ctx {
    pub fn new(seed: u64, workers: usize) -> Ctx {
        Ctx {
            tech: Technology::default(),
            newton: NewtonOptions {
                max_iter: 800,
                max_step: 0.05,
                ..NewtonOptions::default()
            },
            workers,
            seed,
        }
    }
}

/// Job times and failures.
pub struct Tally {
    pub seconds: Vec<f64>,
    pub failed: usize,
}

impl Tally {
    /// Reserves and touches room for `n` jobs up front, so the sample
    /// buffer's share of `peak_rss_mb` does not move with throughput.
    pub fn with_capacity(n: usize) -> Tally {
        let mut seconds = Vec::with_capacity(n);
        seconds.resize(n, 0.0);
        std::hint::black_box(&mut seconds[..]);
        seconds.clear();
        Tally { seconds, failed: 0 }
    }

    /// One job.
    pub fn push(&mut self, seconds: f64, ok: bool) {
        self.seconds.push(seconds);
        self.failed += usize::from(!ok);
    }
}

/// One traced job.
pub struct TracedSample {
    pub seconds: f64,
    pub ok: bool,
    pub trace: JobTrace,
}

/// Campaign-level statistics of the traced `sweep_campaign` loop.
#[derive(Default)]
pub struct CampaignStats {
    pub campaigns: usize,
    /// Σ trial seconds over all campaigns.
    pub busy: f64,
    /// Σ ensemble wall × workers.
    pub capacity: f64,
    /// Σ (ensemble wall − busiest worker's trial seconds): dealing,
    /// stealing, joining and gathering.
    pub gather: f64,
}

pub trait Workload {
    /// One line describing the generated inputs.
    fn describe(&self) -> String;
    /// Output checks that failed while setting up.
    fn setup_failures(&self) -> usize;
    /// Output checks against references too costly to hold during the
    /// loop; run after it (and after peak memory is read). Returns the
    /// number that failed.
    fn verify(&mut self, ctx: &Ctx) -> usize;
    /// The worst value each output check has seen so far.
    fn checks(&self) -> String;
    /// One unit of untraced work (a job, or a campaign of jobs).
    fn run(&mut self, ctx: &Ctx, out: &mut Tally);
    /// One unit of traced work.
    fn run_traced(&mut self, ctx: &Ctx, out: &mut Vec<TracedSample>, camp: &mut CampaignStats);
    /// The workload's own netlist and state for pricing the MNA calls
    /// inside its solvers; `Ok(None)` when it runs no solver.
    fn mna_probe(&self, ctx: &Ctx) -> Result<Option<MnaProbe>, String>;
    /// Log-log slopes of `flatten` and of the symbolic factorization
    /// (0 when the workload runs no solver) between 1/3 size and full
    /// size of its chain.
    fn slopes(&self, ctx: &Ctx) -> Result<(f64, f64), String>;
    /// The deterministic counts of every distinct input, in input order.
    fn reference_counts(&self) -> Vec<Counts>;
}

pub fn setup(name: &str, ctx: &Ctx) -> Option<Box<dyn Workload>> {
    Some(match name {
        "chain_op" => Box::new(ChainOp::setup(ctx)),
        "chain_tran" => Box::new(ChainTran::setup(ctx)),
        "sweep_campaign" => Box::new(SweepCampaign::setup(ctx)),
        "signoff" => Box::new(Signoff::setup(ctx)),
        _ => return None,
    })
}

pub const NAMES: [&str; 4] = ["chain_op", "chain_tran", "sweep_campaign", "signoff"];

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// FNV-1a over the bit patterns of `x`.
fn digest(x: &[f64]) -> u64 {
    x.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ v.to_bits()).wrapping_mul(0x1000_0000_01b3)
    })
}

/// ∞-norm KCL residual of the DC system at `x`, A.
fn kcl_residual(nl: &Netlist, ctx: &Ctx, x: &[f64]) -> f64 {
    let mut ws = MnaWorkspace::new(nl, SolverKind::Auto);
    ws.assemble(nl, &ctx.tech, x, AssembleMode::Dc, ctx.newton.gmin);
    ws.residual_inf(x)
}

/// text → parse → flatten, lapped when traced.
fn elaborate(text: &str, trace: &mut Option<&mut JobTrace>) -> Result<(Design, Netlist), String> {
    let design = lap(trace, "ir.parse_s", || parse(text)).map_err(err)?;
    let nl = lap(trace, "ir.flatten_s", || flatten(&design)).map_err(err)?;
    Ok((design, nl))
}

/// DC operating point through the default entry point, or through the
/// traced one after a lapped ERC gate.
fn solve_op(
    nl: &Netlist,
    tech: &Technology,
    ctx: &Ctx,
    trace: &mut Option<&mut JobTrace>,
) -> Result<Vec<f64>, String> {
    let op = match trace {
        None => DcOperatingPoint::solve_with(nl, tech, &ctx.newton),
        Some(t) => {
            t.time("spice.erc_s", || erc::gate(nl)).map_err(err)?;
            DcOperatingPoint::solve_traced(nl, tech, &ctx.newton, &mut t.counts)
        }
    };
    Ok(op.map_err(err)?.solution().to_vec())
}

/// Returns `*next` and advances it round-robin over `len` inputs.
fn cycle(next: &mut usize, len: usize) -> usize {
    let k = *next;
    *next = (k + 1) % len;
    k
}

/// Checks a traced job's counts against the first traced run of the
/// same input.
fn same_counts(slot: &mut Option<Counts>, counts: Counts) -> bool {
    match slot {
        Some(c) => *c == counts,
        None => {
            *slot = Some(counts);
            true
        }
    }
}

/// Log-log slopes of `flatten` and, when `symbolic`, of the first
/// symbolic factorization of a DC solve, between 1/3 size and full size
/// of the chain family.
fn chain_slopes(chain: &Chain, ctx: &Ctx, symbolic: bool) -> Result<(f64, f64), String> {
    let costs = |stages: usize| -> Result<(usize, f64, f64), String> {
        let resized = Chain {
            stages,
            ..chain.clone()
        };
        let design = parse(&resized.to_ulp()).map_err(err)?;
        let nl = flatten(&design).map_err(err)?;
        let flatten_s = time_median(5, || {
            std::hint::black_box(flatten(&design).ok());
        });
        let symbolic_s = if symbolic {
            let x = solve_op(&nl, &ctx.tech, ctx, &mut None)?;
            let probe = MnaProbe::dc(nl, ctx.tech, x, ctx.newton.gmin);
            median(&(0..3).map(|_| probe.price().symbolic).collect::<Vec<_>>())
        } else {
            0.0
        };
        Ok((gen::chain_unknowns(stages), flatten_s, symbolic_s))
    };
    let (n0, flatten0, symbolic0) = costs((chain.stages / 3).max(1))?;
    let (n1, flatten1, symbolic1) = costs(chain.stages)?;
    let symbolic_slope = if symbolic {
        slope(n0, symbolic0, n1, symbolic1)
    } else {
        0.0
    };
    Ok((slope(n0, flatten0, n1, flatten1), symbolic_slope))
}

// ---------------------------------------------------------------------
// chain_op
// ---------------------------------------------------------------------

struct OpVariant {
    chain: Chain,
    text: String,
    reference: Option<u64>,
    counts: Option<Counts>,
}

/// text → flatten → DC operating point of a 1000-stage chain.
pub struct ChainOp {
    variants: Vec<OpVariant>,
    next: usize,
    setup_failures: usize,
    /// Largest KCL residual seen, A.
    worst_kcl: f64,
    /// Largest sparse-vs-dense difference seen, V.
    worst_dense: f64,
}

impl ChainOp {
    const VARIANTS: usize = 4;

    fn setup(ctx: &Ctx) -> ChainOp {
        let mut rng = SplitMix64::seed_from_u64(ctx.seed);
        let mut w = ChainOp {
            variants: Vec::new(),
            next: 0,
            setup_failures: 0,
            worst_kcl: 0.0,
            worst_dense: 0.0,
        };
        for _ in 0..Self::VARIANTS {
            let chain = gen::chain_op(&mut rng, gen::OP_STAGES);
            let text = chain.to_ulp();
            // Warm-up: the first solve is the reference later jobs
            // must reproduce bit for bit.
            let mut v = OpVariant {
                chain,
                text,
                reference: None,
                counts: None,
            };
            let r = Self::job(&v.text, ctx, &mut None);
            v.reference = r.as_ref().ok().map(|(_, x)| digest(x));
            if !Self::check(&mut w.worst_kcl, &v, ctx, &r) {
                w.setup_failures += 1;
            }
            w.variants.push(v);
        }
        w
    }

    /// Largest sparse-vs-dense difference on the reduced-size chain of
    /// the same bias, V.
    fn dense_gap(chain: &Chain, ctx: &Ctx) -> Result<f64, String> {
        let small = Chain {
            stages: DENSE_STAGES,
            ..chain.clone()
        };
        let nl = flatten(&parse(&small.to_ulp()).map_err(err)?).map_err(err)?;
        let solve = |solver| {
            let opts = NewtonOptions {
                solver,
                ..ctx.newton
            };
            DcOperatingPoint::solve_with(&nl, &ctx.tech, &opts)
                .map(|op| op.solution().to_vec())
                .map_err(err)
        };
        let (s, d) = (solve(SolverKind::Sparse)?, solve(SolverKind::Dense)?);
        Ok(s.iter()
            .zip(&d)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max))
    }

    fn job(
        text: &str,
        ctx: &Ctx,
        trace: &mut Option<&mut JobTrace>,
    ) -> Result<(Netlist, Vec<f64>), String> {
        let (_, nl) = elaborate(text, trace)?;
        let x = solve_op(&nl, &ctx.tech, ctx, trace)?;
        Ok((nl, x))
    }

    /// The solution reproduces the variant's reference bit for bit and
    /// satisfies KCL.
    fn check(
        worst_kcl: &mut f64,
        v: &OpVariant,
        ctx: &Ctx,
        r: &Result<(Netlist, Vec<f64>), String>,
    ) -> bool {
        let Ok((nl, x)) = r else { return false };
        let kcl = kcl_residual(nl, ctx, x);
        *worst_kcl = worst_kcl.max(kcl);
        v.reference == Some(digest(x)) && kcl <= KCL_TOL
    }
}

impl Workload for ChainOp {
    fn describe(&self) -> String {
        format!(
            "{} variants of a {}-stage chain ({} unknowns), VCM {}",
            self.variants.len(),
            gen::OP_STAGES,
            gen::chain_unknowns(gen::OP_STAGES),
            self.variants
                .iter()
                .map(|v| format!("{:.3}", v.chain.vcm))
                .collect::<Vec<_>>()
                .join("/")
        )
    }

    fn setup_failures(&self) -> usize {
        self.setup_failures
    }

    fn verify(&mut self, ctx: &Ctx) -> usize {
        let mut failed = 0;
        for v in &self.variants {
            match Self::dense_gap(&v.chain, ctx) {
                Ok(gap) if gap <= DENSE_TOL => self.worst_dense = self.worst_dense.max(gap),
                _ => failed += 1,
            }
        }
        failed
    }

    fn checks(&self) -> String {
        format!(
            "KCL residual <= {:.3e} A (tol {KCL_TOL:e}); sparse-dense gap on {DENSE_STAGES} stages <= {:.3e} V (tol {DENSE_TOL:e}); every solve bit-identical to its warm-up",
            self.worst_kcl, self.worst_dense
        )
    }

    fn run(&mut self, ctx: &Ctx, out: &mut Tally) {
        let k = cycle(&mut self.next, self.variants.len());
        let v = &self.variants[k];
        let t0 = Instant::now();
        let r = Self::job(&v.text, ctx, &mut None);
        let seconds = t0.elapsed().as_secs_f64();
        out.push(seconds, Self::check(&mut self.worst_kcl, v, ctx, &r));
    }

    fn run_traced(&mut self, ctx: &Ctx, out: &mut Vec<TracedSample>, _: &mut CampaignStats) {
        let k = cycle(&mut self.next, self.variants.len());
        let v = &mut self.variants[k];
        let mut trace = JobTrace::default();
        let t0 = Instant::now();
        let r = Self::job(&v.text, ctx, &mut Some(&mut trace));
        let seconds = t0.elapsed().as_secs_f64();
        let ok = Self::check(&mut self.worst_kcl, v, ctx, &r)
            && same_counts(&mut v.counts, trace.counts);
        out.push(TracedSample { seconds, ok, trace });
    }

    fn mna_probe(&self, ctx: &Ctx) -> Result<Option<MnaProbe>, String> {
        let (nl, x) = Self::job(&self.variants[0].text, ctx, &mut None)?;
        Ok(Some(MnaProbe::dc(nl, ctx.tech, x, ctx.newton.gmin)))
    }

    fn slopes(&self, ctx: &Ctx) -> Result<(f64, f64), String> {
        chain_slopes(&self.variants[0].chain, ctx, true)
    }

    fn reference_counts(&self) -> Vec<Counts> {
        self.variants.iter().filter_map(|v| v.counts).collect()
    }
}

// ---------------------------------------------------------------------
// chain_tran
// ---------------------------------------------------------------------

/// A transient kept only at the first- and final-stage outputs.
struct Watched {
    time: Vec<f64>,
    /// Row `i` holds the watched unknowns at `time[i]`.
    rows: Vec<f64>,
}

impl Watched {
    fn new(tr: &Transient, watch: &[usize]) -> Watched {
        let rows = (0..tr.len())
            .flat_map(|i| watch.iter().map(move |&j| (i, j)))
            .map(|(i, j)| tr.solution(i)[j])
            .collect();
        Watched {
            time: tr.time().to_vec(),
            rows,
        }
    }

    /// Linear interpolation of watched output `w` at time `t`.
    fn sample(&self, w: usize, t: f64) -> f64 {
        let width = self.rows.len() / self.time.len();
        let at = |i: usize| self.rows[i * width + w];
        let k = self.time.partition_point(|&ti| ti < t);
        if k == 0 {
            return at(0);
        }
        if k >= self.time.len() {
            return at(self.time.len() - 1);
        }
        let (t0, t1) = (self.time[k - 1], self.time[k]);
        if t1 > t0 {
            at(k - 1) + (at(k) - at(k - 1)) * (t - t0) / (t1 - t0)
        } else {
            at(k)
        }
    }
}

struct TranVariant {
    chain: Chain,
    text: String,
    /// Digest of the warm-up run, which every job must reproduce.
    reference: Option<u64>,
    /// The warm-up run at the watched outputs, checked against the
    /// fixed-step oracle after the loop.
    warm: Option<Watched>,
    counts: Option<Counts>,
}

/// Adaptive transient of a pulsed 100-stage chain.
pub struct ChainTran {
    variants: Vec<TranVariant>,
    next: usize,
    setup_failures: usize,
    /// Largest deviation from the oracle, V.
    worst_dev: f64,
}

/// Digest of a whole transient: every time point and solution.
fn tran_digest(tr: &Transient) -> u64 {
    let mut h = digest(tr.time());
    for i in 0..tr.len() {
        h ^= digest(tr.solution(i)).rotate_left((i % 63) as u32);
    }
    h
}

impl ChainTran {
    const VARIANTS: usize = 2;

    fn options(design: &Design, ctx: &Ctx) -> Result<AdaptiveOptions, String> {
        let card = design.tran.as_ref().ok_or("design carries no .tran card")?;
        let dt_max = card.dt_max.unwrap_or(card.t_stop / 10.0);
        let mut opts = AdaptiveOptions::new(card.t_stop, dt_max);
        opts.newton = ctx.newton;
        Ok(opts)
    }

    fn setup(ctx: &Ctx) -> ChainTran {
        let mut rng = SplitMix64::seed_from_u64(ctx.seed);
        let mut w = ChainTran {
            variants: Vec::new(),
            next: 0,
            setup_failures: 0,
            worst_dev: 0.0,
        };
        for _ in 0..Self::VARIANTS {
            let chain = gen::chain_tran(&mut rng, gen::TRAN_STAGES);
            let text = chain.to_ulp();
            // Warm-up; its result is the bit-for-bit reference.
            let warm = Self::job(&text, ctx, &mut None).and_then(|(nl, tr)| {
                let watch = Self::watch(&chain, &nl)?;
                Ok((tran_digest(&tr), Watched::new(&tr, &watch)))
            });
            if warm.is_err() {
                w.setup_failures += 1;
            }
            let (reference, warm) = warm.ok().unzip();
            w.variants.push(TranVariant {
                chain,
                text,
                reference,
                warm,
                counts: None,
            });
        }
        w
    }

    /// Unknown indices of the first- and final-stage outputs.
    fn watch(chain: &Chain, nl: &Netlist) -> Result<Vec<usize>, String> {
        let mut watch = Vec::new();
        for k in [1, chain.stages] {
            let (p, n) = Chain::out_nodes(k);
            for name in [p, n] {
                let node = nl.find_node(&name).ok_or(format!("no node {name}"))?;
                watch.push(node.index() - 1);
            }
        }
        Ok(watch)
    }

    /// Largest deviation of the warm-up's watched outputs from the
    /// fixed-step trapezoidal oracle at `t_stop / 2000`, over the
    /// oracle's time points, V.
    fn oracle_gap(v: &TranVariant, ctx: &Ctx) -> Result<f64, String> {
        let warm = v.warm.as_ref().ok_or("warm-up failed")?;
        let design = parse(&v.text).map_err(err)?;
        let nl = flatten(&design).map_err(err)?;
        let t_stop = Self::options(&design, ctx)?.t_stop;
        let opts = TranOptions {
            newton: ctx.newton,
            ..TranOptions::new(t_stop, t_stop / ORACLE_STEPS).trapezoidal()
        };
        let fixed = Transient::run(&nl, &ctx.tech, &opts).map_err(err)?;
        let watch = Self::watch(&v.chain, &nl)?;
        let mut worst = 0.0f64;
        for (i, &t) in fixed.time().iter().enumerate() {
            for (w, &j) in watch.iter().enumerate() {
                worst = worst.max((warm.sample(w, t) - fixed.solution(i)[j]).abs());
            }
        }
        Ok(worst)
    }

    fn job(
        text: &str,
        ctx: &Ctx,
        trace: &mut Option<&mut JobTrace>,
    ) -> Result<(Netlist, Transient), String> {
        let (design, nl) = elaborate(text, trace)?;
        let opts = Self::options(&design, ctx)?;
        let tr = match trace {
            None => Transient::run_adaptive(&nl, &ctx.tech, &opts),
            Some(t) => {
                t.time("spice.erc_s", || erc::gate(&nl)).map_err(err)?;
                Transient::run_adaptive_traced(&nl, &ctx.tech, &opts, &mut t.counts)
            }
        }
        .map_err(err)?;
        Ok((nl, tr))
    }

    /// The run reproduces the variant's warm-up bit for bit (and so
    /// stands or falls with the warm-up's oracle check).
    fn check(v: &TranVariant, r: &Result<(Netlist, Transient), String>) -> bool {
        matches!(r, Ok((_, tr)) if v.reference == Some(tran_digest(tr)))
    }
}

impl Workload for ChainTran {
    fn describe(&self) -> String {
        let pulses: Vec<String> = self
            .variants
            .iter()
            .map(|v| match v.chain.drive {
                gen::Drive::Pulse { amp, delay, .. } => {
                    format!("±{:.0}mV@{:.2}us", amp * 1e3, delay * 1e6)
                }
                gen::Drive::Dc(_) => "dc".to_string(),
            })
            .collect();
        format!(
            "{} variants of a {}-stage pulsed chain ({} unknowns), pulses {}",
            self.variants.len(),
            gen::TRAN_STAGES,
            gen::chain_unknowns(gen::TRAN_STAGES),
            pulses.join(" ")
        )
    }

    fn setup_failures(&self) -> usize {
        self.setup_failures
    }

    fn verify(&mut self, ctx: &Ctx) -> usize {
        let mut failed = 0;
        for v in &self.variants {
            match Self::oracle_gap(v, ctx) {
                Ok(gap) if gap <= TRAN_TOL => self.worst_dev = self.worst_dev.max(gap),
                _ => failed += 1,
            }
        }
        failed
    }

    fn checks(&self) -> String {
        format!(
            "warm-up first- and final-stage outputs within {:.3e} V of the fixed-step oracle (tol {TRAN_TOL:e}); every run bit-identical to its warm-up",
            self.worst_dev
        )
    }

    fn run(&mut self, ctx: &Ctx, out: &mut Tally) {
        let k = cycle(&mut self.next, self.variants.len());
        let v = &self.variants[k];
        let t0 = Instant::now();
        let r = Self::job(&v.text, ctx, &mut None);
        let seconds = t0.elapsed().as_secs_f64();
        out.push(seconds, Self::check(v, &r));
    }

    fn run_traced(&mut self, ctx: &Ctx, out: &mut Vec<TracedSample>, _: &mut CampaignStats) {
        let k = cycle(&mut self.next, self.variants.len());
        let v = &mut self.variants[k];
        let mut trace = JobTrace::default();
        let t0 = Instant::now();
        let r = Self::job(&v.text, ctx, &mut Some(&mut trace));
        let seconds = t0.elapsed().as_secs_f64();
        let ok = Self::check(v, &r) && same_counts(&mut v.counts, trace.counts);
        out.push(TracedSample { seconds, ok, trace });
    }

    /// A step at `t_stop` from the final state of the first input.
    fn mna_probe(&self, ctx: &Ctx) -> Result<Option<MnaProbe>, String> {
        let text = &self.variants[0].text;
        let (design, nl) = elaborate(text, &mut None)?;
        let opts = Self::options(&design, ctx)?;
        let (_, tr) = Self::job(text, ctx, &mut None)?;
        let x = tr.solution(tr.len() - 1).to_vec();
        Ok(Some(MnaProbe::transient(
            nl,
            ctx.tech,
            x,
            (opts.t_stop, opts.dt_max / 10.0),
            ctx.newton.gmin,
            opts.bypass_tol,
        )))
    }

    fn slopes(&self, ctx: &Ctx) -> Result<(f64, f64), String> {
        chain_slopes(&self.variants[0].chain, ctx, true)
    }

    fn reference_counts(&self) -> Vec<Counts> {
        self.variants.iter().filter_map(|v| v.counts).collect()
    }
}

// ---------------------------------------------------------------------
// sweep_campaign
// ---------------------------------------------------------------------

struct SweepVariant {
    chain: Chain,
    text: String,
    /// Per-point solution digests of the serial campaign.
    reference: Vec<Option<u64>>,
    /// `counters_json()` of the serial campaign.
    ledger: String,
    /// Per-point counts of the serial traced campaign.
    counts: Option<Vec<Counts>>,
}

/// `.tech` × `.sweep` campaigns of an 8-stage chain on an ensemble.
pub struct SweepCampaign {
    variants: Vec<SweepVariant>,
    next: usize,
    setup_failures: usize,
    /// Campaigns whose ledger and per-point digests matched the serial
    /// reference, and all campaigns run.
    matched: (usize, usize),
}

type PointResult = Result<(u64, JobTrace), String>;

/// One campaign's results, ledger, and ensemble wall time.
type CampaignRun = (Vec<PointResult>, CampaignReport, f64);

impl SweepCampaign {
    const VARIANTS: usize = 4;

    fn setup(ctx: &Ctx) -> SweepCampaign {
        let mut rng = SplitMix64::seed_from_u64(ctx.seed);
        let mut w = SweepCampaign {
            variants: Vec::new(),
            next: 0,
            setup_failures: 0,
            matched: (0, 0),
        };
        for _ in 0..Self::VARIANTS {
            let chain = gen::sweep_campaign(&mut rng, gen::SWEEP_STAGES);
            let text = chain.to_ulp();
            let mut v = SweepVariant {
                chain,
                text,
                reference: Vec::new(),
                ledger: String::new(),
                counts: None,
            };
            // Warm-up: the serial campaign is the reference.
            match Self::campaign(&v.text, ctx, 1, false) {
                Ok((results, report, _)) => {
                    v.reference = results
                        .into_iter()
                        .map(|r| r.ok().map(|(d, _)| d))
                        .collect();
                    w.setup_failures += v.reference.iter().filter(|r| r.is_none()).count();
                    v.ledger = report.counters_json();
                }
                Err(_) => w.setup_failures += 1,
            }
            w.variants.push(v);
        }
        w
    }

    /// text → parse → plan → every point solved on `jobs` workers.
    fn campaign(text: &str, ctx: &Ctx, jobs: usize, traced: bool) -> Result<CampaignRun, String> {
        let design = parse(text).map_err(err)?;
        let plan = SweepPlan::build(&design).map_err(err)?;
        let job = |tc: &mut TrialCtx| -> PointResult {
            let mut trace = JobTrace::default();
            let mut t = traced.then_some(&mut trace);
            let point = lap(&mut t, "ir.sweep.point_s", || plan.point(tc.index()));
            let x = solve_op(&point.netlist, &point.tech.technology(), ctx, &mut t)?;
            Ok((digest(&x), trace))
        };
        let t0 = Instant::now();
        let (results, report) = Ensemble::new(plan.len())
            .seed(ctx.seed)
            .jobs(jobs)
            .label("sweep_campaign")
            .run_with_report(job);
        let wall = t0.elapsed().as_secs_f64();
        let results = results
            .into_iter()
            .map(|r| r.map_err(err).and_then(|x| x))
            .collect();
        Ok((results, report, wall))
    }

    /// Per-point pass/fail against the serial reference; every point
    /// fails when the ledger differs.
    fn verdicts(
        matched: &mut (usize, usize),
        v: &SweepVariant,
        results: &[PointResult],
        report: &CampaignReport,
    ) -> Vec<bool> {
        let ledger_ok = report.counters_json() == v.ledger;
        let ok: Vec<bool> = results
            .iter()
            .zip(&v.reference)
            .map(|(r, want)| ledger_ok && matches!((r, want), (Ok((d, _)), Some(w)) if d == w))
            .collect();
        matched.0 += usize::from(ok.len() == v.reference.len() && ok.iter().all(|&b| b));
        matched.1 += 1;
        ok
    }
}

impl Workload for SweepCampaign {
    fn describe(&self) -> String {
        format!(
            "{} campaigns of {} points (7 .tech corners x w/l grid) of a {}-stage chain ({} unknowns)",
            self.variants.len(),
            self.variants[0].reference.len(),
            gen::SWEEP_STAGES,
            gen::chain_unknowns(gen::SWEEP_STAGES),
        )
    }

    fn setup_failures(&self) -> usize {
        self.setup_failures
    }

    fn verify(&mut self, _: &Ctx) -> usize {
        0
    }

    fn checks(&self) -> String {
        format!(
            "{} of {} campaigns matched the serial campaign: counters_json() byte-identical, every point's solution bit-identical",
            self.matched.0, self.matched.1
        )
    }

    fn run(&mut self, ctx: &Ctx, out: &mut Tally) {
        let k = cycle(&mut self.next, self.variants.len());
        let v = &self.variants[k];
        match Self::campaign(&v.text, ctx, ctx.workers, false) {
            Ok((results, report, _)) => {
                let ok = Self::verdicts(&mut self.matched, v, &results, &report);
                for (cost, ok) in report.costs.iter().zip(ok) {
                    out.push(cost.seconds, ok);
                }
            }
            Err(_) => out.push(0.0, false),
        }
    }

    fn run_traced(&mut self, ctx: &Ctx, out: &mut Vec<TracedSample>, camp: &mut CampaignStats) {
        let k = cycle(&mut self.next, self.variants.len());
        let v = &mut self.variants[k];
        if v.counts.is_none() {
            // Reference counts come from a serial traced campaign.
            let serial = Self::campaign(&v.text, ctx, 1, true)
                .ok()
                .map(|(results, _, _)| {
                    results
                        .into_iter()
                        .map(|r| r.map(|(_, t)| t.counts).unwrap_or_default())
                        .collect::<Vec<Counts>>()
                });
            v.counts = Some(serial.unwrap_or_default());
        }
        let Ok((results, report, wall)) = Self::campaign(&v.text, ctx, ctx.workers, true) else {
            out.push(TracedSample {
                seconds: 0.0,
                ok: false,
                trace: JobTrace::default(),
            });
            return;
        };
        let ok = Self::verdicts(&mut self.matched, v, &results, &report);
        let want = v.counts.as_deref().unwrap_or(&[]);
        for (i, ((cost, ok), r)) in report.costs.iter().zip(ok).zip(results).enumerate() {
            let trace = r.map(|(_, t)| t).unwrap_or_default();
            let same = want.get(i) == Some(&trace.counts);
            out.push(TracedSample {
                seconds: cost.seconds,
                ok: ok && same,
                trace,
            });
        }
        let busiest = report
            .worker_utilization()
            .iter()
            .map(|u| u.busy_seconds)
            .fold(0.0, f64::max);
        camp.campaigns += 1;
        camp.busy += report.total_trial_seconds();
        camp.capacity += wall * report.jobs as f64;
        camp.gather += wall - busiest;
    }

    /// The first point of the first campaign.
    fn mna_probe(&self, ctx: &Ctx) -> Result<Option<MnaProbe>, String> {
        let design = parse(&self.variants[0].text).map_err(err)?;
        let point = SweepPlan::build(&design).map_err(err)?.point(0);
        let tech = point.tech.technology();
        let x = solve_op(&point.netlist, &tech, ctx, &mut None)?;
        Ok(Some(MnaProbe::dc(point.netlist, tech, x, ctx.newton.gmin)))
    }

    fn slopes(&self, ctx: &Ctx) -> Result<(f64, f64), String> {
        chain_slopes(&self.variants[0].chain, ctx, true)
    }

    fn reference_counts(&self) -> Vec<Counts> {
        self.variants
            .iter()
            .flat_map(|v| v.counts.iter().flatten().copied())
            .collect()
    }
}

// ---------------------------------------------------------------------
// signoff
// ---------------------------------------------------------------------

struct SignoffDesign {
    name: &'static str,
    text: String,
    /// Pinned certifier verdict: `Some(true)` proved nonsingular,
    /// `Some(false)` unproven, `None` pinned by the warm-up.
    proved: Option<bool>,
    /// Lint findings and verdict of the warm-up.
    reference: Option<(usize, bool)>,
    /// Untraced job times, s.
    seconds: Vec<f64>,
}

/// Lints and certifies the two shipped examples and a generated chain.
pub struct Signoff {
    chain: Chain,
    designs: Vec<SignoffDesign>,
    next: usize,
    setup_failures: usize,
}

impl Signoff {
    fn setup(ctx: &Ctx) -> Signoff {
        let mut rng = SplitMix64::seed_from_u64(ctx.seed);
        let chain = gen::chain_op(&mut rng, gen::SIGNOFF_STAGES);
        let mut w = Signoff {
            designs: vec![
                SignoffDesign {
                    name: "scl_buffer",
                    text: gen::SCL_BUFFER_ULP.to_string(),
                    proved: Some(true),
                    reference: None,
                    seconds: Vec::new(),
                },
                SignoffDesign {
                    name: "comp_doubletail",
                    text: gen::COMP_DOUBLETAIL_ULP.to_string(),
                    proved: Some(false),
                    reference: None,
                    seconds: Vec::new(),
                },
                SignoffDesign {
                    name: "chain",
                    text: chain.to_ulp(),
                    proved: None,
                    reference: None,
                    seconds: Vec::new(),
                },
            ],
            chain,
            next: 0,
            setup_failures: 0,
        };
        for d in &mut w.designs {
            match Self::job(&d.text, ctx, &mut None) {
                Ok((findings, proved)) if d.proved.is_none_or(|p| p == proved) => {
                    d.reference = Some((findings, proved));
                }
                _ => w.setup_failures += 1,
            }
        }
        w
    }

    /// Returns (lint findings, proved nonsingular).
    fn job(
        text: &str,
        ctx: &Ctx,
        trace: &mut Option<&mut JobTrace>,
    ) -> Result<(usize, bool), String> {
        let (_, nl) = elaborate(text, trace)?;
        lap(trace, "spice.erc_s", || erc::gate(&nl)).map_err(err)?;
        let report = lap(trace, "spice.lint_s", || {
            lint::run_ctx(&LintContext::with_tech(&nl, &ctx.tech), &LintConfig::new())
        });
        let cert = lap(trace, "spice.certify_s", || {
            absint::certify(&nl, &ctx.tech, &CertifyOptions::default())
        })
        .map_err(err)?;
        let proved = matches!(cert.verdict(), Verdict::ProvedNonsingular { .. });
        Ok((report.diagnostics().len(), proved))
    }
}

impl Workload for Signoff {
    fn describe(&self) -> String {
        format!(
            "lint + certify of scl_buffer.ulp, comp_doubletail.ulp and a {}-stage chain ({} unknowns), VCM {:.3}",
            gen::SIGNOFF_STAGES,
            gen::chain_unknowns(gen::SIGNOFF_STAGES),
            self.chain.vcm
        )
    }

    fn setup_failures(&self) -> usize {
        self.setup_failures
    }

    fn verify(&mut self, _: &Ctx) -> usize {
        0
    }

    fn checks(&self) -> String {
        let verdicts: Vec<String> = self
            .designs
            .iter()
            .map(|d| {
                let pin = match d.proved {
                    Some(_) => "pinned",
                    None => "as warm-up",
                };
                let p50 = crate::trace::median(&d.seconds);
                match d.reference {
                    Some((findings, proved)) => format!(
                        "{} {} ({pin}), {findings} lint findings, p50 {p50:.4} s",
                        d.name,
                        if proved { "proved" } else { "unproven" }
                    ),
                    None => format!("{} failed its warm-up", d.name),
                }
            })
            .collect();
        format!(
            "every job repeats its design's verdict: {}",
            verdicts.join("; ")
        )
    }

    fn run(&mut self, ctx: &Ctx, out: &mut Tally) {
        let k = cycle(&mut self.next, self.designs.len());
        let d = &mut self.designs[k];
        let t0 = Instant::now();
        let r = Self::job(&d.text, ctx, &mut None);
        let seconds = t0.elapsed().as_secs_f64();
        d.seconds.push(seconds);
        out.push(seconds, d.reference.is_some() && r.ok() == d.reference);
    }

    fn run_traced(&mut self, ctx: &Ctx, out: &mut Vec<TracedSample>, _: &mut CampaignStats) {
        let k = cycle(&mut self.next, self.designs.len());
        let d = &self.designs[k];
        let mut trace = JobTrace::default();
        let t0 = Instant::now();
        let r = Self::job(&d.text, ctx, &mut Some(&mut trace));
        let seconds = t0.elapsed().as_secs_f64();
        out.push(TracedSample {
            seconds,
            ok: d.reference.is_some() && r.ok() == d.reference,
            trace,
        });
    }

    fn mna_probe(&self, _: &Ctx) -> Result<Option<MnaProbe>, String> {
        Ok(None)
    }

    fn slopes(&self, ctx: &Ctx) -> Result<(f64, f64), String> {
        chain_slopes(&self.chain, ctx, false)
    }

    fn reference_counts(&self) -> Vec<Counts> {
        // The certifier and lints report no solver events.
        Vec::new()
    }
}
