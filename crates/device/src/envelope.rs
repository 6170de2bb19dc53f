//! Interval twins of the device analytics, evaluated over a PVT +
//! mismatch box instead of at a nominal point.
//!
//! The static lints of `ulp-spice` call the point analytics
//! ([`Mosfet::inversion_coefficient`], [`Mosfet::min_supply`],
//! [`PmosLoad::conductance`], …) at one technology card — a single die
//! at a single temperature. The sound certifier needs the *range* each
//! analytic can take over an entire qualification box: a temperature
//! interval, a per-corner technology card, and a Pelgrom mismatch
//! spread of `±k·σ` around the instance's drawn deltas. This module
//! provides those envelopes as `*_iv` methods returning
//! [`ulp_num::Interval`].
//!
//! Every envelope here exploits monotonicity: the EKV interpolator
//! `F(v) = ln²(1+e^{v/2})` and its derivative and inverse are strictly
//! increasing, `vt_at` is decreasing in temperature, the specific
//! current `2·n·kp(T)·UT(T)² ∝ T^{1/2}` is increasing, and the STSCL
//! load's `tanh` I–V is odd and monotone. Endpoint evaluation plus
//! outward rounding (see [`ulp_num::interval`]) therefore yields tight,
//! sound bounds. On top of the interval library's per-operation ulp
//! slack, each envelope is inflated by a relative `ENV_SLACK` (10⁻¹²) so
//! that multi-operation `std` math (`exp` + `ln_1p` + squaring) can
//! never round a true member outside the reported box.
//!
//! Soundness contract (pinned by the `certify_soundness` integration
//! suite): for every temperature in the box, every mismatch draw within
//! `±k·σ` of the drawn deltas, the point analytic's value lies inside
//! the corresponding `*_iv` envelope.

use crate::ekv;
use crate::load::PmosLoad;
use crate::mismatch::MismatchRng;
use crate::mosfet::{Mosfet, Polarity};
use crate::tech::{Technology, K_OVER_Q};
use ulp_num::Interval;

/// Relative outward slack applied on top of the interval library's
/// ulp-level rounding, absorbing the (bounded, but > 1 ulp) error of
/// composed `std` transcendentals inside the point analytics.
const ENV_SLACK: f64 = 1e-12;

fn slacked(iv: Interval) -> Interval {
    iv.inflate(iv.mag() * ENV_SLACK)
}

/// The parameter box a certificate quantifies over, *within* one
/// process corner: a temperature interval and a mismatch spread.
///
/// Corners stay discrete — the certifier evaluates each
/// [`crate::pvt::Corner`] card separately and hulls the verdicts —
/// because [`Technology::at_corner`] applies fixed shifts rather than a
/// continuum. Temperature and mismatch are genuine intervals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PvtBox {
    /// Lowest junction temperature, K.
    pub t_lo: f64,
    /// Highest junction temperature, K.
    pub t_hi: f64,
    /// Mismatch spread multiplier: each device's threshold and beta
    /// deltas range over `drawn ± k_sigma·σ_Pelgrom`. Zero means "the
    /// drawn die only".
    pub k_sigma: f64,
}

impl PvtBox {
    /// The qualification-grid box: −40 °C … +85 °C, ±6σ mismatch —
    /// matching the sweep grid of
    /// [`crate::pvt::OperatingCondition::qualification_grid`] and
    /// covering practically every Monte-Carlo draw.
    pub fn qualification() -> Self {
        PvtBox {
            t_lo: 233.15,
            t_hi: 358.15,
            k_sigma: 6.0,
        }
    }

    /// A degenerate box at one temperature with no mismatch spread:
    /// interval analytics collapse to (outward-rounded) point values.
    pub fn at_temperature(t: f64) -> Self {
        assert!(t > 0.0, "absolute temperature must be positive");
        PvtBox {
            t_lo: t,
            t_hi: t,
            k_sigma: 0.0,
        }
    }

    /// The temperature interval.
    pub fn temperature_iv(&self) -> Interval {
        Interval::new(self.t_lo, self.t_hi)
    }

    /// Thermal voltage `UT = kT/q` over the box, V.
    pub fn thermal_voltage_iv(&self) -> Interval {
        slacked(self.temperature_iv().scale(K_OVER_Q))
    }
}

/// Interval envelope of the EKV interpolator `F` (strictly increasing).
pub fn interp_iv(x: Interval) -> Interval {
    slacked(x.monotone(ekv::interp)).max_with(0.0)
}

/// Interval envelope of `F'` (strictly increasing, non-negative).
pub fn interp_deriv_iv(x: Interval) -> Interval {
    slacked(x.monotone(ekv::interp_deriv)).max_with(0.0)
}

/// Interval envelope of `F⁻¹` (strictly increasing; requires a
/// strictly positive argument box).
pub fn interp_inverse_iv(i: Interval) -> Interval {
    assert!(i.lo() > 0.0, "inversion coefficient box must be positive");
    slacked(i.monotone(ekv::interp_inverse))
}

/// Interval envelope of the slope-to-value ratio `F'(x)/F(x)` of the
/// EKV interpolator, with values in `(0, 1]`.
///
/// With `l = ln(1 + e^{x/2})` the ratio is `(1 − e^{−l})/l`, which is
/// strictly decreasing in `l` (hence in `x`): it approaches 1 deep in
/// weak inversion and `2/√F` in strong inversion. This is the bridge
/// between a transconductance and its own current —
/// `F'(x) = ratio(x)·F(x)` — that lets the certifier bound `g_ms`
/// by a KCL-pinned current instead of a box-evaluated exponential.
///
/// Below `x = −50` the direct quotient underflows (`1 − e^{−l}`
/// rounds to 0 while `F > 0`), so the analytic bracket
/// `1 − l/2 ≤ ratio ≤ 1` with `l ≤ e^{x/2}` takes over.
pub fn interp_ratio_iv(x: Interval) -> Interval {
    let unit = Interval::new(0.0, 1.0);
    let at = |v: f64| -> Interval {
        if v <= -50.0 {
            Interval::new(1.0 - (0.5 * v).exp(), 1.0)
        } else {
            let p = Interval::point(v);
            interp_deriv_iv(p)
                .checked_div(interp_iv(p))
                .and_then(|r| r.intersect(unit))
                .unwrap_or(unit)
        }
    };
    // Decreasing in x: the envelope over a box runs from the value at
    // the upper endpoint to the value at the lower one.
    let hi_end = at(x.hi());
    let lo_end = at(x.lo());
    Interval::new(
        hi_end.lo().min(lo_end.lo()),
        lo_end.hi().max(hi_end.hi()),
    )
    .intersect(unit)
    .unwrap_or(unit)
}

/// Sound envelope of `F'(F⁻¹(i))` over a forward/reverse component
/// box: the slope of the interpolator at whatever (unknown) argument
/// produced a component value inside `i`. Monotone composition of two
/// increasing maps; a non-positive component pins the slope at 0.
fn deriv_from_component(i: Interval) -> Interval {
    let at = |v: f64| {
        if v > 0.0 {
            interp_deriv_iv(interp_inverse_iv(Interval::point(v)))
        } else {
            Interval::ZERO
        }
    };
    let hi = at(i.hi()).hi();
    let lo = at(i.lo()).lo().min(hi);
    Interval::new(lo, hi)
}

/// Interval operating point of a MOS channel: the ranges of
/// [`crate::MosOperatingPoint`]'s current and conductances over
/// terminal-voltage boxes and the PVT/mismatch box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosOpIv {
    /// Drain current (positive into the drain for NMOS, out for PMOS —
    /// same sign convention as the point model), A.
    pub id: Interval,
    /// Gate transconductance `∂ID/∂VG`, S.
    pub gm: Interval,
    /// Source transconductance `∂ID/∂VS` (negative for NMOS), S.
    pub gms: Interval,
    /// Drain conductance `∂ID/∂VD`, S.
    pub gds: Interval,
}

impl Mosfet {
    /// Threshold voltage range over the box, V (NMOS-prototype sign),
    /// including the drawn `delta_vt` widened by `±k·σ(ΔVT)`.
    pub fn threshold_iv(&self, tech: &Technology, pvt: &PvtBox) -> Interval {
        let m = self.model(tech);
        // vt_at falls with temperature (vt_tc > 0).
        let vt_t = slacked(pvt.temperature_iv().antitone(|t| m.vt_at(t)));
        let spread = pvt.k_sigma * MismatchRng::sigma_delta_vt(m, self.w, self.l);
        vt_t + Interval::point(self.delta_vt).inflate(spread)
    }

    /// Specific current range `IS = 2·n·kp(T)·UT(T)²·W/L·(1+Δβ)` over
    /// the box, A. Always strictly positive.
    pub fn specific_current_iv(&self, tech: &Technology, pvt: &PvtBox) -> Interval {
        let m = self.model(tech);
        // ∝ T^{1/2}: increasing in temperature.
        let is_t = slacked(pvt.temperature_iv().monotone(|t| m.specific_current(t)));
        let spread = pvt.k_sigma * MismatchRng::sigma_delta_beta(m, self.w, self.l);
        let beta = Interval::point(1.0 + self.delta_beta).inflate(spread);
        assert!(
            beta.lo() > 0.0,
            "mismatch box reaches a non-positive beta factor"
        );
        is_t.scale(self.w / self.l) * beta
    }

    /// Interval twin of [`Mosfet::inversion_coefficient`]: the range of
    /// `IC = ID/IS` at drain current `id` over the box.
    pub fn inversion_coefficient_iv(&self, tech: &Technology, pvt: &PvtBox, id: f64) -> Interval {
        Interval::point(id)
            .checked_div(self.specific_current_iv(tech, pvt))
            .expect("specific current box is strictly positive")
    }

    /// Interval twin of [`Mosfet::vds_sat_weak`]: `4·UT` over the box, V.
    pub fn vds_sat_weak_iv(&self, _tech: &Technology, pvt: &PvtBox) -> Interval {
        pvt.thermal_voltage_iv().scale(4.0)
    }

    /// Interval twin of [`Mosfet::vgs_for_current`]: the gate-source
    /// voltage range producing drain current `id` over the box, V
    /// (negative for PMOS).
    ///
    /// # Panics
    ///
    /// Panics unless `id > 0`.
    pub fn vgs_for_current_iv(&self, tech: &Technology, pvt: &PvtBox, id: f64) -> Interval {
        assert!(id > 0.0, "target current must be positive");
        let m = self.model(tech);
        let ut = pvt.thermal_voltage_iv();
        let i_f = Interval::point(id)
            .checked_div(self.specific_current_iv(tech, pvt))
            .expect("specific current box is strictly positive");
        let x = interp_inverse_iv(i_f);
        let vgs = (x * ut).scale(m.n) + self.threshold_iv(tech, pvt);
        match self.polarity {
            Polarity::Nmos => vgs,
            Polarity::Pmos => -vgs,
        }
    }

    /// Interval twin of [`Mosfet::min_supply`]:
    /// `VDD_min = VSW + |VGS(ISS)| + 4·UT` over the box, V.
    ///
    /// `proved-infeasible` reasoning reads both ends: a supply below
    /// `lo()` fails on *every* die in the box; one above `hi()` has
    /// proved headroom on every die.
    pub fn min_supply_iv(&self, tech: &Technology, pvt: &PvtBox, iss: f64, vsw: f64) -> Interval {
        Interval::point(vsw)
            + self.vgs_for_current_iv(tech, pvt, iss).abs()
            + self.vds_sat_weak_iv(tech, pvt)
    }

    /// Interval operating point over terminal-voltage boxes (physical
    /// node voltages referred to the bulk, exactly like
    /// [`Mosfet::operating_point`]) and the PVT/mismatch box.
    ///
    /// The envelope follows the point model term by term: PMOS
    /// reflection, pinch-off voltage, forward/reverse EKV components,
    /// and channel-length modulation on the forward direction.
    pub fn operating_point_iv(
        &self,
        tech: &Technology,
        pvt: &PvtBox,
        vg: Interval,
        vs: Interval,
        vd: Interval,
    ) -> MosOpIv {
        self.op_iv_impl(tech, pvt, vg, vs, vd, None)
    }

    /// [`Self::operating_point_iv`] refined by a sound bound on the
    /// drain current (same sign convention as [`MosOpIv::id`]) valid
    /// for every die at the point being certified — typically derived
    /// from interval KCL at the device's drain or source node.
    ///
    /// The bound breaks the exponential dependency blow-up: per die,
    /// `I_D = I_S·clm·(i_f − i_r)` ties the forward component to the
    /// current, and `F' = ratio·F` ([`interp_ratio_iv`]) then ties the
    /// transconductances to the current too:
    /// `I_S·clm·F'(x_f)/U_T ∈ ratio(x_f)·(I_D + I_S·clm·i_r)/U_T`.
    /// Each refined quantity is intersected with its box-evaluated
    /// envelope, so the result is never wider than the unrefined one.
    pub fn operating_point_iv_bounded(
        &self,
        tech: &Technology,
        pvt: &PvtBox,
        vg: Interval,
        vs: Interval,
        vd: Interval,
        id_bound: Interval,
    ) -> MosOpIv {
        self.op_iv_impl(tech, pvt, vg, vs, vd, Some(id_bound))
    }

    /// Forward-injection argument box `x_f = (V_P − V_S)/U_T` (with
    /// polarity reflection), the quantity [`interp_ratio_iv`] is
    /// evaluated at when bounding a transconductance by its current.
    /// With `vs` set to the drain box this yields `x_r`.
    pub fn forward_injection_iv(
        &self,
        tech: &Technology,
        pvt: &PvtBox,
        vg: Interval,
        vs: Interval,
    ) -> Interval {
        let m = self.model(tech);
        let ut = pvt.thermal_voltage_iv();
        let vt = self.threshold_iv(tech, pvt);
        let (vg_n, vs_n) = match self.polarity {
            Polarity::Nmos => (vg, vs),
            Polarity::Pmos => (-vg, -vs),
        };
        ((vg_n - vt).scale(1.0 / m.n) - vs_n)
            .checked_div(ut)
            .expect("thermal voltage box is strictly positive")
    }

    /// Strictly-positive lower bound on the total conductance
    /// `∂I_D/∂V` of a diode-connected channel (gate tied to the drain,
    /// both riding the node voltage `v`), S.
    ///
    /// With the gate tied, `∂I_D/∂V = gm + gds =
    /// (I_S·clm/U_T)·(F'(x_f)/n + F'(x_r)·(n−1)/n) + CLM-extra`, and
    /// every term is non-negative (`n > 1`, `F' ≥ 0`), so the lower
    /// product of the factor envelopes is a sound floor over the whole
    /// box — even though the independently box-evaluated `gm` can dip
    /// negative once the gate/drain correlation is lost. The reverse
    /// slope is evaluated on the *correlated* argument
    /// `x_r = (v·(1−n) − V_T)/(n·U_T)`; the decorrelated rectangle
    /// (pinch-off from one copy of `v`, the drain from another) cannot
    /// see that cancellation.
    pub fn diode_conductance_floor(
        &self,
        tech: &Technology,
        pvt: &PvtBox,
        v: Interval,
        vs: Interval,
    ) -> f64 {
        let m = self.model(tech);
        let ut = pvt.thermal_voltage_iv();
        let vt = self.threshold_iv(tech, pvt);
        let (v_n, vs_n) = match self.polarity {
            Polarity::Nmos => (v, vs),
            Polarity::Pmos => (-v, -vs),
        };
        let vp = (v_n - vt).scale(1.0 / m.n);
        let xf = (vp - vs_n)
            .checked_div(ut)
            .expect("thermal voltage box is strictly positive");
        let xr = (v_n.scale(1.0 - m.n) - vt)
            .scale(1.0 / m.n)
            .checked_div(ut)
            .expect("thermal voltage box is strictly positive");
        let df = interp_deriv_iv(xf);
        let dr = interp_deriv_iv(xr);
        let clm = Interval::point(1.0) + (v_n - vs_n).max_with(0.0).scale(self.lambda(tech));
        let g_scale = self
            .specific_current_iv(tech, pvt)
            .checked_div(ut)
            .expect("thermal voltage box is strictly positive");
        let total = g_scale * clm * (df.scale(1.0 / m.n) + dr.scale((m.n - 1.0) / m.n));
        total.lo().max(0.0)
    }

    fn op_iv_impl(
        &self,
        tech: &Technology,
        pvt: &PvtBox,
        vg: Interval,
        vs: Interval,
        vd: Interval,
        id_bound: Option<Interval>,
    ) -> MosOpIv {
        let m = self.model(tech);
        let ut = pvt.thermal_voltage_iv();
        let vt = self.threshold_iv(tech, pvt);
        let (vg_n, vs_n, vd_n) = match self.polarity {
            Polarity::Nmos => (vg, vs, vd),
            Polarity::Pmos => (-vg, -vs, -vd),
        };
        let vp = (vg_n - vt).scale(1.0 / m.n);
        let xf = (vp - vs_n)
            .checked_div(ut)
            .expect("thermal voltage box is strictly positive");
        let xr = (vp - vd_n)
            .checked_div(ut)
            .expect("thermal voltage box is strictly positive");
        let mut i_f = interp_iv(xf);
        let mut i_r = interp_iv(xr);
        let mut df = interp_deriv_iv(xf);
        let mut dr = interp_deriv_iv(xr);
        let vds_n = vd_n - vs_n;
        // Direct difference of the two EKV components — and its
        // mean-value correlation: for every die,
        // `F(xf) − F(xr) = F'(ξ)·(xf − xr)` with `ξ ∈ hull(xf, xr)`
        // and `xf − xr = VDS/UT` *exactly* — the pinch-off voltage
        // (and with it the threshold and its mismatch spread) cancels
        // in the difference. The direct form wins when one component
        // dominates; the correlated form tames the dependency blow-up
        // when both are deep in injection. Both enclose every die's
        // value, so their intersection is a sound (and tighter)
        // envelope.
        let i_direct = i_f - i_r;
        let slope = interp_deriv_iv(xf.hull(xr));
        let dx = vds_n
            .checked_div(ut)
            .expect("thermal voltage box is strictly positive");
        let mut i_norm = i_direct.intersect(slope * dx).unwrap_or(i_direct);

        let is = self.specific_current_iv(tech, pvt);
        let lam = self.lambda(tech);
        let clm = Interval::point(1.0) + vds_n.max_with(0.0).scale(lam);

        if let Some(idb) = id_bound {
            // Per die, `I_D = I_S·clm·i_norm` with `I_S·clm > 0`, so a
            // current bound is an `i_norm` bound; `i_f = i_norm + i_r`
            // then propagates it into the components and, through
            // `F'(F⁻¹(·))`, into the slopes. Every step intersects, so
            // a vacuous bound degrades to the plain envelope.
            if let Some(r) = idb.checked_div(is * clm) {
                i_norm = i_norm.intersect(r).unwrap_or(i_norm);
            }
            i_f = i_f.intersect(i_norm + i_r).unwrap_or(i_f);
            i_r = i_r.intersect(i_f - i_norm).unwrap_or(i_r);
            df = df.intersect(deriv_from_component(i_f)).unwrap_or(df);
            dr = dr.intersect(deriv_from_component(i_r)).unwrap_or(dr);
        }

        let di_dvg = (df - dr).scale(1.0 / m.n);
        let di_dvs = -df;
        let di_dvd = dr;
        let id = is * i_norm * clm;
        let g_scale = is
            .checked_div(ut)
            .expect("thermal voltage box is strictly positive");
        let mut gm = g_scale * di_dvg * clm;
        let mut gms = g_scale * di_dvs * clm;
        // The CLM contribution to gds exists only where vds_n > 0; when
        // the box straddles zero, hull with the zero contribution.
        let clm_extra = is * i_norm.scale(lam);
        let extra = if vds_n.hi() <= 0.0 {
            Interval::ZERO
        } else if vds_n.lo() > 0.0 {
            clm_extra
        } else {
            clm_extra.hull(Interval::ZERO)
        };
        let mut gds = g_scale * di_dvd * clm + extra;

        if let Some(idb) = id_bound {
            // Ratio-form transconductances: per die
            // `I_S·clm·F'(x_f)/U_T = ratio(x_f)·I_S·clm·F(x_f)/U_T`
            // and `I_S·clm·F(x_f) = I_D + I_S·clm·i_r` *exactly*, so
            // the `g` envelopes inherit the current bound with the
            // specific current still correlated to the current — the
            // product `g_scale·df` loses that correlation.
            let rf = interp_ratio_iv(xf);
            let rr = interp_ratio_iv(xr);
            let isr = is * clm * i_r;
            let a = (rf * (idb + isr))
                .checked_div(ut)
                .expect("thermal voltage box is strictly positive");
            let b = (rr * isr)
                .checked_div(ut)
                .expect("thermal voltage box is strictly positive");
            gms = gms.intersect(-a).unwrap_or(gms);
            gds = gds.intersect(b + extra).unwrap_or(gds);
            gm = gm.intersect((a - b).scale(1.0 / m.n)).unwrap_or(gm);
        }
        MosOpIv { id, gm, gms, gds }
    }
}

impl PmosLoad {
    /// Interval twin of [`PmosLoad::current`] over a voltage-drop box,
    /// A. Monotone in `v` for a positive calibration current.
    pub fn current_iv(&self, v: Interval, iss: f64) -> Interval {
        assert!(iss > 0.0, "tail current must be positive");
        slacked(v.monotone(|x| self.current(x, iss)))
    }

    /// Interval twin of [`PmosLoad::conductance`] over a voltage-drop
    /// box, S. The `sech²` shape is even and falls with `|v|`, so the
    /// envelope is `[g(max|v|), g(min|v|)]`.
    pub fn conductance_iv(&self, v: Interval, iss: f64) -> Interval {
        assert!(iss > 0.0, "tail current must be positive");
        slacked(v.abs().antitone(|a| self.conductance(a, iss))).max_with(0.0)
    }

    /// Chord (secant-through-origin) conductance envelope
    /// `I(v)/v` over a voltage-drop box, S.
    ///
    /// For any drop `v` in the box the load current satisfies
    /// `I(v) = g_chord(v)·v` with `g_chord(v)` inside this envelope —
    /// the decomposition the certifier's abstract MNA stamping uses to
    /// keep the load *linear* in the unknown vector. Like the
    /// small-signal conductance, the chord is even in `v`, maximal at
    /// the origin (where it equals `conductance(0)`), and falls with
    /// `|v|`.
    pub fn chord_iv(&self, v: Interval, iss: f64) -> Interval {
        assert!(iss > 0.0, "tail current must be positive");
        let chord = |a: f64| {
            // tanh(x)/x → 1 as x → 0; switch to the small-signal value
            // below the square-root-of-epsilon knee where the ratio is
            // 1 to double precision.
            if a < 1e-8 * self.vsw {
                self.conductance(0.0, iss)
            } else {
                self.current(a, iss) / a
            }
        };
        slacked(v.abs().antitone(chord)).max_with(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mismatch::MismatchRng;

    fn tech() -> Technology {
        Technology::default()
    }

    /// Deterministic sampler over the box for containment checks.
    struct Rng(u64);
    impl Rng {
        fn next_f64(&mut self) -> f64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64
        }
        fn in_range(&mut self, lo: f64, hi: f64) -> f64 {
            lo + self.next_f64() * (hi - lo)
        }
    }

    #[test]
    fn point_analytics_lie_inside_their_envelopes() {
        let tech = tech();
        let pvt = PvtBox::qualification();
        let base = Mosfet::new(Polarity::Nmos, 1e-6, 0.5e-6);
        let m = base.model(&tech);
        let sv = MismatchRng::sigma_delta_vt(m, base.w, base.l);
        let sb = MismatchRng::sigma_delta_beta(m, base.w, base.l);
        let mut rng = Rng(3);
        let iss = 1e-9;
        for _ in 0..300 {
            let t = rng.in_range(pvt.t_lo, pvt.t_hi);
            let dv = rng.in_range(-pvt.k_sigma * sv, pvt.k_sigma * sv);
            let db = rng.in_range(-pvt.k_sigma * sb, pvt.k_sigma * sb);
            let die = Mosfet::with_mismatch(base.polarity, base.w, base.l, dv, db);
            let at_t = tech.at_temperature(t);

            assert!(die
                .specific_current_iv(&tech, &pvt)
                .contains(die.specific_current(&at_t)));
            assert!(die
                .inversion_coefficient_iv(&tech, &pvt, iss)
                .contains(die.inversion_coefficient(&at_t, iss)));
            assert!(die
                .vds_sat_weak_iv(&tech, &pvt)
                .contains(die.vds_sat_weak(&at_t)));
            assert!(die
                .vgs_for_current_iv(&tech, &pvt, iss)
                .contains(die.vgs_for_current(&at_t, iss)));
            assert!(die
                .min_supply_iv(&tech, &pvt, iss, 0.2)
                .contains(die.min_supply(&at_t, iss, 0.2)));
        }
    }

    #[test]
    fn operating_point_envelope_contains_point_evaluations() {
        let tech = tech();
        let pvt = PvtBox::qualification();
        let base = Mosfet::new(Polarity::Nmos, 1e-6, 0.5e-6);
        let m = base.model(&tech);
        let sv = MismatchRng::sigma_delta_vt(m, base.w, base.l);
        let sb = MismatchRng::sigma_delta_beta(m, base.w, base.l);
        let vg = Interval::new(0.4, 0.7);
        let vs = Interval::new(0.0, 0.3);
        let vd = Interval::new(0.2, 1.0);
        let iv = base.operating_point_iv(&tech, &pvt, vg, vs, vd);
        let mut rng = Rng(11);
        for _ in 0..500 {
            let t = rng.in_range(pvt.t_lo, pvt.t_hi);
            let die = Mosfet::with_mismatch(
                base.polarity,
                base.w,
                base.l,
                rng.in_range(-pvt.k_sigma * sv, pvt.k_sigma * sv),
                rng.in_range(-pvt.k_sigma * sb, pvt.k_sigma * sb),
            );
            let at_t = tech.at_temperature(t);
            let op = die.operating_point(
                &at_t,
                rng.in_range(vg.lo(), vg.hi()),
                rng.in_range(vs.lo(), vs.hi()),
                rng.in_range(vd.lo(), vd.hi()),
            );
            assert!(iv.id.contains(op.id), "{:?} vs {:?}", op.id, iv.id);
            assert!(iv.gm.contains(op.gm));
            assert!(iv.gms.contains(op.gms));
            assert!(iv.gds.contains(op.gds), "{:?} vs {:?}", op.gds, iv.gds);
        }
    }

    #[test]
    fn pmos_reflection_matches_point_model() {
        let tech = tech();
        let pvt = PvtBox::at_temperature(300.0);
        let p = Mosfet::new(Polarity::Pmos, 2e-6, 0.5e-6);
        // A PMOS load-style bias: source at VDD = 1 V.
        let op = p.operating_point(&tech, 0.4, 1.0, 0.8);
        let iv = p.operating_point_iv(
            &tech,
            &pvt,
            Interval::point(0.4),
            Interval::point(1.0),
            Interval::point(0.8),
        );
        assert!(iv.id.contains(op.id));
        assert!(iv.gm.contains(op.gm));
        assert!(iv.gms.contains(op.gms));
        assert!(iv.gds.contains(op.gds));
        assert!(p
            .vgs_for_current_iv(&tech, &pvt, 1e-9)
            .contains(p.vgs_for_current(&tech, 1e-9)));
    }

    #[test]
    fn degenerate_box_collapses_to_point_values() {
        let tech = tech();
        let pvt = PvtBox::at_temperature(tech.temperature);
        let m = Mosfet::new(Polarity::Nmos, 1e-6, 0.5e-6);
        let ic = m.inversion_coefficient_iv(&tech, &pvt, 1e-9);
        let point = m.inversion_coefficient(&tech, 1e-9);
        assert!(ic.contains(point));
        assert!(ic.width() < point * 1e-9, "near-point width: {ic:?}");
    }

    #[test]
    fn load_envelopes_contain_point_curves() {
        let load = PmosLoad::new(0.2);
        let iss = 1e-9;
        let v = Interval::new(-0.25, 0.25);
        let mut rng = Rng(23);
        for _ in 0..500 {
            let x = rng.in_range(v.lo(), v.hi());
            assert!(load.current_iv(v, iss).contains(load.current(x, iss)));
            assert!(load
                .conductance_iv(v, iss)
                .contains(load.conductance(x, iss)));
            let chord = if x.abs() < 1e-15 {
                load.conductance(0.0, iss)
            } else {
                load.current(x, iss) / x
            };
            assert!(load.chord_iv(v, iss).contains(chord));
        }
        // Chord at the origin equals the small-signal conductance.
        let origin = load.chord_iv(Interval::ZERO, iss);
        assert!(origin.contains(load.conductance(0.0, iss)));
    }

    #[test]
    fn qualification_box_brackets_corner_cards() {
        // The envelope over the qualification box must enclose the
        // point analytics at every discrete corner card temperature.
        let tech = tech();
        let pvt = PvtBox::qualification();
        let m = Mosfet::new(Polarity::Nmos, 1e-6, 0.5e-6);
        for t in [233.15, 300.15, 358.15] {
            let at_t = tech.at_temperature(t);
            assert!(m
                .min_supply_iv(&tech, &pvt, 1e-9, 0.2)
                .contains(m.min_supply(&at_t, 1e-9, 0.2)));
        }
    }
}
