//! Sparse-vs-dense solver equivalence on the shipped builder netlists.
//!
//! The sparse MNA path (pattern reuse + numeric refactorization) must
//! agree with the legacy dense path to 1e-12 in the ∞-norm on every
//! analysis, and the dense path itself must stay bitwise deterministic —
//! it is the oracle the sparse solver is judged against.

use ulp_bench::netlists::builder_netlists;
use ulp_device::Technology;
use ulp_spice::dcop::{DcOperatingPoint, NewtonOptions};
use ulp_spice::mna::SolverKind;
use ulp_spice::netlist::Element;
use ulp_spice::sweep::dc_sweep_with;
use ulp_spice::tran::{suggest_dt, TranOptions, Transient};

const TOL: f64 = 1e-12;

fn newton(solver: SolverKind) -> NewtonOptions {
    // Matches the lint runner: the replica netlists mirror nA-class
    // currents through long-channel devices and need gentle damping.
    NewtonOptions {
        max_iter: 800,
        max_step: 0.05,
        solver,
        ..NewtonOptions::default()
    }
}

fn inf_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "solution dimensions differ");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[test]
fn dcop_sparse_matches_dense_on_all_builder_netlists() {
    let tech = Technology::default();
    for (name, nl) in builder_netlists(&tech) {
        let dense = DcOperatingPoint::solve_with(&nl, &tech, &newton(SolverKind::Dense))
            .unwrap_or_else(|e| panic!("{name} dense dcop: {e:?}"));
        let sparse = DcOperatingPoint::solve_with(&nl, &tech, &newton(SolverKind::Sparse))
            .unwrap_or_else(|e| panic!("{name} sparse dcop: {e:?}"));
        let d = inf_diff(dense.solution(), sparse.solution());
        assert!(d <= TOL, "{name}: dcop sparse deviates by {d:e}");
    }
}

#[test]
fn dcop_dense_is_bitwise_deterministic() {
    let tech = Technology::default();
    for (name, nl) in builder_netlists(&tech) {
        let a = DcOperatingPoint::solve_with(&nl, &tech, &newton(SolverKind::Dense)).unwrap();
        let b = DcOperatingPoint::solve_with(&nl, &tech, &newton(SolverKind::Dense)).unwrap();
        for (i, (x, y)) in a.solution().iter().zip(b.solution()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{name}: dense unknown {i} not reproducible"
            );
        }
    }
}

#[test]
fn auto_resolves_to_sparse_bitwise_on_builder_netlists() {
    // Every builder netlist is above the auto threshold, so the default
    // solver must give bit-for-bit what an explicit sparse request gives
    // — pinning the resolver itself.
    let tech = Technology::default();
    for (name, nl) in builder_netlists(&tech) {
        let auto = DcOperatingPoint::solve_with(&nl, &tech, &newton(SolverKind::Auto)).unwrap();
        let sparse = DcOperatingPoint::solve_with(&nl, &tech, &newton(SolverKind::Sparse)).unwrap();
        for (i, (x, y)) in auto.solution().iter().zip(sparse.solution()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{name}: auto/sparse unknown {i} differs"
            );
        }
    }
}

#[test]
fn sweep_sparse_matches_dense_at_every_point() {
    let tech = Technology::default();
    for (name, nl) in builder_netlists(&tech) {
        let Some(src) = nl.elements().iter().find_map(|e| match e {
            Element::Vsource { name, .. } => Some(name.clone()),
            _ => None,
        }) else {
            continue;
        };
        let values: Vec<f64> = (0..11).map(|i| 0.05 + 0.01 * i as f64).collect();
        let dense = dc_sweep_with(&nl, &tech, &src, &values, &newton(SolverKind::Dense))
            .unwrap_or_else(|e| panic!("{name} dense sweep: {e:?}"));
        let sparse = dc_sweep_with(&nl, &tech, &src, &values, &newton(SolverKind::Sparse))
            .unwrap_or_else(|e| panic!("{name} sparse sweep: {e:?}"));
        for i in 0..values.len() {
            let d = inf_diff(dense.solution(i), sparse.solution(i));
            assert!(d <= TOL, "{name}: sweep point {i} deviates by {d:e}");
        }
    }
}

#[test]
fn transient_sparse_matches_dense_at_every_step() {
    let tech = Technology::default();
    for (name, nl) in builder_netlists(&tech) {
        let dt = suggest_dt(&nl, 1.0);
        let run = |solver| {
            let opts = TranOptions {
                newton: newton(solver),
                ..TranOptions::new(50.0 * dt, dt)
            };
            Transient::run(&nl, &tech, &opts)
        };
        let dense = run(SolverKind::Dense).unwrap_or_else(|e| panic!("{name} dense tran: {e:?}"));
        let sparse = run(SolverKind::Sparse).unwrap_or_else(|e| panic!("{name} sparse tran: {e:?}"));
        assert_eq!(dense.len(), sparse.len(), "{name}: step counts differ");
        for i in 0..dense.len() {
            let d = inf_diff(dense.solution(i), sparse.solution(i));
            assert!(d <= TOL, "{name}: tran step {i} deviates by {d:e}");
        }
    }
}
