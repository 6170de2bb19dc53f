//! A malformed `ULP_LINT` reaching the ERC gate is a typed error, never
//! a panic.
//!
//! This binary holds exactly one test because it sets a process-wide
//! environment variable: no other test can observe it.

use ulp_device::Technology;
use ulp_spice::dcop::DcOperatingPoint;
use ulp_spice::{Netlist, SimError};

#[test]
fn malformed_ulp_lint_is_a_typed_error_not_a_panic() {
    std::env::set_var("ULP_LINT", "tpology=deny");
    let mut nl = Netlist::new();
    let a = nl.node("a");
    nl.vsource("V1", a, Netlist::GROUND, 1.0);
    nl.resistor("R1", a, Netlist::GROUND, 1e3);
    let solve = || DcOperatingPoint::solve(&nl, &Technology::default());
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(solve))
        .expect("a malformed ULP_LINT must not panic");
    match result {
        Err(SimError::BadParameter(msg)) => {
            assert!(msg.contains("ULP_LINT"), "{msg}");
            assert!(msg.contains("`tpology`"), "{msg}");
        }
        other => panic!("expected a typed ULP_LINT error, got {other:?}"),
    }
}
