//! # ulp-ir — declarative netlist intermediate representation
//!
//! The crates below this one build circuits *imperatively*: Rust code
//! calls [`ulp_spice::Netlist`] builder methods. That is precise but
//! closed — every topology needs a new function, and a parameter sweep
//! needs bespoke loop code. `ulp-ir` adds the open, data-driven layer
//! the platform papers assume: circuits as *documents*.
//!
//! - [`ast`] — plain-data IR: a [`Design`] of [`Subckt`] definitions
//!   with typed ports ([`PortRole`]), device cards, hierarchical
//!   [`Instance`]s, named parameters, and declarative sweep cards.
//! - [`parse`](mod@parse) — a line-oriented text dialect (`.subckt`/`.ends`,
//!   device cards, `X…` instances) with typed errors carrying line,
//!   column and offending token; [`Design::to_text`] is the inverse,
//!   byte-stable serializer: `parse(d.to_text()) == d`.
//! - [`flatten`](mod@flatten) — recursive elaboration into a flat
//!   [`ulp_spice::Netlist`] under the `x1.x2.node` naming contract,
//!   so the whole existing stack (ERC, lints, the interval certifier,
//!   both solver backends, telemetry) applies unchanged.
//! - [`sweep`] — expansion of `.tech`/`.sweep` cards into a
//!   deterministic, index-addressable [`SweepPlan`] ready for
//!   `ulp-exec` ensembles.
//! - [`import`] — the reverse bridge: lift a builder-made netlist
//!   into the IR for serialization.
//!
//! ## From text to a solved operating point
//!
//! ```
//! use ulp_ir::{flatten, parse};
//! use ulp_spice::dcop::DcOperatingPoint;
//! use ulp_device::Technology;
//!
//! let src = "\
//! * resistive divider with a subcircuit half
//! .subckt half top bot
//! R1 top bot 10k
//! .ends
//! V1 vin 0 dc 1.0
//! X1 vin mid half
//! X2 mid 0 half
//! .end
//! ";
//! let design = parse(src)?;
//! let nl = flatten(&design)?;
//! let op = DcOperatingPoint::solve(&nl, &Technology::nominal())?;
//! let mid = nl.find_node("mid").unwrap();
//! assert!((op.voltage(mid) - 0.5).abs() < 1e-6);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod flatten;
pub mod import;
pub mod parse;
pub mod sweep;

pub use ast::{
    ClassDefault, Design, Device, DeviceKind, Instance, Item, Port, PortRole, Subckt, SweepAxis,
    SweepSpec, TranSpec, Value, WaveSpec,
};
pub use flatten::{flatten, FlattenError};
pub use import::{design_from_netlist, ImportError};
pub use parse::{parse, ParseError, ParseErrorKind};
pub use sweep::{SweepError, SweepPlan, SweepPoint, TechTarget};

use std::fmt;

/// Umbrella error for whole-pipeline drivers (parse → flatten →
/// sweep), so a CLI stage can `?` uniformly.
#[derive(Debug, Clone, PartialEq)]
pub enum IrError {
    /// The text failed to parse.
    Parse(ParseError),
    /// The design failed to flatten.
    Flatten(FlattenError),
    /// The sweep cards failed to expand.
    Sweep(SweepError),
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::Parse(e) => write!(f, "{e}"),
            IrError::Flatten(e) => write!(f, "{e}"),
            IrError::Sweep(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for IrError {}

impl From<ParseError> for IrError {
    fn from(e: ParseError) -> Self {
        IrError::Parse(e)
    }
}

impl From<FlattenError> for IrError {
    fn from(e: FlattenError) -> Self {
        IrError::Flatten(e)
    }
}

impl From<SweepError> for IrError {
    fn from(e: SweepError) -> Self {
        IrError::Sweep(e)
    }
}
