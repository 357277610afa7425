//! Three-valued logic simulation and sequential fault simulation.
//!
//! This crate provides the simulation substrate for the `wbist` workspace:
//!
//! * [`Logic3`] — the three-valued logic domain `{0, 1, X}`;
//! * [`TestSequence`] — a fully specified binary input sequence applied to
//!   the primary inputs of a circuit, one vector per time unit;
//! * [`LogicSim`] — good-machine (fault-free) simulation from the all-`X`
//!   initial state, with optional full-trace recording;
//! * [`FaultSim`] — a parallel-fault sequential fault simulator that
//!   evaluates 63 faulty machines plus the fault-free machine per
//!   64-bit plane word, using a two-bit-plane encoding of
//!   three-valued signals. It is generic over the fault model (single
//!   stuck-at and transition-delay faults); all one-shot questions go
//!   through the [`FaultSim::query`] builder.
//! * [`pool`] — the single work-stealing pool that every parallel
//!   fan-out in the workspace (sim batches, session fault jobs)
//!   dispatches through.
//!
//! # Detection semantics
//!
//! All simulation starts from the unknown state (every flip-flop holds `X`).
//! A fault is *detected* at time unit `u` when some observed net (primary
//! output or observation point) carries a binary value in both the
//! fault-free and the faulty machine and the two values differ. A binary
//! value against an `X` never counts — the conservative, standard rule.
//!
//! # Example
//!
//! ```
//! use wbist_netlist::{bench_format, FaultList};
//! use wbist_sim::{FaultSim, TestSequence};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let c = bench_format::parse(
//!     "toy",
//!     "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nq = DFF(g)\ng = NAND(a, q)\ny = XOR(g, b)\n",
//! )?;
//! let faults = FaultList::checkpoints(&c);
//! let seq = TestSequence::parse_rows(&["11", "01", "10", "00"])?;
//! let times = FaultSim::new(&c).query(&faults).sequence(&seq).detection_times();
//! assert_eq!(times.len(), faults.len());
//! # Ok(())
//! # }
//! ```

mod compiled;
pub mod error;
pub mod fault;
pub mod good;
pub mod logic;
pub mod misr;
mod plane;
pub mod pool;
pub mod reference;
pub mod run;
pub mod runctl;
pub mod sequence;
pub mod vcd;

pub use compiled::SWEEP_LANES;
pub use error::SimError;
pub use fault::{CompiledHandle, FaultSim, FaultSimState, PreparedSequence, Query, SimOptions};
pub use good::{LogicSim, SimTrace};
pub use logic::Logic3;
pub use misr::Misr;
pub use reference::SerialFaultSim;
pub use run::RunOptions;
pub use runctl::{Budget, CancelToken, TruncationReason};
pub use sequence::TestSequence;
pub use wbist_telemetry::Telemetry;
