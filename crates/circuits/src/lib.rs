//! Benchmark circuits for the `wbist` workspace.
//!
//! Two sources of circuits:
//!
//! * [`s27`] — the exact ISCAS-89 benchmark `s27`, which the reproduced
//!   paper uses for every worked example (its Tables 1–5), together with
//!   the paper's deterministic test sequence from Table 1;
//! * [`structured`] — parameterized circuits with *known* testability
//!   characteristics (shift registers, counters, random-pattern-resistant
//!   sequence locks) for targeted experiments;
//! * [`synthetic`] — a deterministic, seeded generator of ISCAS-like
//!   synchronous sequential circuits. The original ISCAS-89 netlists
//!   (beyond `s27`) are not redistributable inputs of this reproduction, so
//!   the Table-6 experiments run on synthetic stand-ins matching each
//!   benchmark's published primary-input / primary-output / flip-flop /
//!   gate counts. See `DESIGN.md` §5 for why this substitution preserves
//!   the behaviours being reproduced.

pub mod s27;
pub mod structured;
pub mod synthetic;

pub use synthetic::{generate, table6_specs, wide_fanin, SyntheticSpec};
