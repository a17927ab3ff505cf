//! # bench — the reproduction harness
//!
//! * [`repro`] — renders every paper table and figure from fresh campaign
//!   runs and checks the headline claims (used by the `repro` binary).
//! * [`ablations`] — the extension experiments from `DESIGN.md` §6:
//!   store-and-forward vs pipelined relaying (A1), selector strategies vs
//!   the oracle (A2), congestion sweeps (A3), and multi-hop detours.

pub mod ablations;
pub mod repro;
