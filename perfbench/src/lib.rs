//! End-to-end and per-layer benchmark of the FTMP stack.
//!
//! Three workloads run through the deterministic simulator from a single
//! thread ([`workload`]). Every node is the program's own `SimProcessor` or
//! `OrbNode` behind a thin booking wrapper ([`node`]); a traced round times
//! each layer's public entry points from here, records spans ([`trace`]),
//! and replays the captured traffic through the codec, the packer, RMP and
//! ROMP in isolation ([`replay`]). [`report`] turns rounds into the named
//! metrics; [`stats`] holds the exact quantiles; [`sys`] the per-run
//! machine record; [`calib`] the reference workload wall time is scaled by.

pub mod calib;
pub mod check;
pub mod node;
pub mod replay;
pub mod report;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workload;
