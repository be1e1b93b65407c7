//! The gLLM benchmark: four workloads driven from outside the program
//! through each crate's public API, an untraced run that reports the
//! end-to-end metrics and a traced run that reports per-layer metrics.
//!
//! The library half holds the arithmetic and the load generator, so they
//! can be tested without building a server; `main.rs` is the CLI.

pub mod closed_loop;
pub mod record;
pub mod stats;
pub mod trace;
pub mod workloads;
