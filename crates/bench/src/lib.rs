//! Shared plumbing for the benchmark harness.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md §3 for the index): it synthesises the workload, sweeps
//! the parameter the paper sweeps, runs every compared system through the
//! discrete-event simulator, prints the same rows/series the paper reports
//! and drops a machine-readable JSON copy under `bench-results/`.

pub mod cli;
pub mod output;
pub mod sweep;
pub mod timing;

pub use cli::{flag_value, has_flag, jobs};
pub use output::{write_json, Table};
pub use sweep::{sweep_rates, sweep_rates_with_cfg, RatePoint};
