//! Serving metrics.
//!
//! Implements exactly the paper's §4.1 metric set:
//!
//! * **TTFT** — time from request arrival to its first output token,
//! * **TPOT** — average time per output token after the first,
//! * **E2EL** — end-to-end latency from arrival to completion,
//! * **Throughput** — input + output tokens processed per second,
//! * **SLO attainment** — fraction of finished requests meeting joint
//!   TTFT/TPOT constraints (the artifact's `--goodput ttft:… tpot:…`).
//!
//! [`recorder::MetricsRecorder`] collects per-request timelines from either
//! execution plane (virtual simulator time or wall-clock runtime time);
//! [`report::ServingReport`] reduces them to the numbers the paper plots;
//! [`series`] holds the time-series probes behind Figures 1 and 4 (batched
//! token counts per iteration, GPU busy intervals → utilisation curves).
//!
//! Two correctness-facing layers ride alongside the metrics:
//!
//! * [`audit::InvariantAuditor`] shadows the scheduler from its event
//!   stream and flags KV-accounting, overcommit, pipeline-depth, budget
//!   and FCFS violations as they happen;
//! * [`trace::PipelineTrace`] is a structured per-batch event log with a
//!   Chrome `trace_event` exporter for chrome://tracing / Perfetto.
//!
//! [`step::SchedulerStep`] ties them to the scheduler: the one scheduling
//! step the simulators and the runtime driver all run, feeding the
//! recorder, the trace and the auditor from the same transitions.

pub mod audit;
pub mod recorder;
pub mod report;
pub mod series;
pub mod step;
pub mod trace;

pub use audit::{AuditReport, AuditSnapshot, InvariantAuditor, Invariant, KvObservation, PlanCaps, Violation};
pub use recorder::{MetricsRecorder, RequestTimeline, TimelineHandle};
pub use report::{ServingReport, SloSpec};
pub use series::{BusyTracker, TokenTrace, TokenTracePoint};
pub use step::{Proposal, Scheduled, SchedulerStep};
pub use trace::{PipelineTrace, TraceEvent, TraceEventKind};
