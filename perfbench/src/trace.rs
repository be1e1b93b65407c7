//! The traced run's instruments: an in-memory span recorder written out as
//! a Chrome trace at exit, and a delegating [`SchedulePolicy`] that times
//! every `plan` call and reads the view it receives and the plan it
//! returns.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use gllm_core::{BatchPlan, SchedulePolicy, ScheduleView, Tokens};
use gllm_metrics::PipelineTrace;
use serde_json::Value;

use crate::stats::Moments;

/// Spans kept for the Chrome trace; aggregates keep counting past it.
const SPAN_CAP: usize = 50_000;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    /// The request the span belongs to, when it belongs to one.
    req: Option<u64>,
    tid: u64,
    start_us: f64,
    dur_us: f64,
}

/// Records named spans in memory, for the Chrome trace written at exit.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

fn thread_id() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Tracer {
    /// A tracer whose timestamps count from now.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Record a span that started at `start` and ends now.
    pub fn record(&self, name: &'static str, start: Instant) {
        self.record_between(name, None, start, Instant::now());
    }

    /// Record a span of request `req` over `[start, end]`; spans of one
    /// request share `args.req` in the Chrome trace.
    pub fn record_req(&self, name: &'static str, req: u64, start: Instant, end: Instant) {
        self.record_between(name, Some(req), start, end);
    }

    fn record_between(&self, name: &'static str, req: Option<u64>, start: Instant, end: Instant) {
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let mut spans = lock(&self.spans);
        if spans.len() < SPAN_CAP {
            spans.push(Span {
                name,
                req,
                tid: thread_id(),
                start_us: us(start),
                dur_us: us(end) - us(start),
            });
        }
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        lock(&self.spans).len()
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The spans as a Chrome `trace_event` document (pid 0), followed by
    /// the runtime's own pipeline events (pid 1) when given, and `meta` as
    /// `otherData`.
    pub fn chrome_trace(
        &self,
        runtime: Option<&PipelineTrace>,
        meta: Vec<(String, Value)>,
    ) -> String {
        let mut events: Vec<Value> = lock(&self.spans)
            .iter()
            .map(|s| {
                let mut fields = vec![
                    ("name".into(), Value::Str(s.name.into())),
                    (
                        "cat".into(),
                        Value::Str(s.name.split('.').next().unwrap_or("").into()),
                    ),
                    ("ph".into(), Value::Str("X".into())),
                    ("pid".into(), Value::UInt(0)),
                    ("tid".into(), Value::UInt(s.tid)),
                    ("ts".into(), Value::Float(s.start_us)),
                    ("dur".into(), Value::Float(s.dur_us)),
                ];
                if let Some(req) = s.req {
                    let args = vec![("req".to_string(), Value::UInt(req))];
                    fields.push(("args".into(), Value::Object(args)));
                }
                Value::Object(fields)
            })
            .collect();
        if let Some(Value::Object(doc)) = runtime.map(PipelineTrace::to_chrome_trace) {
            for (key, value) in doc {
                if let ("traceEvents", Value::Array(evs)) = (key.as_str(), value) {
                    events.extend(evs.into_iter().map(|ev| {
                        match ev {
                            Value::Object(fields) => Value::Object(
                                fields
                                    .into_iter()
                                    .map(|(k, v)| {
                                        if k == "pid" {
                                            (k, Value::UInt(1))
                                        } else {
                                            (k, v)
                                        }
                                    })
                                    .collect(),
                            ),
                            other => other,
                        }
                    }));
                }
            }
        }
        Value::Object(vec![
            ("traceEvents".into(), Value::Array(events)),
            ("displayTimeUnit".into(), Value::Str("ms".into())),
            ("otherData".into(), Value::Object(meta)),
        ])
        .to_string()
    }
}

/// Time `f` as span `name` when `tracer` is on.
pub fn span<R>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    if let Some(t) = tracer {
        t.record(name, start);
    }
    out
}

/// What [`TimedPolicy`] saw.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanStats {
    /// `plan` calls.
    pub calls: u64,
    /// Calls that returned a non-empty plan.
    pub useful: u64,
    /// Time inside the wrapped policy's `plan`.
    pub plan_time: Duration,
    /// `#WP` (tokens awaiting prefill) per call.
    pub wp_tokens: Moments,
    /// `#RD` (sequences in the decode phase) per call.
    pub rd_seqs: Moments,
    /// The KV free rate per call.
    pub kv_free_rate: Moments,
    /// Tokens per non-empty plan (the paper's Fig. 1 fluctuation is its CV).
    pub batch_tokens: Moments,
    /// Decode sequences per non-empty plan.
    pub decode_seqs: Moments,
    /// Prefill tokens over all plans.
    pub prefill_tokens: u64,
    /// Tokens over all plans.
    pub total_tokens: u64,
}

impl PlanStats {
    /// Share of planned tokens that were prefill.
    pub fn prefill_share(&self) -> f64 {
        if self.total_tokens == 0 {
            0.0
        } else {
            self.prefill_tokens as f64 / self.total_tokens as f64
        }
    }

    /// Non-empty plans over calls.
    pub fn useful_ratio(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.useful as f64 / self.calls as f64
        }
    }
}

/// A [`SchedulePolicy`] that delegates to `inner` and measures each call.
pub struct TimedPolicy {
    inner: Arc<dyn SchedulePolicy>,
    stats: Arc<Mutex<PlanStats>>,
    tracer: Option<Arc<Tracer>>,
}

impl TimedPolicy {
    /// Wrap `inner`, adding to `stats` (which several wrappers may share);
    /// plan spans go to `tracer` when given.
    pub fn sharing(
        inner: Arc<dyn SchedulePolicy>,
        stats: Arc<Mutex<PlanStats>>,
        tracer: Option<Arc<Tracer>>,
    ) -> Arc<Self> {
        Arc::new(Self {
            inner,
            stats,
            tracer,
        })
    }
}

/// A copy of shared plan statistics.
pub fn snapshot(stats: &Mutex<PlanStats>) -> PlanStats {
    *lock(stats)
}

impl SchedulePolicy for TimedPolicy {
    fn plan(&self, view: &ScheduleView) -> BatchPlan {
        let start = Instant::now();
        let plan = self.inner.plan(view);
        let took = start.elapsed();
        if let Some(t) = &self.tracer {
            t.record("core.plan", start);
        }
        let mut s = lock(&self.stats);
        s.calls += 1;
        s.plan_time += took;
        s.wp_tokens.push(view.waiting_tokens().get() as f64);
        s.rd_seqs.push(view.total_decode_seqs as f64);
        s.kv_free_rate.push(view.kv_free_rate);
        if !plan.is_empty() {
            let prefill: Tokens = plan.prefill_tokens();
            let total: Tokens = plan.total_tokens();
            s.useful += 1;
            s.batch_tokens.push(total.get() as f64);
            s.decode_seqs.push(plan.decode.len() as f64);
            s.prefill_tokens += prefill.get() as u64;
            s.total_tokens += total.get() as u64;
        }
        plan
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn budget_caps(&self, view: &ScheduleView) -> Option<(Tokens, usize)> {
        self.inner.budget_caps(view)
    }
}
