//! A closed-loop load generator: keep `concurrency` requests open, issue a
//! new one as each finishes, stop issuing at the deadline and drain.
//!
//! The loop talks to a [`Backend`] — the runtime's `submit`/`next_event`
//! in the benchmark, a scripted fake in the tests — and checks every
//! response: the right number of tokens, and the same tokens each time the
//! same pool entry is served (greedy decoding is deterministic, whatever
//! the batch it lands in).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::record::{Outcome, RequestRecord};

/// One generation request of the workload's pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// Prompt token ids.
    pub prompt: Vec<u32>,
    /// Output tokens to generate.
    pub max_new: usize,
}

/// An event from the server under load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendEvent {
    /// One output token of request `id`.
    Token {
        /// Request id.
        id: u64,
        /// The token.
        token: u32,
        /// Whether it was the request's last token.
        finished: bool,
    },
    /// Request `id` was refused.
    Rejected {
        /// Request id.
        id: u64,
    },
    /// Request `id` was abandoned by the server.
    Failed {
        /// Request id.
        id: u64,
    },
}

/// The server under load.
pub trait Backend {
    /// Submit `job` as request `id`; `false` if the server cannot accept
    /// any more requests.
    fn submit(&mut self, id: u64, job: &Job) -> bool;
    /// Wait up to `timeout` for the next event.
    fn next_event(&mut self, timeout: Duration) -> Option<BackendEvent>;
}

/// Shape of one closed-loop run.
#[derive(Debug, Clone, Copy)]
pub struct LoopConfig {
    /// Requests kept open.
    pub concurrency: usize,
    /// Completions, counted from the start, excluded from the window (the
    /// initial burst of `concurrency` simultaneous arrivals).
    pub warmup: usize,
    /// How long to keep issuing requests.
    pub duration: Duration,
    /// Give up when no event arrives for this long.
    pub stall_timeout: Duration,
    /// Successful completions per wall-time block.
    pub block: usize,
    /// First request id (ids must not repeat on one server).
    pub first_id: u64,
    /// Stop issuing after this many requests (`None`: only the deadline).
    pub limit: Option<u64>,
}

/// What one closed-loop run measured.
#[derive(Debug, Clone, Default)]
pub struct LoopResult {
    /// Requests that finished inside the measurement window (after warm-up,
    /// before the deadline), in completion order.
    pub window: Vec<RequestRecord>,
    /// Length of the measurement window, seconds.
    pub window_s: f64,
    /// Wall time of each block of `block` successful completions in the
    /// window.
    pub block_walls: Vec<f64>,
    /// For each block, the index in `window` one past its last record.
    pub block_ends: Vec<usize>,
    /// Requests submitted, including warm-up and drain.
    pub attempted: u64,
    /// Requests that did not end [`Outcome::Ok`], including warm-up and
    /// drain, and those lost to a stall.
    pub failed: u64,
    /// The first output seen for each pool entry served at least once.
    pub outputs: HashMap<usize, Vec<u32>>,
    /// Whether the run ended because the server stopped responding.
    pub stalled: bool,
    /// Wall time spent inside `Backend::submit`, seconds.
    pub submit_s: f64,
    /// Requests the server refused.
    pub rejected: u64,
    /// Requests the server abandoned.
    pub abandoned: u64,
}

struct Open {
    job: usize,
    sent: Instant,
    first: Option<Instant>,
    tokens: Vec<u32>,
}

/// Run the loop over `pool` (entries issued in order, wrapping around).
pub fn run_closed_loop<B: Backend>(backend: &mut B, pool: &[Job], cfg: &LoopConfig) -> LoopResult {
    let t0 = Instant::now();
    let secs = |t: Instant| t.duration_since(t0).as_secs_f64();
    let deadline = t0 + cfg.duration;
    let mut res = LoopResult::default();
    let mut open: HashMap<u64, Open> = HashMap::new();
    let mut next_id = cfg.first_id;
    let mut next_job = 0usize;
    let mut completions = 0usize;
    let mut window_start: Option<Instant> = (cfg.warmup == 0).then_some(t0);
    let mut block_start = window_start;
    let mut in_block = 0usize;
    let mut accepting = !pool.is_empty();

    loop {
        while accepting
            && open.len() < cfg.concurrency
            && cfg.limit.is_none_or(|l| res.attempted < l)
            && Instant::now() < deadline
        {
            let job = next_job % pool.len();
            next_job += 1;
            let id = next_id;
            next_id += 1;
            res.attempted += 1;
            let sent = Instant::now();
            let ok = backend.submit(id, &pool[job]);
            res.submit_s += sent.elapsed().as_secs_f64();
            if !ok {
                res.failed += 1;
                accepting = false;
                break;
            }
            open.insert(
                id,
                Open {
                    job,
                    sent,
                    first: None,
                    tokens: Vec::new(),
                },
            );
        }
        if open.is_empty() {
            break;
        }
        let Some(ev) = backend.next_event(cfg.stall_timeout) else {
            res.stalled = true;
            res.failed += open.len() as u64;
            break;
        };
        let now = Instant::now();
        let (id, outcome) = match ev {
            BackendEvent::Token {
                id,
                token,
                finished,
            } => {
                let Some(o) = open.get_mut(&id) else { continue };
                o.first.get_or_insert(now);
                o.tokens.push(token);
                if !finished {
                    continue;
                }
                (id, Outcome::Ok)
            }
            BackendEvent::Rejected { id } => {
                res.rejected += 1;
                (id, Outcome::Rejected)
            }
            BackendEvent::Failed { id } => {
                res.abandoned += 1;
                (id, Outcome::Failed)
            }
        };
        let Some(o) = open.remove(&id) else { continue };
        let outcome = match outcome {
            Outcome::Ok if o.tokens.len() != pool[o.job].max_new => Outcome::Malformed,
            Outcome::Ok => match res.outputs.get(&o.job) {
                Some(seen) if *seen != o.tokens => Outcome::Mismatch,
                Some(_) => Outcome::Ok,
                None => {
                    res.outputs.insert(o.job, o.tokens.clone());
                    Outcome::Ok
                }
            },
            other => other,
        };
        if outcome != Outcome::Ok {
            res.failed += 1;
        }
        completions += 1;
        if window_start.is_none() && completions >= cfg.warmup {
            window_start = Some(now);
            block_start = Some(now);
            continue;
        }
        let Some(bs) = block_start else { continue };
        if now > deadline {
            continue;
        }
        res.window.push(RequestRecord {
            sent_s: secs(o.sent),
            first_token_s: o.first.map(secs),
            end_s: secs(now),
            tokens: o.tokens.len(),
            outcome,
        });
        if outcome == Outcome::Ok {
            in_block += 1;
            if in_block == cfg.block {
                res.block_walls.push(now.duration_since(bs).as_secs_f64());
                res.block_ends.push(res.window.len());
                block_start = Some(now);
                in_block = 0;
            }
        }
    }
    // The window closes at the deadline, or at the end of a run that
    // drained early (e.g. a dead backend).
    let end = deadline.min(Instant::now());
    res.window_s = window_start.map_or(0.0, |ws| end.saturating_duration_since(ws).as_secs_f64());
    res
}
