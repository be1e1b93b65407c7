//! The closed-loop load generator's accounting, against a scripted backend.

use std::collections::VecDeque;
use std::time::Duration;

use gllm_perfbench::closed_loop::{run_closed_loop, Backend, BackendEvent, Job, LoopConfig};
use gllm_perfbench::record::Outcome;

/// Answers every request at once: `max_new` copies of the prompt's first
/// token, unless its id is scripted to fail, be rejected, be lost, come
/// back short or come back different on a repeat.
struct Fake {
    events: VecDeque<BackendEvent>,
    fail: fn(u64) -> bool,
    reject: fn(u64) -> bool,
    lose: fn(u64) -> bool,
    short: fn(u64) -> bool,
    vary: fn(u64) -> bool,
    refuse_after: Option<u64>,
    submitted: u64,
}

fn never(_: u64) -> bool {
    false
}

impl Fake {
    fn new() -> Self {
        Self {
            events: VecDeque::new(),
            fail: never,
            reject: never,
            lose: never,
            short: never,
            vary: never,
            refuse_after: None,
            submitted: 0,
        }
    }
}

impl Backend for Fake {
    fn submit(&mut self, id: u64, job: &Job) -> bool {
        if self.refuse_after.is_some_and(|n| self.submitted >= n) {
            return false;
        }
        self.submitted += 1;
        if (self.lose)(id) {
            return true;
        }
        if (self.fail)(id) {
            self.events.push_back(BackendEvent::Token {
                id,
                token: 1,
                finished: false,
            });
            self.events.push_back(BackendEvent::Failed { id });
            return true;
        }
        if (self.reject)(id) {
            self.events.push_back(BackendEvent::Rejected { id });
            return true;
        }
        let n = if (self.short)(id) {
            job.max_new - 1
        } else {
            job.max_new
        };
        let token = job.prompt[0] + u32::from((self.vary)(id));
        for i in 0..n {
            self.events.push_back(BackendEvent::Token {
                id,
                token,
                finished: i + 1 == n,
            });
        }
        true
    }

    fn next_event(&mut self, timeout: Duration) -> Option<BackendEvent> {
        let ev = self.events.pop_front();
        if ev.is_none() {
            std::thread::sleep(timeout);
        }
        ev
    }
}

fn pool() -> Vec<Job> {
    (0..8)
        .map(|i| Job {
            prompt: vec![10 + i, 1, 2],
            max_new: 3,
        })
        .collect()
}

/// Forty requests, four at a time; the deadline is never reached.
fn cfg() -> LoopConfig {
    LoopConfig {
        concurrency: 4,
        warmup: 0,
        duration: Duration::from_secs(60),
        stall_timeout: Duration::from_millis(50),
        block: 5,
        first_id: 0,
        limit: Some(40),
    }
}

#[test]
fn a_clean_run_has_no_failures_and_full_blocks() {
    let mut fake = Fake::new();
    let r = run_closed_loop(&mut fake, &pool(), &cfg());
    assert_eq!(r.attempted, 40);
    assert_eq!(r.failed, 0);
    assert!(!r.stalled);
    assert_eq!(r.outputs.len(), 8, "every pool entry was served");
    assert!(r
        .window
        .iter()
        .all(|rec| rec.outcome == Outcome::Ok && rec.tokens == 3));
    assert_eq!(r.window.len(), 40);
    assert_eq!(r.block_walls.len(), 8);
    assert_eq!(r.block_ends, (1..=8).map(|b| 5 * b).collect::<Vec<_>>());
    assert!(r.window_s > 0.0);
}

#[test]
fn failed_and_rejected_requests_are_attempted_failed_and_refilled() {
    let mut fake = Fake::new();
    fake.fail = |id| id % 5 == 3;
    fake.reject = |id| id % 7 == 6;
    let r = run_closed_loop(&mut fake, &pool(), &cfg());
    let expect_failed = (0..r.attempted)
        .filter(|&id| id % 5 == 3 || id % 7 == 6)
        .count() as u64;
    assert_eq!(r.failed, expect_failed);
    assert_eq!(
        r.abandoned,
        (0..r.attempted).filter(|&id| id % 5 == 3).count() as u64
    );
    assert_eq!(
        r.rejected,
        (0..r.attempted)
            .filter(|&id| id % 5 != 3 && id % 7 == 6)
            .count() as u64
    );
    // The loop replaced the failures: all forty requests were issued, and
    // every one of them ended.
    assert_eq!(r.attempted, 40);
    assert_eq!(r.window.len(), 40);
    let bad = r
        .window
        .iter()
        .filter(|rec| rec.outcome != Outcome::Ok)
        .count() as u64;
    assert_eq!(bad, expect_failed);
    // A block holds `block` successful completions and the failures that
    // ended among them.
    let mut from = 0;
    for &end in &r.block_ends {
        let ok = r.window[from..end]
            .iter()
            .filter(|rec| rec.outcome == Outcome::Ok)
            .count();
        assert_eq!(ok, 5);
        assert_eq!(r.window[end - 1].outcome, Outcome::Ok);
        from = end;
    }
    assert_eq!(r.block_ends.len() as u64, (40 - expect_failed) / 5);
    // Failures carry no latency sample even when tokens arrived first.
    assert!(r
        .window
        .iter()
        .filter(|rec| rec.outcome == Outcome::Failed)
        .all(|rec| rec.ttft().is_none()));
}

#[test]
fn short_and_changed_outputs_count_as_failures() {
    let mut fake = Fake::new();
    fake.short = |id| id == 2;
    fake.vary = |id| id >= 8; // a pool entry's second serving differs
    let r = run_closed_loop(&mut fake, &pool(), &cfg());
    let outcomes: Vec<Outcome> = r.window.iter().map(|rec| rec.outcome).collect();
    assert!(outcomes.contains(&Outcome::Malformed));
    assert!(outcomes.contains(&Outcome::Mismatch));
    assert_eq!(
        r.failed as usize,
        outcomes.iter().filter(|&&o| o != Outcome::Ok).count()
    );
}

#[test]
fn a_refusing_backend_ends_the_loop() {
    let mut fake = Fake::new();
    fake.refuse_after = Some(10);
    let r = run_closed_loop(&mut fake, &pool(), &cfg());
    assert_eq!(
        r.attempted, 11,
        "ten accepted, the eleventh refused, then no more"
    );
    assert_eq!(r.failed, 1);
    assert!(!r.stalled);
}

#[test]
fn a_lost_request_stalls_the_loop_and_fails_what_is_open() {
    let mut fake = Fake::new();
    fake.lose = |id| id == 5;
    let r = run_closed_loop(&mut fake, &pool(), &cfg());
    assert!(r.stalled);
    assert_eq!(
        r.failed, 1,
        "only the lost request was open when the loop gave up"
    );
}

#[test]
fn warm_up_completions_stay_out_of_the_window() {
    let mut fake = Fake::new();
    let r = run_closed_loop(&mut fake, &pool(), &LoopConfig { warmup: 4, ..cfg() });
    assert_eq!(r.window.len(), 40 - 4);
}

#[test]
fn a_limit_issues_exactly_that_many_requests() {
    let mut fake = Fake::new();
    let c = LoopConfig {
        concurrency: 8,
        limit: Some(8),
        block: 8,
        ..cfg()
    };
    let r = run_closed_loop(&mut fake, &pool(), &c);
    assert_eq!(r.attempted, 8);
    assert_eq!(r.window.len(), 8);
    assert_eq!(r.block_walls.len(), 1);
}
