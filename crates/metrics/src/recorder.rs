//! Per-request timeline collection.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// Lifecycle timestamps of one request (seconds, in the caller's clock —
/// virtual for the simulator, wall for the runtime).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestTimeline {
    /// Arrival time.
    pub arrival_s: f64,
    /// Time the first output token was produced, if any.
    pub first_token_s: Option<f64>,
    /// Completion time, if finished.
    pub finish_s: Option<f64>,
    /// Prompt length in tokens.
    pub prompt_len: usize,
    /// Output tokens produced so far.
    pub output_tokens: usize,
    /// Times this request was preempted (evicted and recomputed).
    pub preemptions: u32,
}

impl RequestTimeline {
    /// Time to first token, if the first token exists.
    pub fn ttft(&self) -> Option<f64> {
        self.first_token_s.map(|t| t - self.arrival_s)
    }

    /// Mean time per output token after the first; `None` until the request
    /// finishes or when it produced fewer than two tokens.
    pub fn tpot(&self) -> Option<f64> {
        match (self.first_token_s, self.finish_s) {
            (Some(first), Some(finish)) if self.output_tokens >= 2 => {
                Some((finish - first) / (self.output_tokens - 1) as f64)
            }
            _ => None,
        }
    }

    /// End-to-end latency; `None` until the request finishes.
    pub fn e2el(&self) -> Option<f64> {
        self.finish_s.map(|t| t - self.arrival_s)
    }
}

/// A request's place in its [`MetricsRecorder`], returned by
/// [`MetricsRecorder::on_arrival`]: token, finish and preemption records
/// reach the timeline through it without an id search. A handle is only
/// meaningful to the recorder that returned it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineHandle(u32);

/// Collects [`RequestTimeline`]s as the serving system reports events.
#[derive(Debug, Clone, Default)]
pub struct MetricsRecorder {
    /// Every request's id and timeline, in arrival order (a handle is an
    /// index).
    timelines: Vec<(u64, RequestTimeline)>,
    /// Id → index, read only at arrival and by the id-keyed queries.
    /// Ordered so every iteration (reduction, serialization) is
    /// deterministic without sorting at each call site (sim-determinism).
    ids: BTreeMap<u64, u32>,
}

impl MetricsRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty recorder with room for `requests` timelines.
    pub fn with_capacity(requests: usize) -> Self {
        Self { timelines: Vec::with_capacity(requests), ids: BTreeMap::new() }
    }

    /// Record a request arrival and return the handle its later records
    /// go through. Panics on an id this recorder has seen.
    pub fn on_arrival(&mut self, id: u64, t: f64, prompt_len: usize) -> TimelineHandle {
        let handle = u32::try_from(self.timelines.len()).expect("fewer than 2^32 requests");
        let prev = self.ids.insert(id, handle);
        assert!(prev.is_none(), "duplicate arrival for request {id}");
        self.timelines.push((
            id,
            RequestTimeline {
                arrival_s: t,
                first_token_s: None,
                finish_s: None,
                prompt_len,
                output_tokens: 0,
                preemptions: 0,
            },
        ));
        TimelineHandle(handle)
    }

    /// Record one output token at time `t` (the first call sets TTFT).
    pub fn on_token(&mut self, h: TimelineHandle, t: f64) {
        let tl = self.get_mut(h);
        if tl.first_token_s.is_none() {
            tl.first_token_s = Some(t);
        }
        tl.output_tokens += 1;
    }

    /// Record request completion at time `t`.
    pub fn on_finish(&mut self, h: TimelineHandle, t: f64) {
        let (id, tl) = &mut self.timelines[h.0 as usize];
        assert!(tl.finish_s.is_none(), "double finish for request {id}");
        tl.finish_s = Some(t);
    }

    /// Record a preemption (KV eviction forcing recomputation).
    pub fn on_preemption(&mut self, h: TimelineHandle) {
        self.get_mut(h).preemptions += 1;
    }

    /// Timeline of one request.
    pub fn timeline(&self, id: u64) -> Option<&RequestTimeline> {
        self.ids.get(&id).map(|&i| &self.timelines[i as usize].1)
    }

    /// All timelines, sorted by request id (deterministic reduction order).
    pub fn timelines(&self) -> Vec<(u64, RequestTimeline)> {
        self.ids.values().map(|&i| self.timelines[i as usize]).collect()
    }

    /// Number of requests that finished.
    pub fn finished_count(&self) -> usize {
        self.timelines.iter().filter(|(_, t)| t.finish_s.is_some()).count()
    }

    /// Number of requests observed.
    pub fn total_count(&self) -> usize {
        self.timelines.len()
    }

    fn get_mut(&mut self, h: TimelineHandle) -> &mut RequestTimeline {
        &mut self.timelines[h.0 as usize].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn recorded() -> MetricsRecorder {
        let mut r = MetricsRecorder::new();
        let h = r.on_arrival(1, 0.0, 100);
        r.on_token(h, 0.5); // TTFT = 0.5
        r.on_token(h, 0.7);
        r.on_token(h, 0.9);
        r.on_finish(h, 0.9); // 3 tokens, TPOT = 0.4/2 = 0.2
        r
    }

    #[test]
    fn ttft_tpot_e2el_computed_correctly() {
        let r = recorded();
        let tl = r.timeline(1).unwrap();
        assert_eq!(tl.ttft(), Some(0.5));
        assert!((tl.tpot().unwrap() - 0.2).abs() < 1e-12);
        assert_eq!(tl.e2el(), Some(0.9));
        assert_eq!(tl.output_tokens, 3);
    }

    #[test]
    fn unfinished_request_has_no_tpot_or_e2el() {
        let mut r = MetricsRecorder::new();
        let h = r.on_arrival(2, 1.0, 10);
        r.on_token(h, 1.5);
        let tl = r.timeline(2).unwrap();
        assert_eq!(tl.ttft(), Some(0.5));
        assert_eq!(tl.tpot(), None);
        assert_eq!(tl.e2el(), None);
        assert_eq!(r.finished_count(), 0);
        assert_eq!(r.total_count(), 1);
    }

    #[test]
    fn single_token_request_has_no_tpot() {
        let mut r = MetricsRecorder::new();
        let h = r.on_arrival(3, 0.0, 10);
        r.on_token(h, 0.2);
        r.on_finish(h, 0.2);
        assert_eq!(r.timeline(3).unwrap().tpot(), None);
        assert_eq!(r.timeline(3).unwrap().e2el(), Some(0.2));
    }

    #[test]
    fn preemptions_are_counted() {
        let mut r = MetricsRecorder::new();
        let h = r.on_arrival(4, 0.0, 10);
        r.on_preemption(h);
        r.on_preemption(h);
        assert_eq!(r.timeline(4).unwrap().preemptions, 2);
    }

    #[test]
    #[should_panic(expected = "duplicate arrival")]
    fn duplicate_arrival_panics() {
        let mut r = MetricsRecorder::new();
        r.on_arrival(1, 0.0, 1);
        r.on_arrival(1, 0.0, 1);
    }

    #[test]
    fn timelines_sorted_by_id() {
        let mut r = MetricsRecorder::new();
        r.on_arrival(9, 0.0, 1);
        r.on_arrival(2, 0.0, 1);
        let ids: Vec<u64> = r.timelines().iter().map(|(k, _)| *k).collect();
        assert_eq!(ids, vec![2, 9]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The handle recorder against an id-keyed `BTreeMap` reference:
        /// arrivals with ids in any order, then tokens, preemptions and
        /// finishes through the handles, leave equal timelines. Each event
        /// is a kind, a pick among the arrived requests (or the id of an
        /// arrival) and a time.
        #[test]
        fn handle_records_match_an_id_keyed_reference(
            events in proptest::collection::vec((0u8..4, 0u64..1 << 16, 0u32..1000), 1..200)
        ) {
            let mut rec = MetricsRecorder::new();
            let mut reference: BTreeMap<u64, RequestTimeline> = BTreeMap::new();
            let mut arrived: Vec<(u64, TimelineHandle)> = Vec::new();
            for (kind, pick, t) in events {
                let t = f64::from(t) / 8.0;
                if kind == 0 || arrived.is_empty() {
                    // Ids arrive in any order; a seen id is not re-used.
                    if reference.contains_key(&pick) {
                        continue;
                    }
                    let h = rec.on_arrival(pick, t, (pick % 97) as usize + 1);
                    reference.insert(pick, RequestTimeline {
                        arrival_s: t,
                        first_token_s: None,
                        finish_s: None,
                        prompt_len: (pick % 97) as usize + 1,
                        output_tokens: 0,
                        preemptions: 0,
                    });
                    arrived.push((pick, h));
                    continue;
                }
                let (id, h) = arrived[pick as usize % arrived.len()];
                // The reference finds the timeline by id.
                let tl = reference.get_mut(&id).expect("arrived");
                match kind {
                    1 => {
                        rec.on_token(h, t);
                        tl.first_token_s.get_or_insert(t);
                        tl.output_tokens += 1;
                    }
                    2 => {
                        rec.on_preemption(h);
                        tl.preemptions += 1;
                    }
                    _ => {
                        if tl.finish_s.is_none() {
                            rec.on_finish(h, t);
                            tl.finish_s = Some(t);
                        }
                    }
                }
            }
            let expected: Vec<(u64, RequestTimeline)> =
                reference.iter().map(|(&id, &tl)| (id, tl)).collect();
            prop_assert_eq!(rec.timelines(), expected);
            for (&id, tl) in &reference {
                prop_assert_eq!(rec.timeline(id), Some(tl));
            }
            prop_assert_eq!(rec.timeline(u64::MAX), None);
            prop_assert_eq!(
                rec.finished_count(),
                reference.values().filter(|t| t.finish_s.is_some()).count()
            );
            prop_assert_eq!(rec.total_count(), reference.len());
        }
    }
}
