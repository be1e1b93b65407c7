//! Per-request records and the latency, throughput and goodput arithmetic
//! shared by the serving workloads.

use crate::stats::percentile;

/// Percentile of the blocks [`settle`] reports: of times, the 25th; of
/// rates, the 75th.
pub const SETTLED_PERCENTILE: f64 = 25.0;

/// How a request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Every expected token arrived and matched the reference.
    Ok,
    /// The server refused the request (e.g. it exceeds KV capacity).
    Rejected,
    /// The server gave up on the request, or the connection broke.
    Failed,
    /// The response arrived but could not be parsed, or had the wrong
    /// number of tokens.
    Malformed,
    /// The tokens differ from the reference output for the same input.
    Mismatch,
}

/// One finished request, with times in seconds from a common origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestRecord {
    /// When the request was sent.
    pub sent_s: f64,
    /// When its first output token arrived.
    pub first_token_s: Option<f64>,
    /// When its last output token arrived (or it ended otherwise).
    pub end_s: f64,
    /// Output tokens received.
    pub tokens: usize,
    /// How it ended.
    pub outcome: Outcome,
}

impl RequestRecord {
    /// Time to first token, for successful requests.
    pub fn ttft(&self) -> Option<f64> {
        if self.outcome != Outcome::Ok {
            return None;
        }
        self.first_token_s.map(|t| t - self.sent_s)
    }

    /// Time per output token after the first, for successful requests
    /// with at least two tokens.
    pub fn tpot(&self) -> Option<f64> {
        if self.outcome != Outcome::Ok || self.tokens < 2 {
            return None;
        }
        self.first_token_s
            .map(|t| (self.end_s - t) / (self.tokens - 1) as f64)
    }
}

/// Latency limits a request must meet to count toward goodput.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slo {
    /// Largest acceptable TTFT, seconds.
    pub ttft_s: f64,
    /// Largest acceptable TPOT, seconds.
    pub tpot_s: f64,
}

impl Slo {
    /// Whether `r` succeeded within both limits. A single-token request
    /// has no TPOT and is judged on TTFT alone; failures always miss.
    pub fn met_by(&self, r: &RequestRecord) -> bool {
        match r.ttft() {
            None => false,
            Some(ttft) => ttft <= self.ttft_s && r.tpot().is_none_or(|t| t <= self.tpot_s),
        }
    }
}

/// Output tokens of the requests in `records` that meet `slo`.
pub fn goodput_tokens(records: &[RequestRecord], slo: Slo) -> usize {
    records
        .iter()
        .filter(|r| slo.met_by(r))
        .map(|r| r.tokens)
        .sum()
}

/// TTFT and TPOT percentiles over the successful requests of a window.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    /// Median TTFT, seconds.
    pub ttft_p50_s: f64,
    /// 90th-percentile TTFT, seconds.
    pub ttft_p90_s: f64,
    /// Median TPOT, seconds.
    pub tpot_p50_s: f64,
    /// 90th-percentile TPOT, seconds.
    pub tpot_p90_s: f64,
    /// Requests contributing a TTFT sample.
    pub ttft_samples: usize,
    /// Requests contributing a TPOT sample.
    pub tpot_samples: usize,
}

impl LatencySummary {
    /// Summarise `records`; failed requests contribute no latency sample.
    pub fn of(records: &[RequestRecord]) -> Self {
        let ttft: Vec<f64> = records.iter().filter_map(RequestRecord::ttft).collect();
        let tpot: Vec<f64> = records.iter().filter_map(RequestRecord::tpot).collect();
        Self {
            ttft_p50_s: percentile(&ttft, 50.0),
            ttft_p90_s: percentile(&ttft, 90.0),
            tpot_p50_s: percentile(&tpot, 50.0),
            tpot_p90_s: percentile(&tpot, 90.0),
            ttft_samples: ttft.len(),
            tpot_samples: tpot.len(),
        }
    }
}

/// 64-bit FNV-1a, the digest of output streams and simulator reports.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mix `bytes` in.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Mix a `u64` in (little-endian).
    pub fn u64(&mut self, x: u64) -> &mut Self {
        self.bytes(&x.to_le_bytes())
    }

    /// Mix a token stream in, length first.
    pub fn tokens(&mut self, toks: &[u32]) -> &mut Self {
        self.u64(toks.len() as u64);
        for &t in toks {
            self.bytes(&t.to_le_bytes());
        }
        self
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Throughput and latency of one block of requests: a stretch of the
/// measurement window with a fixed amount of work.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BlockSummary {
    /// Wall time of the block, seconds.
    pub wall_s: f64,
    /// Output tokens of successful requests per second.
    pub output_tok_s: f64,
    /// Output tokens of requests within the limits per second.
    pub goodput_tok_s: f64,
    /// Latency percentiles of the block's requests.
    pub latency: LatencySummary,
}

impl BlockSummary {
    /// Summarise the `records` of a block that took `wall_s`.
    pub fn of(records: &[RequestRecord], wall_s: f64, slo: Slo) -> Self {
        let ok: usize = records
            .iter()
            .filter(|r| r.outcome == Outcome::Ok)
            .map(|r| r.tokens)
            .sum();
        let per_s = |tokens: usize| {
            if wall_s > 0.0 {
                tokens as f64 / wall_s
            } else {
                0.0
            }
        };
        Self {
            wall_s,
            output_tok_s: per_s(ok),
            goodput_tok_s: per_s(goodput_tokens(records, slo)),
            latency: LatencySummary::of(records),
        }
    }
}

/// The blocks of a run summarised metric by metric at their favourable
/// quartile: the 25th percentile of each time and the 75th of each rate.
///
/// Other tenants of a shared machine only ever slow a block down, and
/// they do so for seconds at a time; the favourable quartile follows the
/// program's own speed as long as a quarter of the run is undisturbed,
/// where the median moves as soon as half of it is. Sample counts are
/// summed over the blocks.
pub fn settle(blocks: &[BlockSummary]) -> BlockSummary {
    let at = |p: f64, f: fn(&BlockSummary) -> f64| {
        percentile(&blocks.iter().map(f).collect::<Vec<_>>(), p)
    };
    let (time, rate) = (SETTLED_PERCENTILE, 100.0 - SETTLED_PERCENTILE);
    BlockSummary {
        wall_s: at(time, |b| b.wall_s),
        output_tok_s: at(rate, |b| b.output_tok_s),
        goodput_tok_s: at(rate, |b| b.goodput_tok_s),
        latency: LatencySummary {
            ttft_p50_s: at(time, |b| b.latency.ttft_p50_s),
            ttft_p90_s: at(time, |b| b.latency.ttft_p90_s),
            tpot_p50_s: at(time, |b| b.latency.tpot_p50_s),
            tpot_p90_s: at(time, |b| b.latency.tpot_p90_s),
            ttft_samples: blocks.iter().map(|b| b.latency.ttft_samples).sum(),
            tpot_samples: blocks.iter().map(|b| b.latency.tpot_samples).sum(),
        },
    }
}
