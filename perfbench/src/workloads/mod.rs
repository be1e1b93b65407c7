//! The four workloads, the metric tables and the run protocol they share.
//!
//! An untraced run sets its workload up [`SETUPS`] times (reporting the
//! median set-up time), then measures for the whole `--seconds`. A traced
//! run measures an untraced half and a traced half, reports the per-layer
//! metrics of the traced half and the traced/untraced wall-time ratio as
//! the tracing overhead.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use gllm_metrics::PipelineTrace;
use gllm_workload::{ArrivalProcess, Dataset, Trace};

use crate::closed_loop::Job;
use crate::record::BlockSummary;
use crate::trace::Tracer;

pub mod http_stream;
pub mod probes;
pub mod serve;
pub mod sim_sweep;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 25;

/// The workloads, by CLI name.
pub const WORKLOADS: [&str; 4] = ["sim_sweep", "serve_chat", "serve_batch", "http_stream"];

/// End-to-end metrics (untraced runs), in report order, with units.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("max_rss_mb", "MB"),
    ("output_tok_s", "tok/s"),
    ("goodput_tok_s", "tok/s"),
    ("ttft_p50_s", "s"),
    ("ttft_p90_s", "s"),
    ("tpot_p50_s", "s"),
    ("tpot_p90_s", "s"),
];

/// Per-layer metrics (traced runs), in report order, with units. A layer
/// a workload does not reach reports 0.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("sim.run_s", "s"),
    ("sim.batches", "count"),
    ("sim.us_per_batch", "us"),
    ("sim.self_s", "s"),
    ("core.plan_calls", "count"),
    ("core.plan_s", "s"),
    ("core.plan_useful_ratio", "ratio"),
    ("core.plan_wall_share", "ratio"),
    ("core.wp_tokens_mean", "tok"),
    ("core.rd_seqs_mean", "count"),
    ("core.batch_tokens_mean", "tok"),
    ("core.batch_tokens_cv", "ratio"),
    ("core.prefill_share", "ratio"),
    ("kvcache.free_rate_mean", "ratio"),
    ("kvcache.preemptions", "count"),
    ("kvcache.rejected", "count"),
    ("transformer.prefill_us_per_tok", "us"),
    ("transformer.decode_us_per_seq", "us"),
    ("runtime.stage0_busy_share", "ratio"),
    ("runtime.complete_to_schedule_us_p50", "us"),
    ("runtime.submit_us_mean", "us"),
    ("runtime.batches", "count"),
    ("runtime.recoveries", "count"),
    ("runtime.requests_failed", "count"),
    ("frontend.connect_us_p50", "us"),
    ("frontend.headers_us_p50", "us"),
    ("frontend.first_token_after_headers_us_p50", "us"),
    ("frontend.bytes_per_token", "B/tok"),
    ("frontend.parse_us_mean", "us"),
    ("frontend.encode_us_mean", "us"),
    ("workload.synth_s", "s"),
    ("trace.overhead_frac", "ratio"),
];

/// Per-layer values measured by one traced pass, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// What one workload run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Measurement time of the pass, seconds.
    pub seconds: f64,
}

/// One measured pass of a workload.
#[derive(Debug, Default)]
pub struct Pass {
    /// Each set-up's duration, seconds.
    pub setup_s: Vec<f64>,
    /// Each set-up's input-synthesis share, seconds.
    pub synth_s: Vec<f64>,
    /// Throughput and latency of each block of the measurement (a block
    /// of completed requests or a batch; empty on `sim_sweep`).
    pub blocks: Vec<BlockSummary>,
    /// The end-to-end metrics of the pass.
    pub summary: BlockSummary,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests failed, rejected, malformed or mismatched.
    pub failed: u64,
    /// Why the outputs are wrong, if they are.
    pub errors: Vec<String>,
    /// Output digest (identical for the same seed, traced or not).
    pub digest: String,
    /// Extra `key=value` facts for the result line.
    pub notes: Vec<(String, String)>,
    /// Per-layer values (traced passes only).
    pub layers: Layers,
    /// The runtime's pipeline trace (traced serving passes only).
    pub runtime_trace: Option<PipelineTrace>,
}

impl Pass {
    /// Record an output-check failure.
    pub fn error(&mut self, msg: impl Into<String>) {
        self.errors.push(msg.into());
    }
}

/// Run `set_up` `times` times, timing each, and keep the last result;
/// `tear_down` disposes of the others (untimed).
pub fn repeat_setup<T>(
    times: usize,
    pass: &mut Pass,
    mut set_up: impl FnMut(&mut Pass) -> T,
    mut tear_down: impl FnMut(T),
) -> T {
    let mut kept = None;
    for _ in 0..times.max(1) {
        if let Some(old) = kept.take() {
            tear_down(old);
        }
        let start = Instant::now();
        let env = set_up(pass);
        pass.setup_s.push(start.elapsed().as_secs_f64());
        kept = Some(env);
    }
    kept.expect("at least one set-up")
}

/// Run one pass of `workload`.
pub fn run_pass(
    workload: &str,
    ctx: &Ctx,
    setups: usize,
    tracer: Option<&Arc<Tracer>>,
) -> Option<Pass> {
    Some(match workload {
        "sim_sweep" => sim_sweep::run(ctx, setups, tracer),
        "serve_chat" => serve::run(serve::CHAT, ctx, setups, tracer),
        "serve_batch" => serve::run(serve::BATCH, ctx, setups, tracer),
        "http_stream" => http_stream::run(ctx, setups, tracer),
        _ => return None,
    })
}

/// A small deterministic generator (SplitMix64) for token ids, so inputs
/// depend on the seed and nothing else.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// Seeded generator; `stream` separates independent uses of one seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// `n` (prompt, output) length pairs shaped like `dataset`, stratified.
///
/// The workload crate synthesizes `max(8192, 16 n)` requests from `seed`,
/// and the pairs take the middle of each of `n` equal-probability strata of
/// the prompt and output lengths. Pair `k` joins prompt stratum `5k mod n`
/// with output stratum `13k mod n` (`n` a power of two, so both are
/// permutations), so long and short requests are spread evenly and every
/// seed yields nearly the same mix in nearly the same order. A plain
/// sample moves the shape of the work, and with it every timing, by tens of
/// percent from seed to seed. So does a thin stratification: with 16
/// samples per stratum, the longest of 32 outputs, which sets an offline
/// batch's makespan, still moved by about ±10%.
pub fn stratified_lengths(dataset: Dataset, n: usize, seed: u64) -> Vec<(usize, usize)> {
    let samples = (16 * n).max(8192);
    let stride = samples / n;
    let trace = Trace::synthesize(dataset, ArrivalProcess::Burst, 0.0, samples, seed);
    let strata = |mut lens: Vec<usize>| -> Vec<usize> {
        lens.sort_unstable();
        (0..n).map(|i| lens[i * stride + stride / 2]).collect()
    };
    let prompts = strata(trace.requests.iter().map(|r| r.prompt_len).collect());
    let outputs = strata(trace.requests.iter().map(|r| r.output_len).collect());
    (0..n)
        .map(|k| (prompts[5 * k % n], outputs[13 * k % n]))
        .collect()
}

/// A pool of `n` requests with [`stratified_lengths`] divided by `scale`;
/// the seed draws every prompt token.
pub fn stratified_pool(dataset: Dataset, n: usize, scale: usize, seed: u64) -> Vec<Job> {
    let mut rng = SplitMix::new(seed, 1);
    stratified_lengths(dataset, n, seed)
        .into_iter()
        .map(|(prompt, output)| Job {
            prompt: (0..(prompt / scale).max(1))
                .map(|_| rng.below(256) as u32)
                .collect(),
            max_new: (output / scale).max(1),
        })
        .collect()
}

/// Peak resident set size of this process, MiB (0 where unavailable).
pub fn max_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
