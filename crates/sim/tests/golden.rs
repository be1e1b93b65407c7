//! Golden outputs of the simulation plane.
//!
//! The engine's own determinism tests compare two runs inside one build,
//! so a change that moves every run the same way passes them all. These
//! tests pin the exact bits instead: every request timeline (`to_bits` of
//! each timestamp) plus the run's end time, schedule count, preemptions
//! and aborts are folded into an FNV-1a digest and compared with a
//! constant. A refactor that is meant to leave the simulated outcome
//! alone must leave these constants alone.

use gllm_metrics::MetricsRecorder;
use gllm_model::{ClusterSpec, ModelConfig};
use gllm_sim::engine::SimOutput;
use gllm_sim::{
    run_experiment, simulate_disaggregated, Deployment, DisaggConfig, EngineConfig, RunResult,
    SystemConfig,
};
use gllm_workload::{ArrivalProcess, Dataset, Trace};

/// gLLM (Token Throttling, pipeline parallelism) on ShareGPT seed 1.
const PP: u64 = 0xd3e5_c063_78d0_720e;
/// vLLM (Sarathi, pipeline parallelism) on ShareGPT seed 2.
const PP_VLLM: u64 = 0x231f_60de_7f09_cbf2;
/// SGLang (tensor parallelism) on ShareGPT seed 3.
const TP: u64 = 0xedb0_4b33_b123_f341;
/// gLLM with chunked pipeline parallelism on 6000-token prompts.
const CPP: u64 = 0x164f_34a0_1fd2_2ada;
/// gLLM with stage 2 running at half speed, ShareGPT seed 5.
const SLOWDOWN: u64 = 0xe32f_ba5d_f8e3_2308;
/// Disaggregated 1P:3D on 14B, ShareGPT seed 6.
const DISAGG_1P3D: u64 = 0x31e9_ae85_35a6_5164;
/// Disaggregated 2P:2D on 14B, ShareGPT seed 6.
const DISAGG_2P2D: u64 = 0xdb49_4458_62d3_705c;

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn time(&mut self, t: Option<f64>) {
        match t {
            Some(t) => {
                self.word(1);
                self.word(t.to_bits());
            }
            None => self.word(0),
        }
    }
}

/// Digest of one run's timelines and counters.
fn digest(
    recorder: &MetricsRecorder,
    end_time_s: f64,
    sched_iterations: usize,
    preemptions: u64,
    aborted: usize,
) -> u64 {
    assert!(recorder.finished_count() > 0, "the run finished no request");
    let mut h = Fnv::new();
    for (id, tl) in recorder.timelines() {
        h.word(id);
        h.word(tl.arrival_s.to_bits());
        h.time(tl.first_token_s);
        h.time(tl.finish_s);
        h.word(tl.prompt_len as u64);
        h.word(tl.output_tokens as u64);
        h.word(u64::from(tl.preemptions));
    }
    h.word(end_time_s.to_bits());
    h.word(sched_iterations as u64);
    h.word(preemptions);
    h.word(aborted as u64);
    h.0
}

fn run_digest(r: &RunResult) -> u64 {
    digest(
        &r.recorder,
        r.end_time_s,
        r.sched_iterations,
        r.preemptions,
        r.aborted,
    )
}

fn sim_digest(o: &SimOutput) -> u64 {
    digest(
        &o.recorder,
        o.end_time_s,
        o.sched_iterations,
        o.preemptions,
        o.aborted,
    )
}

fn deployment_32b() -> Deployment {
    Deployment::new(ModelConfig::qwen2_5_32b(), ClusterSpec::intra_node_l20(4))
}

/// 14B fits a single L20, which the 1P:3D split needs.
fn deployment_14b() -> Deployment {
    Deployment::new(ModelConfig::qwen2_5_14b(), ClusterSpec::intra_node_l20(4))
}

/// ~2 req/s of ShareGPT over 16 s.
fn sharegpt(seed: u64) -> Trace {
    Trace::synthesize(
        Dataset::ShareGpt,
        ArrivalProcess::Poisson { rate: 2.0 },
        16.0,
        0,
        seed,
    )
}

fn assert_digest(name: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{name}: digest {got:#018x}, pinned {want:#018x}");
}

#[test]
fn pipeline_parallel_run_is_pinned() {
    let r = run_experiment(
        &sharegpt(1),
        &SystemConfig::gllm(),
        &deployment_32b(),
        &EngineConfig::default(),
    );
    assert_digest("PP gLLM", run_digest(&r), PP);
    let r = run_experiment(
        &sharegpt(2),
        &SystemConfig::vllm(),
        &deployment_32b(),
        &EngineConfig::default(),
    );
    assert_digest("PP vLLM", run_digest(&r), PP_VLLM);
}

#[test]
fn tensor_parallel_run_is_pinned() {
    let r = run_experiment(
        &sharegpt(3),
        &SystemConfig::sglang(),
        &deployment_32b(),
        &EngineConfig::default(),
    );
    assert_digest("TP", run_digest(&r), TP);
}

#[test]
fn chunked_pipeline_parallel_run_is_pinned() {
    let trace = Trace::synthesize(
        Dataset::Fixed {
            prompt: 6000,
            output: 6,
        },
        ArrivalProcess::Poisson { rate: 0.5 },
        8.0,
        0,
        4,
    );
    let r = run_experiment(
        &trace,
        &SystemConfig::gllm_cpp(),
        &deployment_32b(),
        &EngineConfig::default(),
    );
    assert_digest("CPP", run_digest(&r), CPP);
}

#[test]
fn slowed_stage_run_is_pinned() {
    let cfg = EngineConfig {
        stage_slowdown: vec![1.0, 1.0, 2.0, 1.0],
        ..EngineConfig::default()
    };
    let r = run_experiment(&sharegpt(5), &SystemConfig::gllm(), &deployment_32b(), &cfg);
    assert_digest("stage_slowdown", run_digest(&r), SLOWDOWN);
}

#[test]
fn disaggregated_runs_are_pinned() {
    let trace = sharegpt(6);
    let d = deployment_14b();
    let cfg = EngineConfig::default();
    let split = |prefill_gpus, decode_gpus| DisaggConfig {
        prefill_gpus,
        decode_gpus,
    };
    let o = simulate_disaggregated(&trace, &d, split(1, 3), &cfg);
    assert_digest("1P:3D", sim_digest(&o), DISAGG_1P3D);
    let o = simulate_disaggregated(&trace, &d, split(2, 2), &cfg);
    assert_digest("2P:2D", sim_digest(&o), DISAGG_2P2D);
}
