//! Chaos suite: seeded fault injection against the threaded pipeline
//! runtime.
//!
//! The contract under test (ISSUE 5 / DESIGN §10): for every recoverable
//! fault — a killed stage worker, a dropped or delayed activation, a KV
//! reservation failure within the retry budget — the recovered run's
//! outputs are **bit-identical** to the fault-free run's. Unrecoverable
//! faults (KV failures past the budget) degrade to a structured
//! [`StreamEvent::Failed`] rejection of the victim while every other
//! request still completes bit-identically. In neither case may the
//! runtime panic or stall indefinitely, and every injected fault and
//! recovery must be visible in the audit counters and the pipeline trace.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use gllm_core::throttle::TokenThrottle;
use gllm_core::SchedulePolicy;
use gllm_runtime::driver::DriverOutput;
use gllm_runtime::{FaultPlan, GenRequest, RuntimeConfig, Server};
use gllm_transformer::sampler::SamplingParams;

fn req(id: u64, prompt: Vec<u32>, max_new: usize) -> GenRequest {
    GenRequest { id, prompt, max_new, params: SamplingParams::greedy() }
}

/// A deterministic mixed workload: varying prompt lengths and output
/// budgets so multi-batch pipelines build up real in-flight state.
fn workload(n: u64) -> Vec<GenRequest> {
    (0..n)
        .map(|i| {
            let len = 4 + (i as usize % 5) * 3;
            let prompt = (0..len).map(|j| ((i * 31 + j as u64 * 7) % 256) as u32).collect();
            req(i, prompt, 6 + (i as usize % 4))
        })
        .collect()
}

/// Chaos-friendly config: short heartbeat so dropped activations recover
/// in test time, trace recording on so fault visibility can be asserted.
fn chaos_cfg(stages: usize, plan: FaultPlan) -> RuntimeConfig {
    RuntimeConfig {
        fault_plan: plan,
        batch_timeout: Duration::from_millis(250),
        record_trace: true,
        stall_timeout: Duration::from_secs(60),
        ..RuntimeConfig::tiny(stages)
    }
}

/// Run `reqs` to completion under `cfg`, returning outputs + driver state.
fn run(cfg: RuntimeConfig, reqs: Vec<GenRequest>) -> (BTreeMap<u64, Vec<u32>>, DriverOutput) {
    let server = Server::start(cfg, Arc::new(TokenThrottle::default()) as Arc<dyn SchedulePolicy>)
        .expect("valid config");
    let out = server.generate_all(reqs).expect("runtime stalled under fault injection");
    (out, server.shutdown_full())
}

/// The fault-free outputs the chaos runs must reproduce bit-for-bit.
fn baseline(stages: usize, reqs: Vec<GenRequest>) -> BTreeMap<u64, Vec<u32>> {
    run(chaos_cfg(stages, FaultPlan::none()), reqs).0
}

/// Assert the audit report exists, has no violations, and expose it.
fn clean_audit(out: &DriverOutput) -> &gllm_metrics::AuditReport {
    let audit = out.audit.as_ref().expect("audit defaults on");
    assert_eq!(audit.final_snapshot.violations, 0, "recovery must not trip invariants");
    audit
}

#[test]
fn killed_middle_worker_recovers_bit_identically() {
    let reqs = workload(6);
    let want = baseline(3, reqs.clone());
    let (out, drv) = run(chaos_cfg(3, FaultPlan::parse("kill:1@2").expect("spec")), reqs);
    assert_eq!(out, want, "recovered run diverged from fault-free run");
    let audit = clean_audit(&drv);
    assert!(audit.final_snapshot.faults_injected >= 1, "the kill must be on record");
    assert!(audit.final_snapshot.recoveries >= 1, "a kill must force a recovery");
    assert_eq!(audit.final_snapshot.requests_failed, 0, "recoverable fault, no rejections");
    let trace = drv.trace.to_chrome_trace_string();
    assert!(trace.contains("kill worker stage 1"), "trace must name the fault");
    assert!(trace.contains("\"recovery\""), "trace must mark the recovery");
}

#[test]
fn killed_last_stage_recovers_bit_identically() {
    // The last stage hands results, not activations, to the driver: its
    // death reaches the driver as a `StageExit` message in its inbox.
    let reqs = workload(5);
    let want = baseline(3, reqs.clone());
    let (out, drv) = run(chaos_cfg(3, FaultPlan::parse("kill:2@1").expect("spec")), reqs);
    assert_eq!(out, want);
    let audit = clean_audit(&drv);
    assert!(audit.final_snapshot.recoveries >= 1);
    assert_eq!(audit.final_snapshot.requests_failed, 0);
}

#[test]
fn dropped_driver_activation_recovers_bit_identically() {
    // The driver broadcasts batch metadata, then "loses" its own
    // activation send: downstream desynchronises (or the heartbeat
    // expires) and recovery recomputes the lost batch.
    let reqs = workload(5);
    let want = baseline(2, reqs.clone());
    let (out, drv) = run(chaos_cfg(2, FaultPlan::parse("drop:0@1").expect("spec")), reqs);
    assert_eq!(out, want);
    let audit = clean_audit(&drv);
    assert!(audit.final_snapshot.faults_injected >= 1);
    assert!(audit.final_snapshot.recoveries >= 1, "a lost activation must force a recovery");
    assert!(audit.final_snapshot.batches_requeued >= 1, "the wedged batch must be requeued");
}

#[test]
fn dropped_midstream_activation_recovers_bit_identically() {
    let reqs = workload(5);
    let want = baseline(3, reqs.clone());
    let (out, drv) = run(chaos_cfg(3, FaultPlan::parse("drop:1@2").expect("spec")), reqs);
    assert_eq!(out, want);
    let audit = clean_audit(&drv);
    assert!(audit.final_snapshot.recoveries >= 1);
    assert_eq!(audit.final_snapshot.requests_failed, 0);
}

#[test]
fn delayed_activation_changes_nothing_but_latency() {
    let reqs = workload(5);
    let want = baseline(3, reqs.clone());
    let (out, drv) = run(chaos_cfg(3, FaultPlan::parse("delay:1@2+30").expect("spec")), reqs);
    assert_eq!(out, want);
    let audit = clean_audit(&drv);
    assert!(audit.final_snapshot.faults_injected >= 1, "the delay must be on record");
    assert_eq!(audit.final_snapshot.recoveries, 0, "a delay is not a failure");
    assert_eq!(audit.final_snapshot.requests_failed, 0);
}

#[test]
fn kv_failures_within_the_retry_budget_recover_bit_identically() {
    let reqs = workload(4);
    let want = baseline(2, reqs.clone());
    // Two failed reservations for request 1; default budget is 4 retries.
    let (out, drv) = run(chaos_cfg(2, FaultPlan::parse("kvfail:1x2").expect("spec")), reqs);
    assert_eq!(out, want, "KV retries must not change any output token");
    let audit = clean_audit(&drv);
    assert!(audit.final_snapshot.faults_injected >= 2, "both charges fire");
    assert_eq!(audit.final_snapshot.requests_failed, 0, "within budget: no rejection");
}

#[test]
fn kv_exhaustion_fails_the_victim_structuredly_and_spares_the_rest() {
    let reqs = workload(4);
    let want = baseline(2, reqs.clone());
    let cfg = RuntimeConfig {
        max_kv_retries: 2,
        ..chaos_cfg(2, FaultPlan::parse("kvfail:1x100").expect("spec"))
    };
    let (out, drv) = run(cfg, reqs);
    assert!(out[&1].is_empty(), "the victim fails with no surviving tokens");
    for (id, toks) in &want {
        if *id != 1 {
            assert_eq!(&out[id], toks, "request {id} must be untouched by the rejection");
        }
    }
    let audit = drv.audit.as_ref().expect("audit defaults on");
    assert_eq!(audit.final_snapshot.requests_failed, 1, "exactly the victim fails");
    assert_eq!(audit.final_snapshot.violations, 0, "a structured failure is not a violation");
}

/// Satellite: kill a worker thread mid-run and assert the pipeline fully
/// recovers — every request completes, outputs bit-identical, failure and
/// recovery visible in both the audit snapshot and the exported trace.
#[test]
fn worker_thread_killed_mid_run_fully_recovers() {
    let reqs = workload(8);
    let n = reqs.len();
    let want = baseline(4, reqs.clone());
    let (out, drv) = run(chaos_cfg(4, FaultPlan::parse("kill:2@3").expect("spec")), reqs);
    assert_eq!(out, want, "full recovery must be bit-identical");
    assert_eq!(drv.recorder.finished_count(), n, "every request finishes");
    let audit = clean_audit(&drv);
    assert!(audit.final_snapshot.faults_injected >= 1);
    assert!(audit.final_snapshot.recoveries >= 1);
    assert!(audit.final_snapshot.batches_requeued >= 1, "in-flight work was requeued");
    assert_eq!(audit.final_snapshot.in_flight, 0, "pipeline drained after recovery");
    assert_eq!(audit.final_snapshot.live_kv_seqs, 0, "KV drained after recovery");
    let trace = drv.trace.to_chrome_trace_string();
    assert!(trace.contains("fault"), "trace records the fault instant");
    assert!(trace.contains("\"recovery\""), "trace records the recovery instant");
}

#[test]
fn seeded_chaos_matrix_recovers_bit_identically_across_seeds() {
    // The acceptance matrix: seeded plans (kills, drops, delays, in-budget
    // KV failures) across pipeline depths — every recovered run must
    // reproduce the fault-free outputs exactly, with zero violations and
    // zero structured rejections.
    for stages in [2usize, 3] {
        let reqs = workload(5);
        let want = baseline(stages, reqs.clone());
        for seed in 0..6u64 {
            let plan = FaultPlan::seeded(seed, stages, 6, 5);
            let label = format!("stages={stages} seed={seed} plan={:?}", plan.faults);
            let (out, drv) = run(chaos_cfg(stages, plan), reqs.clone());
            assert_eq!(out, want, "diverged: {label}");
            let audit = drv.audit.as_ref().expect("audit defaults on");
            assert_eq!(audit.final_snapshot.violations, 0, "violations: {label}");
            assert_eq!(
                audit.final_snapshot.requests_failed, 0,
                "seeded faults are recoverable: {label}"
            );
        }
    }
}

#[test]
fn single_stage_seeded_plans_degrade_to_recoverable_kv_faults() {
    let reqs = workload(4);
    let want = baseline(1, reqs.clone());
    for seed in 0..4u64 {
        let plan = FaultPlan::seeded(seed, 1, 6, 4);
        let (out, drv) = run(chaos_cfg(1, plan), reqs.clone());
        assert_eq!(out, want, "seed {seed}");
        let audit = drv.audit.as_ref().expect("audit defaults on");
        assert_eq!(audit.final_snapshot.requests_failed, 0, "seed {seed}");
        assert_eq!(audit.final_snapshot.violations, 0, "seed {seed}");
    }
}
