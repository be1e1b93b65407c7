//! Self-benchmark of the sweep harness and the sim-engine hot path.
//!
//! For each figure family this binary runs the same sweep two ways:
//!
//! 1. **serial** — per-iteration observers and the auditor off, one
//!    worker;
//! 2. **parallel** — identical jobs fanned across `--jobs` workers
//!    (default: all cores), asserting the serialized results are
//!    **byte-identical** to the serial run — any divergence exits nonzero.
//!
//! Both runs repeat [`REPEATS`] times, each repeat checked for identity.
//! It writes `BENCH_sweep.json` at the repo root recording the median and
//! quartiles of wall-clock seconds, plus speedups and simulation rates at
//! the medians, per figure and in total. `--quick` trims each family to a
//! smoke-test subset for CI.

use std::process::ExitCode;

use gllm_bench::timing::{time, Spread};
use gllm_bench::{has_flag, jobs, sweep_rates_with_cfg};
use gllm_metrics::SloSpec;
use gllm_model::{ClusterSpec, ModelConfig};
use gllm_sim::capacity::max_throughput_with;
use gllm_sim::engine::EngineConfig;
use gllm_sim::sweep::{parallel_map, run_experiments, ExperimentJob};
use gllm_sim::{Deployment, SystemConfig};
use gllm_workload::{Dataset, Trace};
use serde::Serialize;

/// The sweep configuration: observers and the (pure-validation) auditor
/// off. The invariant audit still runs in every figure binary and across
/// the test suite; the harness's job is to time raw sweep throughput.
fn sweep_cfg() -> EngineConfig {
    EngineConfig {
        record_token_trace: false,
        record_utilization: false,
        audit: false,
        ..EngineConfig::default()
    }
}

/// Timed runs of every sweep, serial and parallel.
const REPEATS: usize = 5;

#[derive(Serialize)]
struct FigureTiming {
    figure: String,
    sims: usize,
    serial_s: Spread,
    parallel_s: Spread,
    parallel_speedup: f64,
    sims_per_sec: f64,
}

#[derive(Serialize)]
struct BenchSweep {
    jobs: usize,
    cores: usize,
    quick: bool,
    repeats: usize,
    figures: Vec<FigureTiming>,
    total_serial_s: Spread,
    total_parallel_s: Spread,
    parallel_speedup: f64,
}

/// `num / den` for a positive timing `den`.
fn ratio(num: f64, den: f64) -> f64 {
    num / den.max(f64::MIN_POSITIVE)
}

/// One figure family: how to run its sweep under a given (cfg, jobs) and
/// how many simulations that is. Returns serialized results for the
/// serial-vs-parallel equality check.
struct Family {
    name: &'static str,
    sims: usize,
    run: SweepFn,
}

/// Runs a family's sweep under `(cfg, jobs)`, returning its serialized
/// results.
type SweepFn = Box<dyn Fn(&EngineConfig, usize) -> Vec<u8>>;

fn rate_family(
    name: &'static str,
    systems: Vec<SystemConfig>,
    deployment: Deployment,
    panels: Vec<(Dataset, Vec<f64>)>,
    seed: u64,
    slo: Option<SloSpec>,
) -> Family {
    let sims = systems.len() * panels.iter().map(|(_, r)| r.len()).sum::<usize>();
    Family {
        name,
        sims,
        run: Box::new(move |cfg, jobs| {
            let mut out = Vec::new();
            for (dataset, rates) in &panels {
                let pts = sweep_rates_with_cfg(
                    &systems, &deployment, *dataset, rates, seed, slo, cfg, jobs,
                );
                out.push(pts);
            }
            serde_json::to_vec(&out).expect("serialise rate sweep")
        }),
    }
}

fn families(quick: bool) -> Vec<Family> {
    let mut fams = Vec::new();

    // Figure 10: intra-node rate sweeps (one panel per model/dataset).
    let fig10_panels = if quick {
        vec![(Dataset::ShareGpt, vec![1.0, 4.0])]
    } else {
        vec![
            (Dataset::ShareGpt, vec![1.0, 2.0, 4.0, 8.0, 12.0]),
            (Dataset::Azure, vec![0.5, 1.0, 2.0, 3.0, 4.0]),
        ]
    };
    fams.push(rate_family(
        "fig10_intra_node",
        SystemConfig::paper_main(),
        Deployment::new(ModelConfig::qwen2_5_14b(), ClusterSpec::intra_node_l20(4)),
        fig10_panels,
        1001,
        None,
    ));

    // Figure 12: cross-node rate sweep.
    let fig12_rates = if quick { vec![0.5, 2.0] } else { vec![0.5, 1.0, 2.0, 4.0, 6.0] };
    fams.push(rate_family(
        "fig12_cross_node",
        SystemConfig::paper_main(),
        Deployment::new(ModelConfig::qwen2_5_32b(), ClusterSpec::cross_node_a100(4)),
        vec![(Dataset::ShareGpt, fig12_rates)],
        1002,
        None,
    ));

    // Figure 14: SLO-attainment sweep.
    let fig14_rates =
        if quick { vec![0.5, 1.0] } else { vec![0.25, 0.5, 0.75, 1.0, 1.25, 1.5] };
    fams.push(rate_family(
        "fig14_slo",
        vec![SystemConfig::gllm(), SystemConfig::vllm()],
        Deployment::new(ModelConfig::llama3_1_100b(), ClusterSpec::cross_node_a800(4)),
        vec![(Dataset::ShareGpt, fig14_rates)],
        1004,
        Some(SloSpec::from_ms(4000.0, 160.0)),
    ));

    // Figure 15-style ablation: all ablation systems on one online trace.
    {
        let deployment =
            Deployment::new(ModelConfig::qwen2_5_32b(), ClusterSpec::intra_node_l20(4));
        let rate = if quick { 3.0 } else { 6.0 };
        let trace = Trace::paper_online(Dataset::ShareGpt, rate, 1005);
        let systems = SystemConfig::paper_ablation();
        let sims = systems.len();
        fams.push(Family {
            name: "fig15_ablation",
            sims,
            run: Box::new(move |cfg, jobs| {
                let job_list: Vec<ExperimentJob> = systems
                    .iter()
                    .map(|s| ExperimentJob {
                        trace: &trace,
                        system: s,
                        deployment: &deployment,
                        cfg,
                        tweak: None,
                    })
                    .collect();
                let results = run_experiments(&job_list, jobs);
                let rows: Vec<(&str, gllm_metrics::ServingReport, u64)> = systems
                    .iter()
                    .zip(&results)
                    .map(|(s, r)| (s.name.as_str(), r.report, r.preemptions))
                    .collect();
                serde_json::to_vec(&rows).expect("serialise ablation")
            }),
        });
    }

    // Figure 13-style capacity grid: max-throughput search per
    // (system, gpu-count) cell.
    {
        let model = ModelConfig::qwen2_5_14b();
        let systems = SystemConfig::paper_main();
        let gpu_counts: Vec<usize> = if quick { vec![2] } else { vec![1, 2, 4] };
        let cells: Vec<(usize, usize)> = (0..systems.len())
            .flat_map(|si| gpu_counts.iter().map(move |&g| (si, g)))
            .collect();
        let sims = cells.len();
        fams.push(Family {
            name: "fig13_scalability",
            sims,
            run: Box::new(move |cfg, jobs| {
                let caps: Vec<(usize, usize, f64)> = parallel_map(&cells, jobs, |_, &(si, g)| {
                    let deployment =
                        Deployment::new(model.clone(), ClusterSpec::intra_node_l20(g));
                    let cap = max_throughput_with(
                        &systems[si],
                        &deployment,
                        Dataset::ShareGpt,
                        1.0,
                        77,
                        cfg,
                    );
                    (si, g, cap.max_throughput_tok_s)
                });
                serde_json::to_vec(&caps).expect("serialise capacity grid")
            }),
        });
    }

    fams
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let quick = has_flag(&args, "--quick");
    let jobs = jobs();
    let cores = gllm_sim::sweep::default_jobs();
    let parallel_jobs = jobs.max(4);
    let cfg = sweep_cfg();

    println!(
        "perf harness — {} mode, {} cores, parallel runs use {} jobs, median [q1–q3] of {} repeats\n",
        if quick { "quick" } else { "full" },
        cores,
        parallel_jobs,
        REPEATS
    );

    let mut figures = Vec::new();
    let (mut tot_serial, mut tot_parallel) = (vec![0.0; REPEATS], vec![0.0; REPEATS]);
    let mut diverged = false;
    for fam in families(quick) {
        let (mut serial, mut parallel) = (Vec::new(), Vec::new());
        for rep in 0..REPEATS {
            let (serial_s, serial_bytes) = time(|| (fam.run)(&cfg, 1));
            let (parallel_s, parallel_bytes) = time(|| (fam.run)(&cfg, parallel_jobs));
            if serial_bytes != parallel_bytes {
                eprintln!(
                    "DIVERGENCE: {} parallel output differs from serial on repeat {rep} ({} vs {} bytes)",
                    fam.name,
                    serial_bytes.len(),
                    parallel_bytes.len()
                );
                diverged = true;
            }
            tot_serial[rep] += serial_s;
            tot_parallel[rep] += parallel_s;
            serial.push(serial_s);
            parallel.push(parallel_s);
        }
        let (serial_s, parallel_s) = (Spread::of(&serial), Spread::of(&parallel));
        println!("{:<20} {:>3} sims  serial {serial_s}  parallel {parallel_s}", fam.name, fam.sims);
        figures.push(FigureTiming {
            figure: fam.name.into(),
            sims: fam.sims,
            serial_s,
            parallel_s,
            parallel_speedup: ratio(serial_s.median, parallel_s.median),
            sims_per_sec: ratio(fam.sims as f64, parallel_s.median),
        });
    }

    let (total_serial_s, total_parallel_s) = (Spread::of(&tot_serial), Spread::of(&tot_parallel));
    let report = BenchSweep {
        jobs: parallel_jobs,
        cores,
        quick,
        repeats: REPEATS,
        figures,
        total_serial_s,
        total_parallel_s,
        parallel_speedup: ratio(total_serial_s.median, total_parallel_s.median),
    };
    println!(
        "\ntotals: serial {total_serial_s}, parallel {total_parallel_s} — parallel speedup {:.2}x",
        report.parallel_speedup,
    );

    // BENCH_sweep.json lives at the repo root, next to ROADMAP.md.
    let root = match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(m) => std::path::PathBuf::from(m).join("../.."),
        Err(_) => std::path::PathBuf::from("."),
    };
    let path = root.join("BENCH_sweep.json");
    std::fs::write(&path, serde_json::to_string_pretty(&report).expect("serialise timings"))
        .expect("write BENCH_sweep.json");
    eprintln!("[timings written to {}]", path.display());

    if diverged {
        eprintln!("FAIL: parallel sweep diverged from serial");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
