//! The gLLM command-line interface.
//!
//! Mirrors the paper's artifact workflow:
//!
//! * `gllm serve` — launch the OpenAI-compatible API server over the
//!   threaded runtime (the artifact's `gllm.entrypoints.api_server`),
//! * `gllm bench-serving` — load-generate against a running server with
//!   Poisson arrivals and report TTFT/TPOT/E2EL (the artifact's
//!   `benchmarks/benchmark_serving.py`),
//! * `gllm simulate` — run a deployment through the discrete-event
//!   simulator and print the paper's metric set.
//!
//! Argument parsing is by hand (no CLI framework): `--key value` pairs
//! after the subcommand, each from the flags that subcommand names.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gllm_core::sarathi::SarathiServe;
use gllm_core::td_pipe::TdPipe;
use gllm_core::throttle::TokenThrottle;
use gllm_core::SchedulePolicy;
use gllm_frontend::ApiServer;
use gllm_model::{ClusterSpec, ModelConfig};
use gllm_runtime::RuntimeConfig;
use gllm_sim::engine::EngineConfig;
use gllm_sim::sweep::{run_experiments, ExperimentJob};
use gllm_sim::{run_experiment, Deployment, SystemConfig};
use gllm_workload::{percentile, ArrivalProcess, Dataset, Trace};

const USAGE: &str = "\
gLLM — global balanced pipeline parallelism with Token Throttling

USAGE:
  gllm serve         [--port N] [--stages K] [--policy throttle|sarathi|tdpipe]
                     [--cpp] [--kv-blocks N] [--seed S]
                     [--fault-plan kill:1@3,drop:0@2+...,kvfail:4x2]
  gllm simulate      [--model 14b|32b|100b] [--cluster l20|a100|a800] [--gpus N]
                     [--system gllm|vllm|sglang|tdpipe|orca|ft] [--dataset sharegpt|azure]
                     [--rate R | --rate R1,R2,...] [--jobs N] [--seed S]
                     [--trace-file azure.csv] [--trace-out trace.json] [--no-audit]
  gllm bench-serving [--host H] [--port N] [--rate R] [--num-prompts N]
                     [--input-len L] [--max-tokens M] [--seed S]
";

const SERVE_FLAGS: &[&str] = &["port", "stages", "policy", "cpp", "kv-blocks", "seed", "fault-plan"];
const SIMULATE_FLAGS: &[&str] = &[
    "model", "cluster", "gpus", "system", "dataset", "rate", "jobs", "seed", "trace-file", "trace-out",
    "no-audit",
];
const BENCH_SERVING_FLAGS: &[&str] =
    &["host", "port", "rate", "num-prompts", "input-len", "max-tokens", "seed"];

/// Parse `--key value` pairs, refusing any flag not in `accepted`.
fn parse_flags(args: &[String], accepted: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument {a:?}"));
        };
        if !accepted.contains(&key) {
            return Err(format!("unknown flag --{key}"));
        }
        // Boolean flags take no value.
        if key == "cpp" || key == "no-audit" {
            flags.insert(key.to_string(), "true".to_string());
            continue;
        }
        let Some(v) = it.next() else {
            return Err(format!("--{key} needs a value"));
        };
        flags.insert(key.to_string(), v.clone());
    }
    Ok(flags)
}

fn get<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        Some(v) => v.parse().map_err(|_| format!("bad value for --{key}: {v:?}")),
        None => Ok(default),
    }
}

fn policy_of(name: &str) -> Result<Arc<dyn SchedulePolicy>, String> {
    match name {
        "throttle" | "gllm" => Ok(Arc::new(TokenThrottle::default())),
        "sarathi" => Ok(Arc::new(SarathiServe::default())),
        "tdpipe" => Ok(Arc::new(TdPipe::default())),
        other => Err(format!("unknown policy {other:?}")),
    }
}

fn cmd_serve(flags: HashMap<String, String>) -> Result<(), String> {
    let port: u16 = get(&flags, "port", 8000)?;
    let stages: usize = get(&flags, "stages", 2)?;
    let kv_blocks: usize = get(&flags, "kv-blocks", 4096)?;
    let seed: u64 = get(&flags, "seed", 2024)?;
    let policy = policy_of(flags.get("policy").map(String::as_str).unwrap_or("throttle"))?;
    // Deterministic fault injection (chaos testing a live server): same
    // grammar as the chaos suite, e.g. `kill:1@3,kvfail:4x2`.
    let fault_plan = match flags.get("fault-plan") {
        Some(spec) => spec.parse().map_err(|e| format!("{e}"))?,
        None => gllm_runtime::FaultPlan::none(),
    };
    if !fault_plan.is_empty() {
        println!("fault plan armed: {} fault(s)", fault_plan.faults.len());
    }
    let cfg = RuntimeConfig {
        kv_blocks,
        seed,
        cpp: flags.contains_key("cpp"),
        fault_plan,
        ..RuntimeConfig::tiny(stages)
    };
    let server = ApiServer::start(cfg, policy, &format!("127.0.0.1:{port}"))
        .map_err(|e| format!("bind failed: {e}"))?;
    println!("gLLM API server listening on http://{}", server.addr());
    println!("endpoints: POST /v1/completions, GET /v1/models, GET /health");
    println!("press Ctrl+C to stop");
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

fn cmd_simulate(flags: HashMap<String, String>) -> Result<(), String> {
    let model = ModelConfig::preset(flags.get("model").map(String::as_str).unwrap_or("32b"))
        .ok_or("unknown --model (use 14b, 32b, 100b)")?;
    let gpus: usize = get(&flags, "gpus", 4)?;
    let cluster = match flags.get("cluster").map(String::as_str).unwrap_or("l20") {
        "l20" => ClusterSpec::intra_node_l20(gpus),
        "a100" => ClusterSpec::cross_node_a100(gpus),
        "a800" => ClusterSpec::cross_node_a800(gpus),
        other => return Err(format!("unknown cluster {other:?}")),
    };
    let system = match flags.get("system").map(String::as_str).unwrap_or("gllm") {
        "gllm" => SystemConfig::gllm(),
        "vllm" => SystemConfig::vllm(),
        "sglang" => SystemConfig::sglang(),
        "tdpipe" => SystemConfig::td_pipe(),
        "orca" => SystemConfig::orca(),
        "ft" => SystemConfig::faster_transformer(),
        other => return Err(format!("unknown system {other:?}")),
    };
    let dataset = match flags.get("dataset").map(String::as_str).unwrap_or("sharegpt") {
        "sharegpt" => Dataset::ShareGpt,
        "azure" => Dataset::Azure,
        other => return Err(format!("unknown dataset {other:?}")),
    };
    // `--rate` accepts a single rate or a comma-separated list; multiple
    // rates become a sweep fanned across `--jobs` worker threads.
    let rates: Vec<f64> = match flags.get("rate") {
        Some(s) => s
            .split(',')
            .map(|r| r.trim().parse().map_err(|_| format!("bad value for --rate: {r:?}")))
            .collect::<Result<_, _>>()?,
        None => vec![2.0],
    };
    let jobs: usize = get(&flags, "jobs", gllm_sim::sweep::default_jobs())?;
    let seed: u64 = get(&flags, "seed", 0)?;

    let deployment = Deployment::new(model.clone(), cluster);
    let &[rate] = rates.as_slice() else {
        if flags.contains_key("trace-file") {
            return Err("--trace-file cannot be combined with a --rate list".into());
        }
        return simulate_rate_sweep(&rates, jobs, seed, dataset, &system, &deployment, &flags);
    };
    // A real trace file (Azure CSV shape) overrides the synthetic dataset.
    let trace = match flags.get("trace-file") {
        Some(path) => {
            let content = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {path}: {e}"))?;
            gllm_workload::parse_azure_csv(&content).map_err(|e| e.to_string())?
        }
        None => Trace::paper_online(dataset, rate, seed),
    };
    println!(
        "simulating {} on {} x{} | {} @ {rate} req/s | {} requests",
        model.name,
        deployment.cluster.gpu.name,
        gpus,
        dataset.name(),
        trace.len()
    );
    let trace_out = flags.get("trace-out").cloned();
    let cfg = EngineConfig {
        audit: !flags.contains_key("no-audit"),
        record_pipeline_trace: trace_out.is_some(),
        ..EngineConfig::default()
    };
    let r = run_experiment(&trace, &system, &deployment, &cfg);
    println!("system:      {}", r.system);
    println!("finished:    {}/{}", r.report.finished_requests, r.report.total_requests);
    println!("TTFT:        {:.1} ms (p99 {:.1})", r.report.mean_ttft_s * 1e3, r.report.p99_ttft_s * 1e3);
    println!("TPOT:        {:.1} ms (p99 {:.1})", r.report.mean_tpot_s * 1e3, r.report.p99_tpot_s * 1e3);
    println!("E2EL:        {:.2} s", r.report.mean_e2el_s);
    println!("throughput:  {:.0} tok/s", r.report.throughput_tok_s);
    println!("utilisation: {:.1} %", r.mean_utilization * 100.0);
    println!("preemptions: {}", r.preemptions);
    if let Some(audit) = &r.audit {
        println!(
            "audit:       {} batches checked, {} violations",
            audit.batches_checked,
            audit.violations.len()
        );
    }
    if let Some(path) = trace_out {
        // Chrome trace_event format: open in chrome://tracing or Perfetto.
        std::fs::write(&path, r.pipeline_trace.to_chrome_trace_string())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("trace:       {} events written to {path}", r.pipeline_trace.events().len());
    }
    Ok(())
}

/// Multi-rate `gllm simulate`: one simulation per rate, fanned across the
/// deterministic sweep harness, reported as a compact table.
fn simulate_rate_sweep(
    rates: &[f64],
    jobs: usize,
    seed: u64,
    dataset: Dataset,
    system: &SystemConfig,
    deployment: &Deployment,
    flags: &HashMap<String, String>,
) -> Result<(), String> {
    let cfg = EngineConfig {
        audit: !flags.contains_key("no-audit"),
        record_token_trace: false,
        record_utilization: false,
        ..EngineConfig::default()
    };
    let traces: Vec<Trace> =
        rates.iter().map(|&rate| Trace::paper_online(dataset, rate, seed)).collect();
    let job_list: Vec<ExperimentJob> = traces
        .iter()
        .map(|trace| ExperimentJob { trace, system, deployment, cfg: &cfg, tweak: None })
        .collect();
    println!(
        "simulating {} on {} x{} | {} @ {} rates | {} jobs",
        deployment.model.name,
        deployment.cluster.gpu.name,
        deployment.cluster.num_gpus,
        dataset.name(),
        rates.len(),
        jobs
    );
    let results = run_experiments(&job_list, jobs);
    println!(
        "{:>8}  {:>9}  {:>9}  {:>9}  {:>12}  {:>9}  {:>8}",
        "rate", "TTFT(ms)", "TPOT(ms)", "E2EL(s)", "tput(tok/s)", "finished", "preempt"
    );
    for (rate, r) in rates.iter().zip(&results) {
        println!(
            "{:>8}  {:>9.1}  {:>9.1}  {:>9.2}  {:>12.0}  {:>4}/{:<4}  {:>8}",
            rate,
            r.report.mean_ttft_s * 1e3,
            r.report.mean_tpot_s * 1e3,
            r.report.mean_e2el_s,
            r.report.throughput_tok_s,
            r.report.finished_requests,
            r.report.total_requests,
            r.preemptions
        );
    }
    Ok(())
}

/// One benchmark request's measurements.
struct Sample {
    ttft_s: f64,
    e2el_s: f64,
    tokens: usize,
}

fn bench_one(host: &str, port: u16, prompt: &str, max_tokens: usize) -> Result<Sample, String> {
    let start = Instant::now();
    let mut stream = TcpStream::connect((host, port)).map_err(|e| e.to_string())?;
    let body = format!(
        "{{\"prompt\":{},\"max_tokens\":{max_tokens},\"stream\":true}}",
        serde_json::to_string(prompt).map_err(|e| e.to_string())?
    );
    write!(
        stream,
        "POST /v1/completions HTTP/1.1\r\nHost: {host}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut ttft = None;
    let mut tokens = 0usize;
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            break;
        }
        if let Some(data) = line.trim().strip_prefix("data: ") {
            if data == "[DONE]" {
                break;
            }
            tokens += 1;
            ttft.get_or_insert_with(|| start.elapsed().as_secs_f64());
        }
    }
    Ok(Sample {
        ttft_s: ttft.ok_or("no tokens received")?,
        e2el_s: start.elapsed().as_secs_f64(),
        tokens,
    })
}

fn cmd_bench_serving(flags: HashMap<String, String>) -> Result<(), String> {
    let host = flags.get("host").cloned().unwrap_or_else(|| "127.0.0.1".into());
    let port: u16 = get(&flags, "port", 8000)?;
    let rate: f64 = get(&flags, "rate", 2.0)?;
    let num_prompts: usize = get(&flags, "num-prompts", 32)?;
    let input_len: usize = get(&flags, "input-len", 24)?;
    let max_tokens: usize = get(&flags, "max-tokens", 16)?;
    let seed: u64 = get(&flags, "seed", 0)?;

    // Poisson arrival schedule (same generator as the simulator's traces).
    let trace = Trace::synthesize(
        Dataset::Fixed { prompt: input_len, output: max_tokens },
        ArrivalProcess::Poisson { rate },
        num_prompts as f64 / rate * 1.5 + 1.0,
        0,
        seed,
    );
    let arrivals: Vec<f64> =
        trace.requests.iter().take(num_prompts).map(|r| r.arrival_s).collect();
    if arrivals.len() < num_prompts {
        return Err("rate/window produced too few arrivals; raise --rate".into());
    }
    println!("benchmarking http://{host}:{port} — {num_prompts} prompts @ {rate} req/s");

    let t0 = Instant::now();
    let handles: Vec<_> = arrivals
        .iter()
        .enumerate()
        .map(|(i, &at)| {
            let host = host.clone();
            let prompt: String =
                (0..input_len).map(|j| char::from(b'a' + ((i + j) % 26) as u8)).collect();
            std::thread::spawn(move || {
                let wait = at - t0.elapsed().as_secs_f64();
                if wait > 0.0 {
                    std::thread::sleep(Duration::from_secs_f64(wait));
                }
                bench_one(&host, port, &prompt, max_tokens)
            })
        })
        .collect();
    let mut samples = Vec::new();
    for h in handles {
        match h.join() {
            Ok(Ok(s)) => samples.push(s),
            Ok(Err(e)) => eprintln!("request failed: {e}"),
            Err(_) => eprintln!("request failed: its client thread panicked"),
        }
    }
    if samples.is_empty() {
        return Err("no successful requests".into());
    }
    let ttfts: Vec<f64> = samples.iter().map(|s| s.ttft_s).collect();
    let e2els: Vec<f64> = samples.iter().map(|s| s.e2el_s).collect();
    let tokens: usize = samples.iter().map(|s| s.tokens).sum();
    let wall = t0.elapsed().as_secs_f64();
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    println!("completed:  {}/{}", samples.len(), num_prompts);
    println!("TTFT:       {:.1} ms (p99 {:.1})", mean(&ttfts) * 1e3, percentile(&ttfts, 99.0) * 1e3);
    println!("E2EL:       {:.1} ms (p99 {:.1})", mean(&e2els) * 1e3, percentile(&e2els, 99.0) * 1e3);
    println!("output throughput: {:.1} tok/s", tokens as f64 / wall);
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    type Command = fn(HashMap<String, String>) -> Result<(), String>;
    let (run, accepted): (Command, &[&str]) = match cmd.as_str() {
        "serve" => (cmd_serve, SERVE_FLAGS),
        "simulate" => (cmd_simulate, SIMULATE_FLAGS),
        "bench-serving" => (cmd_bench_serving, BENCH_SERVING_FLAGS),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("error: unknown command {other:?}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = parse_flags(rest, accepted).and_then(run);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], accepted: &[&str]) -> Result<HashMap<String, String>, String> {
        parse_flags(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>(), accepted)
    }

    #[test]
    fn each_subcommand_refuses_flags_it_does_not_name() {
        let err = parse(&["--bogus", "1"], SIMULATE_FLAGS).unwrap_err();
        assert!(err.contains("--bogus"), "{err}");
        // A flag of another subcommand is a typo here too.
        assert!(parse(&["--port", "8000"], SIMULATE_FLAGS).is_err());
        assert!(parse(&["--no-audit"], SERVE_FLAGS).is_err());
        assert!(parse(&["--rate", "1", "--kv-blocks", "8"], BENCH_SERVING_FLAGS).is_err());
        let flags = parse(&["--rate", "1,2", "--no-audit", "--seed", "3"], SIMULATE_FLAGS).unwrap();
        assert_eq!(flags["rate"], "1,2");
        assert_eq!(flags["no-audit"], "true");
        assert_eq!(flags["seed"], "3");
        assert!(parse(&["--cpp", "--port", "0"], SERVE_FLAGS).is_ok());
    }
}
