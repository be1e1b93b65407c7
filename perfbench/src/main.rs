//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (every
//! end-to-end metric untraced, every per-layer metric traced), each metric
//! as `{"value": v, "unit": u}`. The line before it records the seed, the
//! core count, the commit, digests and sample counts. A traced run also
//! writes its spans as a Chrome trace under `perfbench/out/`. Exits 1 when
//! an output check failed, 2 on bad arguments.

use std::path::Path;
use std::process::ExitCode;

use gllm_perfbench::record::Digest;
use gllm_perfbench::stats::{median, quartile_spread};
use gllm_perfbench::trace::Tracer;
use gllm_perfbench::workloads::{
    self, max_rss_mb, Ctx, Pass, END_TO_END, PER_LAYER, SETUPS, WORKLOADS,
};
use serde_json::Value;

/// A seed never used while tuning the benchmark; confirm claims on it.
const HELD_OUT_SEED: u64 = 7919;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

/// The checked-out commit when the tree is a git work tree, else "none".
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| r.to_string()),
            None => head,
        },
        None => "none".into(),
    }
}

/// Digest of the program's sources (`crates/**`), identifying the code
/// measured even where there is no git metadata.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut d = Digest::default();
    for f in files {
        d.bytes(f.to_string_lossy().as_bytes());
        d.bytes(&std::fs::read(&f).unwrap_or_default());
    }
    d.hex()
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (commit, source) = (commit(), source_digest());
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
    };
    let w = args.workload.as_str();

    let mut errors: Vec<String> = Vec::new();
    let mut values: Vec<(&str, f64, &str)> = Vec::new();
    let (attempted, failed, notes, digest);
    if args.trace {
        // Untraced half, then traced half; the ratio of their unit wall
        // times is the tracing overhead.
        let half = Ctx {
            seconds: args.seconds / 2.0,
            ..ctx
        };
        let plain = workloads::run_pass(w, &half, 1, None).expect("known workload");
        let tracer = Tracer::new();
        let mut traced = workloads::run_pass(w, &half, 1, Some(&tracer)).expect("known workload");
        if plain.digest != traced.digest {
            errors.push(format!(
                "traced digest {} differs from untraced {}",
                traced.digest, plain.digest
            ));
        }
        traced
            .layers
            .insert("workload.synth_s", median(&traced.synth_s));
        let overhead = if plain.summary.wall_s > 0.0 && traced.summary.wall_s > 0.0 {
            traced.summary.wall_s / plain.summary.wall_s - 1.0
        } else {
            errors.push("no unit of work completed within a half of --seconds".into());
            0.0
        };
        traced.layers.insert("trace.overhead_frac", overhead);
        for (name, unit) in PER_LAYER {
            values.push((name, traced.layers.get(name).copied().unwrap_or(0.0), unit));
        }
        let out_dir = Path::new("perfbench/out");
        let path = out_dir.join(format!("{w}-seed{}.trace.json", args.seed));
        let meta = vec![
            ("workload".to_string(), Value::Str(w.into())),
            ("seed".to_string(), Value::UInt(args.seed)),
            ("nproc".to_string(), Value::UInt(nproc as u64)),
            ("commit".to_string(), Value::Str(commit.clone())),
            ("source_digest".to_string(), Value::Str(source.clone())),
        ];
        let doc = tracer.chrome_trace(traced.runtime_trace.as_ref(), meta);
        match std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&path, doc)) {
            Ok(()) => eprintln!(
                "perfbench: {} spans written to {}",
                tracer.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
        errors.extend(plain.errors.iter().cloned());
        errors.extend(traced.errors.iter().cloned());
        attempted = plain.attempted + traced.attempted;
        failed = plain.failed + traced.failed;
        digest = traced.digest.clone();
        notes = traced.notes.clone();
        eprintln!(
            "perfbench: plain wall {:.6} s, traced wall {:.6} s",
            plain.summary.wall_s, traced.summary.wall_s
        );
    } else {
        let p: Pass = workloads::run_pass(w, &ctx, SETUPS, None).expect("known workload");
        if p.summary.wall_s <= 0.0 {
            errors.push("no unit of work completed within --seconds".into());
        }
        let rss = max_rss_mb();
        for (name, unit) in END_TO_END {
            let v = match name {
                "setup_s" => median(&p.setup_s),
                "wall_s" => p.summary.wall_s,
                "max_rss_mb" => rss,
                "output_tok_s" => p.summary.output_tok_s,
                "goodput_tok_s" => p.summary.goodput_tok_s,
                "ttft_p50_s" => p.summary.latency.ttft_p50_s,
                "ttft_p90_s" => p.summary.latency.ttft_p90_s,
                "tpot_p50_s" => p.summary.latency.tpot_p50_s,
                "tpot_p90_s" => p.summary.latency.tpot_p90_s,
                _ => unreachable!("END_TO_END names are matched above"),
            };
            values.push((name, v, unit));
        }
        errors.extend(p.errors.iter().cloned());
        attempted = p.attempted;
        failed = p.failed;
        digest = p.digest.clone();
        let mut n = p.notes.clone();
        let lat = &p.summary.latency;
        n.push(("ttft_samples".into(), lat.ttft_samples.to_string()));
        n.push(("tpot_samples".into(), lat.tpot_samples.to_string()));
        let walls: Vec<f64> = p.blocks.iter().map(|b| b.wall_s).collect();
        n.push(("blocks".into(), walls.len().to_string()));
        if let Some(spread) = quartile_spread(&walls) {
            n.push(("block_wall_spread".into(), format!("{spread:.4}")));
        }
        n.push(("setups".into(), p.setup_s.len().to_string()));
        notes = n;
    }
    for (name, v, _) in &values {
        if !v.is_finite() {
            errors.push(format!("{name} is not finite"));
        }
    }
    let correct = errors.is_empty() && attempted > 0;
    for e in &errors {
        eprintln!("perfbench: output check failed: {e}");
    }
    let error_rate = if attempted > 0 {
        failed as f64 / attempted as f64
    } else {
        1.0
    };
    let mut info = format!(
        "perfbench: workload={w} seed={} held_out_seed={HELD_OUT_SEED} trace={} nproc={nproc} commit={commit} \
         source_digest={source} digest={digest} error_rate={error_rate}",
        args.seed,
        u8::from(args.trace)
    );
    for (k, v) in &notes {
        info.push_str(&format!(" {k}={v}"));
    }
    println!("{info}");
    let metrics: Vec<String> = values
        .iter()
        .map(|(name, v, unit)| metric_json(name, if v.is_finite() { *v } else { 0.0 }, unit))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
