//! `http_stream`: two client threads, each with one connection at a time,
//! send streaming `POST /v1/completions` requests to an in-process
//! `ApiServer` over loopback and read the SSE token stream back. The only
//! workload that crosses the HTTP edge: parsing, JSON, the tokenizer, SSE
//! chunk writes, the dispatcher and per-connection threads.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gllm_core::{SchedulePolicy, TokenThrottle};
use gllm_frontend::{ApiServer, Tokenizer};
use gllm_model::ModelConfig;
use gllm_runtime::RuntimeConfig;
use gllm_transformer::{CausalLM, SamplingParams};
use serde_json::Value;

use super::serve::{insert_plan_stats, STAGES, WEIGHT_SEED};
use super::{probes, repeat_setup, Ctx, Pass, SplitMix};
use crate::closed_loop::Job;
use crate::record::{settle, BlockSummary, Digest, Outcome, RequestRecord, Slo};
use crate::stats::{median, percentile};
use crate::trace::{snapshot, span, PlanStats, TimedPolicy, Tracer};

/// Client threads (= connections open at once).
const CLIENTS: usize = 2;
/// Distinct prompts.
const POOL: usize = 64;
/// Prompt length range, bytes (= tokens, the tokenizer is byte-level).
const PROMPT_BYTES: (usize, usize) = (16, 128);
/// `max_tokens` of every request.
const MAX_TOKENS: usize = 32;
/// Completions excluded from the window: the first request of each client
/// pays for thread and connection start-up.
const WARMUP: usize = 2 * CLIENTS;
/// Successful completions per block: two passes over the pool, so every
/// block serves the same mix and its p90 has more than ten samples beyond
/// it.
const BLOCK: usize = 2 * POOL;
/// Limits for `goodput_tok_s`.
const SLO: Slo = Slo {
    ttft_s: 0.1,
    tpot_s: 0.01,
};
/// Pool entries re-generated with `CausalLM::generate` as reference.
const REFERENCE_SAMPLES: usize = 16;
/// Largest HTTP chunk the client accepts, bytes.
const MAX_CHUNK: usize = 1 << 16;

/// One prompt of the pool, with its request body.
struct Prompt {
    text: String,
    body: Vec<u8>,
}

fn pool(seed: u64) -> Vec<Prompt> {
    let mut rng = SplitMix::new(seed, 2);
    let (lo, hi) = PROMPT_BYTES;
    // Evenly spaced lengths, spread through the pool as in `stratified_pool`.
    (0..POOL)
        .map(|k| lo + (5 * k % POOL) * (hi - lo) / (POOL - 1))
        .map(|n| {
            // Printable ASCII without the two characters JSON must escape.
            let text: String = (0..n)
                .map(|_| loop {
                    let c = (0x20 + rng.below(0x5f)) as u8 as char;
                    if c != '"' && c != '\\' {
                        break c;
                    }
                })
                .collect();
            let body = format!(
                "{{\"prompt\":\"{text}\",\"max_tokens\":{MAX_TOKENS},\"stream\":true,\"temperature\":0}}"
            )
            .into_bytes();
            Prompt { text, body }
        })
        .collect()
}

/// What the client saw of one request.
struct Exchange {
    job: usize,
    sent: Instant,
    connected: Instant,
    headers: Option<Instant>,
    first: Option<Instant>,
    last: Option<Instant>,
    end: Instant,
    tokens: usize,
    bytes: usize,
    text: String,
    outcome: Outcome,
}

/// `obj[key]` of a JSON object.
fn field<'a>(obj: &'a Value, key: &str) -> Option<&'a Value> {
    match obj {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn read_exchange(stream: TcpStream, ex: &mut Exchange) -> Result<(), Outcome> {
    let mut r = BufReader::new(stream);
    let mut line = String::new();
    let read_line = |r: &mut BufReader<TcpStream>, line: &mut String| -> Result<usize, Outcome> {
        line.clear();
        r.read_line(line).map_err(|_| Outcome::Failed)
    };
    read_line(&mut r, &mut line)?;
    let status = line.split_whitespace().nth(1).unwrap_or("").to_string();
    ex.bytes += line.len();
    loop {
        let n = read_line(&mut r, &mut line)?;
        ex.bytes += n;
        if n == 0 {
            return Err(Outcome::Failed);
        }
        if line == "\r\n" {
            break;
        }
    }
    ex.headers = Some(Instant::now());
    match status.as_str() {
        "200" => {}
        "400" => return Err(Outcome::Rejected),
        _ => return Err(Outcome::Failed),
    }
    let mut finished = false;
    loop {
        let n = read_line(&mut r, &mut line)?;
        ex.bytes += n;
        let size = usize::from_str_radix(line.trim(), 16).map_err(|_| Outcome::Malformed)?;
        if size == 0 {
            break;
        }
        // One SSE event is a few hundred bytes; refuse to allocate for a
        // corrupt size.
        if size > MAX_CHUNK {
            return Err(Outcome::Malformed);
        }
        let mut chunk = vec![0u8; size + 2];
        r.read_exact(&mut chunk).map_err(|_| Outcome::Failed)?;
        ex.bytes += chunk.len();
        let payload = std::str::from_utf8(&chunk[..size]).map_err(|_| Outcome::Malformed)?;
        let data = payload
            .strip_prefix("data: ")
            .ok_or(Outcome::Malformed)?
            .trim_end();
        if data == "[DONE]" {
            continue;
        }
        let now = Instant::now();
        // A generic JSON parse: the client must not depend on the server's
        // own response types to read what the server wrote.
        let resp: Value = serde_json::from_str(data).map_err(|_| Outcome::Malformed)?;
        let choice = field(&resp, "choices")
            .and_then(|c| match c {
                Value::Array(items) => items.first(),
                _ => None,
            })
            .ok_or(Outcome::Failed)?;
        let Some(Value::Str(text)) = field(choice, "text") else {
            return Err(Outcome::Malformed);
        };
        ex.first.get_or_insert(now);
        ex.last = Some(now);
        ex.tokens += 1;
        ex.text.push_str(text);
        if let Some(Value::Str(_)) = field(choice, "finish_reason") {
            let completion = field(&resp, "usage").and_then(|u| field(u, "completion_tokens"));
            finished = matches!(completion, Some(Value::UInt(n)) if *n as usize == ex.tokens);
        }
    }
    if finished && ex.tokens == MAX_TOKENS {
        Ok(())
    } else {
        Err(Outcome::Malformed)
    }
}

/// One request `req` for pool entry `job`; with a tracer, its phases are
/// recorded as spans sharing `req`.
fn exchange(
    addr: SocketAddr,
    req: u64,
    job: usize,
    body: &[u8],
    tracer: Option<&Tracer>,
) -> Exchange {
    let sent = Instant::now();
    let mut ex = Exchange {
        job,
        sent,
        connected: sent,
        headers: None,
        first: None,
        last: None,
        end: sent,
        tokens: 0,
        bytes: 0,
        text: String::new(),
        outcome: Outcome::Ok,
    };
    let result = TcpStream::connect(addr).map_err(|_| Outcome::Failed).and_then(|mut s| {
        ex.connected = Instant::now();
        let _ = s.set_nodelay(true);
        let _ = s.set_read_timeout(Some(Duration::from_secs(60)));
        let head = format!(
            "POST /v1/completions HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        s.write_all(head.as_bytes()).and_then(|()| s.write_all(body)).map_err(|_| Outcome::Failed)?;
        read_exchange(s, &mut ex)
    });
    ex.end = Instant::now();
    if let Err(o) = result {
        ex.outcome = o;
    }
    if let Some(t) = tracer {
        t.record_req("frontend.request", req, sent, ex.end);
        t.record_req("frontend.connect", req, sent, ex.connected);
        let phases = [
            ("frontend.headers", Some(ex.connected), ex.headers),
            ("frontend.first_token", ex.headers, ex.first),
            ("frontend.stream", ex.first, ex.last),
        ];
        for (name, from, to) in phases {
            if let (Some(from), Some(to)) = (from, to) {
                t.record_req(name, req, from, to);
            }
        }
    }
    ex
}

fn start_server(policy: Arc<dyn SchedulePolicy>) -> std::io::Result<ApiServer> {
    let cfg = RuntimeConfig {
        kv_blocks: 4096,
        ..RuntimeConfig::tiny(STAGES)
    };
    ApiServer::start(cfg, policy, "127.0.0.1:0")
}

/// Stop `server`; a panic inside it (e.g. a failed runtime audit) becomes
/// an output error instead of aborting the benchmark.
fn stop(server: ApiServer) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| server.shutdown()))
        .map(drop)
        .map_err(|_| {
            "ApiServer::shutdown panicked (runtime audit or dispatcher failure)".to_string()
        })
}

/// Run the client threads for `ctx.seconds`.
pub fn run(ctx: &Ctx, setups: usize, tracer: Option<&Arc<Tracer>>) -> Pass {
    let mut pass = Pass::default();
    let stats = Arc::new(Mutex::new(PlanStats::default()));
    let env = repeat_setup(
        setups,
        &mut pass,
        |pass| {
            let start = Instant::now();
            let prompts = pool(ctx.seed);
            pass.synth_s.push(start.elapsed().as_secs_f64());
            let throttle: Arc<dyn SchedulePolicy> = Arc::new(TokenThrottle::default());
            let policy: Arc<dyn SchedulePolicy> = match tracer {
                Some(t) => TimedPolicy::sharing(throttle, Arc::clone(&stats), Some(Arc::clone(t))),
                None => throttle,
            };
            (prompts, start_server(policy))
        },
        |(_, server)| {
            if let Ok(s) = server {
                let _ = stop(s);
            }
        },
    );
    let (prompts, server) = match env {
        (p, Ok(s)) => (p, s),
        (_, Err(e)) => {
            pass.error(format!("ApiServer::start: {e}"));
            return pass;
        }
    };
    let addr = server.addr();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    let next = AtomicUsize::new(0);
    let mut client_panicked = false;
    let mut done: Vec<Exchange> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let (next, prompts) = (&next, &prompts);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    while Instant::now() < deadline {
                        let req = next.fetch_add(1, Ordering::Relaxed);
                        let job = req % prompts.len();
                        out.push(exchange(
                            addr,
                            req as u64,
                            job,
                            &prompts[job].body,
                            tracer.map(Arc::as_ref),
                        ));
                    }
                    out
                })
            })
            .collect();
        let mut done = Vec::new();
        for w in workers {
            match w.join() {
                Ok(exchanges) => done.extend(exchanges),
                Err(_) => client_panicked = true,
            }
        }
        done
    });
    if client_panicked {
        pass.error("an HTTP client thread panicked; its requests are lost");
    }
    let measured_s = start.elapsed().as_secs_f64();
    if let Err(e) = stop(server) {
        pass.error(e);
    }
    done.sort_by_key(|e| e.end);

    // Outputs: the same text for the same prompt, equal to the reference.
    let mut first_text: Vec<Option<&str>> = vec![None; prompts.len()];
    let mut outcomes: Vec<Outcome> = Vec::with_capacity(done.len());
    for ex in &done {
        let mut o = ex.outcome;
        if o == Outcome::Ok {
            match first_text[ex.job] {
                None => first_text[ex.job] = Some(&ex.text),
                Some(t) if t != ex.text => o = Outcome::Mismatch,
                Some(_) => {}
            }
        }
        outcomes.push(o);
    }
    pass.attempted = done.len() as u64;
    pass.failed = outcomes.iter().filter(|&&o| o != Outcome::Ok).count() as u64;
    if pass.failed > 0 {
        pass.error(format!(
            "{} of {} HTTP requests failed or mismatched",
            pass.failed, pass.attempted
        ));
    }
    let tokenizer = Tokenizer::byte_level(ModelConfig::tiny().vocab_size);
    let jobs: Vec<Job> = prompts
        .iter()
        .map(|p| Job {
            prompt: tokenizer.encode(&p.text),
            max_new: MAX_TOKENS,
        })
        .collect();
    // The client sees decoded text, so the reference tokens are decoded
    // the way the server streams them: one token at a time.
    let decoded =
        |toks: &[u32]| -> String { toks.iter().map(|&t| tokenizer.decode_one(t)).collect() };
    let mut lm = CausalLM::new(ModelConfig::tiny(), STAGES, 1024, 4, WEIGHT_SEED);
    let mut checked = 0;
    for (i, job) in jobs.iter().enumerate().take(REFERENCE_SAMPLES) {
        let Some(got) = first_text[i] else { continue };
        let want = span(tracer.map(Arc::as_ref), "transformer.generate", || {
            lm.generate(
                i as u64,
                &job.prompt,
                job.max_new,
                1024,
                &SamplingParams::greedy(),
            )
        });
        match want {
            Ok(want) if decoded(&want) == got => checked += 1,
            Ok(_) => pass.error(format!(
                "prompt {i}: streamed text differs from CausalLM::generate"
            )),
            Err(e) => pass.error(format!("prompt {i}: reference generation failed: {e:?}")),
        }
        let _ = lm.release(i as u64);
    }
    if checked == 0 {
        pass.error("no prompt was checked against CausalLM::generate");
    }
    // As on the serving workloads: the reference prompts' text is the run's
    // digest; the text of every prompt served is noted beside it.
    let text_digest = |n: usize| {
        let mut d = Digest::default();
        for (i, t) in first_text.iter().enumerate().take(n) {
            if let Some(t) = t {
                d.u64(i as u64).bytes(t.as_bytes());
            }
        }
        d.hex()
    };
    pass.digest = text_digest(REFERENCE_SAMPLES);
    pass.notes
        .push(("streams_digest".into(), text_digest(prompts.len())));
    pass.notes
        .push(("reference_checked".into(), checked.to_string()));

    // The measurement window: after warm-up, up to the deadline.
    let secs = |t: Instant| t.duration_since(start).as_secs_f64();
    let window_start = done.get(WARMUP.saturating_sub(1)).map_or(start, |e| e.end);
    let in_window: Vec<(&Exchange, Outcome)> = done
        .iter()
        .zip(outcomes.iter().copied())
        .skip(WARMUP)
        .filter(|(e, _)| e.end <= deadline)
        .collect();
    let records: Vec<RequestRecord> = in_window
        .iter()
        .map(|(e, o)| RequestRecord {
            sent_s: secs(e.sent),
            first_token_s: e.first.map(secs),
            end_s: secs(e.last.unwrap_or(e.end)),
            tokens: e.tokens,
            outcome: *o,
        })
        .collect();
    let mut block_start = window_start;
    let (mut in_block, mut from) = (0, 0);
    for (i, (e, o)) in in_window.iter().enumerate() {
        if *o == Outcome::Ok {
            in_block += 1;
            if in_block == BLOCK {
                let wall = e.end.duration_since(block_start).as_secs_f64();
                pass.blocks
                    .push(BlockSummary::of(&records[from..=i], wall, SLO));
                block_start = e.end;
                (in_block, from) = (0, i + 1);
            }
        }
    }
    pass.summary = settle(&pass.blocks);

    if let Some(t) = tracer {
        let l = &mut pass.layers;
        insert_plan_stats(l, &snapshot(&stats), measured_s);
        let us =
            |a: Instant, b: Option<Instant>| b.map(|b| b.duration_since(a).as_secs_f64() * 1e6);
        let ok: Vec<&Exchange> = in_window
            .iter()
            .filter(|(_, o)| *o == Outcome::Ok)
            .map(|(e, _)| *e)
            .collect();
        let connect: Vec<f64> = ok
            .iter()
            .filter_map(|e| us(e.sent, Some(e.connected)))
            .collect();
        let headers: Vec<f64> = ok
            .iter()
            .filter_map(|e| us(e.connected, e.headers))
            .collect();
        let first: Vec<f64> = ok
            .iter()
            .filter_map(|e| e.headers.and_then(|h| us(h, e.first)))
            .collect();
        let bytes: usize = ok.iter().map(|e| e.bytes).sum();
        let tokens: usize = ok.iter().map(|e| e.tokens).sum();
        l.insert("frontend.connect_us_p50", percentile(&connect, 50.0));
        l.insert("frontend.headers_us_p50", median(&headers));
        l.insert("frontend.first_token_after_headers_us_p50", median(&first));
        l.insert(
            "frontend.bytes_per_token",
            bytes as f64 / tokens.max(1) as f64,
        );
        let bodies: Vec<Vec<u8>> = prompts.iter().map(|p| p.body.clone()).collect();
        probes::frontend(l, &bodies, Some(t.as_ref()));
        let toks: Vec<&[u32]> = jobs.iter().map(|j| j.prompt.as_slice()).collect();
        probes::transformer(l, &toks, Some(t.as_ref()));
    }
    pass
}
