//! The API server: HTTP frontend glued to the gLLM runtime.
//!
//! Mirrors the paper's decoupled frontend (§3.3): connection handlers only
//! tokenize, submit and stream — a single dispatcher thread demultiplexes
//! the runtime's token events to per-request channels, and model execution
//! never blocks on user I/O.

use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use gllm_core::SchedulePolicy;
use gllm_metrics::MetricsRecorder;
use gllm_runtime::driver::DriverOutput;
use gllm_runtime::server::Submitter;
use gllm_runtime::{GenRequest, RuntimeConfig, Server, StreamEvent};
use gllm_transformer::sampler::SamplingParams;
use serde::Serialize;

use crate::http::{finish_chunked, respond, start_sse, write_sse_event, Request};
use crate::openai::{
    ChatChoice, ChatCompletionRequest, ChatCompletionResponse, ChatMessage, Choice,
    CompletionRequest, CompletionResponse, ErrorResponse, ModelCard, ModelList, Usage,
};
use crate::tokenizer::Tokenizer;

/// How long a connection's handler waits for the next byte of its request
/// before it answers 408 and hangs up: an idle client cannot hold a handler
/// thread for longer.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// How long a handler waits for a client to take the next bytes of its
/// response before it gives the connection up.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Shared state between connection handlers and the dispatcher.
struct Shared {
    submitter: Submitter,
    tokenizer: Tokenizer,
    model_name: String,
    next_id: AtomicU64,
    /// Per-request event routes, keyed by sequence id.
    routes: Mutex<HashMap<u64, Sender<StreamEvent>>>,
    shutdown: AtomicBool,
}

impl Shared {
    /// The route table. A thread that panicked while holding the lock
    /// leaves the map itself intact, so a poisoned lock is recovered rather
    /// than ending every stream.
    fn routes(&self) -> MutexGuard<'_, HashMap<u64, Sender<StreamEvent>>> {
        self.routes.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A running OpenAI-compatible API server.
pub struct ApiServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    dispatcher: Option<JoinHandle<DriverOutput>>,
}

impl ApiServer {
    /// Start the runtime and serve it on `bind` (use port 0 for an
    /// ephemeral port; the bound address is [`ApiServer::addr`]).
    pub fn start(
        cfg: RuntimeConfig,
        policy: Arc<dyn SchedulePolicy>,
        bind: &str,
    ) -> std::io::Result<ApiServer> {
        Self::start_with_read_timeout(cfg, policy, bind, READ_TIMEOUT)
    }

    /// [`ApiServer::start`] with a chosen read timeout per connection.
    pub(crate) fn start_with_read_timeout(
        cfg: RuntimeConfig,
        policy: Arc<dyn SchedulePolicy>,
        bind: &str,
        read_timeout: Duration,
    ) -> std::io::Result<ApiServer> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let tokenizer = Tokenizer::byte_level(cfg.model.vocab_size);
        let model_name = cfg.model.name.clone();
        let runtime = Server::start(cfg, policy)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;
        let shared = Arc::new(Shared {
            submitter: runtime.submitter(),
            tokenizer,
            model_name,
            next_id: AtomicU64::new(0),
            routes: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
        });

        // Dispatcher: owns the runtime, fans events out to request routes.
        // It blocks while idle; shutdown reaches it as the end of the event
        // stream, which closes once the driver has drained and exited.
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new().name(dispatcher_name(addr)).spawn(move || {
                while let Some(ev) = runtime.wait_event() {
                    let seq = match ev {
                        StreamEvent::Token { seq, .. }
                        | StreamEvent::Rejected { seq }
                        | StreamEvent::Failed { seq } => seq,
                    };
                    if let Some(tx) = shared.routes().get(&seq) {
                        // A dropped receiver (client hung up) is fine.
                        let _ = tx.send(ev);
                    }
                }
                runtime.shutdown_full()
            })?
        };

        let accept_thread = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shared.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // A stream without its timeouts could pin its handler
                    // for ever: drop it instead.
                    if stream.set_read_timeout(Some(read_timeout)).is_err()
                        || stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err()
                    {
                        continue;
                    }
                    let shared = Arc::clone(&shared);
                    // A handler the OS refuses to start drops its stream.
                    let _ = std::thread::Builder::new()
                        .name(handler_name(addr))
                        .spawn(move || handle_connection(stream, &shared));
                }
            })
        };

        Ok(ApiServer { addr, shared, accept_thread: Some(accept_thread), dispatcher: Some(dispatcher) })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain the runtime and return its metrics. Panics
    /// if the runtime's invariant auditor detected any violation.
    pub fn shutdown(mut self) -> MetricsRecorder {
        self.shared.shutdown.store(true, Ordering::Release);
        // Unblock the accept loop with a dummy connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // The driver drains and exits, which ends the dispatcher's stream.
        self.shared.submitter.request_shutdown();
        let out = match self.dispatcher.take().map(JoinHandle::join) {
            Some(Ok(out)) => out,
            // A dead dispatcher yields an empty output, as a dead driver
            // does for `Server::shutdown_full`.
            Some(Err(_)) | None => DriverOutput::empty(),
        };
        if let Some(audit) = &out.audit {
            audit.assert_clean("runtime");
        }
        out.recorder
    }
}

/// The dispatcher thread's name, unique per bound port (so a process with
/// several servers can tell their dispatchers apart) and within the 15
/// bytes Linux keeps of a thread name.
fn dispatcher_name(addr: SocketAddr) -> String {
    format!("dispatch:{}", addr.port())
}

/// The name of every connection handler thread, as [`dispatcher_name`].
fn handler_name(addr: SocketAddr) -> String {
    format!("conn:{}", addr.port())
}

fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    // Without a second handle there is no way to answer: drop the
    // connection.
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let req = match Request::read(&mut reader) {
        Ok(Some(req)) => req,
        Ok(None) => return,
        Err(e) => {
            let _ = respond_error(&mut stream, e.status(), "invalid_request_error", e.to_string());
            return;
        }
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/health") => {
            let _ = respond(&mut stream, 200, "application/json", b"{\"status\":\"ok\"}");
        }
        ("GET", "/v1/models") => {
            let list = ModelList {
                object: "list".into(),
                data: vec![ModelCard {
                    id: shared.model_name.clone(),
                    object: "model".into(),
                    owned_by: "gllm".into(),
                }],
            };
            let _ = respond_json(&mut stream, 200, &list);
        }
        ("POST", "/v1/completions") => handle_completion(&mut stream, &req, shared),
        ("POST", "/v1/chat/completions") => handle_chat(&mut stream, &req, shared),
        (_, "/v1/completions") | (_, "/v1/chat/completions") | (_, "/v1/models") | (_, "/health") => {
            let _ = respond_error(&mut stream, 405, "invalid_request_error", "method not allowed");
        }
        _ => {
            let _ = respond_error(&mut stream, 404, "not_found_error", "unknown route");
        }
    }
}

/// What a client gets in place of a response that failed to serialise.
const SERIALISE_FAILED: &str =
    r#"{"error":{"message":"response serialisation failed","type":"server_error"}}"#;

/// Answer with `value` as a JSON body, or with a fixed 500 if it does not
/// serialise.
fn respond_json(stream: &mut TcpStream, status: u16, value: &impl Serialize) -> std::io::Result<()> {
    match serde_json::to_vec(value) {
        Ok(body) => respond(stream, status, "application/json", &body),
        Err(_) => respond(stream, 500, "application/json", SERIALISE_FAILED.as_bytes()),
    }
}

/// Send `value` as one SSE event, or a fixed error event if it does not
/// serialise.
fn write_sse_json(stream: &mut TcpStream, value: &impl Serialize) -> std::io::Result<()> {
    match serde_json::to_string(value) {
        Ok(data) => write_sse_event(stream, &data),
        Err(_) => write_sse_event(stream, SERIALISE_FAILED),
    }
}

/// Answer with an OpenAI-shaped JSON error.
fn respond_error(
    stream: &mut TcpStream,
    status: u16,
    kind: &str,
    message: impl Into<String>,
) -> std::io::Result<()> {
    respond_json(stream, status, &ErrorResponse::new(kind, message))
}

/// Submit a request whose events go to a fresh route; returns its id and
/// the route. When the driver is gone, answers 503 and returns `None`.
fn submit(
    stream: &mut TcpStream,
    shared: &Shared,
    prompt: Vec<u32>,
    max_new: usize,
    params: SamplingParams,
) -> Option<(u64, Receiver<StreamEvent>)> {
    let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
    let (tx, rx) = channel();
    shared.routes().insert(id, tx);
    if shared.submitter.submit(GenRequest { id, prompt, max_new, params }).is_ok() {
        return Some((id, rx));
    }
    shared.routes().remove(&id);
    let msg = "driver has shut down; request was not submitted";
    let _ = respond_error(stream, 503, "engine_unavailable", msg);
    None
}

fn handle_chat(stream: &mut TcpStream, req: &Request, shared: &Shared) {
    let parsed: ChatCompletionRequest = match serde_json::from_slice(&req.body) {
        Ok(p) => p,
        Err(e) => {
            let _ = respond_error(stream, 400, "invalid_request_error", e.to_string());
            return;
        }
    };
    if parsed.messages.is_empty() || parsed.max_tokens == 0 {
        let msg = "messages must be non-empty and max_tokens >= 1";
        let _ = respond_error(stream, 400, "invalid_request_error", msg);
        return;
    }
    let prompt_tokens = shared.tokenizer.encode(&parsed.to_prompt());
    let prompt_len = prompt_tokens.len();
    let params = SamplingParams {
        temperature: parsed.temperature,
        top_k: parsed.top_k,
        top_p: parsed.top_p,
        seed: parsed.seed,
    };
    let Some((id, rx)) = submit(stream, shared, prompt_tokens, parsed.max_tokens, params) else {
        return;
    };
    let tokens = collect_tokens(stream, &rx);
    shared.routes().remove(&id);
    let Some(tokens) = tokens else {
        return;
    };
    let resp = ChatCompletionResponse {
        id: format!("chatcmpl-{id}"),
        object: "chat.completion".into(),
        model: shared.model_name.clone(),
        choices: vec![ChatChoice {
            message: ChatMessage {
                role: "assistant".into(),
                content: shared.tokenizer.decode(&tokens),
            },
            index: 0,
            finish_reason: Some("length".into()),
        }],
        usage: Usage {
            prompt_tokens: prompt_len,
            completion_tokens: tokens.len(),
            total_tokens: prompt_len + tokens.len(),
        },
    };
    let _ = respond_json(stream, 200, &resp);
}

fn handle_completion(stream: &mut TcpStream, req: &Request, shared: &Shared) {
    let parsed: CompletionRequest = match serde_json::from_slice(&req.body) {
        Ok(p) => p,
        Err(e) => {
            let _ = respond_error(stream, 400, "invalid_request_error", e.to_string());
            return;
        }
    };
    let prompt_tokens = shared.tokenizer.encode(&parsed.prompt);
    if prompt_tokens.is_empty() || parsed.max_tokens == 0 {
        let msg = "prompt must be non-empty and max_tokens >= 1";
        let _ = respond_error(stream, 400, "invalid_request_error", msg);
        return;
    }

    let prompt_len = prompt_tokens.len();
    let params = SamplingParams {
        temperature: parsed.temperature,
        top_k: parsed.top_k,
        top_p: parsed.top_p,
        seed: parsed.seed,
    };
    let Some((id, rx)) = submit(stream, shared, prompt_tokens, parsed.max_tokens, params) else {
        return;
    };
    let result = if parsed.stream {
        stream_completion(stream, shared, id, prompt_len, &rx)
    } else {
        blocking_completion(stream, shared, id, prompt_len, &rx)
    };
    shared.routes().remove(&id);
    let _ = result;
}

fn blocking_completion(
    stream: &mut TcpStream,
    shared: &Shared,
    id: u64,
    prompt_len: usize,
    rx: &Receiver<StreamEvent>,
) -> std::io::Result<()> {
    let Some(tokens) = collect_tokens(stream, rx) else {
        return Ok(());
    };
    let resp = CompletionResponse {
        id: format!("cmpl-{id}"),
        object: "text_completion".into(),
        model: shared.model_name.clone(),
        choices: vec![Choice {
            text: shared.tokenizer.decode(&tokens),
            index: 0,
            finish_reason: Some("length".into()),
        }],
        usage: Some(Usage {
            prompt_tokens: prompt_len,
            completion_tokens: tokens.len(),
            total_tokens: prompt_len + tokens.len(),
        }),
    };
    respond_json(stream, 200, &resp)
}

/// Collect a request's tokens until it finishes. When it ends otherwise,
/// answer the error instead — 400 for a KV rejection, 500 for a failure
/// or a timeout — and return `None`. Partial tokens are discarded: a
/// Failed event voids everything streamed before it.
fn collect_tokens(stream: &mut TcpStream, rx: &Receiver<StreamEvent>) -> Option<Vec<u32>> {
    let mut tokens = Vec::new();
    let (status, kind, msg) = loop {
        match rx.recv_timeout(Duration::from_secs(120)) {
            Ok(StreamEvent::Token { token, finished, .. }) => {
                tokens.push(token);
                if finished {
                    return Some(tokens);
                }
            }
            Ok(StreamEvent::Rejected { .. }) => {
                break (400, "invalid_request_error", "request exceeds the KV cache capacity")
            }
            Ok(StreamEvent::Failed { .. }) => {
                let msg = "request failed; the runtime exhausted its recovery budget";
                break (500, "server_error", msg);
            }
            Err(_) => break (500, "server_error", "generation timed out"),
        }
    };
    let _ = respond_error(stream, status, kind, msg);
    None
}

fn stream_completion(
    stream: &mut TcpStream,
    shared: &Shared,
    id: u64,
    prompt_len: usize,
    rx: &Receiver<StreamEvent>,
) -> std::io::Result<()> {
    start_sse(stream)?;
    let mut produced = 0usize;
    loop {
        match rx.recv_timeout(Duration::from_secs(120)) {
            Ok(StreamEvent::Token { token, finished, .. }) => {
                produced += 1;
                let resp = CompletionResponse {
                    id: format!("cmpl-{id}"),
                    object: "text_completion".into(),
                    model: shared.model_name.clone(),
                    choices: vec![Choice {
                        text: shared.tokenizer.decode_one(token),
                        index: 0,
                        finish_reason: finished.then(|| "length".to_string()),
                    }],
                    usage: finished.then_some(Usage {
                        prompt_tokens: prompt_len,
                        completion_tokens: produced,
                        total_tokens: prompt_len + produced,
                    }),
                };
                write_sse_json(stream, &resp)?;
                if finished {
                    break;
                }
            }
            Ok(StreamEvent::Rejected { .. }) | Ok(StreamEvent::Failed { .. }) | Err(_) => {
                write_sse_json(stream, &ErrorResponse::new("server_error", "generation aborted"))?;
                break;
            }
        }
    }
    write_sse_event(stream, "[DONE]")?;
    finish_chunked(stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gllm_core::throttle::TokenThrottle;
    use gllm_core::{BatchPlan, ScheduleView};
    use gllm_kvcache::Tokens;
    use gllm_model::ModelConfig;
    use gllm_transformer::CausalLM;
    use std::io::{Read, Write};

    fn start() -> ApiServer {
        ApiServer::start(
            RuntimeConfig::tiny(2),
            Arc::new(TokenThrottle::default()),
            "127.0.0.1:0",
        )
        .expect("bind")
    }

    fn roundtrip(addr: SocketAddr, raw: &str) -> String {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(raw.as_bytes()).expect("send");
        let mut out = String::new();
        s.read_to_string(&mut out).expect("read");
        out
    }

    fn post(addr: SocketAddr, path: &str, body: &str) -> String {
        roundtrip(
            addr,
            &format!(
                "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        )
    }

    fn json_body(response: &str) -> serde_json::Value {
        let body = response.split("\r\n\r\n").nth(1).expect("has body");
        serde_json::from_str(body).expect("json body")
    }

    #[test]
    fn completion_round_trip_matches_reference_model() {
        let server = start();
        let addr = server.addr();
        let resp = post(addr, "/v1/completions", r#"{"prompt":"Hello","max_tokens":6}"#);
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        let v = json_body(&resp);
        assert_eq!(v["object"], "text_completion");
        assert_eq!(v["usage"]["prompt_tokens"], 5);
        assert_eq!(v["usage"]["completion_tokens"], 6);
        let text = v["choices"][0]["text"].as_str().unwrap().to_string();

        // The HTTP path must produce exactly the reference generation.
        let mut lm = CausalLM::new(ModelConfig::tiny(), 1, 256, 4, 2024);
        let prompt: Vec<u32> = "Hello".bytes().map(u32::from).collect();
        let expected = lm
            .generate(9, &prompt, 6, 4096, &SamplingParams::greedy())
            .unwrap();
        let expected_text = Tokenizer::byte_level(256).decode(&expected);
        assert_eq!(text, expected_text);
        server.shutdown();
    }

    #[test]
    fn streaming_sse_delivers_tokens_then_done() {
        let server = start();
        let resp = post(
            server.addr(),
            "/v1/completions",
            r#"{"prompt":"abc","max_tokens":4,"stream":true}"#,
        );
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        assert!(resp.contains("text/event-stream"));
        let events: Vec<&str> = resp.matches("data: ").collect();
        assert_eq!(events.len(), 5, "4 tokens + [DONE]: {resp}");
        assert!(resp.contains("[DONE]"));
        assert!(resp.contains("\"finish_reason\":\"length\""));
        server.shutdown();
    }

    #[test]
    fn health_and_models_endpoints() {
        let server = start();
        let health = roundtrip(server.addr(), "GET /health HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(health.contains("\"status\":\"ok\""));
        let models = roundtrip(server.addr(), "GET /v1/models HTTP/1.1\r\nHost: t\r\n\r\n");
        let v = json_body(&models);
        assert_eq!(v["data"][0]["id"], "tiny");
        server.shutdown();
    }

    #[test]
    fn bad_requests_get_openai_shaped_errors() {
        let server = start();
        let addr = server.addr();
        let bad_json = post(addr, "/v1/completions", "{nope");
        assert!(bad_json.starts_with("HTTP/1.1 400"), "{bad_json}");
        assert!(json_body(&bad_json)["error"]["type"] == "invalid_request_error");
        let empty = post(addr, "/v1/completions", r#"{"prompt":""}"#);
        assert!(empty.starts_with("HTTP/1.1 400"));
        let missing = roundtrip(addr, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.1 404"));
        let wrong_method = roundtrip(addr, "GET /v1/completions HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(wrong_method.starts_with("HTTP/1.1 405"));
        // A huge max_tokens once pre-sized the handlers' token buffers and
        // aborted the process; now both endpoints refuse it as a KV
        // rejection and the server stays up.
        for (path, body) in [
            ("/v1/completions", r#"{"prompt":"hi","max_tokens":100000000000}"#),
            (
                "/v1/chat/completions",
                r#"{"messages":[{"role":"user","content":"hi"}],"max_tokens":100000000000}"#,
            ),
        ] {
            let resp = post(addr, path, body);
            assert!(resp.starts_with("HTTP/1.1 400"), "{path}: {resp}");
            assert!(json_body(&resp)["error"]["type"] == "invalid_request_error", "{path}: {resp}");
        }
        let health = roundtrip(addr, "GET /health HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(health.starts_with("HTTP/1.1 200"), "{health}");
        server.shutdown();
    }

    #[test]
    fn oversized_requests_are_refused_and_the_server_stays_up() {
        use crate::http::{MAX_HEADERS, MAX_LINE_BYTES};
        let server = start();
        let addr = server.addr();
        // Each hostile request ends where its cap fires, so the server has
        // read all of it when it answers and closes.
        let huge_body = roundtrip(addr, &format!("POST /v1/completions HTTP/1.1\r\nContent-Length: {}\r\n\r\n", u64::MAX));
        assert!(huge_body.starts_with("HTTP/1.1 413"), "{huge_body}");
        assert!(json_body(&huge_body)["error"]["message"].as_str().is_some());
        let mut long_line = "GET /health".to_string();
        long_line.extend(std::iter::repeat_n('a', MAX_LINE_BYTES + 1 - long_line.len()));
        let long = roundtrip(addr, &long_line);
        assert!(long.starts_with("HTTP/1.1 431"), "{long}");
        let many = roundtrip(addr, &format!("GET /health HTTP/1.1\r\n{}", "X: v\r\n".repeat(MAX_HEADERS + 1)));
        assert!(many.starts_with("HTTP/1.1 431"), "{many}");
        let health = roundtrip(addr, "GET /health HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(health.starts_with("HTTP/1.1 200"), "{health}");
        server.shutdown();
    }

    #[test]
    fn deeply_nested_json_is_refused_and_the_server_stays_up() {
        let server = start();
        let addr = server.addr();
        // Under the body cap; once a parser stack overflow that aborted
        // the process.
        let nested = "[".repeat(500_000);
        let resp = post(addr, "/v1/completions", &nested);
        assert!(resp.starts_with("HTTP/1.1 400"), "{}", &resp[..resp.len().min(200)]);
        assert!(json_body(&resp)["error"]["message"].as_str().is_some_and(|m| m.contains("recursion limit")));
        let health = roundtrip(addr, "GET /health HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(health.starts_with("HTTP/1.1 200"), "{health}");
        server.shutdown();
    }

    #[test]
    fn a_poisoned_route_table_still_streams() {
        let server = start();
        // Poison the lock the way a panicking handler would.
        let shared = Arc::clone(&server.shared);
        let _ = std::thread::spawn(move || {
            let _guard = shared.routes.lock().expect("not yet poisoned");
            panic!("poison the routes lock");
        })
        .join();
        assert!(server.shared.routes.lock().is_err(), "lock must now be poisoned");
        let resp = post(
            server.addr(),
            "/v1/completions",
            r#"{"prompt":"abc","max_tokens":4,"stream":true}"#,
        );
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        assert_eq!(resp.matches("data: ").count(), 5, "4 tokens + [DONE]: {resp}");
        assert!(resp.contains("[DONE]"));
        server.shutdown();
    }

    /// Plans as TokenThrottle does but declares an empty budget, so the
    /// auditor flags every batch it schedules.
    struct OverBudget(TokenThrottle);

    impl SchedulePolicy for OverBudget {
        fn plan(&self, view: &ScheduleView) -> BatchPlan {
            self.0.plan(view)
        }
        fn name(&self) -> &'static str {
            "over-budget"
        }
        fn budget_caps(&self, _view: &ScheduleView) -> Option<(Tokens, usize)> {
            Some((Tokens(0), 0))
        }
    }

    #[test]
    #[should_panic(expected = "invariant violation")]
    fn shutdown_panics_on_a_violated_audit() {
        let policy = Arc::new(OverBudget(TokenThrottle::default()));
        let server = ApiServer::start(RuntimeConfig::tiny(2), policy, "127.0.0.1:0").expect("bind");
        let resp = post(server.addr(), "/v1/completions", r#"{"prompt":"abc","max_tokens":2}"#);
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        server.shutdown();
    }

    #[test]
    fn chat_completions_endpoint_works() {
        let server = start();
        let resp = post(
            server.addr(),
            "/v1/chat/completions",
            r#"{"messages":[{"role":"user","content":"Hi"}],"max_tokens":5}"#,
        );
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        let v = json_body(&resp);
        assert_eq!(v["object"], "chat.completion");
        assert_eq!(v["choices"][0]["message"]["role"], "assistant");
        assert_eq!(v["usage"]["completion_tokens"], 5);
        // Prompt = "user: Hi\nassistant: " = 20 bytes.
        assert_eq!(v["usage"]["prompt_tokens"], 20);
        server.shutdown();
    }

    /// Voluntary context switches so far of this process's thread named
    /// `name`, from procfs.
    #[cfg(target_os = "linux")]
    fn voluntary_switches(name: &str) -> u64 {
        let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
        let dir = tasks
            .flatten()
            .map(|task| task.path())
            .find(|dir| std::fs::read_to_string(dir.join("comm")).is_ok_and(|c| c.trim_end() == name))
            .unwrap_or_else(|| panic!("no thread named {name}"));
        let status = std::fs::read_to_string(dir.join("status")).expect("thread status");
        status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|v| v.trim().parse().ok())
            .expect("voluntary_ctxt_switches")
    }

    /// How many of this process's threads are named `name`, from procfs.
    #[cfg(target_os = "linux")]
    fn threads_named(name: &str) -> usize {
        let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
        tasks
            .flatten()
            .filter(|task| {
                std::fs::read_to_string(task.path().join("comm")).is_ok_and(|c| c.trim_end() == name)
            })
            .count()
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn an_idle_connection_times_out_and_its_handler_exits() {
        let server = ApiServer::start_with_read_timeout(
            RuntimeConfig::tiny(2),
            Arc::new(TokenThrottle::default()),
            "127.0.0.1:0",
            Duration::from_millis(200),
        )
        .expect("bind");
        let addr = server.addr();
        // Connect and send nothing: the handler answers 408 and hangs up.
        let mut idle = TcpStream::connect(addr).expect("connect");
        idle.set_read_timeout(Some(Duration::from_secs(30))).expect("client timeout");
        let mut out = String::new();
        idle.read_to_string(&mut out).expect("the server hangs up");
        assert!(out.starts_with("HTTP/1.1 408"), "{out}");
        // Its handler thread ends.
        let name = handler_name(addr);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while threads_named(&name) > 0 {
            assert!(std::time::Instant::now() < deadline, "the idle connection's handler still runs");
            std::thread::sleep(Duration::from_millis(10));
        }
        let health = roundtrip(addr, "GET /health HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(health.starts_with("HTTP/1.1 200"), "{health}");
        server.shutdown();
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn an_idle_dispatcher_sleeps_until_shutdown() {
        let server = start();
        let resp = post(server.addr(), "/v1/completions", r#"{"prompt":"hi","max_tokens":2}"#);
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        let name = dispatcher_name(server.addr());
        let before = voluntary_switches(&name);
        std::thread::sleep(Duration::from_millis(500));
        // One switch is the dispatcher going back to sleep after routing
        // the request's last event; a 50 ms poll would make ten.
        let woke = voluntary_switches(&name) - before;
        assert!(woke <= 1, "the idle dispatcher woke {woke} times in 0.5 s");
        // Shutdown still reaches it and returns the runtime's metrics.
        assert_eq!(server.shutdown().finished_count(), 1);
    }

    #[test]
    fn concurrent_clients_are_served_consistently() {
        let server = start();
        let addr = server.addr();
        let handles: Vec<_> = (0..6)
            .map(|i| {
                std::thread::spawn(move || {
                    let body = format!(r#"{{"prompt":"client {i}","max_tokens":5}}"#);
                    post(addr, "/v1/completions", &body)
                })
            })
            .collect();
        let responses: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (i, resp) in responses.iter().enumerate() {
            assert!(resp.starts_with("HTTP/1.1 200"), "client {i}: {resp}");
            assert_eq!(json_body(resp)["usage"]["completion_tokens"], 5);
        }
        // Same prompt twice → identical greedy text regardless of batching.
        let a = post(addr, "/v1/completions", r#"{"prompt":"client 0","max_tokens":5}"#);
        assert_eq!(json_body(&a)["choices"][0]["text"], json_body(&responses[0])["choices"][0]["text"]);
        let rec = server.shutdown();
        assert_eq!(rec.finished_count(), 7);
    }
}
