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
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};
use gllm_core::SchedulePolicy;
use gllm_metrics::MetricsRecorder;
use gllm_runtime::server::Submitter;
use gllm_runtime::{GenRequest, RuntimeConfig, Server, StreamEvent};
use gllm_transformer::sampler::SamplingParams;

use crate::http::{finish_chunked, respond, start_sse, write_sse_event, Request};
use crate::openai::{
    ChatChoice, ChatCompletionRequest, ChatCompletionResponse, ChatMessage, Choice,
    CompletionRequest, CompletionResponse, ErrorResponse, ModelCard, ModelList, Usage,
};
use crate::tokenizer::Tokenizer;

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

/// A running OpenAI-compatible API server.
pub struct ApiServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    dispatcher: Option<JoinHandle<MetricsRecorder>>,
}

impl ApiServer {
    /// Start the runtime and serve it on `bind` (use port 0 for an
    /// ephemeral port; the bound address is [`ApiServer::addr`]).
    pub fn start(
        cfg: RuntimeConfig,
        policy: Arc<dyn SchedulePolicy>,
        bind: &str,
    ) -> std::io::Result<ApiServer> {
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
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                loop {
                    if let Some(ev) = runtime.next_event(Duration::from_millis(50)) {
                        let seq = match ev {
                            StreamEvent::Token { seq, .. }
                            | StreamEvent::Rejected { seq }
                            | StreamEvent::Failed { seq } => seq,
                        };
                        let routes = shared.routes.lock().expect("routes lock");
                        if let Some(tx) = routes.get(&seq) {
                            // A dropped receiver (client hung up) is fine.
                            let _ = tx.send(ev);
                        }
                    } else if shared.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                }
                runtime.shutdown()
            })
        };

        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let accept_thread = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shared.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let shared = Arc::clone(&shared);
                    std::thread::spawn(move || handle_connection(stream, &shared));
                }
            })
        };

        Ok(ApiServer { addr, shared, accept_thread: Some(accept_thread), dispatcher: Some(dispatcher) })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain the runtime and return its metrics.
    pub fn shutdown(mut self) -> MetricsRecorder {
        self.shared.shutdown.store(true, Ordering::Release);
        // Unblock the accept loop with a dummy connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.dispatcher
            .take()
            .expect("joined once")
            .join()
            .expect("dispatcher panicked")
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut stream = stream;
    let req = match Request::read(&mut reader) {
        Ok(Some(req)) => req,
        Ok(None) => return,
        Err(e) => {
            let body = serde_json::to_vec(&ErrorResponse::new("invalid_request_error", e.to_string()))
                .expect("serialise error");
            let _ = respond(&mut stream, e.status(), "application/json", &body);
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
            let body = serde_json::to_vec(&list).expect("serialise models");
            let _ = respond(&mut stream, 200, "application/json", &body);
        }
        ("POST", "/v1/completions") => handle_completion(&mut stream, &req, shared),
        ("POST", "/v1/chat/completions") => handle_chat(&mut stream, &req, shared),
        (_, "/v1/completions") | (_, "/v1/chat/completions") | (_, "/v1/models") | (_, "/health") => {
            let body = serde_json::to_vec(&ErrorResponse::new("invalid_request_error", "method not allowed"))
                .expect("serialise error");
            let _ = respond(&mut stream, 405, "application/json", &body);
        }
        _ => {
            let body = serde_json::to_vec(&ErrorResponse::new("not_found_error", "unknown route"))
                .expect("serialise error");
            let _ = respond(&mut stream, 404, "application/json", &body);
        }
    }
}

fn handle_chat(stream: &mut TcpStream, req: &Request, shared: &Shared) {
    let parsed: ChatCompletionRequest = match serde_json::from_slice(&req.body) {
        Ok(p) => p,
        Err(e) => {
            let body =
                serde_json::to_vec(&ErrorResponse::new("invalid_request_error", e.to_string()))
                    .expect("serialise error");
            let _ = respond(stream, 400, "application/json", &body);
            return;
        }
    };
    if parsed.messages.is_empty() || parsed.max_tokens == 0 {
        let body = serde_json::to_vec(&ErrorResponse::new(
            "invalid_request_error",
            "messages must be non-empty and max_tokens >= 1",
        ))
        .expect("serialise error");
        let _ = respond(stream, 400, "application/json", &body);
        return;
    }
    let prompt_tokens = shared.tokenizer.encode(&parsed.to_prompt());
    let prompt_len = prompt_tokens.len();
    let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
    let (tx, rx): (Sender<StreamEvent>, Receiver<StreamEvent>) = unbounded();
    shared.routes.lock().expect("routes lock").insert(id, tx);
    let submitted = shared.submitter.submit(GenRequest {
        id,
        prompt: prompt_tokens,
        max_new: parsed.max_tokens,
        params: SamplingParams {
            temperature: parsed.temperature,
            top_k: parsed.top_k,
            top_p: parsed.top_p,
            seed: parsed.seed,
        },
    });
    if submitted.is_err() {
        shared.routes.lock().expect("routes lock").remove(&id);
        let body = serde_json::to_vec(&ErrorResponse::new(
            "engine_unavailable",
            "driver has shut down; request was not submitted",
        ))
        .expect("serialise error");
        let _ = respond(stream, 503, "application/json", &body);
        return;
    }
    let mut tokens = Vec::new();
    let result = loop {
        match rx.recv_timeout(Duration::from_secs(120)) {
            Ok(StreamEvent::Token { token, finished, .. }) => {
                tokens.push(token);
                if finished {
                    break Ok(());
                }
            }
            Ok(StreamEvent::Rejected { .. }) => break Err("request exceeds KV capacity"),
            Ok(StreamEvent::Failed { .. }) => {
                break Err("request failed; the runtime exhausted its recovery budget")
            }
            Err(_) => break Err("generation timed out"),
        }
    };
    shared.routes.lock().expect("routes lock").remove(&id);
    match result {
        Ok(()) => {
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
            let body = serde_json::to_vec(&resp).expect("serialise chat completion");
            let _ = respond(stream, 200, "application/json", &body);
        }
        Err(msg) => {
            let body = serde_json::to_vec(&ErrorResponse::new("server_error", msg))
                .expect("serialise error");
            let _ = respond(stream, 500, "application/json", &body);
        }
    }
}

fn handle_completion(stream: &mut TcpStream, req: &Request, shared: &Shared) {
    let parsed: CompletionRequest = match serde_json::from_slice(&req.body) {
        Ok(p) => p,
        Err(e) => {
            let body =
                serde_json::to_vec(&ErrorResponse::new("invalid_request_error", e.to_string()))
                    .expect("serialise error");
            let _ = respond(stream, 400, "application/json", &body);
            return;
        }
    };
    let prompt_tokens = shared.tokenizer.encode(&parsed.prompt);
    if prompt_tokens.is_empty() || parsed.max_tokens == 0 {
        let body = serde_json::to_vec(&ErrorResponse::new(
            "invalid_request_error",
            "prompt must be non-empty and max_tokens >= 1",
        ))
        .expect("serialise error");
        let _ = respond(stream, 400, "application/json", &body);
        return;
    }

    let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
    let (tx, rx): (Sender<StreamEvent>, Receiver<StreamEvent>) = unbounded();
    shared.routes.lock().expect("routes lock").insert(id, tx);
    let prompt_len = prompt_tokens.len();
    let submitted = shared.submitter.submit(GenRequest {
        id,
        prompt: prompt_tokens,
        max_new: parsed.max_tokens,
        params: SamplingParams {
            temperature: parsed.temperature,
            top_k: parsed.top_k,
            top_p: parsed.top_p,
            seed: parsed.seed,
        },
    });
    if submitted.is_err() {
        shared.routes.lock().expect("routes lock").remove(&id);
        let body = serde_json::to_vec(&ErrorResponse::new(
            "engine_unavailable",
            "driver has shut down; request was not submitted",
        ))
        .expect("serialise error");
        let _ = respond(stream, 503, "application/json", &body);
        return;
    }

    let result = if parsed.stream {
        stream_completion(stream, shared, &parsed, id, prompt_len, &rx)
    } else {
        blocking_completion(stream, shared, id, prompt_len, &rx)
    };
    shared.routes.lock().expect("routes lock").remove(&id);
    let _ = result;
}

fn blocking_completion(
    stream: &mut TcpStream,
    shared: &Shared,
    id: u64,
    prompt_len: usize,
    rx: &Receiver<StreamEvent>,
) -> std::io::Result<()> {
    let mut tokens = Vec::new();
    loop {
        match rx.recv_timeout(Duration::from_secs(120)) {
            Ok(StreamEvent::Token { token, finished, .. }) => {
                tokens.push(token);
                if finished {
                    break;
                }
            }
            Ok(StreamEvent::Rejected { .. }) => {
                let body = serde_json::to_vec(&ErrorResponse::new(
                    "invalid_request_error",
                    "request exceeds the KV cache capacity",
                ))
                .expect("serialise error");
                return respond(stream, 400, "application/json", &body);
            }
            Ok(StreamEvent::Failed { .. }) => {
                // Partial tokens (if any) are discarded with the buffer:
                // a Failed event voids everything streamed before it.
                let body = serde_json::to_vec(&ErrorResponse::new(
                    "server_error",
                    "request failed; the runtime exhausted its recovery budget",
                ))
                .expect("serialise error");
                return respond(stream, 500, "application/json", &body);
            }
            Err(_) => {
                let body = serde_json::to_vec(&ErrorResponse::new("server_error", "generation timed out"))
                    .expect("serialise error");
                return respond(stream, 500, "application/json", &body);
            }
        }
    }
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
    let body = serde_json::to_vec(&resp).expect("serialise completion");
    respond(stream, 200, "application/json", &body)
}

fn stream_completion(
    stream: &mut TcpStream,
    shared: &Shared,
    _parsed: &CompletionRequest,
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
                write_sse_event(stream, &serde_json::to_string(&resp).expect("serialise"))?;
                if finished {
                    break;
                }
            }
            Ok(StreamEvent::Rejected { .. }) | Ok(StreamEvent::Failed { .. }) | Err(_) => {
                let err = ErrorResponse::new("server_error", "generation aborted");
                write_sse_event(stream, &serde_json::to_string(&err).expect("serialise"))?;
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
        // aborted the process; now it is an error and the server stays up.
        for (path, body) in [
            ("/v1/completions", r#"{"prompt":"hi","max_tokens":100000000000}"#),
            (
                "/v1/chat/completions",
                r#"{"messages":[{"role":"user","content":"hi"}],"max_tokens":100000000000}"#,
            ),
        ] {
            let resp = post(addr, path, body);
            assert!(!resp.starts_with("HTTP/1.1 200"), "{path}: {resp}");
            assert!(json_body(&resp)["error"]["message"].as_str().is_some(), "{path}: {resp}");
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
