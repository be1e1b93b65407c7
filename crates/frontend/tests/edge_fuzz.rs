//! Fuzzing of the HTTP edge's two parsers: `http::Request::read` on raw
//! connection bytes and `serde_json::from_slice::<CompletionRequest>` on
//! request bodies. Inputs are random, truncated, oversized and deeply
//! nested. Neither parser may panic, every refusal must map to 400, 413 or
//! 431, and no single allocation may exceed the body cap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gllm_frontend::http::{Request, MAX_BODY_BYTES, MAX_LINE_BYTES};
use gllm_frontend::openai::CompletionRequest;
use proptest::prelude::*;

/// The system allocator, noting the largest single request per thread.
struct PeakAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees carry over; `note` neither allocates nor unwinds.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// `f`'s result and the largest single allocation it made.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// JSON fragments that, strung together, hit the parser's edges: open
/// nesting, bad escapes, out-of-range numbers, wrong field types.
const FRAGMENTS: [&str; 20] = [
    "{", "}", "[", "]", ":", ",", "\"prompt\"", "\"max_tokens\"", "\"stream\"", "\"hi\"",
    "\"\\u", "\"\\ud800\"", "1e999", "-", "18446744073709551616", "null", "true", "0.5", "\"", "\\",
];

/// A body of fragments: `picks` index [`FRAGMENTS`], nested `depth` deep.
fn json_body(picks: &[usize], depth: usize, array: bool) -> Vec<u8> {
    let (open, close) = if array { ("[", "]") } else { ("{\"prompt\":", "}") };
    let mut body = open.repeat(depth);
    body.extend(picks.iter().map(|&i| FRAGMENTS[i % FRAGMENTS.len()]));
    body.push_str(&close.repeat(depth));
    body.into_bytes()
}

/// Parse `body` as a completion request the way the handler does; every
/// error is a 400 there. Returns the largest allocation made.
fn parse_body(body: &[u8]) -> usize {
    let (parsed, largest) = largest_allocation(|| serde_json::from_slice::<CompletionRequest>(body));
    if let Err(e) = parsed {
        assert!(!e.to_string().is_empty(), "a 400 carries a message");
    }
    largest
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn request_reader_refuses_cleanly_and_within_the_caps(
        kind in 0u8..4,
        noise in proptest::collection::vec(0u8..=255, 0..512),
        (headers, line_len) in (0usize..80, 0usize..2 * MAX_LINE_BYTES),
        declared in 0u64..4 * MAX_BODY_BYTES as u64,
        depth in 0usize..1_000,
        keep in 0.0f64..=1.0,
    ) {
        let mut raw = match kind {
            // Pure noise.
            0 => noise.clone(),
            // A head with many and long headers, declaring a body it
            // only partly sends.
            1 => {
                let mut head = format!("POST /v1/completions HTTP/1.1\r\nX-Long: {}\r\n", "a".repeat(line_len));
                head.push_str(&"X: v\r\n".repeat(headers));
                head.push_str(&format!("Content-Length: {declared}\r\n\r\n"));
                let mut raw = head.into_bytes();
                raw.extend_from_slice(&noise);
                raw
            }
            // A deeply nested JSON body of the length it declares.
            2 => {
                let body = json_body(&[], depth, true);
                let mut raw = format!("POST /v1/completions HTTP/1.1\r\nContent-Length: {}\r\n\r\n", body.len()).into_bytes();
                raw.extend_from_slice(&body);
                raw
            }
            // A Content-Length that is not a plain in-range number.
            _ => {
                let value = String::from_utf8_lossy(&noise[..noise.len().min(40)]).replace(['\r', '\n'], "");
                format!("POST / HTTP/1.1\r\nContent-Length: {declared}{value}\r\n\r\n{value}").into_bytes()
            }
        };
        raw.truncate((raw.len() as f64 * keep) as usize);

        let (read, largest) = largest_allocation(|| Request::read(&mut raw.as_slice()));
        prop_assert!(largest <= MAX_BODY_BYTES, "read allocated {largest} bytes at once");
        match read {
            Ok(Some(req)) => {
                prop_assert!(req.body.len() <= MAX_BODY_BYTES);
                let largest = parse_body(&req.body);
                prop_assert!(largest <= MAX_BODY_BYTES, "JSON parse allocated {largest} bytes at once");
            }
            Ok(None) => prop_assert!(raw.is_empty(), "only an empty connection reads as EOF"),
            Err(e) => prop_assert!([400, 413, 431].contains(&e.status()), "{e} -> {}", e.status()),
        }
    }

    #[test]
    fn completion_parser_refuses_cleanly_and_within_the_cap(
        picks in proptest::collection::vec(0usize..FRAGMENTS.len(), 0..64),
        depth in 0usize..2_000,
        array in 0u8..2,
        keep in 0.0f64..=1.0,
    ) {
        let mut body = json_body(&picks, depth, array == 1);
        body.truncate((body.len() as f64 * keep) as usize);
        let largest = parse_body(&body);
        prop_assert!(largest <= MAX_BODY_BYTES, "JSON parse allocated {largest} bytes at once");
    }
}

#[test]
fn a_body_at_the_cap_is_read_in_one_allocation_of_the_cap() {
    let mut raw = format!("POST / HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES}\r\n\r\n").into_bytes();
    raw.resize(raw.len() + MAX_BODY_BYTES, b' ');
    let (read, largest) = largest_allocation(|| Request::read(&mut raw.as_slice()));
    assert_eq!(read.ok().flatten().map(|r| r.body.len()), Some(MAX_BODY_BYTES));
    // The tracker sees the body buffer, so the bounds above are not vacuous.
    assert_eq!(largest, MAX_BODY_BYTES);
}
