//! Minimal HTTP/1.1 server on `std::net`.
//!
//! No external web framework: requests are read, parsed and routed by
//! hand, one thread per connection (the frontend is not the bottleneck —
//! model execution is). Supports fixed-length bodies via `Content-Length`
//! and chunked responses for SSE streaming.
//!
//! The request head and body are size-capped by fixed constants, so no
//! header value can make the server allocate: an oversized body gets 413
//! before its buffer exists, an over-long line or too many headers 431.

use std::fmt;
use std::io::{BufRead, Read, Write};
use std::net::TcpStream;
use std::num::IntErrorKind;

/// Longest request or header line accepted, line terminator included.
pub const MAX_LINE_BYTES: usize = 8 * 1024;
/// Most header lines accepted in one request.
pub const MAX_HEADERS: usize = 64;
/// Largest `Content-Length` accepted.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Method (`GET`, `POST`, …).
    pub method: String,
    /// Path including no query handling (exact-match routing).
    pub path: String,
    /// Lower-cased header map.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes.
    pub body: Vec<u8>,
}

/// Why [`Request::read`] rejected a request.
#[derive(Debug)]
pub enum ReadError {
    /// Malformed syntax, or the connection failed mid-request.
    Malformed(std::io::Error),
    /// No byte arrived within the connection's read timeout.
    Idle,
    /// `Content-Length` over [`MAX_BODY_BYTES`].
    BodyTooLarge,
    /// A line over [`MAX_LINE_BYTES`], or more than [`MAX_HEADERS`] headers.
    HeadTooLarge,
}

impl ReadError {
    /// The HTTP status that answers this error.
    pub fn status(&self) -> u16 {
        match self {
            ReadError::Malformed(_) => 400,
            ReadError::Idle => 408,
            ReadError::BodyTooLarge => 413,
            ReadError::HeadTooLarge => 431,
        }
    }
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Malformed(e) => write!(f, "malformed HTTP: {e}"),
            ReadError::Idle => write!(f, "no request bytes within the read timeout"),
            ReadError::BodyTooLarge => write!(f, "request body over {MAX_BODY_BYTES} bytes"),
            ReadError::HeadTooLarge => {
                write!(f, "request head has a line over {MAX_LINE_BYTES} bytes or over {MAX_HEADERS} headers")
            }
        }
    }
}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> Self {
        // A socket read timeout surfaces as one of these two kinds,
        // depending on the platform.
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ReadError::Idle,
            _ => ReadError::Malformed(e),
        }
    }
}

fn malformed(msg: &str) -> ReadError {
    ReadError::Malformed(std::io::Error::new(std::io::ErrorKind::InvalidData, msg))
}

/// Read one `\n`-terminated line of at most [`MAX_LINE_BYTES`] bytes;
/// `None` at EOF before any byte.
fn read_line(reader: &mut impl BufRead) -> Result<Option<String>, ReadError> {
    let mut line = Vec::new();
    let n = reader.by_ref().take(MAX_LINE_BYTES as u64 + 1).read_until(b'\n', &mut line)?;
    if n > MAX_LINE_BYTES {
        return Err(ReadError::HeadTooLarge);
    }
    if n == 0 {
        return Ok(None);
    }
    String::from_utf8(line).map(Some).map_err(|_| malformed("non-UTF-8 request head"))
}

impl Request {
    /// Read one request from the stream. Returns `None` on a clean EOF
    /// before any bytes (keep-alive close) and `Err` on malformed or
    /// oversized input.
    pub fn read(reader: &mut impl BufRead) -> Result<Option<Request>, ReadError> {
        let Some(line) = read_line(reader)? else {
            return Ok(None);
        };
        let mut parts = line.split_whitespace();
        let (method, path) = match (parts.next(), parts.next()) {
            (Some(m), Some(p)) => (m.to_string(), p.to_string()),
            _ => return Err(malformed("malformed request line")),
        };
        let mut headers = Vec::new();
        let mut content_length = 0usize;
        for lines in 0.. {
            let Some(h) = read_line(reader)? else {
                return Err(malformed("eof in headers"));
            };
            let h = h.trim_end();
            if h.is_empty() {
                break;
            }
            if lines == MAX_HEADERS {
                return Err(ReadError::HeadTooLarge);
            }
            if let Some((name, value)) = h.split_once(':') {
                let name = name.trim().to_ascii_lowercase();
                let value = value.trim().to_string();
                if name == "content-length" {
                    content_length = value.parse().map_err(|e: std::num::ParseIntError| match e.kind() {
                        IntErrorKind::PosOverflow => ReadError::BodyTooLarge,
                        _ => malformed("bad content-length"),
                    })?;
                }
                headers.push((name, value));
            }
        }
        if content_length > MAX_BODY_BYTES {
            return Err(ReadError::BodyTooLarge);
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body)?;
        Ok(Some(Request { method, path, headers, body }))
    }
}

/// Write a complete (non-streaming) response.
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        _ => "Internal Server Error",
    };
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body)?;
    stream.flush()
}

/// Begin a chunked SSE response; follow with [`write_sse_event`] calls and
/// finish with [`finish_chunked`].
pub fn start_sse(stream: &mut TcpStream) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()
}

/// Write one SSE `data:` event as an HTTP chunk.
pub fn write_sse_event(stream: &mut TcpStream, data: &str) -> std::io::Result<()> {
    let payload = format!("data: {data}\n\n");
    write!(stream, "{:x}\r\n", payload.len())?;
    stream.write_all(payload.as_bytes())?;
    write!(stream, "\r\n")?;
    stream.flush()
}

/// Terminate a chunked response.
pub fn finish_chunked(stream: &mut TcpStream) -> std::io::Result<()> {
    write!(stream, "0\r\n\r\n")?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;
    use std::net::TcpListener;

    fn round_trip(raw: &str) -> Result<Option<Request>, ReadError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_string();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(raw.as_bytes()).unwrap();
        });
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream);
        let req = Request::read(&mut reader);
        client.join().unwrap();
        req
    }

    #[test]
    fn parses_post_with_body() {
        let req = round_trip(
            "POST /v1/completions HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n{\"a\":1}",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/completions");
        assert_eq!(req.body, b"{\"a\":1}");
        assert!(req.headers.iter().any(|(n, _)| n == "content-length"));
    }

    #[test]
    fn parses_get_without_body() {
        let req = round_trip("GET /health HTTP/1.1\r\nHost: x\r\n\r\n").unwrap().unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/health");
        assert!(req.body.is_empty());
    }

    #[test]
    fn malformed_request_line_is_an_error() {
        assert_eq!(round_trip("GARBAGE\r\n\r\n").unwrap_err().status(), 400);
    }

    fn status_of(raw: &[u8]) -> u16 {
        Request::read(&mut &raw[..]).map(|_| 200).unwrap_or_else(|e| e.status())
    }

    #[test]
    fn oversized_content_length_is_413_without_allocating() {
        // No body backs these lengths: the cap fires on the header alone.
        let huge = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", usize::MAX);
        assert_eq!(status_of(huge.as_bytes()), 413);
        assert_eq!(status_of(b"POST / HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n"), 413);
        let over = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        assert_eq!(status_of(over.as_bytes()), 413);
        let mut at = format!("POST / HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES}\r\n\r\n").into_bytes();
        at.resize(at.len() + MAX_BODY_BYTES, b'x');
        assert_eq!(status_of(&at), 200);
    }

    #[test]
    fn over_long_line_is_431() {
        let mut long = b"GET /".to_vec();
        long.resize(MAX_LINE_BYTES + 1, b'a');
        assert_eq!(status_of(&long), 431, "request line");
        let mut header = b"GET / HTTP/1.1\r\nX: ".to_vec();
        header.resize(header.len() + MAX_LINE_BYTES, b'a');
        header.extend_from_slice(b"\r\n\r\n");
        assert_eq!(status_of(&header), 431, "header line");
        // A header line of exactly the cap, CRLF included, is fine.
        let mut at = b"GET / HTTP/1.1\r\nX: ".to_vec();
        at.resize(16 + MAX_LINE_BYTES - 2, b'a');
        at.extend_from_slice(b"\r\n\r\n");
        assert_eq!(status_of(&at), 200);
    }

    #[test]
    fn too_many_headers_is_431() {
        let head = |lines: &str, n: usize| format!("GET / HTTP/1.1\r\n{}\r\n", lines.repeat(n));
        assert_eq!(status_of(head("X: v\r\n", MAX_HEADERS).as_bytes()), 200);
        assert_eq!(status_of(head("X: v\r\n", MAX_HEADERS + 1).as_bytes()), 431);
        // Lines without a colon count too.
        assert_eq!(status_of(head("junk\r\n", MAX_HEADERS + 1).as_bytes()), 431);
    }
}
