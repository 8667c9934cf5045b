//! A minimal blocking HTTP/1.1 client for loopback testing and
//! benchmarking the daemon.
//!
//! This is **not** a general HTTP client: one request per connection,
//! no redirects, no TLS, no keep-alive — exactly the dialect the
//! [`crate::http`] server speaks, so the E2E suite and the repository
//! benchmark exercise the real wire protocol without pulling in a
//! dependency.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A decoded response.
#[derive(Clone, Debug)]
pub struct Response {
    /// The HTTP status code.
    pub status: u16,
    /// The response body as text.
    pub body: String,
}

/// Sends one request and reads the response to EOF (the server always
/// closes after responding).
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<Response, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let payload = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        payload.len(),
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|_| stream.write_all(payload.as_bytes()))
        .map_err(|e| format!("send: {e}"))?;

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| format!("recv: {e}"))?;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("malformed response: {text}"))?;
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line: {head}"))?;
    Ok(Response { status, body: body.to_string() })
}

/// `POST /jobs` with a [`crate::api::JobRequest`]-shaped body; returns
/// the full response (202 + job id on success).
pub fn submit(addr: &str, job: &crate::api::JobRequest) -> Result<Response, String> {
    let body = serde_json::to_string(job).map_err(|e| e.to_string())?;
    request(addr, "POST", "/jobs", Some(&body))
}

/// Polls `GET /jobs/<id>` until the job reports `done` (returning the
/// parsed status body) or the deadline passes.
pub fn await_job(
    addr: &str,
    id: &str,
    deadline: Duration,
) -> Result<crate::api::JobStatusBody, String> {
    let started = std::time::Instant::now();
    loop {
        let resp = request(addr, "GET", &format!("/jobs/{id}"), None)?;
        if resp.status != 200 {
            return Err(format!("GET /jobs/{id} -> {}: {}", resp.status, resp.body));
        }
        let status: crate::api::JobStatusBody =
            serde_json::from_str(&resp.body).map_err(|e| format!("bad status body: {e}"))?;
        if status.state == "done" {
            return Ok(status);
        }
        if started.elapsed() > deadline {
            return Err(format!("job {id} still `{}` after {deadline:?}", status.state));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}
