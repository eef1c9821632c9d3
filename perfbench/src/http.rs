//! A minimal HTTP/1.1 client for the study server: one request per
//! connection, body read until the server closes it.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A response: status code and body bytes.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The body.
    pub body: Vec<u8>,
}

/// Sends one request and reads the whole response.
///
/// # Errors
///
/// On socket errors or a malformed response.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> Result<Response, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| format!("timeout: {e}"))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body))
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("receive: {e}"))?;
    parse(&raw)
}

/// Splits a raw response into status and body, honouring `Content-Length`
/// when present.
fn parse(raw: &[u8]) -> Result<Response, String> {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response has no header terminator")?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| "header is not UTF-8")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    let mut body = raw[split + 4..].to_vec();
    let length = head.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        k.trim()
            .eq_ignore_ascii_case("content-length")
            .then(|| v.trim().parse::<usize>().ok())?
    });
    if let Some(n) = length {
        if body.len() < n {
            return Err(format!("body truncated: {} of {n} bytes", body.len()));
        }
        body.truncate(n);
    }
    Ok(Response { status, body })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_sized_body() {
        let r = parse(b"HTTP/1.1 202 Accepted\r\nContent-Length: 9\r\n\r\n{\"job\":3}").unwrap();
        assert_eq!(r.status, 202);
        assert_eq!(r.body, b"{\"job\":3}");
        assert!(parse(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nab").is_err());
        assert!(parse(b"garbage").is_err());
    }
}
