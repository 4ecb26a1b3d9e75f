//! HTTP/1.1 wire codec.
//!
//! The simulation passes structured [`Request`]/[`Response`] values
//! between components, but the codec keeps the model honest: every
//! message can be framed onto bytes and parsed back. Framing follows the
//! incremental-decode style of the tokio tutorial's frame layer: a
//! decoder either yields a complete message and consumes its bytes, or
//! reports `Incomplete` without consuming anything.

use crate::headers::Headers;
use crate::message::{Method, Request, Response, Status};
use crate::url::Url;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Errors from the wire codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// More bytes are needed to complete the message.
    Incomplete,
    /// The bytes are not a valid HTTP/1.1 message.
    Malformed(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Incomplete => write!(f, "incomplete message"),
            CodecError::Malformed(m) => write!(f, "malformed message: {m}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Encode a request onto the wire.
///
/// The `Host` header is derived from the URL; an explicit `Content-Length`
/// is always written so the decoder can frame the body.
pub fn encode_request(req: &Request) -> Bytes {
    let mut buf = BytesMut::with_capacity(256 + req.body.len());
    buf.put_slice(format!("{} {} HTTP/1.1\r\n", req.method, req.url.target()).as_bytes());
    buf.put_slice(format!("Host: {}\r\n", req.url.host).as_bytes());
    for (name, value) in req.headers.iter() {
        if name.eq_ignore_ascii_case("host") || name.eq_ignore_ascii_case("content-length") {
            continue;
        }
        buf.put_slice(format!("{name}: {value}\r\n").as_bytes());
    }
    buf.put_slice(format!("Content-Length: {}\r\n\r\n", req.body.len()).as_bytes());
    buf.put_slice(req.body.as_bytes());
    buf.freeze()
}

/// Encode a response onto the wire.
pub fn encode_response(resp: &Response) -> Bytes {
    let mut buf = BytesMut::with_capacity(256 + resp.body.len());
    buf.put_slice(
        format!(
            "HTTP/1.1 {} {}\r\n",
            resp.status.code(),
            resp.status.reason()
        )
        .as_bytes(),
    );
    for (name, value) in resp.headers.iter() {
        if name.eq_ignore_ascii_case("content-length") {
            continue;
        }
        buf.put_slice(format!("{name}: {value}\r\n").as_bytes());
    }
    buf.put_slice(format!("Content-Length: {}\r\n\r\n", resp.body.len()).as_bytes());
    buf.put_slice(resp.body.as_bytes());
    buf.freeze()
}

/// Split `buf` at the header/body boundary; returns (head_lines, body_start).
fn split_head(buf: &[u8]) -> Result<(Vec<String>, usize), CodecError> {
    let sep = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or(CodecError::Incomplete)?;
    let head = std::str::from_utf8(&buf[..sep])
        .map_err(|_| CodecError::Malformed("non-UTF-8 head".into()))?;
    Ok((head.split("\r\n").map(|s| s.to_string()).collect(), sep + 4))
}

fn parse_headers(lines: &[String]) -> Result<Headers, CodecError> {
    let mut headers = Headers::new();
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| CodecError::Malformed(format!("bad header line: {line:?}")))?;
        headers.append(name.trim(), value.trim());
    }
    Ok(headers)
}

/// Offset one past the body: `body_start` plus the declared
/// `Content-Length`. A length the buffer could never hold is malformed,
/// not an overflow.
fn body_end(headers: &Headers, body_start: usize) -> Result<usize, CodecError> {
    let len: usize = match headers.get("content-length") {
        None => 0,
        Some(v) => v
            .parse()
            .map_err(|_| CodecError::Malformed(format!("bad content-length: {v:?}")))?,
    };
    body_start
        .checked_add(len)
        .ok_or_else(|| CodecError::Malformed(format!("content-length too large: {len}")))
}

/// Decode one request from the front of `buf`, consuming its bytes.
pub fn decode_request(buf: &mut BytesMut) -> Result<Request, CodecError> {
    let (lines, body_start) = split_head(buf)?;
    let request_line = lines
        .first()
        .ok_or_else(|| CodecError::Malformed("empty head".into()))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .and_then(Method::parse)
        .ok_or_else(|| CodecError::Malformed(format!("bad method in {request_line:?}")))?;
    let target = parts
        .next()
        .ok_or_else(|| CodecError::Malformed("missing target".into()))?
        .to_string();
    let version = parts
        .next()
        .ok_or_else(|| CodecError::Malformed("missing version".into()))?;
    if version != "HTTP/1.1" {
        return Err(CodecError::Malformed(format!(
            "unsupported version {version:?}"
        )));
    }
    let headers = parse_headers(&lines[1..])?;
    let host = headers
        .get("host")
        .ok_or_else(|| CodecError::Malformed("missing Host header".into()))?
        .to_string();
    let end = body_end(&headers, body_start)?;
    if buf.len() < end {
        return Err(CodecError::Incomplete);
    }
    let body = std::str::from_utf8(&buf[body_start..end])
        .map_err(|_| CodecError::Malformed("non-UTF-8 body".into()))?
        .to_string();
    // Requests on the wire do not say http vs https; the simulation
    // reconstructs with https (all experiment sites have certificates).
    let url = Url::parse(&format!("https://{host}{target}"))
        .map_err(|e| CodecError::Malformed(format!("bad target: {e}")))?;
    let mut headers_out = Headers::new();
    for (n, v) in headers.iter() {
        if n.eq_ignore_ascii_case("host") || n.eq_ignore_ascii_case("content-length") {
            continue;
        }
        headers_out.append(n, v);
    }
    buf.advance(end);
    Ok(Request {
        method,
        url,
        headers: headers_out,
        body,
    })
}

/// Decode one response from the front of `buf`, consuming its bytes.
pub fn decode_response(buf: &mut BytesMut) -> Result<Response, CodecError> {
    let (lines, body_start) = split_head(buf)?;
    let status_line = lines
        .first()
        .ok_or_else(|| CodecError::Malformed("empty head".into()))?;
    let mut parts = status_line.split(' ');
    let version = parts
        .next()
        .ok_or_else(|| CodecError::Malformed("missing version".into()))?;
    if version != "HTTP/1.1" {
        return Err(CodecError::Malformed(format!(
            "unsupported version {version:?}"
        )));
    }
    let code: u16 = parts
        .next()
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| CodecError::Malformed("bad status code".into()))?;
    let status = Status::from_code(code)
        .ok_or_else(|| CodecError::Malformed(format!("unknown status {code}")))?;
    let headers = parse_headers(&lines[1..])?;
    let end = body_end(&headers, body_start)?;
    if buf.len() < end {
        return Err(CodecError::Incomplete);
    }
    let body = std::str::from_utf8(&buf[body_start..end])
        .map_err(|_| CodecError::Malformed("non-UTF-8 body".into()))?
        .to_string();
    let mut headers_out = Headers::new();
    for (n, v) in headers.iter() {
        if n.eq_ignore_ascii_case("content-length") {
            continue;
        }
        headers_out.append(n, v);
    }
    buf.advance(end);
    Ok(Response {
        status,
        headers: headers_out,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        let req = Request::post_form(
            Url::https("victim-site.com", "/login.php").with_param("step", "2"),
            &[("user", "a"), ("pass", "b")],
        )
        .with_user_agent("Mozilla/5.0 (X11; Linux x86_64)");
        let wire = encode_request(&req);
        let mut buf = BytesMut::from(&wire[..]);
        let parsed = decode_request(&mut buf).unwrap();
        assert_eq!(parsed, req);
        assert!(buf.is_empty(), "decoder must consume the message");
    }

    #[test]
    fn response_round_trip() {
        let resp =
            Response::html("<html><body>ok</body></html>").with_set_cookie("PHPSESSID=xyz; Path=/");
        let wire = encode_response(&resp);
        let mut buf = BytesMut::from(&wire[..]);
        let parsed = decode_response(&mut buf).unwrap();
        assert_eq!(parsed, resp);
    }

    #[test]
    fn incomplete_head_and_body() {
        let req = Request::get(Url::https("a.com", "/"));
        let wire = encode_request(&req);
        // Truncated in the head.
        let mut buf = BytesMut::from(&wire[..10]);
        assert_eq!(decode_request(&mut buf), Err(CodecError::Incomplete));
        assert_eq!(buf.len(), 10, "incomplete decode must not consume");
        // Truncated in the body.
        let post = Request::post_form(Url::https("a.com", "/"), &[("k", "v")]);
        let wire = encode_request(&post);
        let mut buf = BytesMut::from(&wire[..wire.len() - 2]);
        assert_eq!(decode_request(&mut buf), Err(CodecError::Incomplete));
    }

    #[test]
    fn pipelined_messages_decode_sequentially() {
        let a = Request::get(Url::https("a.com", "/one"));
        let b = Request::get(Url::https("a.com", "/two"));
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&encode_request(&a));
        buf.extend_from_slice(&encode_request(&b));
        assert_eq!(decode_request(&mut buf).unwrap().url.path, "/one");
        assert_eq!(decode_request(&mut buf).unwrap().url.path, "/two");
        assert!(buf.is_empty());
    }

    #[test]
    fn malformed_inputs_rejected() {
        let mut buf = BytesMut::from(&b"PUT / HTTP/1.1\r\nHost: a.com\r\n\r\n"[..]);
        assert!(matches!(
            decode_request(&mut buf),
            Err(CodecError::Malformed(_))
        ));
        let mut buf = BytesMut::from(&b"GET / HTTP/1.0\r\nHost: a.com\r\n\r\n"[..]);
        assert!(matches!(
            decode_request(&mut buf),
            Err(CodecError::Malformed(_))
        ));
        let mut buf = BytesMut::from(&b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n"[..]);
        assert!(matches!(
            decode_request(&mut buf),
            Err(CodecError::Malformed(_))
        ));
        let mut buf = BytesMut::from(&b"GET / HTTP/1.1\r\n\r\n"[..]);
        assert!(
            matches!(decode_request(&mut buf), Err(CodecError::Malformed(_))),
            "missing Host must be rejected"
        );
        let mut buf = BytesMut::from(&b"HTTP/1.1 777 Weird\r\nContent-Length: 0\r\n\r\n"[..]);
        assert!(matches!(
            decode_response(&mut buf),
            Err(CodecError::Malformed(_))
        ));
        let mut buf = BytesMut::from(&b"HTTP/1.1 200 OK\r\nContent-Length: nope\r\n\r\n"[..]);
        assert!(matches!(
            decode_response(&mut buf),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn request_content_length_overflow_is_malformed() {
        let mut buf = BytesMut::from(
            &b"POST / HTTP/1.1\r\nHost: a.com\r\nContent-Length: 18446744073709551615\r\n\r\n"[..],
        );
        assert!(matches!(
            decode_request(&mut buf),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn response_content_length_overflow_is_malformed() {
        let mut buf =
            BytesMut::from(&b"HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\n"[..]);
        assert!(matches!(
            decode_response(&mut buf),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn host_and_content_length_reconstructed_not_duplicated() {
        let req = Request::get(Url::https("a.com", "/"));
        let wire = encode_request(&req);
        let text = std::str::from_utf8(&wire).unwrap();
        assert_eq!(text.matches("Host:").count(), 1);
        assert_eq!(text.matches("Content-Length:").count(), 1);
    }
}
