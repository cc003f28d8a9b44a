//! The load generator's HTTP/1.1 client: one keep-alive connection with
//! the OS default socket options, one write per request, and a reconnect
//! whenever the server answers `Connection: close`.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use schemr_model::SchemaId;

/// A response as read off the wire.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub body: String,
}

/// A keep-alive client connection, opened on first use.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
    /// Connections opened after the first.
    pub reconnects: u64,
    opened: u64,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            stream: None,
            reconnects: 0,
            opened: 0,
        }
    }

    /// Send `request` and read the whole response. A transport error
    /// drops the connection so the next call reconnects.
    pub fn send(&mut self, request: &[u8]) -> std::io::Result<Response> {
        let result = self.exchange(request);
        if !matches!(result, Ok((_, true))) {
            self.stream = None;
        }
        result.map(|(response, _)| response)
    }

    fn exchange(&mut self, request: &[u8]) -> std::io::Result<(Response, bool)> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            self.stream = Some(BufReader::new(stream));
            self.reconnects += u64::from(self.opened > 0);
            self.opened += 1;
        }
        let reader = self.stream.as_mut().expect("connected above");
        reader.get_mut().write_all(request)?;
        read_response(reader)
    }
}

/// Read one response: status line, headers, `Content-Length` body.
/// Returns the response and whether the server keeps the connection open.
fn read_response(reader: &mut impl BufRead) -> std::io::Result<(Response, bool)> {
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed before the response",
        ));
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut length = 0usize;
    let mut keep_alive = true;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed inside the response head"));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(bad("bad header line"));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = value.parse().map_err(|_| bad("bad content-length"))?;
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| bad("body is not UTF-8"))?;
    Ok((Response { status, body }, keep_alive))
}

/// The ranked ids of a search-results document, in rank order. `None`
/// when the document is not well-formed XML or a result lacks an id.
pub fn result_ids(xml: &str) -> Option<Vec<SchemaId>> {
    schemr_parse::xml::XmlParser::parse_all(xml).ok()?;
    let mut ids = Vec::new();
    let mut rest = xml;
    while let Some(at) = rest.find("<result ") {
        let tag = &rest[at..];
        let tag = &tag[..tag.find('>')?];
        let value = tag.split_once(" id=\"")?.1;
        ids.push(value[..value.find('"')?].parse().ok()?);
        rest = &rest[at + tag.len()..];
    }
    Some(ids)
}

/// Wait until `GET /healthz` answers 200, polling for up to `limit`.
pub fn await_healthy(addr: SocketAddr, limit: Duration) -> std::io::Result<()> {
    let deadline = Instant::now() + limit;
    let request = b"GET /healthz HTTP/1.1\r\nHost: schemr\r\nConnection: close\r\n\r\n";
    loop {
        if let Ok(r) = Conn::new(addr).send(request) {
            if r.status == 200 {
                return Ok(());
            }
        }
        if Instant::now() > deadline {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "server never reported healthy",
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_come_out_in_rank_order() {
        let xml = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<results count=\"2\">\n  \
                   <result id=\"s12\" rank=\"1\" score=\"0.5\"><title>a &amp; b</title></result>\n  \
                   <result id=\"s3\" rank=\"2\" score=\"0.4\"><title>c</title></result>\n</results>\n";
        assert_eq!(result_ids(xml), Some(vec![SchemaId(12), SchemaId(3)]));
        let empty = "<results count=\"0\">\n</results>\n";
        assert_eq!(result_ids(empty), Some(vec![]));
    }

    #[test]
    fn ids_match_the_servers_own_renderer() {
        use schemr::{PhaseTimings, SearchResponse, SearchResult};
        let result = |id| SearchResult {
            id: SchemaId(id),
            title: "t <x>".into(),
            summary: String::new(),
            score: 0.5,
            coarse_score: 1.0,
            matched_terms: 1,
            stats: Default::default(),
            matches: vec![],
        };
        let response = SearchResponse {
            results: vec![result(7), result(2), result(40)],
            timings: PhaseTimings::default(),
            candidates_evaluated: 3,
            trace: None,
            trace_id: None,
            ledger: None,
        };
        let xml = schemr_server::xml_response::search_response_to_xml(&response);
        assert_eq!(
            result_ids(&xml),
            Some(vec![SchemaId(7), SchemaId(2), SchemaId(40)])
        );
    }

    #[test]
    fn malformed_documents_yield_no_ids() {
        assert_eq!(result_ids("<results><result id=\"s1\"></results>"), None);
        assert_eq!(result_ids("<results><result rank=\"1\"/></results>"), None);
        assert_eq!(result_ids("<results><result id=\"x\"/></results>"), None);
    }

    #[test]
    fn responses_are_framed_by_content_length_and_connection() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nConnection: keep-alive\r\n\r\nhelloHTTP/1.1 404 Not Found\r\nConnection: close\r\nContent-Length: 0\r\n\r\n";
        let mut reader = BufReader::new(&wire[..]);
        let (r, keep) = read_response(&mut reader).unwrap();
        assert_eq!((r.status, r.body.as_str(), keep), (200, "hello", true));
        let (r, keep) = read_response(&mut reader).unwrap();
        assert_eq!((r.status, r.body.as_str(), keep), (404, "", false));
        assert!(read_response(&mut reader).is_err());
    }
}
