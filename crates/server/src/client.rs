//! A small blocking client for the `qob` wire protocol.
//!
//! Used by `qob connect`, `qob top`, the integration tests and the CI smoke
//! jobs.  One request goes out as a JSON line in a single write with
//! `TCP_NODELAY` set, one response line comes back; the transport never
//! pipelines, so a [`Client`] is strictly sequential.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use crate::json::Json;
use crate::protocol::Request;

/// A connected protocol client.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a running server at `addr` (e.g. `127.0.0.1:4547`).
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        Self::from_stream(TcpStream::connect(addr)?)
    }

    /// Turns Nagle off: a request is one small write followed by a blocking
    /// read, so batching it behind the previous segment's ACK only stalls
    /// the round trip on the peer's delayed-ACK timer (≈ 40 ms on Linux).
    fn from_stream(stream: TcpStream) -> std::io::Result<Client> {
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { writer: stream, reader })
    }

    /// Sends one request and blocks for its response.
    pub fn request(&mut self, request: &Request) -> std::io::Result<Json> {
        self.round_trip(request.to_json().to_string())
    }

    /// Sends a raw line (used to exercise protocol errors) and blocks for
    /// the response.
    pub fn request_raw(&mut self, line: &str) -> std::io::Result<Json> {
        self.round_trip(line.to_owned())
    }

    /// The one send path: the line and its terminator leave in a single
    /// `write_all`, so the client never splits a request across segments.
    fn round_trip(&mut self, mut line: String) -> std::io::Result<Json> {
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.read_response()
    }

    /// Convenience: run a SQL script, returning the parsed response.
    pub fn query(&mut self, sql: &str) -> std::io::Result<Json> {
        self.request(&Request::Query { sql: sql.to_owned() })
    }

    fn read_response(&mut self) -> std::io::Result<Json> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection before responding",
            ));
        }
        Json::parse(line.trim()).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("malformed response line: {e}"),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use std::io::Read;
    use std::net::TcpListener;

    use super::*;

    /// A listener on an ephemeral port and a [`Client`] connected to it.
    fn pair() -> (TcpListener, Client) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = Client::connect(&listener.local_addr().unwrap().to_string()).unwrap();
        (listener, client)
    }

    #[test]
    fn request_and_request_raw_send_one_parseable_line_each_with_nagle_off() {
        let (listener, mut client) = pair();
        assert!(client.writer.nodelay().unwrap());
        let server = std::thread::spawn(move || {
            let (mut peer, _) = listener.accept().unwrap();
            // Answer each request line, then read to EOF: everything the
            // client ever sent comes back for inspection.
            let mut reader = BufReader::new(peer.try_clone().unwrap());
            let mut received = String::new();
            for _ in 0..2 {
                reader.read_line(&mut received).unwrap();
                peer.write_all(b"{\"ok\":true}\n").unwrap();
            }
            reader.read_to_string(&mut received).unwrap();
            received
        });
        let request = Request::Query { sql: "SELECT COUNT(*) FROM title t;\n-- two lines".into() };
        assert_eq!(client.request(&request).unwrap().get("ok").and_then(Json::as_bool), Some(true));
        let raw = Request::Ping.to_json().to_string();
        assert!(client.request_raw(&raw).is_ok());
        drop(client);

        let received = server.join().unwrap();
        let lines: Vec<&str> = received.split_terminator('\n').collect();
        assert_eq!(lines.len(), 2, "one line per request, nothing else: {received:?}");
        assert!(received.ends_with('\n'));
        assert_eq!(Request::parse(lines[0]).unwrap(), request);
        assert_eq!(Request::parse(lines[1]).unwrap(), Request::Ping);
    }

    #[test]
    fn eof_before_a_response_is_unexpected_eof() {
        let (listener, mut client) = pair();
        // The peer consumes the request, then hangs up without answering.
        let server = std::thread::spawn(move || {
            let (peer, _) = listener.accept().unwrap();
            BufReader::new(peer).read_line(&mut String::new()).unwrap();
        });
        let error = client.request(&Request::Ping).unwrap_err();
        assert_eq!(error.kind(), std::io::ErrorKind::UnexpectedEof);
        server.join().unwrap();
    }
}
