//! A minimal HTTP/1.1 client that keeps at most one connection open.
//!
//! It asks for nothing special: requests go out in the HTTP/1.1 default
//! (persistent) form, and the client reuses the connection while the
//! server leaves it open. A `Connection: close` answer, or a response
//! without a length, ends the connection and the next request reconnects.
//! A request on a reused connection that the server has meanwhile closed
//! is retried once on a fresh connection. So a server that starts keeping
//! connections alive shows up in the numbers without a benchmark change.

use std::io::{BufRead as _, BufReader, ErrorKind, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One request/response exchange with its socket timestamps.
#[derive(Debug, Clone)]
pub struct Exchange {
    pub status: u16,
    pub body: String,
    /// Time spent in `connect` when this request opened a connection.
    pub connect: Option<Duration>,
    /// When the request bytes had been written.
    pub written: Instant,
    /// When the last response byte had been read.
    pub done: Instant,
}

pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    timeout: Duration,
    /// Connections opened so far.
    pub connects: u64,
}

impl Client {
    pub fn new(addr: SocketAddr, timeout: Duration) -> Self {
        Client { addr, conn: None, timeout, connects: 0 }
    }

    pub fn get(&mut self, path: &str) -> std::io::Result<Exchange> {
        let reused = self.conn.is_some();
        match self.try_get(path) {
            Err(e) if reused && is_stale(&e) => {
                // The server closed the idle connection we kept.
                self.conn = None;
                self.try_get(path)
            }
            other => other,
        }
    }

    fn try_get(&mut self, path: &str) -> std::io::Result<Exchange> {
        let mut connect = None;
        if self.conn.is_none() {
            let started = Instant::now();
            let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
            connect = Some(started.elapsed());
            self.connects += 1;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_write_timeout(Some(self.timeout))?;
            self.conn = Some(BufReader::new(stream));
        }
        let result = Self::exchange(self.conn.as_mut().expect("connected above"), path);
        match result {
            Ok((status, body, written, keep)) => {
                if !keep {
                    self.conn = None;
                }
                Ok(Exchange { status, body, connect, written, done: Instant::now() })
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }

    /// Writes one GET and reads its response: status, body, the instant
    /// the request was written, and whether the connection stays usable.
    fn exchange(
        conn: &mut BufReader<TcpStream>,
        path: &str,
    ) -> std::io::Result<(u16, String, Instant, bool)> {
        let request = format!("GET {path} HTTP/1.1\r\nHost: bed\r\n\r\n");
        conn.get_mut().write_all(request.as_bytes())?;
        let written = Instant::now();

        let mut line = String::new();
        if conn.read_line(&mut line)? == 0 {
            return Err(ErrorKind::UnexpectedEof.into());
        }
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
        let http10 = line.starts_with("HTTP/1.0");
        let mut length = None;
        let mut close = http10;
        loop {
            line.clear();
            if conn.read_line(&mut line)? == 0 {
                return Err(ErrorKind::UnexpectedEof.into());
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let (name, value) = (name.trim(), value.trim());
                if name.eq_ignore_ascii_case("content-length") {
                    length = Some(value.parse::<usize>().map_err(|e| bad(e.to_string()))?);
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.eq_ignore_ascii_case("close");
                }
            }
        }
        let mut body = Vec::new();
        match length {
            Some(n) => {
                body.resize(n, 0);
                conn.read_exact(&mut body)?;
            }
            None => {
                conn.read_to_end(&mut body)?;
                close = true;
            }
        }
        let body = String::from_utf8(body).map_err(|e| bad(e.to_string()))?;
        Ok((status, body, written, !close))
    }
}

fn bad(message: String) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, message)
}

fn is_stale(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::UnexpectedEof
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::BrokenPipe
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A local stub server answering `requests` requests with a fixed
    /// body, serving at most `per_conn` of them on one connection. It
    /// announces `Connection: close` only when `per_conn` is 1; otherwise
    /// it closes a connection after `per_conn` answers without notice, as
    /// a server's idle timeout would. Yields the connections accepted.
    pub(crate) fn stub(
        per_conn: usize,
        requests: usize,
    ) -> (SocketAddr, std::thread::JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut served, mut accepted) = (0, 0);
            while served < requests {
                let (stream, _) = listener.accept().unwrap();
                accepted += 1;
                let mut reader = BufReader::new(stream);
                for _ in 0..per_conn {
                    let mut head = String::new();
                    let mut line = String::new();
                    while reader.read_line(&mut line).unwrap_or(0) > 0 && line != "\r\n" {
                        head.push_str(&line);
                        line.clear();
                    }
                    if head.is_empty() {
                        break; // the client closed the connection
                    }
                    served += 1;
                    let body = "{\"ok\":true}\n";
                    let conn = if per_conn == 1 { "close" } else { "keep-alive" };
                    let reply = format!(
                        "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: {conn}\r\n\r\n{body}",
                        body.len()
                    );
                    reader.get_mut().write_all(reply.as_bytes()).unwrap();
                    if served == requests {
                        break;
                    }
                }
            }
            accepted
        });
        (addr, handle)
    }

    #[test]
    fn reuses_a_connection_the_server_leaves_open() {
        let (addr, server) = stub(usize::MAX, 5);
        let mut client = Client::new(addr, Duration::from_secs(5));
        for i in 0..5 {
            let ex = client.get("/query").unwrap();
            assert_eq!((ex.status, ex.body.as_str()), (200, "{\"ok\":true}\n"));
            assert_eq!(ex.connect.is_some(), i == 0, "request {i}");
        }
        assert_eq!(client.connects, 1);
        drop(client);
        assert_eq!(server.join().unwrap(), 1);
    }

    #[test]
    fn reconnects_when_the_server_closes() {
        let (addr, server) = stub(1, 4);
        let mut client = Client::new(addr, Duration::from_secs(5));
        for _ in 0..4 {
            let ex = client.get("/query").unwrap();
            assert_eq!(ex.status, 200);
            assert!(ex.connect.is_some());
        }
        assert_eq!(client.connects, 4);
        assert_eq!(server.join().unwrap(), 4);
    }

    #[test]
    fn retries_once_when_a_kept_connection_was_closed() {
        let (addr, server) = stub(2, 5);
        let mut client = Client::new(addr, Duration::from_secs(5));
        for _ in 0..5 {
            assert_eq!(client.get("/query").unwrap().status, 200);
        }
        assert_eq!(client.connects, 3);
        drop(client);
        assert_eq!(server.join().unwrap(), 3);
    }
}
