//! NDJSON wire plumbing: one `\n`-terminated JSON line per message, read
//! under a size cap and written as one segment. `hems-serve` and
//! `hems-router` are one line server ([`serve_lines`], drawn in DESIGN.md
//! §9) around different line handlers; the chaos proxy reuses its bare
//! acceptor ([`accept_streams`]).

use crate::json::Value;
use crate::proto::error_response;
use hems_obs::Counter;
use std::io::{self, BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Reads one `\n`-terminated line with a hard size cap. `Ok(None)` = EOF
/// before any byte. Reads byte-at-a-time through the caller's
/// `BufReader`, so the cap bounds memory, not throughput.
///
/// # Errors
///
/// `InvalidData` when the line exceeds `max_bytes`; otherwise the
/// underlying read error (including deadline expiry — see
/// [`is_timeout`]).
pub fn read_line_bounded<R: Read>(reader: &mut R, max_bytes: usize) -> io::Result<Option<String>> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                return if line.is_empty() {
                    Ok(None)
                } else {
                    Ok(Some(String::from_utf8_lossy(&line).into_owned()))
                };
            }
            Ok(_) => {
                let [b] = byte;
                if b == b'\n' {
                    return Ok(Some(String::from_utf8_lossy(&line).into_owned()));
                }
                if line.len() >= max_bytes {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "request line exceeds the size cap",
                    ));
                }
                line.push(b);
            }
            Err(e) => return Err(e),
        }
    }
}

/// Writes `line` plus the terminating newline as one `write_all`: one
/// TCP segment with nodelay, not a body segment and a newline segment.
///
/// # Errors
///
/// Propagates the underlying write error.
pub fn send_line(mut stream: impl Write, line: &str) -> io::Result<()> {
    let mut framed = Vec::with_capacity(line.len() + 1);
    framed.extend_from_slice(line.as_bytes());
    framed.push(b'\n');
    stream.write_all(&framed)
}

/// One request/response round trip on a client connection.
///
/// # Errors
///
/// The write or read error, or `UnexpectedEof` when the peer hangs up
/// before answering.
pub fn exchange(
    conn: &mut BufReader<TcpStream>,
    line: &str,
    max_line_bytes: usize,
) -> io::Result<String> {
    send_line(conn.get_mut(), line)?;
    read_line_bounded(conn, max_line_bytes)?.ok_or_else(|| io::ErrorKind::UnexpectedEof.into())
}

/// `true` when an IO error is a socket deadline expiry (`WouldBlock` on
/// Unix, `TimedOut` on Windows).
pub fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Accept-error backoff: first step and cap.
const ACCEPT_BACKOFF: (Duration, Duration) = (Duration::from_millis(5), Duration::from_millis(500));

/// A listener's stop switch. [`AcceptStop::stop`] raises the flag and
/// dials the listener's own port, so an acceptor blocked in `accept`
/// returns, sees the flag, drops that connection unserved, and exits.
/// Clones share the flag.
#[derive(Debug, Clone)]
pub struct AcceptStop {
    stopped: Arc<AtomicBool>,
    wake: SocketAddr,
}

impl AcceptStop {
    /// A lowered switch for `listener`; an unspecified bind address
    /// (`0.0.0.0` / `[::]`) is dialled through loopback.
    ///
    /// # Errors
    ///
    /// The listener's `local_addr` failure.
    pub fn for_listener(listener: &TcpListener) -> io::Result<AcceptStop> {
        let mut wake = listener.local_addr()?;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        Ok(AcceptStop {
            stopped: Arc::default(),
            wake,
        })
    }

    /// Raises the flag; the first call dials the wake connection. A dial
    /// can only fail on a full backlog or an exhausted descriptor table,
    /// and then `accept` returns on its own and sees the flag.
    pub fn stop(&self) {
        if !self.stopped.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect_timeout(&self.wake, Duration::from_millis(250));
        }
    }

    /// `true` once [`AcceptStop::stop`] has been called.
    pub fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::SeqCst)
    }
}

/// Spawns the acceptor thread `name`: a blocking `accept` loop handing
/// each stream to `on_stream` until `stop` is raised. Only the error
/// path sleeps (EMFILE and the like), backing off exponentially.
///
/// # Errors
///
/// The thread spawn failure.
pub fn accept_streams<F>(
    listener: TcpListener,
    name: &str,
    stop: AcceptStop,
    mut on_stream: F,
) -> io::Result<JoinHandle<()>>
where
    F: FnMut(TcpStream) + Send + 'static,
{
    thread::Builder::new()
        .name(name.to_string())
        .spawn(move || {
            let mut backoff = ACCEPT_BACKOFF.0;
            while !stop.is_stopped() {
                match listener.accept() {
                    Ok(_) if stop.is_stopped() => return, // the wake dial
                    Ok((stream, _)) => {
                        backoff = ACCEPT_BACKOFF.0;
                        on_stream(stream);
                    }
                    Err(_) => {
                        thread::sleep(backoff);
                        backoff = (backoff * 2).min(ACCEPT_BACKOFF.1);
                    }
                }
            }
        })
}

/// How a line server treats every client connection.
#[derive(Debug, Clone)]
pub struct LinePolicy {
    /// Longest accepted line, bytes: a longer one is answered
    /// `"bad line"` and the connection closed.
    pub max_line_bytes: usize,
    /// Read deadline: a client silent (or dripping slower than a line)
    /// this long is reaped — the slow-loris defence.
    pub read_timeout: Option<Duration>,
    /// Write deadline: a client that stops reading cannot pin a writer.
    pub write_timeout: Option<Duration>,
    /// Ticked per reaped connection.
    pub reaped: Counter,
    /// Ticked per `"bad line"`.
    pub bad_lines: Counter,
}

/// One connection's write half. Only its connection thread writes, one
/// whole line per `write_all`, so answers leave in request order.
#[derive(Debug)]
pub struct LineWriter(TcpStream);

impl LineWriter {
    /// Sends one line.
    ///
    /// # Errors
    ///
    /// The underlying write error (a closed peer, an expired deadline).
    pub fn send(&self, line: &str) -> io::Result<()> {
        send_line(&self.0, line)
    }
}

/// Starts a line server: an acceptor `{name}-accept` that sets nodelay
/// (Nagle plus delayed ACK would add ~40 ms per round trip) and the
/// policy's deadlines on each client, then serves it on a `{name}-conn`
/// thread with a fresh handler from `new_handler`. The handler sees each
/// non-blank line and answers it on the [`LineWriter`] before the next
/// line is read; returning `false` closes the connection.
///
/// # Errors
///
/// The acceptor spawn failure.
pub fn serve_lines<H, F>(
    listener: TcpListener,
    name: &str,
    policy: LinePolicy,
    stop: AcceptStop,
    mut new_handler: F,
) -> io::Result<JoinHandle<()>>
where
    H: FnMut(&str, &LineWriter) -> bool + Send + 'static,
    F: FnMut() -> H + Send + 'static,
{
    let conn_name = format!("{name}-conn");
    accept_streams(listener, &format!("{name}-accept"), stop, move |stream| {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(policy.read_timeout);
        let _ = stream.set_write_timeout(policy.write_timeout);
        let (policy, handler) = (policy.clone(), new_handler());
        let _ = thread::Builder::new()
            .name(conn_name.clone())
            .spawn(move || connection_loop(stream, &policy, handler));
    })
}

fn connection_loop<H>(stream: TcpStream, policy: &LinePolicy, mut handler: H)
where
    H: FnMut(&str, &LineWriter) -> bool,
{
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let out = LineWriter(writer);
    let mut reader = BufReader::new(stream);
    loop {
        match read_line_bounded(&mut reader, policy.max_line_bytes) {
            Ok(Some(line)) if line.trim().is_empty() => {}
            Ok(Some(line)) => {
                if !handler(&line, &out) {
                    return;
                }
            }
            Ok(None) => return, // clean EOF
            // Idle, half-open, or slow loris. The close *is* the signal:
            // writing into a stalled socket could block until the write
            // deadline.
            Err(e) if is_timeout(&e) => {
                policy.reaped.inc();
                return;
            }
            Err(_) => {
                policy.bad_lines.inc();
                let _ = out.send(&error_response(&Value::Null, "bad line"));
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, Cursor};

    #[test]
    fn bounded_read_splits_lines_and_reports_eof() {
        let mut input = Cursor::new(b"alpha\nbeta".to_vec());
        assert_eq!(
            read_line_bounded(&mut input, 64).unwrap(),
            Some("alpha".to_string())
        );
        assert_eq!(
            read_line_bounded(&mut input, 64).unwrap(),
            Some("beta".to_string())
        );
        assert_eq!(read_line_bounded(&mut input, 64).unwrap(), None);
    }

    #[test]
    fn bounded_read_enforces_the_cap() {
        let mut input = Cursor::new(vec![b'x'; 100]);
        let err = read_line_bounded(&mut input, 10).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    struct EchoServer {
        addr: SocketAddr,
        stop: AcceptStop,
        acceptor: Option<JoinHandle<()>>,
        policy: LinePolicy,
    }

    impl EchoServer {
        /// A line server that echoes each line back.
        fn start(bind: &str, read_timeout: Option<Duration>) -> EchoServer {
            let listener = TcpListener::bind(bind).unwrap();
            let addr = listener.local_addr().unwrap();
            let stop = AcceptStop::for_listener(&listener).unwrap();
            let policy = LinePolicy {
                max_line_bytes: 32,
                read_timeout,
                write_timeout: Some(Duration::from_secs(2)),
                reaped: Counter::detached(),
                bad_lines: Counter::detached(),
            };
            let echo = || |line: &str, out: &LineWriter| out.send(line).is_ok();
            let acceptor = serve_lines(listener, "wire-test", policy.clone(), stop.clone(), echo);
            EchoServer {
                addr,
                stop,
                acceptor: Some(acceptor.unwrap()),
                policy,
            }
        }

        fn client(&self) -> (TcpStream, BufReader<TcpStream>) {
            let loopback = SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), self.addr.port());
            let stream = TcpStream::connect(loopback).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let reader = BufReader::new(stream.try_clone().unwrap());
            (stream, reader)
        }
    }

    impl Drop for EchoServer {
        fn drop(&mut self) {
            self.stop.stop();
            if let Some(a) = self.acceptor.take() {
                let _ = a.join();
            }
        }
    }

    #[test]
    fn blank_lines_are_skipped() {
        let server = EchoServer::start("127.0.0.1:0", None);
        let (mut stream, mut reader) = server.client();
        stream.write_all(b"\n  \none\n\ntwo\n").unwrap();
        let mut got = String::new();
        reader.read_line(&mut got).unwrap();
        reader.read_line(&mut got).unwrap();
        assert_eq!(got, "one\ntwo\n");
    }

    #[test]
    fn an_over_cap_line_gets_one_bad_line_error_then_the_close() {
        let server = EchoServer::start("127.0.0.1:0", None);
        let (mut stream, mut reader) = server.client();
        // One write, so the server's buffered read takes every byte and
        // its close is a FIN, not a reset over unread data.
        let mut frame = vec![b'x'; 64];
        frame.extend_from_slice(b"\nafter\n");
        stream.write_all(&frame).unwrap();
        let mut rest = String::new();
        reader.read_to_string(&mut rest).unwrap();
        let lines: Vec<&str> = rest.lines().collect();
        assert_eq!(lines.len(), 1, "one error line, then EOF: {rest:?}");
        let error = crate::json::parse(lines[0]).unwrap();
        assert_eq!(error.get("error").and_then(Value::as_str), Some("bad line"));
        assert_eq!(server.policy.bad_lines.total(), 1);
    }

    #[test]
    fn an_idle_connection_is_reaped() {
        let server = EchoServer::start("127.0.0.1:0", Some(Duration::from_millis(100)));
        let (_stream, mut reader) = server.client();
        let mut rest = String::new();
        assert_eq!(reader.read_to_string(&mut rest).unwrap(), 0, "plain close");
        assert_eq!(server.policy.reaped.total(), 1);
    }

    #[test]
    fn stop_wakes_an_acceptor_blocked_on_an_unspecified_address() {
        let mut server = EchoServer::start("0.0.0.0:0", None);
        // One served connection proves the acceptor is up and back in
        // `accept` before the stop.
        let (mut stream, mut reader) = server.client();
        stream.write_all(b"ping\n").unwrap();
        let mut got = String::new();
        reader.read_line(&mut got).unwrap();
        assert_eq!(got, "ping\n");
        server.stop.stop();
        let acceptor = server.acceptor.take().unwrap();
        acceptor.join().unwrap(); // returns, not hangs
    }
}
