//! The epoll serving tier's transport: one event-loop thread
//! drives the listener and every client connection through edge-triggered
//! readiness, replacing the polled accept loop and thread-per-connection
//! readers of the original server.
//!
//! # Readiness model
//!
//! Everything is registered edge-triggered (`EPOLLET`), so each wakeup
//! must exhaust its descriptor: accepts loop to `WouldBlock`, reads drain
//! the socket into the connection's [`LineBuffer`](crate::conn), writes
//! flush until the kernel pushes back. Write interest is registered only
//! while a connection has unflushed output. A nonblocking `eventfd` rides
//! in the same epoll set as a wakeup channel: `ServerHandle::stop` and
//! the `shutdown` verb interrupt `epoll_wait` immediately instead of
//! waiting out a timeout tick — when idle, the loop blocks indefinitely
//! and costs nothing.
//!
//! # Fault containment
//!
//! A failed accept must never kill the server (the old loop exited on any
//! non-`WouldBlock` error, so one transient `EMFILE` burst was fatal).
//! [`accept_error_disposition`] classifies errors into retry-now
//! (connection-level: the aborted connection is simply gone) and
//! backoff-then-retry (resource exhaustion: give the kernel a breath);
//! there is no fatal class.
//!
//! # Admission control
//!
//! Accepted connections are bounded ([`ServeOptions::max_connections`]);
//! past the bound a connection is answered with one typed `overloaded`
//! error line and closed, which clients can tell apart from a crash. The
//! job-queue bound lives in the scheduler for the same reason.
//!
//! # Drain state machine
//!
//! `running → draining → closed`. Entering drain (stop flag, `shutdown`
//! verb, or handle drop) deregisters the listener so nothing new is
//! accepted, then keeps serving: requests already accepted — including
//! bytes still in kernel buffers — are read, handled, and their responses
//! flushed. The loop exits when no connection has pending work and a
//! quiet window passes with no events (covering the instant between a
//! client's `write` and the bytes reaching our socket), or at a hard
//! deadline. Scheduler shutdown (checkpointing running jobs) happens
//! after, in `ServerHandle::join`, exactly as before.

use std::collections::BTreeMap;
use std::io;
use std::net::TcpListener;
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cpr_obs::{Counter, Gauge};

use crate::conn::{Conn, Framed, ReadStatus};
use crate::protocol::{error_response_for, ServeError, ERR_OVERLOADED, ERR_REQUEST_TOO_LARGE};
use crate::scheduler::Scheduler;
use crate::server::handle_line;
use crate::sys::{Epoll, Event, Interest, Waker};

/// Transport knobs for [`crate::serve_tcp_with`]. The defaults suit the
/// loopback tests and a small fleet; a front-line deployment raises
/// `max_connections`.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bounded admission: connections accepted past this are answered
    /// with a typed `overloaded` error and closed.
    pub max_connections: usize,
    /// Drain quiet window: after a stop request, the loop keeps serving
    /// until no connection has pending work *and* this long passes with
    /// no readiness events, so requests in flight at the instant of the
    /// stop still get their responses.
    pub drain_grace: Duration,
    /// Hard ceiling on the whole drain phase.
    pub drain_deadline: Duration,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            max_connections: 1024,
            drain_grace: Duration::from_millis(75),
            drain_deadline: Duration::from_secs(5),
        }
    }
}

/// How the accept loop should react to a failed `accept`. There is no
/// fatal variant by design: the listener itself does not become invalid
/// from any error `accept` reports at runtime, and a serving tier that
/// exits its accept loop on a transient condition is down forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AcceptDisposition {
    /// Retry immediately: the error concerned the aborted connection, not
    /// the listener (`ECONNABORTED`, `EINTR`, ...).
    Continue,
    /// Back off briefly before retrying: resource exhaustion (`EMFILE`,
    /// `ENFILE`, `ENOBUFS`, `ENOMEM`) needs the kernel or the process to
    /// free something first; hot-looping would burn the CPU the recovery
    /// needs.
    Backoff,
}

pub(crate) fn accept_error_disposition(e: &io::Error) -> AcceptDisposition {
    match e.kind() {
        io::ErrorKind::ConnectionAborted
        | io::ErrorKind::ConnectionReset
        | io::ErrorKind::Interrupted => AcceptDisposition::Continue,
        _ => AcceptDisposition::Backoff,
    }
}

/// Epoll tokens for the two non-connection descriptors; connections use
/// their fd (always < 2^31) as token.
const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKER: u64 = u64::MAX - 1;

struct LoopObs {
    accepted: Counter,
    accept_errors: Counter,
    accept_overloaded: Counter,
    request_too_large: Counter,
    conn_open: Gauge,
}

impl LoopObs {
    fn new() -> LoopObs {
        let reg = cpr_obs::global();
        LoopObs {
            accepted: reg.counter("serve.accept.accepted"),
            accept_errors: reg.counter("serve.accept.errors"),
            accept_overloaded: reg.counter("serve.accept.overloaded"),
            request_too_large: reg.counter("serve.conn.request_too_large"),
            conn_open: reg.gauge("serve.conn.open"),
        }
    }
}

/// The event loop proper. Runs on its own thread until a stop request
/// drains cleanly; returns only then.
pub(crate) fn run(
    listener: TcpListener,
    scheduler: &Arc<Scheduler>,
    stop: &AtomicBool,
    waker: &Waker,
    opts: &ServeOptions,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let epoll = Epoll::new()?;
    let read_only = Interest {
        readable: true,
        writable: false,
    };
    epoll.add(listener.as_raw_fd(), TOKEN_LISTENER, read_only)?;
    epoll.add(waker.fd(), TOKEN_WAKER, read_only)?;

    let obs = LoopObs::new();
    let mut conns: BTreeMap<RawFd, Conn> = BTreeMap::new();
    let mut events: Vec<Event> = Vec::new();
    let mut draining = false;
    let mut drain_started = Instant::now();
    let mut last_event = Instant::now();

    loop {
        events.clear();
        // Idle costs nothing: block until readiness. While draining, tick
        // so the quiet-window check runs even with no events at all.
        let timeout_ms = if draining { 20 } else { -1 };
        let n = epoll.wait(&mut events, timeout_ms)?;
        if n > 0 {
            last_event = Instant::now();
        }

        for &ev in &events {
            match ev.token {
                TOKEN_WAKER => {
                    waker.drain();
                    // The flag, not the wake, is the signal (drop-time
                    // wakes race flag stores); checked below.
                }
                TOKEN_LISTENER => {
                    if !draining {
                        accept_ready(&listener, &epoll, &mut conns, opts, &obs);
                    }
                }
                token => {
                    let fd = token as RawFd;
                    let closed = conns
                        .get_mut(&fd)
                        .map(|conn| service_conn(conn, ev, scheduler, stop, &obs))
                        .unwrap_or(false);
                    if closed {
                        close_conn(&epoll, &mut conns, fd, &obs);
                    } else if let Some(conn) = conns.get(&fd) {
                        update_interest(&epoll, conn, token);
                    }
                }
            }
        }

        if stop.load(Ordering::SeqCst) && !draining {
            draining = true;
            drain_started = Instant::now();
            last_event = Instant::now();
            // Stop accepting; everything already accepted drains below.
            let _ = epoll.delete(listener.as_raw_fd());
        }

        if draining {
            let pending = conns.values().any(Conn::has_pending);
            let quiet = last_event.elapsed() >= opts.drain_grace;
            let expired = drain_started.elapsed() >= opts.drain_deadline;
            if (!pending && quiet) || expired {
                break;
            }
        }
    }

    // Final teardown: a last best-effort flush, then close everything.
    let fds: Vec<RawFd> = conns.keys().copied().collect();
    for fd in fds {
        if let Some(conn) = conns.get_mut(&fd) {
            let _ = conn.flush();
        }
        close_conn(&epoll, &mut conns, fd, &obs);
    }
    Ok(())
}

/// Exhausts one accept-readiness edge: accept to `WouldBlock`, admitting
/// each connection or bouncing it with a typed `overloaded` line.
fn accept_ready(
    listener: &TcpListener,
    epoll: &Epoll,
    conns: &mut BTreeMap<RawFd, Conn>,
    opts: &ServeOptions,
    obs: &LoopObs,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if conns.len() >= opts.max_connections {
                    obs.accept_overloaded.inc();
                    bounce_overloaded(stream, opts.max_connections);
                    continue;
                }
                let Ok(conn) = Conn::new(stream) else {
                    obs.accept_errors.inc();
                    continue;
                };
                let fd = conn.stream().as_raw_fd();
                if epoll
                    .add(
                        fd,
                        fd as u64,
                        Interest {
                            readable: true,
                            writable: false,
                        },
                    )
                    .is_err()
                {
                    obs.accept_errors.inc();
                    continue;
                }
                conns.insert(fd, conn);
                obs.accepted.inc();
                obs.conn_open.set(conns.len() as i64);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) => {
                // The satellite bugfix: the old loop did `Err(_) => break`
                // here, so one transient EMFILE/ECONNABORTED killed the
                // whole server. Classify, optionally breathe, never exit.
                obs.accept_errors.inc();
                match accept_error_disposition(&e) {
                    AcceptDisposition::Continue => {}
                    AcceptDisposition::Backoff => {
                        std::thread::sleep(Duration::from_millis(10));
                        return; // re-armed by the next readiness edge or event
                    }
                }
            }
        }
    }
}

/// Best-effort `overloaded` goodbye for a connection bounced at the
/// admission bound. The socket is fresh, so its send buffer is empty and
/// a nonblocking write of one short line virtually always lands whole.
fn bounce_overloaded(stream: std::net::TcpStream, limit: usize) {
    let _ = stream.set_nonblocking(true);
    let err = ServeError::coded(
        ERR_OVERLOADED,
        format!("server at its connection limit ({limit}); retry later"),
    );
    let mut line = error_response_for(&err).to_line();
    line.push('\n');
    let _ = io::Write::write(&mut (&stream), line.as_bytes());
}

/// Services one readiness event on a connection. Returns `true` when the
/// connection should be closed now.
fn service_conn(
    conn: &mut Conn,
    ev: Event,
    scheduler: &Arc<Scheduler>,
    stop: &AtomicBool,
    obs: &LoopObs,
) -> bool {
    if ev.readable || ev.hangup {
        match conn.fill() {
            Ok(ReadStatus::Open) => {}
            Ok(ReadStatus::Eof) => {
                // Process what was received, flush, then close: a client
                // that writes a request and shuts down its send side still
                // gets its response.
                conn.close_after_flush = true;
            }
            Err(_) => return true,
        }
        while let Some(frame) = conn.next_frame() {
            match frame {
                Framed::Line(line) => {
                    let trimmed = line.trim();
                    if trimmed.is_empty() {
                        continue;
                    }
                    let (response, shutdown) = handle_line(scheduler, trimmed);
                    conn.queue_line(&response.to_line());
                    if shutdown {
                        stop.store(true, Ordering::SeqCst);
                    }
                }
                Framed::TooLarge => {
                    obs.request_too_large.inc();
                    let err = ServeError::coded(
                        ERR_REQUEST_TOO_LARGE,
                        format!(
                            "request line exceeds {} bytes",
                            crate::protocol::MAX_REQUEST_BYTES
                        ),
                    );
                    conn.queue_line(&error_response_for(&err).to_line());
                    // Close once the error is delivered: a peer that sent
                    // an unbounded line does not get to keep the stream.
                    conn.close_after_flush = true;
                }
            }
        }
    }
    // Flush on a write-readiness edge (the kernel just made room) or when
    // the handlers above queued fresh output.
    let flushed = if ev.writable || conn.wants_write() {
        match conn.flush() {
            Ok(done) => done,
            Err(_) => return true,
        }
    } else {
        true // nothing queued, nothing to do
    };
    flushed && (conn.close_after_flush || (ev.hangup && !conn.has_pending()))
}

fn update_interest(epoll: &Epoll, conn: &Conn, token: u64) {
    let _ = epoll.modify(
        conn.stream().as_raw_fd(),
        token,
        Interest {
            readable: true,
            writable: conn.wants_write(),
        },
    );
}

fn close_conn(epoll: &Epoll, conns: &mut BTreeMap<RawFd, Conn>, fd: RawFd, obs: &LoopObs) {
    if let Some(conn) = conns.remove(&fd) {
        let _ = epoll.delete(conn.stream().as_raw_fd());
        obs.conn_open.set(conns.len() as i64);
        // The TcpStream closes on drop.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EMFILE: i32 = 24;
    const ENFILE: i32 = 23;
    const ECONNABORTED: i32 = 103;
    const ENOBUFS: i32 = 105;

    #[test]
    fn transient_accept_errors_are_never_fatal() {
        // The exact failure that used to kill the server: per-connection
        // aborts retry immediately, descriptor exhaustion backs off — and
        // no error at all maps to "exit the accept loop".
        assert_eq!(
            accept_error_disposition(&io::Error::from_raw_os_error(ECONNABORTED)),
            AcceptDisposition::Continue
        );
        assert_eq!(
            accept_error_disposition(&io::Error::from(io::ErrorKind::Interrupted)),
            AcceptDisposition::Continue
        );
        for errno in [EMFILE, ENFILE, ENOBUFS] {
            assert_eq!(
                accept_error_disposition(&io::Error::from_raw_os_error(errno)),
                AcceptDisposition::Backoff,
                "errno {errno}"
            );
        }
        // Anything unanticipated also retries (with backoff) rather than
        // exiting: the disposition type has no fatal variant to return.
        assert_eq!(
            accept_error_disposition(&io::Error::other("novel failure")),
            AcceptDisposition::Backoff
        );
    }
}
