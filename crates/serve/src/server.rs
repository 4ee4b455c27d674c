//! The transport layer: an epoll event-loop TCP server and a stdio loop,
//! both speaking the JSON-lines protocol over a shared [`Scheduler`].
//!
//! One event-loop thread owns the listener and every client connection
//! (see [`crate::event_loop`] for the readiness model); there are no
//! per-connection threads to leak, and `stop()`/`shutdown` interrupt the
//! loop immediately through an eventfd waker instead of waiting out a
//! poll tick. Stopping drains: requests accepted before the stop still
//! get their responses, then [`ServerHandle::join`] checkpoints every
//! running job through the scheduler — the durable store is always left
//! in a resumable state.
//!
//! Both transports frame requests through the same capped
//! [`LineBuffer`](crate::conn), so a line that grows past
//! [`MAX_REQUEST_BYTES`](crate::protocol::MAX_REQUEST_BYTES) without a
//! newline is answered with a typed `request-too-large` error instead of
//! being buffered without bound.

use std::io::{self, BufRead, Write};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::conn::{Framed, LineBuffer};
use crate::event_loop::{self, ServeOptions};
use crate::json::Json;
use crate::protocol::{
    error_response, error_response_for, ok_response, Request, ServeError, ERR_REQUEST_TOO_LARGE,
    MAX_REQUEST_BYTES,
};
use crate::scheduler::Scheduler;
use crate::sys::Waker;

/// Dispatches one protocol line against the scheduler. Returns the
/// response and whether the line was a (successful) shutdown request.
pub(crate) fn handle_line(sched: &Scheduler, line: &str) -> (Json, bool) {
    let req = match Request::parse(line) {
        Ok(req) => req,
        Err(e) => return (error_response(&e), false),
    };
    let status_fields = |s: &crate::scheduler::JobStatus| match s.to_json() {
        Json::Obj(pairs) => pairs,
        _ => unreachable!("status is an object"),
    };
    let with_status = |r: Result<crate::scheduler::JobStatus, String>| -> (Json, bool) {
        match r {
            Ok(s) => {
                let extra: Vec<(String, Json)> = status_fields(&s);
                let mut pairs = vec![
                    ("v".to_owned(), Json::Int(crate::protocol::PROTOCOL_VERSION)),
                    ("ok".to_owned(), Json::Bool(true)),
                ];
                pairs.extend(extra);
                (Json::Obj(pairs), false)
            }
            Err(e) => (error_response(&e), false),
        }
    };
    match req {
        Request::Submit(spec) => match sched.submit(spec) {
            Ok(id) => (ok_response(vec![("job", Json::Int(id as i64))]), false),
            Err(e) => (error_response_for(&e), false),
        },
        Request::Status(Some(id)) => with_status(sched.status(id)),
        Request::Status(None) => {
            let jobs = sched.status_all().iter().map(|s| s.to_json()).collect();
            (ok_response(vec![("jobs", Json::Arr(jobs))]), false)
        }
        Request::Cancel(id) => with_status(sched.cancel(id)),
        Request::Pause(id) => with_status(sched.pause(id)),
        Request::Resume(id) => with_status(sched.resume(id)),
        Request::Inject { job, input } => match sched.inject(job, &input) {
            Ok(total) => (
                ok_response(vec![
                    ("job", Json::Int(job as i64)),
                    ("injections", Json::Int(total as i64)),
                ]),
                false,
            ),
            Err(e) => (error_response(&e), false),
        },
        Request::Report(id) => match sched.report(id) {
            Ok(report) => (
                ok_response(vec![("job", Json::Int(id as i64)), ("report", report)]),
                false,
            ),
            Err(e) => (error_response(&e), false),
        },
        Request::Stats => {
            let process = crate::stats::metrics_to_json(&cpr_obs::global().snapshot());
            (
                ok_response(vec![
                    ("stats_version", Json::Int(crate::stats::STATS_VERSION)),
                    ("process", process),
                    ("fleet", sched.fleet_stats()),
                    ("jobs", sched.job_stats()),
                ]),
                false,
            )
        }
        Request::Shutdown => (ok_response(vec![]), true),
    }
}

/// A running TCP server.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Arc<Waker>,
    event_thread: Option<JoinHandle<()>>,
    scheduler: Arc<Scheduler>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a stop without a client round trip (the programmatic
    /// equivalent of a `shutdown` request). The waker interrupts
    /// `epoll_wait` immediately; the event loop then drains in-flight
    /// connections before exiting.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
    }

    /// Waits for the event loop to drain and exit, then shuts the
    /// scheduler down (checkpointing running jobs).
    pub fn join(mut self) {
        if let Some(t) = self.event_thread.take() {
            let _ = t.join();
        }
        self.scheduler.shutdown();
    }
}

/// Binds `addr` and serves connections until a `shutdown` request (or
/// [`ServerHandle::stop`]) with default [`ServeOptions`]. One event-loop
/// thread multiplexes every connection; requests within a connection are
/// handled in order.
pub fn serve_tcp(addr: impl ToSocketAddrs, scheduler: Scheduler) -> io::Result<ServerHandle> {
    serve_tcp_with(addr, scheduler, ServeOptions::default())
}

/// [`serve_tcp`] with explicit transport options (connection bound, drain
/// windows).
pub fn serve_tcp_with(
    addr: impl ToSocketAddrs,
    scheduler: Scheduler,
    opts: ServeOptions,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let waker = Arc::new(Waker::new()?);
    let scheduler = Arc::new(scheduler);

    let loop_stop = Arc::clone(&stop);
    let loop_waker = Arc::clone(&waker);
    let loop_sched = Arc::clone(&scheduler);
    let event_thread = std::thread::spawn(move || {
        let _ = event_loop::run(listener, &loop_sched, &loop_stop, &loop_waker, &opts);
    });

    Ok(ServerHandle {
        addr,
        stop,
        waker,
        event_thread: Some(event_thread),
        scheduler,
    })
}

/// Serves the protocol over arbitrary line streams (the `--stdio` mode of
/// `cpr serve`): reads requests from `input` until EOF or a `shutdown`
/// request, writing one response line each to `output`. Returns whether a
/// shutdown was requested (as opposed to plain EOF).
///
/// Requests are framed through the same capped [`LineBuffer`] as TCP: a
/// line past [`MAX_REQUEST_BYTES`] draws a typed `request-too-large`
/// error, the rest of that line is discarded, and serving continues with
/// the next line (unlike TCP, which closes the connection — stdio has no
/// connection to close).
pub fn serve_lines(
    scheduler: &Scheduler,
    mut input: impl BufRead,
    mut output: impl Write,
) -> io::Result<bool> {
    let mut frames = LineBuffer::new();
    let respond = |line: &str, output: &mut dyn Write| -> io::Result<Option<bool>> {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return Ok(None);
        }
        let (response, shutdown) = handle_line(scheduler, trimmed);
        let mut out = response.to_line();
        out.push('\n');
        output.write_all(out.as_bytes())?;
        output.flush()?;
        Ok(Some(shutdown))
    };
    loop {
        let chunk = input.fill_buf()?;
        let eof = chunk.is_empty();
        let n = chunk.len();
        frames.push(chunk);
        input.consume(n);
        while let Some(frame) = frames.next() {
            match frame {
                Framed::Line(line) => {
                    if respond(&line, &mut output)? == Some(true) {
                        return Ok(true);
                    }
                }
                Framed::TooLarge => {
                    let err = ServeError::coded(
                        ERR_REQUEST_TOO_LARGE,
                        format!("request line exceeds {MAX_REQUEST_BYTES} bytes"),
                    );
                    let mut out = error_response_for(&err).to_line();
                    out.push('\n');
                    output.write_all(out.as_bytes())?;
                    output.flush()?;
                }
            }
        }
        if eof {
            // A final request without a trailing newline still counts, as
            // `BufRead::lines` always treated it.
            if let Some(line) = frames.take_partial() {
                if respond(&line, &mut output)? == Some(true) {
                    return Ok(true);
                }
            }
            return Ok(false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::SnapshotStore;
    use std::io::{BufReader, Read as _};
    use std::time::Duration;

    fn temp_scheduler(tag: &str) -> Scheduler {
        let dir =
            std::env::temp_dir().join(format!("cpr_serve_server_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scheduler::new(1, SnapshotStore::open(dir).unwrap())
    }

    #[test]
    fn handle_line_maps_protocol_errors_to_responses() {
        let sched = temp_scheduler("errors");
        for bad in ["nope", "{\"v\":1}", "{\"v\":9,\"cmd\":\"status\"}"] {
            let (resp, shutdown) = handle_line(&sched, bad);
            assert_eq!(resp.get("ok").unwrap().as_bool(), Some(false), "{bad}");
            assert!(!shutdown);
        }
        let (resp, _) = handle_line(&sched, r#"{"v":1,"cmd":"report","job":42}"#);
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(false));
        sched.shutdown();
    }

    #[test]
    fn tcp_request_straddling_read_timeouts_is_not_corrupted() {
        let handle = serve_tcp("127.0.0.1:0", temp_scheduler("straddle")).unwrap();
        let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
        // Send one request in two segments with a long gap, so the server
        // sees a partial line on one readiness edge and the rest on a
        // later one — the frame must reassemble across edges.
        let request = b"{\"v\":1,\"cmd\":\"status\"}\n";
        stream.write_all(&request[..9]).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(600));
        stream.write_all(&request[9..]).unwrap();
        stream.flush().unwrap();

        let mut reply = String::new();
        BufReader::new(&stream).read_line(&mut reply).unwrap();
        assert!(reply.contains("\"ok\":true"), "got: {reply}");
        assert!(reply.contains("\"jobs\":[]"), "got: {reply}");

        handle.stop();
        handle.join();
    }

    #[test]
    fn a_response_in_flight_at_stop_is_still_delivered() {
        // Regression for the detached-connection-thread bug: a request
        // whose bytes arrive at the instant of `stop()` must still be
        // answered before the server exits — the drain phase keeps
        // serving accepted connections instead of abandoning them.
        let handle = serve_tcp("127.0.0.1:0", temp_scheduler("inflight")).unwrap();
        let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
        stream.write_all(b"{\"v\":1,\"cmd\":\"status\"}\n").unwrap();
        stream.flush().unwrap();
        // Stop immediately — with high probability the request is still
        // in flight (unread, possibly still in kernel buffers).
        handle.stop();

        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reply = String::new();
        BufReader::new(&stream).read_line(&mut reply).unwrap();
        assert!(
            reply.contains("\"ok\":true") && reply.contains("\"jobs\":[]"),
            "in-flight request lost at shutdown; got: {reply:?}"
        );
        handle.join();
    }

    #[test]
    fn an_oversized_tcp_request_draws_a_typed_error_and_a_close() {
        let handle = serve_tcp("127.0.0.1:0", temp_scheduler("toolarge")).unwrap();
        let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // A "request" that never terminates: the cap must end it, not RAM.
        let blob = vec![b'x'; MAX_REQUEST_BYTES + 4096];
        stream.write_all(&blob).unwrap();
        stream.flush().unwrap();

        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(reply.contains("\"ok\":false"), "got: {reply}");
        assert!(
            reply.contains(&format!("\"code\":\"{ERR_REQUEST_TOO_LARGE}\"")),
            "expected typed code, got: {reply}"
        );
        // The server hangs up on the offender after responding.
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "connection should be closed");

        handle.stop();
        handle.join();
    }

    #[test]
    fn connections_past_the_admission_bound_are_bounced_with_overloaded() {
        let sched = temp_scheduler("connbound");
        let handle = serve_tcp_with(
            "127.0.0.1:0",
            sched,
            ServeOptions {
                max_connections: 1,
                ..ServeOptions::default()
            },
        )
        .unwrap();
        // First connection is admitted and must keep working even while
        // later ones are bounced.
        let mut admitted = std::net::TcpStream::connect(handle.addr()).unwrap();
        admitted
            .write_all(b"{\"v\":1,\"cmd\":\"status\"}\n")
            .unwrap();
        let mut reply = String::new();
        let mut admitted_reader = BufReader::new(admitted.try_clone().unwrap());
        admitted_reader.read_line(&mut reply).unwrap();
        assert!(reply.contains("\"ok\":true"), "got: {reply}");

        let bounced = std::net::TcpStream::connect(handle.addr()).unwrap();
        bounced
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut goodbye = String::new();
        BufReader::new(&bounced).read_line(&mut goodbye).unwrap();
        assert!(
            goodbye.contains("\"code\":\"overloaded\""),
            "expected typed overloaded bounce, got: {goodbye:?}"
        );

        // The admitted connection is unaffected.
        reply.clear();
        admitted
            .write_all(b"{\"v\":1,\"cmd\":\"status\"}\n")
            .unwrap();
        admitted_reader.read_line(&mut reply).unwrap();
        assert!(reply.contains("\"ok\":true"), "got: {reply}");

        handle.stop();
        handle.join();
    }

    #[test]
    fn serve_lines_answers_status_and_stops_on_shutdown() {
        let sched = temp_scheduler("stdio");
        let input = "\n{\"v\":1,\"cmd\":\"status\"}\n{\"v\":1,\"cmd\":\"shutdown\"}\n\
                     {\"v\":1,\"cmd\":\"status\"}\n";
        let mut out = Vec::new();
        let shutdown = serve_lines(&sched, input.as_bytes(), &mut out).unwrap();
        assert!(shutdown);
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        // Blank line skipped; the trailing status after shutdown is never
        // read.
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"jobs\":[]"));
        assert!(lines[1].contains("\"ok\":true"));
        sched.shutdown();
    }

    #[test]
    fn serve_lines_caps_oversized_requests_and_keeps_serving() {
        let sched = temp_scheduler("stdiocap");
        let mut input = vec![b'x'; MAX_REQUEST_BYTES + 4096];
        input.push(b'\n');
        input.extend_from_slice(b"{\"v\":1,\"cmd\":\"status\"}\n");
        let mut out = Vec::new();
        let shutdown = serve_lines(&sched, &input[..], &mut out).unwrap();
        assert!(!shutdown);
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].contains(&format!("\"code\":\"{ERR_REQUEST_TOO_LARGE}\"")),
            "got: {}",
            lines[0]
        );
        // Unlike TCP there is no connection to close: the next request on
        // the stream is served normally.
        assert!(lines[1].contains("\"jobs\":[]"), "got: {}", lines[1]);
        sched.shutdown();
    }
}
