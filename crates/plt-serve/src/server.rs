//! TCP server: binds the listener and starts the serving loop.
//!
//! On Linux that loop is always the epoll [`reactor`](crate::reactor):
//! one dispatching acceptor plus a fixed set of reactor threads. Targets
//! without epoll get a blocking fallback chosen at build time — one
//! acceptor thread and one handler thread per connection. Both go
//! through `dispatch_request`, so a request gets the same bytes back
//! whichever loop serves it.
//!
//! Robustness knobs (all in [`ServerConfig`]): per-connection read and
//! write deadlines (a stalled peer is timed out, counted, and dropped),
//! a max-frame limit enforced before allocation, and a connection cap —
//! past it, new connections get an error frame and are refused rather
//! than queueing unboundedly. A [`FaultPlan`] wired into the config
//! injects deterministic faults into the server's own reads and writes
//! for chaos testing.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::builder::IngestQueue;
use crate::engine::Engine;
use crate::fault::FaultPlan;
use crate::json::Json;
use crate::proto::{negotiate_version, Request, Response, MAX_FRAME_BYTES};
use crate::reader_pool::ReaderCache;
use crate::snapshot::Snapshot;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Reactor threads. Defaults to available parallelism, capped at 8.
    /// The non-Linux fallback has no reactors and ignores it.
    pub reactors: usize,
    /// Accepted-but-unregistered sockets queued per reactor; past it the
    /// acceptor sheds. Ignored by the non-Linux fallback.
    pub accept_backlog: usize,
    /// Per-connection read deadline. A peer that sends nothing for this
    /// long is timed out and dropped. `None` blocks forever.
    pub read_deadline: Option<Duration>,
    /// Per-connection write deadline. A peer that stops draining its
    /// socket for this long is timed out and dropped. `None` blocks
    /// forever.
    pub write_deadline: Option<Duration>,
    /// Largest accepted frame, checked before allocation.
    pub max_frame: usize,
    /// Concurrent-connection cap; connections past it are answered with
    /// an error frame and refused (backpressure, not an unbounded queue).
    pub max_connections: usize,
    /// Deterministic fault injection for the server's own I/O. `None` in
    /// production.
    pub fault: Option<Arc<FaultPlan>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ServerConfig {
            reactors: cores.min(8),
            accept_backlog: 256,
            read_deadline: Some(Duration::from_secs(30)),
            write_deadline: Some(Duration::from_secs(10)),
            max_frame: MAX_FRAME_BYTES,
            max_connections: 1024,
            fault: None,
        }
    }
}

/// A running server. Stop it with [`shutdown`](Self::shutdown) or by
/// sending the protocol `shutdown` request; either way
/// [`join`](Self::join) returns once the serving threads have exited.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    /// Extra wakeups fired on shutdown (reactor eventfds); the dial in
    /// [`wake_acceptor`] covers the acceptor parked in `accept`.
    wake_fns: Vec<Box<dyn Fn() + Send + Sync>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl ServerHandle {
    pub(crate) fn from_parts(
        addr: SocketAddr,
        stop: Arc<AtomicBool>,
        threads: Vec<JoinHandle<()>>,
        wake_fns: Vec<Box<dyn Fn() + Send + Sync>>,
    ) -> ServerHandle {
        ServerHandle {
            addr,
            stop,
            threads,
            wake_fns,
        }
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown and waits for the server threads.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for wake in &self.wake_fns {
            wake();
        }
        wake_acceptor(self.addr);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Blocks until the server stops (e.g. a client sent `shutdown`).
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Binds `addr` (use port 0 for an ephemeral port) and starts serving
/// `engine`. `ingest` wires the `INGEST` endpoint to a snapshot
/// builder; without it, ingest requests are answered with an error.
pub fn serve(
    addr: &str,
    engine: Arc<Engine>,
    ingest: Option<IngestQueue>,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    #[cfg(target_os = "linux")]
    return crate::reactor::serve_reactor(listener, engine, ingest, config, addr);
    #[cfg(not(target_os = "linux"))]
    return blocking::serve_blocking(listener, engine, ingest, config, addr);
}

/// What a dispatched request wants the serving loop to do. Shared by
/// the reactor and the blocking fallback so their observable behavior
/// cannot drift.
pub(crate) enum Dispatch {
    /// Write this response and keep serving.
    Respond(Response),
    /// Write this response, then stop the whole server.
    ShutdownRequested(Response),
    /// An `ingest {wait: true}` was submitted with its ack; run the
    /// blocking [`await_ingest`] (on a waiter thread for the reactor,
    /// inline for the fallback) and answer with its reply.
    AwaitIngest { accepted: u64, ack: Receiver<u64> },
}

/// Parses and dispatches one request payload. Everything except the
/// ingest ack wait and the stop-flag plumbing happens here. `reader`, when
/// given, pins snapshots through a per-worker cache (the reactor's
/// lock-free path). `version` is the connection's negotiated envelope
/// version, which a `hello` updates; the caller renders the returned
/// [`Response`] in it.
pub(crate) fn dispatch_request(
    payload: &str,
    engine: &Engine,
    ingest: Option<&IngestQueue>,
    reader: Option<&mut ReaderCache<Snapshot>>,
    version: &mut u64,
) -> Dispatch {
    let request = match Json::parse(payload)
        .map_err(|e| e.to_string())
        .and_then(|v| Request::from_json(&v))
    {
        Ok(request) => request,
        Err(e) => {
            engine
                .metrics()
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            return Dispatch::Respond(Response::err(e));
        }
    };
    match request {
        Request::Shutdown => Dispatch::ShutdownRequested(engine.respond(&request, reader)),
        Request::Hello { version: requested } => {
            // Negotiate first: the acknowledgement already arrives in
            // the newly agreed envelope.
            *version = negotiate_version(requested);
            Dispatch::Respond(engine.respond(&request, reader))
        }
        Request::Ingest { transactions, wait } => match ingest {
            None => Dispatch::Respond(Response::err("this server has no ingest pipeline")),
            Some(queue) => {
                let accepted = transactions.len() as u64;
                let exited = || Dispatch::Respond(Response::err("snapshot builder has exited"));
                if wait {
                    match queue.ingest_acked(transactions) {
                        Some(ack) => Dispatch::AwaitIngest { accepted, ack },
                        None => exited(),
                    }
                } else if queue.ingest(transactions) {
                    Dispatch::Respond(Response::ok(&[("accepted", Json::from(accepted))]))
                } else {
                    exited()
                }
            }
        },
        request => Dispatch::Respond(engine.respond(&request, reader)),
    }
}

/// Waits for the builder's ack of an `ingest {wait: true}`; the reply is
/// `accepted` plus the first generation that holds the batch.
pub(crate) fn await_ingest(engine: &Engine, accepted: u64, ack: Receiver<u64>) -> Response {
    match ack.recv() {
        Ok(generation) => {
            Response::ok(&[("accepted", Json::from(accepted))]).at(generation, engine.is_stale())
        }
        Err(_) => Response::err("snapshot builder has exited"),
    }
}

/// Unblocks the acceptor thread parked in `accept` by dialing the
/// listener once. Best effort: the acceptor re-checks the stop flag
/// after every accept.
pub(crate) fn wake_acceptor(addr: SocketAddr) {
    let _ = TcpStream::connect(addr);
}

/// Blocking fallback for targets without epoll: one acceptor thread and
/// one handler thread per connection. The build target selects it; no
/// option does.
#[cfg(not(target_os = "linux"))]
mod blocking {
    use std::io::{BufReader, BufWriter, Read, Write};
    use std::net::{SocketAddr, TcpListener, TcpStream};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    use super::{
        await_ingest, dispatch_request, wake_acceptor, Dispatch, ServerConfig, ServerHandle,
    };
    use crate::builder::IngestQueue;
    use crate::engine::Engine;
    use crate::fault::{FaultyStream, Site};
    use crate::proto::{read_frame_limited, write_frame, write_frame_with, Response};

    pub(super) fn serve_blocking(
        listener: TcpListener,
        engine: Arc<Engine>,
        ingest: Option<IngestQueue>,
        config: ServerConfig,
        addr: SocketAddr,
    ) -> std::io::Result<ServerHandle> {
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = std::thread::Builder::new()
            .name("plt-serve-acceptor".into())
            .spawn({
                let stop = stop.clone();
                move || accept_loop(listener, engine, ingest, stop, config, addr)
            })?;
        Ok(ServerHandle::from_parts(
            addr,
            stop,
            vec![acceptor],
            Vec::new(),
        ))
    }

    /// Decrements the active-connection count when a handler exits,
    /// however it exits.
    struct ConnectionPermit(Arc<AtomicUsize>);

    impl Drop for ConnectionPermit {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }

    fn accept_loop(
        listener: TcpListener,
        engine: Arc<Engine>,
        ingest: Option<IngestQueue>,
        stop: Arc<AtomicBool>,
        config: ServerConfig,
        addr: SocketAddr,
    ) {
        let active = Arc::new(AtomicUsize::new(0));
        while !stop.load(Ordering::SeqCst) {
            // Accept errors are transient (EMFILE, aborted handshakes).
            let Ok((stream, _peer)) = listener.accept() else {
                continue;
            };
            if stop.load(Ordering::SeqCst) {
                break;
            }
            if active.fetch_add(1, Ordering::SeqCst) >= config.max_connections {
                // At capacity: say so and refuse, rather than letting
                // the backlog grow without bound.
                active.fetch_sub(1, Ordering::SeqCst);
                engine
                    .metrics()
                    .rejected_connections
                    .fetch_add(1, Ordering::Relaxed);
                let _ = write_frame(
                    &mut BufWriter::new(stream),
                    &Response::err("shed: server at connection capacity").render(1),
                );
                continue;
            }
            let permit = ConnectionPermit(active.clone());
            let (engine, ingest, stop, config) =
                (engine.clone(), ingest.clone(), stop.clone(), config.clone());
            let _ = std::thread::Builder::new()
                .name("plt-serve-conn".into())
                .spawn(move || {
                    let _permit = permit;
                    if handle_connection(stream, &engine, ingest.as_ref(), &config) {
                        stop.store(true, Ordering::SeqCst);
                        wake_acceptor(addr);
                    }
                });
        }
    }

    /// Is this I/O error a blown read/write deadline?
    fn is_timeout(e: &std::io::Error) -> bool {
        matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        )
    }

    /// Serves one connection until it closes; `true` when the peer asked
    /// the whole server to shut down.
    fn handle_connection(
        stream: TcpStream,
        engine: &Engine,
        ingest: Option<&IngestQueue>,
        config: &ServerConfig,
    ) -> bool {
        // Deadlines turn a stalled peer into an I/O error on this thread
        // instead of an eternally parked handler.
        if stream.set_read_timeout(config.read_deadline).is_err()
            || stream.set_write_timeout(config.write_deadline).is_err()
        {
            return false;
        }
        let Ok(read_stream) = stream.try_clone() else {
            return false;
        };
        let (read_half, write_half): (Box<dyn Read>, Box<dyn Write>) = match &config.fault {
            Some(plan) => (
                Box::new(FaultyStream::new(
                    read_stream,
                    plan.clone(),
                    Site::ServerRead,
                )),
                Box::new(FaultyStream::new(stream, plan.clone(), Site::ServerWrite)),
            ),
            None => (Box::new(read_stream), Box::new(stream)),
        };
        let mut reader = BufReader::new(read_half);
        let mut writer = BufWriter::new(write_half);
        let frame_fault = config
            .fault
            .as_deref()
            .map(|plan| (plan, Site::ServerWrite));
        let mut version = 1u64;
        loop {
            let payload = match read_frame_limited(&mut reader, config.max_frame) {
                Ok(Some(p)) => p,
                Ok(None) => return false,
                Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                    // Tell the peer what was wrong with the frame, then
                    // drop the connection — framing is unrecoverable.
                    engine
                        .metrics()
                        .protocol_errors
                        .fetch_add(1, Ordering::Relaxed);
                    let _ = write_frame_with(
                        &mut writer,
                        &Response::err(e.to_string()).render(version),
                        frame_fault,
                    );
                    return false;
                }
                Err(e) => {
                    if is_timeout(&e) {
                        engine.metrics().timeouts.fetch_add(1, Ordering::Relaxed);
                    }
                    return false;
                }
            };
            let response = match dispatch_request(&payload, engine, ingest, None, &mut version) {
                Dispatch::Respond(response) => response,
                Dispatch::ShutdownRequested(response) => {
                    let _ = write_frame_with(&mut writer, &response.render(version), frame_fault);
                    return true;
                }
                Dispatch::AwaitIngest { accepted, ack } => await_ingest(engine, accepted, ack),
            };
            if let Err(e) = write_frame_with(&mut writer, &response.render(version), frame_fault) {
                if is_timeout(&e) {
                    engine.metrics().timeouts.fetch_add(1, Ordering::Relaxed);
                }
                return false;
            }
        }
    }
}
