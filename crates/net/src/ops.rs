//! The ops plane over sockets: [`ControlClient`] multiplexes
//! correlation-keyed control operations (status, metrics, counter
//! reports, admin commands) over one connection, and [`OpsServer`] is the
//! deployment-level listener executing admin verbs against a live
//! [`NetKv`].
//!
//! Two server roles answer control frames:
//!
//! * every [`crate::ObjectServer`] answers status/metrics/report frames
//!   **in-band** on its data listener (see `server.rs`) — so `rastor
//!   status` can ask a shard "who do you host?" on the same port clients
//!   use, even mid-workload;
//! * the [`OpsServer`] is a *separate* listener owning the deployment
//!   handle, because admin verbs (restart an object from disk, toggle a
//!   partition) act on durability configs and chaos proxies no single
//!   object server knows about.
//!
//! Every control op is identified by a client-chosen `u64` correlation id
//! echoed in the reply (see [`crate::wire`]); the client keeps a pending
//! map keyed by corr, so many threads can share one [`ControlClient`] and
//! replies — including [`Frame::VersionMismatch`] refusals, which echo
//! the refused frame's corr — always find the op that asked.

use crate::deploy::NetKv;
use crate::reactor::{ConnHandle, Events, Reactor};
use crate::wire::{self, AdminCmd, Frame, ObjectStatus};
use rastor_common::{Error, ObjectId, Result};
use rastor_obs::Registry;
use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// The outcome of an admin command: whether it succeeded, plus
/// human-readable detail (an error message when `!ok`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AdminOutcome {
    /// Whether the command succeeded.
    pub ok: bool,
    /// Detail for the operator.
    pub detail: String,
}

type Pending = Mutex<HashMap<u64, Sender<Frame>>>;

/// A multiplexing client for the control plane of one server (an
/// [`crate::ObjectServer`] for status/metrics/report, an [`OpsServer`]
/// for admin commands — both speak the same frames).
///
/// Concurrent calls from many threads share the single connection: each
/// call mints a fresh correlation id, registers itself in the pending
/// map, and blocks until the reader thread routes the echoing reply back
/// to it. A [`Frame::VersionMismatch`] reply resolves the *specific* op
/// whose corr it echoes — the other in-flight ops keep waiting,
/// unpoisoned.
pub struct ControlClient {
    writer: Mutex<TcpStream>,
    pending: Arc<Pending>,
    next_corr: AtomicU64,
    timeout: Duration,
    reader: Option<JoinHandle<()>>,
}

impl ControlClient {
    /// Connect to a control-speaking listener.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] if the connection cannot be established.
    pub fn connect(addr: SocketAddr) -> Result<ControlClient> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| Error::io(format!("connecting a control client to {addr}"), &e))?;
        let _ = stream.set_nodelay(true);
        let read_half = stream
            .try_clone()
            .map_err(|e| Error::io("cloning a control connection for reading", &e))?;
        let pending: Arc<Pending> = Arc::new(Mutex::new(HashMap::new()));
        let reader_pending = Arc::clone(&pending);
        let reader = std::thread::spawn(move || route_control_replies(read_half, &reader_pending));
        Ok(ControlClient {
            writer: Mutex::new(stream),
            pending,
            next_corr: AtomicU64::new(1),
            timeout: Duration::from_secs(10),
            reader: Some(reader),
        })
    }

    /// Set the per-call reply timeout (default 10 s).
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.timeout = timeout;
    }

    /// One control round trip: mint a corr, send `build(corr)`, wait for
    /// the reply echoing it.
    fn call(&self, build: impl FnOnce(u64) -> Frame) -> Result<Frame> {
        let corr = self.next_corr.fetch_add(1, Ordering::SeqCst);
        let (tx, rx) = channel();
        self.pending
            .lock()
            .expect("control pending lock")
            .insert(corr, tx);
        let sent = wire::write_frame(
            &mut *self.writer.lock().expect("control writer lock"),
            &build(corr),
        );
        if let Err(e) = sent {
            self.pending
                .lock()
                .expect("control pending lock")
                .remove(&corr);
            return Err(e);
        }
        match rx.recv_timeout(self.timeout) {
            Ok(Frame::VersionMismatch { got, want, .. }) => {
                Err(Error::VersionMismatch { got, want })
            }
            Ok(frame) => Ok(frame),
            Err(_) => {
                // Timed out or the reader hung up; either way, stop waiting.
                self.pending
                    .lock()
                    .expect("control pending lock")
                    .remove(&corr);
                Err(Error::Incomplete {
                    detail: format!("control op {corr} got no reply within {:?}", self.timeout),
                })
            }
        }
    }

    /// Ask the server for the status of every object it hosts.
    ///
    /// # Errors
    ///
    /// I/O and timeout errors, [`Error::VersionMismatch`] from a
    /// foreign-version server, [`Error::Codec`] on an off-protocol reply.
    pub fn status(&self) -> Result<Vec<ObjectStatus>> {
        match self.call(|corr| Frame::StatusReq { corr })? {
            Frame::Status { objects, .. } => Ok(objects),
            other => Err(off_protocol("StatusReq", &other)),
        }
    }

    /// Fetch the server's metrics registry as a `rastor-metrics/v1` JSON
    /// document (parse counters out of it with
    /// [`rastor_obs::flat_counters`]).
    ///
    /// # Errors
    ///
    /// As [`ControlClient::status`].
    pub fn metrics_json(&self) -> Result<String> {
        match self.call(|corr| Frame::MetricsReq { corr })? {
            Frame::Metrics { json, .. } => Ok(json),
            other => Err(off_protocol("MetricsReq", &other)),
        }
    }

    /// Fetch the server's captured slow-op traces as a `rastor-traces/v1`
    /// JSON document (one captured trace per line).
    ///
    /// # Errors
    ///
    /// As [`ControlClient::status`].
    pub fn traces_json(&self) -> Result<String> {
        match self.call(|corr| Frame::TraceReq { corr })? {
            Frame::Trace { json, .. } => Ok(json),
            other => Err(off_protocol("TraceReq", &other)),
        }
    }

    /// Push counter increments into the server's registry (the transport
    /// behind `rastor bench` reporting client-side per-shard read counts
    /// to the shard that earned them). Invalid names are dropped
    /// server-side, never fatal.
    ///
    /// # Errors
    ///
    /// As [`ControlClient::status`].
    pub fn report(&self, counts: Vec<(String, u64)>) -> Result<()> {
        match self.call(|corr| Frame::Report { corr, counts })? {
            Frame::Ack { .. } => Ok(()),
            other => Err(off_protocol("Report", &other)),
        }
    }

    /// Execute an admin command ([`OpsServer`] listeners only; object
    /// servers politely refuse).
    ///
    /// # Errors
    ///
    /// As [`ControlClient::status`] — a *refused* command is an
    /// `Ok(AdminOutcome { ok: false, .. })`, not an error.
    pub fn admin(&self, cmd: AdminCmd) -> Result<AdminOutcome> {
        match self.call(|corr| Frame::AdminReq { corr, cmd })? {
            Frame::AdminRep { ok, detail, .. } => Ok(AdminOutcome { ok, detail }),
            other => Err(off_protocol("AdminReq", &other)),
        }
    }
}

fn off_protocol(sent: &str, got: &Frame) -> Error {
    Error::codec(format!("off-protocol reply to a {sent}: {got:?}"))
}

impl Drop for ControlClient {
    fn drop(&mut self) {
        let _ = self
            .writer
            .lock()
            .expect("control writer lock")
            .shutdown(Shutdown::Both);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

/// The reader loop: route every control reply to the pending op whose
/// corr it echoes.
fn route_control_replies(mut stream: TcpStream, pending: &Pending) {
    while let Ok(frame) = wire::read_frame(&mut stream) {
        let Some(corr) = frame.corr() else {
            continue; // a stray data envelope; not ours to route
        };
        if let Some(tx) = pending.lock().expect("control pending lock").remove(&corr) {
            let _ = tx.send(frame);
        }
    }
    // Unblock every waiter: dropping the senders turns their recv into an
    // immediate disconnect error.
    pending.lock().expect("control pending lock").clear();
}

/// Admit one raw frame off a server connection: `Ok` with the decoded
/// frame, `Err(Some(refusal))` for a foreign wire version — the framing
/// layer admitted the frame whole, so the stream is still aligned; tell the
/// peer which version this build speaks, echoing the refused frame's
/// leading corr so a multiplexed client can attribute the refusal, and keep
/// serving — or `Err(None)` for bytes that do not decode (close).
#[inline]
pub(crate) fn admit(raw: &[u8]) -> std::result::Result<Frame, Option<Frame>> {
    if wire::raw_version(raw) != wire::WIRE_VERSION {
        return Err(Some(Frame::VersionMismatch {
            got: wire::raw_version(raw),
            want: wire::WIRE_VERSION,
            corr: wire::raw_corr(raw),
        }));
    }
    wire::decode_frame(raw)
        .map(|(frame, _)| frame)
        .map_err(|_| None)
}

/// The control plane, answered once for both server roles: the reply to a
/// control request frame, or `None` for a frame that has no business
/// arriving at a server (reply kinds, negotiation frames; on an ops
/// connection, data envelopes too) — the connection is done. The roles
/// differ only in what they host (`status`) and whether they run `admin`
/// verbs.
pub(crate) fn control_reply(
    frame: Frame,
    status: impl FnOnce() -> Vec<ObjectStatus>,
    admin: impl FnOnce(AdminCmd) -> AdminOutcome,
) -> Option<Frame> {
    Some(match frame {
        Frame::StatusReq { corr } => Frame::Status {
            corr,
            objects: status(),
        },
        Frame::MetricsReq { corr } => Frame::Metrics {
            corr,
            json: Registry::global().snapshot_json(),
        },
        Frame::TraceReq { corr } => Frame::Trace {
            corr,
            json: rastor_obs::trace::global().traces_json(),
        },
        Frame::Report { corr, counts } => {
            let registry = Registry::global();
            for (name, n) in &counts {
                // Remote input: invalid names are dropped, not fatal.
                let _ = registry.add_counter(name, *n);
            }
            Frame::Ack { corr }
        }
        Frame::AdminReq { corr, cmd } => {
            let outcome = admin(cmd);
            Frame::AdminRep {
                corr,
                ok: outcome.ok,
                detail: outcome.detail,
            }
        }
        _ => return None,
    })
}

/// The ops listener's [`Events`] handler: every control round trip is
/// answered inline from the reactor worker.
struct OpsState {
    kv: Arc<Mutex<NetKv>>,
}

impl Events for OpsState {
    fn on_frame(&self, conn: &ConnHandle, raw: &[u8]) {
        // The ops listener hosts no objects itself; status lives at the
        // shard servers the cluster file points to.
        let reply =
            admit(raw).map(|frame| control_reply(frame, Vec::new, |cmd| run_admin(&self.kv, cmd)));
        match reply {
            Ok(Some(reply)) | Err(Some(reply)) => {
                let _ = conn.send(&wire::encode_frame(&reply));
            }
            Ok(None) | Err(None) => conn.close(),
        }
    }
}

/// The deployment-level admin listener: owns (a handle to) a live
/// [`NetKv`] and executes [`AdminCmd`]s against it — restart an object
/// from disk, crash one, toggle a chaos partition. Also answers metrics
/// queries from the process-wide registry and accepts counter reports,
/// so a single control connection to the ops port can drive the whole
/// `rastor` CLI.
///
/// Dropping the server shuts down the listener and every control
/// connection.
pub struct OpsServer {
    addr: SocketAddr,
    _reactor: Reactor,
}

impl OpsServer {
    /// Bind a loopback listener executing admin commands against `kv`.
    /// Control traffic is light and latency-tolerant, so a single-worker
    /// reactor serves every connection.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] if the listener cannot bind.
    pub fn spawn(kv: Arc<Mutex<NetKv>>) -> Result<OpsServer> {
        let listener = TcpListener::bind(("127.0.0.1", 0))
            .map_err(|e| Error::io("binding an ops listener", &e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| Error::io("reading the bound ops address", &e))?;
        let reactor = Reactor::spawn_with(
            Arc::new(OpsState { kv }) as Arc<dyn Events>,
            Some(listener),
            1,
        )?;
        Ok(OpsServer {
            addr,
            _reactor: reactor,
        })
    }

    /// The address the `rastor` CLI's admin verbs connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

/// Execute one admin command against the deployment; remote input, so
/// every failure is an `ok:false` outcome, never a panic.
fn run_admin(kv: &Arc<Mutex<NetKv>>, cmd: AdminCmd) -> AdminOutcome {
    let kv = kv.lock().expect("deployment lock");
    match cmd {
        AdminCmd::RestartObject { shard, object } => {
            match kv.restart_object(shard as usize, ObjectId(object)) {
                Ok(elapsed) => AdminOutcome {
                    ok: true,
                    detail: format!(
                        "shard {shard} object {object} restarted from disk in {:.1} ms",
                        elapsed.as_secs_f64() * 1e3
                    ),
                },
                Err(e) => refused(format!("restart failed: {e}")),
            }
        }
        AdminCmd::CrashObject { shard, object } => {
            match kv.crash_object(shard as usize, ObjectId(object)) {
                Ok(()) => AdminOutcome {
                    ok: true,
                    detail: format!("shard {shard} object {object} crashed"),
                },
                Err(e) => refused(format!("crash failed: {e}")),
            }
        }
        AdminCmd::Partition { shard, on } => {
            let shard = shard as usize;
            match kv.proxies.get(shard) {
                None => refused(format!(
                    "shard {shard} has no chaos proxy (serve with --chaos to get partitions)"
                )),
                Some(proxy) => {
                    proxy.set_partitioned(on);
                    AdminOutcome {
                        ok: true,
                        detail: format!(
                            "shard {shard} link {}",
                            if on { "partitioned" } else { "healed" }
                        ),
                    }
                }
            }
        }
    }
}

fn refused(detail: String) -> AdminOutcome {
    AdminOutcome { ok: false, detail }
}
