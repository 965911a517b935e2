//! [`ObjectServer`]: a TCP listener hosting one or more storage objects.
//!
//! The server is a [`rastor_sim::host::ObjectHost`] behind the
//! [`crate::reactor`]: [`crate::reactor::DEFAULT_WORKERS`] reactor threads
//! move frames and decode each request envelope once; the worker that
//! decoded it serves it through the host — it runs every hosted object it
//! finds idle on its own thread, and leaves the envelope queued behind
//! any object another thread owns, for that owner to serve. Thread count
//! is O(workers) — plus the host's
//! [`EXECUTORS`](rastor_sim::host::EXECUTORS) under a controller —
//! independent of how many objects the server hosts or how many
//! connections are open.
//! Everything about *serving* an object (per-object FIFO, a controller's
//! verdicts on each object copy, crash and restart, partitions) is the
//! host's; what this module adds is the wire: reply envelopes are
//! encoded onto the connection the request came in on, tagged with the
//! requesting client so one connection can be shared by many clients,
//! and the whole control plane
//! — status, metrics, traces, counter reports and the admin verbs for
//! this server's shard — is answered in-band. Control frames never reach
//! the host, so a server whose host is partitioned still answers them, on
//! the one address it has. The reply envelopes a worker produces for its own
//! connection go out in one [`ConnHandle::send`], written through on the
//! worker's thread — a request envelope costs one thread and, usually,
//! one write.
//!
//! Objects carry **cluster-global** ids `first_id ..`, so a logical
//! cluster may be split across several servers (each hosting a slice of
//! the object range) and clients see one consistent id space.

use crate::reactor::{ConnHandle, Events, Reactor, ReactorHandle};
use crate::wire::{self, AdminCmd, Frame, RepEnvelope};
use rastor_common::{Error, ObjectId, Result};
use rastor_core::msg::{Rep, Req};
use rastor_kv::restart_from_disk;
use rastor_obs::{names, trace, Counter, Registry};
use rastor_sim::host::{Accounting, ObjectHost, ReplySink};
use rastor_sim::Controller;
use rastor_sim::ObjectBehavior;
use rastor_store::{Durability, InMemory};
use std::cell::RefCell;
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// The `net.*` seam handles, resolved once per process (servers and
/// connections come and go; the counters accumulate across all of them).
struct NetMetrics {
    frames_in: Arc<Counter>,
    frames_out: Arc<Counter>,
    version_mismatches: Arc<Counter>,
    status_queries: Arc<Counter>,
    /// Per-minute envelope handling time — what `rastor watch` draws,
    /// so a pure serving process has a live ring even though the kv-seam
    /// rings live in its clients.
    envelopes_ring: Arc<rastor_obs::TimeRing>,
}

fn net_metrics() -> &'static NetMetrics {
    static METRICS: OnceLock<NetMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = Registry::global();
        NetMetrics {
            frames_in: r.counter(names::NET_FRAMES_IN),
            frames_out: r.counter(names::NET_FRAMES_OUT),
            version_mismatches: r.counter(names::NET_VERSION_MISMATCHES),
            status_queries: r.counter(names::NET_STATUS_QUERIES),
            envelopes_ring: r.ring(names::NET_ENVELOPES_RING_US, 60, Duration::from_secs(60)),
        }
    })
}

/// Encode buffers above this size are not kept for the next frame, so a
/// thread that once sent a large status reply does not hold its buffer.
const ENCODE_BUF_KEPT: usize = 64 * 1024;

/// Send `frames` back to back with one [`ConnHandle::send`], counting each
/// as a frame out if the connection took them. Frames are encoded into one
/// reused buffer per thread: the send writes it straight to the socket and
/// copies only what the socket does not take.
fn send_counted(conn: &ConnHandle, frames: impl IntoIterator<Item = Frame>) {
    thread_local! {
        static ENCODE_BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
    }
    ENCODE_BUF.with_borrow_mut(|buf| {
        let mut count = 0;
        for frame in frames {
            wire::encode_frame_into(&frame, buf);
            count += 1;
        }
        if conn.send(buf) {
            net_metrics().frames_out.add(count);
        }
        buf.clear();
        buf.shrink_to(ENCODE_BUF_KEPT);
    });
}

/// The server's reply path: an object's reply envelope is encoded onto
/// the requesting connection. The reactor worker that read a request
/// envelope serves it, so every reply envelope the envelope earns from an
/// object that was idle goes back in one write.
impl ReplySink<Rep> for ConnHandle {
    // Server-side slow-op capture judges envelopes, not whole client ops:
    // each traced frame's server-side work is closed right after its apply.
    const ACCOUNTING: Accounting = Accounting {
        queue_span: Some(trace::span::SERVER_QUEUE),
        apply_span: trace::span::SERVER_APPLY,
        finish: true,
        envelope_us: Some(|us| net_metrics().envelopes_ring.record(us)),
    };

    fn deliver(&self, env: RepEnvelope) {
        send_counted(self, [Frame::Rep(env)]);
    }

    fn same_sink(&self, other: &ConnHandle) -> bool {
        self.id() == other.id()
    }

    fn deliver_burst(&self, burst: Vec<RepEnvelope>) {
        send_counted(self, burst.into_iter().map(Frame::Rep));
    }
}

/// One shard as its server sees it: the host, plus what the shard's
/// admin verbs need. The server's [`Events`] handler.
struct Shard {
    host: ObjectHost<Req, Rep, ConnHandle>,
    /// The shard index admin commands must name.
    index: usize,
    /// The shard-scoped policy the hosted objects were built from.
    durability: Arc<dyn Durability>,
    /// Admin verbs run one at a time. Two restarts of one object would
    /// each recover from the same log: `Wal` takes no file lock and each
    /// handle appends at its own end, so the later install overwrites the
    /// records acknowledged through the earlier one, and a second open can
    /// `set_len` away a record that is being written.
    admin: Mutex<()>,
}

impl Shard {
    /// Run one admin verb against this shard's host: the detail for the
    /// operator, or the refusal. Remote input, so nothing here panics.
    fn admin(&self, cmd: AdminCmd) -> std::result::Result<String, String> {
        let shard = cmd.shard();
        if shard as usize != self.index {
            return Err(format!(
                "no shard {shard} at this server (it serves shard {})",
                self.index
            ));
        }
        if let AdminCmd::RestartObject { object, .. } | AdminCmd::CrashObject { object, .. } = cmd {
            if !self.host.hosts(ObjectId(object)) {
                return Err(format!("shard {shard} hosts no object {object}"));
            }
        }
        let _one_at_a_time = self.admin.lock().expect("admin lock");
        match cmd {
            AdminCmd::RestartObject { object, .. } => {
                restart_from_disk(&self.host, self.durability.as_ref(), ObjectId(object))
                    .map(|elapsed| {
                        format!(
                            "shard {shard} object {object} restarted from disk in {:.1} ms",
                            elapsed.as_secs_f64() * 1e3
                        )
                    })
                    .map_err(|e| format!("restart failed: {e}"))
            }
            AdminCmd::CrashObject { object, .. } => {
                self.host.crash(ObjectId(object));
                Ok(format!("shard {shard} object {object} crashed"))
            }
            AdminCmd::Partition { on, .. } => {
                self.host.set_partitioned(on);
                let done = if on { "partitioned" } else { "healed" };
                Ok(format!("shard {shard} {done}"))
            }
        }
    }
}

/// Request envelopes go to the hosted objects; the control plane is
/// answered in-band, so control replies interleave with (never reorder
/// within) the data stream.
impl Events for Shard {
    fn on_frame(&self, conn: &ConnHandle, raw: &[u8]) {
        let metrics = net_metrics();
        let got = wire::raw_version(raw);
        if got != wire::WIRE_VERSION {
            // The framing layer admitted the frame whole, so the stream is
            // still aligned: tell the peer which version this build speaks,
            // echoing the refused frame's leading corr, and keep serving.
            metrics.version_mismatches.inc();
            let (want, corr) = (wire::WIRE_VERSION, wire::raw_corr(raw));
            send_counted(conn, [Frame::VersionMismatch { got, want, corr }]);
            return;
        }
        let Ok((frame, _)) = wire::decode_frame(raw) else {
            conn.close();
            return;
        };
        let reply = match frame {
            Frame::Req(env) => {
                metrics.frames_in.inc();
                self.host.submit(Arc::new(env), conn);
                return;
            }
            Frame::StatusReq { corr } => {
                metrics.status_queries.inc();
                let objects = self.host.statuses();
                Frame::Status { corr, objects }
            }
            Frame::MetricsReq { corr } => {
                metrics.status_queries.inc();
                let json = Registry::global().snapshot_json();
                Frame::Metrics { corr, json }
            }
            Frame::TraceReq { corr } => {
                metrics.status_queries.inc();
                let json = trace::global().traces_json();
                Frame::Trace { corr, json }
            }
            Frame::Report { corr, counts } => {
                let registry = Registry::global();
                for (name, n) in &counts {
                    // Remote input: invalid names are dropped, not fatal.
                    let _ = registry.add_counter(name, *n);
                }
                Frame::Ack { corr }
            }
            Frame::AdminReq { corr, cmd } => {
                let (ok, detail) = match self.admin(cmd) {
                    Ok(detail) => (true, detail),
                    Err(detail) => (false, detail),
                };
                Frame::AdminRep { corr, ok, detail }
            }
            // A reply or negotiation frame from a client is a protocol
            // violation; the connection is done.
            _ => {
                conn.close();
                return;
            }
        };
        send_counted(conn, [reply]);
    }

    // No `on_tick`: the server keeps no reactor-side timers. Delayed
    // copies are released on the host's executors, so the readiness loop
    // parks until actual socket readiness no matter how many connections
    // it is watching. The price of serving through: an apply that blocks (an
    // fsync) holds up this worker's other connections, and the replies of
    // the objects served after it in the same envelope. An admin verb is
    // the same class of cost: a restart recovers the object from disk on
    // the worker that read the command (a fraction of a millisecond on a
    // small log, milliseconds for a multi-megabyte snapshot), and that
    // worker's other connections wait for it.
}

/// A TCP server hosting a slice of a cluster's storage objects.
///
/// Dropping the server shuts down the listener and every accepted
/// connection, then the host (and its executor pool, under delay).
pub struct ObjectServer {
    addr: SocketAddr,
    // Declared (so dropped) before `shard`: frame intake stops before the
    // host goes away.
    reactor: Reactor,
    handle: ReactorHandle,
    shard: Arc<Shard>,
}

impl ObjectServer {
    /// Bind a loopback listener and serve `behaviors` from the fixed
    /// worker pool. Hosted objects take the cluster-global ids `first_id
    /// .. first_id + behaviors.len()`, every object copy scheduled by
    /// `controller` if there is one — a link-fault profile or service
    /// jitter is a [`rastor_sim::ChaosCfg`] (see [`ObjectHost::spawn`]).
    /// The server answers admin verbs as shard 0 of an in-memory
    /// deployment, so it refuses a restart from disk.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] if the listener cannot bind.
    pub fn spawn(
        behaviors: Vec<Box<dyn ObjectBehavior<Req, Rep> + Send>>,
        first_id: u32,
        controller: Option<Box<dyn Controller + Send>>,
    ) -> Result<ObjectServer> {
        let host = ObjectHost::spawn(behaviors, first_id, controller);
        ObjectServer::serve(host, 0, Arc::new(InMemory))
    }

    /// Serve shard `shard` of a deployment: as [`ObjectServer::spawn`]
    /// from id 0, answering the admin verbs that name `shard`, and
    /// restarting objects from `durability`, the shard-scoped policy
    /// `behaviors` were built from.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] if the listener cannot bind.
    pub fn spawn_shard(
        shard: usize,
        durability: Arc<dyn Durability>,
        behaviors: Vec<Box<dyn ObjectBehavior<Req, Rep> + Send>>,
        controller: Option<Box<dyn Controller + Send>>,
    ) -> Result<ObjectServer> {
        let host = ObjectHost::spawn(behaviors, 0, controller);
        ObjectServer::serve(host, shard, durability)
    }

    fn serve(
        host: ObjectHost<Req, Rep, ConnHandle>,
        index: usize,
        durability: Arc<dyn Durability>,
    ) -> Result<ObjectServer> {
        let listener = TcpListener::bind(("127.0.0.1", 0))
            .map_err(|e| Error::io("binding an object server listener", &e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| Error::io("reading the bound listener address", &e))?;
        let shard = Arc::new(Shard {
            host,
            index,
            durability,
            admin: Mutex::new(()),
        });
        let reactor = Reactor::spawn(Arc::clone(&shard) as Arc<dyn Events>, Some(listener))?;
        let handle = reactor.handle();
        Ok(ObjectServer {
            addr,
            reactor,
            handle,
            shard,
        })
    }

    /// The one address clients and control queries connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The host serving this server's objects — the fault-injection
    /// surface ([`ObjectHost::crash`], [`ObjectHost::restart`],
    /// [`ObjectHost::set_partitioned`]), reachable while clients stay
    /// connected.
    pub fn host(&self) -> &ObjectHost<Req, Rep, ConnHandle> {
        &self.shard.host
    }

    /// Kill hosted object `id` and restart it from disk while clients stay
    /// connected — [`restart_from_disk`] with the shard's durability, one
    /// admin verb at a time, exactly as the in-band `RestartObject`
    /// command runs it. Returns the wall-clock kill-to-serving-again time.
    ///
    /// # Errors
    ///
    /// As [`restart_from_disk`]: [`Error::InvariantViolation`] unless the
    /// server was spawned with a recoverable durability; recovery I/O and
    /// corruption errors otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not hosted by this server.
    pub fn restart_from_disk(&self, id: ObjectId) -> Result<Duration> {
        let shard = &*self.shard;
        let _one_at_a_time = shard.admin.lock().expect("admin lock");
        restart_from_disk(&shard.host, shard.durability.as_ref(), id)
    }

    /// Threads this server runs, total: reactor workers, plus the host's
    /// executors under a controller. Fixed at spawn — hosting more
    /// objects or accepting more connections never grows it.
    pub fn thread_count(&self) -> usize {
        self.reactor.worker_count() + self.shard.host.executor_threads()
    }

    /// Sever every accepted connection, keeping the listener and the
    /// objects up — the mid-traffic socket-kill fault injector. Clients
    /// recover by reconnecting and resubmitting.
    pub fn drop_connections(&self) {
        self.handle.close_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{ReqEnvelope, WireReqFrame};
    use rastor_common::{ClientId, RegId, Timestamp, TsVal, Value};
    use rastor_core::msg::Stamped;
    use rastor_core::object::HonestObject;
    use std::net::TcpStream;

    /// A request envelope of three frames to four idle objects: the worker
    /// that read it serves all four, and their reply envelopes leave in
    /// one send.
    #[test]
    fn one_envelopes_replies_to_one_connection_take_one_send() {
        const OBJECTS: u32 = 4;
        let behaviors = (0..OBJECTS)
            .map(|_| Box::new(HonestObject::new()) as Box<dyn ObjectBehavior<Req, Rep> + Send>)
            .collect();
        let server = ObjectServer::spawn(behaviors, 0, None).expect("server");
        // Register the server's end ourselves, to count its sends.
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let mut client = TcpStream::connect(listener.local_addr().expect("addr")).expect("dial");
        let conn = server.handle.register(listener.accept().expect("accept").0);
        let frames = (1..=3)
            .map(|n| WireReqFrame {
                op_nonce: n,
                round: 1,
                trace: trace::NO_TRACE,
                req: Req::Commit {
                    reg: RegId::WRITER,
                    pair: Stamped::plain(TsVal::new(Timestamp(n), Value::from_u64(n))),
                },
            })
            .collect();
        let from = ClientId::writer();
        wire::write_frame(&mut client, &Frame::Req(ReqEnvelope { from, frames })).expect("send");
        let mut objects: Vec<u32> = (0..OBJECTS)
            .map(
                |_| match wire::read_frame(&mut client).expect("a reply envelope") {
                    Frame::Rep(env) if env.to == from && env.frames.len() == 3 => env.from.0,
                    other => panic!("not the reply envelope: {other:?}"),
                },
            )
            .collect();
        objects.sort_unstable();
        assert_eq!(objects, [0, 1, 2, 3]);
        assert_eq!(conn.sends(), 1, "the reply envelopes took several sends");
    }
}
