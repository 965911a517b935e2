//! [`ObjectServer`]: a TCP listener hosting one or more storage objects.
//!
//! The server is a [`rastor_sim::host::ObjectHost`] behind the
//! [`crate::reactor`]: [`crate::reactor::DEFAULT_WORKERS`] reactor threads
//! move frames and decode each request envelope once; the worker that
//! decoded it serves it through the host — it runs every hosted object it
//! finds idle on its own thread, and leaves the envelope queued behind
//! any object another thread owns, for that owner (or one of the host's
//! [`EXECUTORS`]) to serve. Thread count is O(workers), independent of
//! how many objects the server hosts or how many connections are open.
//! Everything about *serving* an object (per-object FIFO, service
//! jitter, crash and restart) is the host's; what this module adds is the
//! wire: reply envelopes are encoded onto the connection the request came
//! in on, tagged with the requesting client so one connection can be
//! shared by many clients, and the ops plane's control frames are
//! answered in-band. The reply envelopes a worker produces for its own
//! connection go out in one [`ConnHandle::send`], written through on the
//! worker's thread — a request envelope costs one thread and, usually,
//! one write.
//!
//! Objects carry **cluster-global** ids `first_id ..`, so a logical
//! cluster may be split across several servers (each hosting a slice of
//! the object range) and clients see one consistent id space.

use crate::ops::{admit, control_reply, AdminOutcome};
use crate::reactor::{ConnHandle, Events, Reactor, ReactorHandle};
use crate::wire::{self, Frame, ObjectStatus, RepEnvelope, WireRepFrame, WireReqFrame};
use rastor_common::{ClientId, Error, ObjectId, Result};
use rastor_core::msg::{Rep, Req};
use rastor_obs::{names, trace, Counter, Registry};
use rastor_sim::host::{Accounting, ObjectHost, ReplyEnvelope, ReplySink, EXECUTORS};
use rastor_sim::ObjectBehavior;
use std::cell::RefCell;
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, OnceLock};
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
impl ReplySink<Req, Rep> for ConnHandle {
    type Frame = WireReqFrame;
    type Reply = WireRepFrame;
    // Server-side slow-op capture judges envelopes, not whole client ops:
    // each traced frame's server-side work is closed right after its apply.
    const ACCOUNTING: Accounting = Accounting {
        queue_span: Some(trace::span::SERVER_QUEUE),
        apply_span: trace::span::SERVER_APPLY,
        finish: true,
        envelope_us: Some(|us| net_metrics().envelopes_ring.record(us)),
    };
    const SERVE_THROUGH: bool = true;

    fn request(frame: &WireReqFrame) -> (u64, &Req) {
        (frame.trace, &frame.req)
    }

    fn reply(frame: &WireReqFrame, rep: Rep) -> WireRepFrame {
        WireRepFrame {
            op_nonce: frame.op_nonce,
            round: frame.round,
            trace: frame.trace,
            rep,
        }
    }

    fn deliver(&self, from: ObjectId, to: ClientId, frames: Vec<WireRepFrame>) {
        send_counted(self, [Frame::Rep(RepEnvelope { to, from, frames })]);
    }

    fn same_sink(&self, other: &ConnHandle) -> bool {
        self.id() == other.id()
    }

    fn deliver_burst(&self, burst: Vec<ReplyEnvelope<WireRepFrame>>) {
        let frames = burst
            .into_iter()
            .map(|(from, to, frames)| Frame::Rep(RepEnvelope { to, from, frames }));
        send_counted(self, frames);
    }
}

/// The server's [`Events`] handler: request envelopes go to the hosted
/// objects, the control plane is answered in-band.
impl Events for ObjectHost<Req, Rep, ConnHandle> {
    fn on_frame(&self, conn: &ConnHandle, raw: &[u8]) {
        let frame = match admit(raw) {
            Ok(frame) => frame,
            Err(Some(refusal)) => {
                net_metrics().version_mismatches.inc();
                send_counted(conn, [refusal]);
                return;
            }
            Err(None) => {
                conn.close();
                return;
            }
        };
        match frame {
            Frame::Req(env) => {
                net_metrics().frames_in.inc();
                self.submit(env.from, Arc::new(env.frames), conn);
            }
            // The ops plane, answered in-band so control replies
            // interleave with (never reorder within) the data stream.
            control => {
                if matches!(
                    control,
                    Frame::StatusReq { .. } | Frame::MetricsReq { .. } | Frame::TraceReq { .. }
                ) {
                    net_metrics().status_queries.inc();
                }
                // Admin verbs act on a whole deployment (durability,
                // proxies); they belong to the ops listener, not an
                // object server. Refuse politely instead of hanging up.
                let refuse = |_| AdminOutcome {
                    ok: false,
                    detail: "object servers take no admin commands; \
                             send them to the deployment's ops listener"
                        .into(),
                };
                match control_reply(control, || self.statuses(), refuse) {
                    Some(reply) => send_counted(conn, [reply]),
                    // A reply or negotiation frame from a client is a
                    // protocol violation; the connection is done.
                    None => conn.close(),
                }
            }
        }
    }

    // No `on_tick`: the server keeps no reactor-side timers. Jitter
    // release runs on the host's executors, so the readiness loop parks
    // until actual socket readiness no matter how many connections it is
    // watching. The price of serving through: an apply that blocks (an
    // fsync) holds up this worker's other connections, and the replies of
    // the objects served after it in the same envelope.
}

/// A TCP server hosting a slice of a cluster's storage objects.
///
/// Dropping the server shuts down the listener and every accepted
/// connection, then the host's executor pool.
pub struct ObjectServer {
    addr: SocketAddr,
    // Declared (so dropped) before `host`: frame intake stops before the
    // host goes away.
    reactor: Reactor,
    handle: ReactorHandle,
    host: Arc<ObjectHost<Req, Rep, ConnHandle>>,
}

impl ObjectServer {
    /// Bind a loopback listener and serve `behaviors` from the fixed
    /// worker pool. Hosted objects take the cluster-global ids `first_id
    /// .. first_id + behaviors.len()`. `jitter` adds a random service
    /// delay up to the given duration per envelope per object (see
    /// [`ObjectHost::spawn`]).
    ///
    /// # Errors
    ///
    /// [`Error::Io`] if the listener cannot bind.
    pub fn spawn(
        behaviors: Vec<Box<dyn ObjectBehavior<Req, Rep> + Send>>,
        first_id: u32,
        jitter: Option<Duration>,
    ) -> Result<ObjectServer> {
        let listener = TcpListener::bind(("127.0.0.1", 0))
            .map_err(|e| Error::io("binding an object server listener", &e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| Error::io("reading the bound listener address", &e))?;
        let host = Arc::new(ObjectHost::spawn(behaviors, first_id, jitter));
        let reactor = Reactor::spawn(Arc::clone(&host) as Arc<dyn Events>, Some(listener))?;
        let handle = reactor.handle();
        Ok(ObjectServer {
            addr,
            reactor,
            handle,
            host,
        })
    }

    /// The address clients (or a chaos proxy) connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The host serving this server's objects — the fault-injection
    /// surface ([`ObjectHost::crash`], [`ObjectHost::restart`]),
    /// reachable while clients stay connected.
    pub fn host(&self) -> &ObjectHost<Req, Rep, ConnHandle> {
        &self.host
    }

    /// Number of hosted objects (including crashed ones).
    pub fn num_objects(&self) -> usize {
        self.host().num_objects()
    }

    /// The first cluster-global object id hosted here.
    pub fn first_id(&self) -> u32 {
        self.host().first_id()
    }

    /// Threads this server runs, total: reactor workers plus executors.
    /// Fixed at spawn — hosting more objects or accepting more
    /// connections never grows it.
    pub fn thread_count(&self) -> usize {
        self.reactor.worker_count() + EXECUTORS
    }

    /// Sever every accepted connection, keeping the listener and the
    /// objects up — the mid-traffic socket-kill fault injector. Clients
    /// recover by reconnecting and resubmitting.
    pub fn drop_connections(&self) {
        self.handle.close_all();
    }

    /// Crash a hosted object (by cluster-global id): see
    /// [`ObjectHost::crash`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is not hosted by this server.
    pub fn crash_object(&self, id: ObjectId) {
        self.host().crash(id);
    }

    /// Restart a hosted object (by cluster-global id) with a fresh
    /// behavior: see [`ObjectHost::restart`]. Connected clients keep
    /// talking to the same address and simply see the object answering
    /// again.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not hosted by this server.
    pub fn restart_object(&self, id: ObjectId, behavior: Box<dyn ObjectBehavior<Req, Rep> + Send>) {
        self.host().restart(id, behavior);
    }

    /// The status of every hosted object — the same view a
    /// [`Frame::StatusReq`] gets over the wire.
    pub fn object_statuses(&self) -> Vec<ObjectStatus> {
        self.host().statuses()
    }

    /// Whether a hosted object is currently crashed.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not hosted by this server.
    pub fn is_crashed(&self, id: ObjectId) -> bool {
        self.host().is_crashed(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::ReqEnvelope;
    use rastor_common::{RegId, Timestamp, TsVal, Value};
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
