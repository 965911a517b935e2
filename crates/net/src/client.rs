//! [`NetCluster`]: the client endpoint of one socket-backed cluster,
//! implementing the same [`Transport`] trait as the in-process
//! [`rastor_sim::runtime::ThreadCluster`] — so a
//! [`rastor_sim::runtime::ThreadClient`] (and everything built on it, the
//! sharded kv store included) drives operations over TCP without a single
//! protocol-level change.
//!
//! One `NetCluster` holds **one connection per server** backing the
//! cluster and may be **shared by many clients**: each
//! [`Transport::send_frames`] call registers the calling client's reply
//! channel, and the reactor demultiplexes incoming reply envelopes to the
//! right channel by the `to` client id the server echoes back. All
//! connections are served by one client-side [`crate::reactor`] — thread
//! count is fixed, however many handles share the cluster.
//!
//! Sends stay best-effort, mirroring the channel substrate's crash
//! semantics — but the cluster *recovers* the transport underneath
//! the contract: a dead connection is redialed with backoff, and each
//! client's **latest unsuperseded flush** is resubmitted (on reconnect,
//! and periodically while an op stalls) so a frame lost to a dropped
//! socket or a lossy link no longer starves the op until its deadline.
//! Resubmission is protocol-safe: servers process duplicate requests
//! idempotently (object state is monotone) and drivers drop duplicate or
//! stale-round replies, so re-sending can only *unstick* an op, never
//! corrupt it. The op deadline remains the last-resort recovery.

use crate::reactor::{ConnHandle, Events, Reactor, ReactorHandle};
use crate::wire::{self, Frame};
use rastor_common::{ClientId, Error, Result};
use rastor_core::msg::{Rep, Req};
use rastor_obs::{names, Counter, Registry as Obs};
use rastor_sim::runtime::{ObjReply, RepFrame, ReqFrame, Transport};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// How long a flush may sit unsuperseded before it is re-broadcast. Under
/// healthy pipelining, flushes supersede each other far faster than this,
/// so resubmission only fires for ops that actually stalled.
const RESUBMIT_EVERY: Duration = Duration::from_millis(25);

/// Resubmissions per flush before the entry goes dormant: bounds the
/// traffic a quiesced client's final flush can generate (about a second's
/// worth), while giving a stalled op many chances to get through.
const RESUBMIT_CAP: u32 = 40;

/// Redial backoff bounds for a down connection.
const REDIAL_MIN: Duration = Duration::from_millis(10);
const REDIAL_MAX: Duration = Duration::from_millis(500);

/// client id → that client's reply channel. Senders are registered on
/// every flush, so a reissued client id simply overwrites its predecessor.
type Registry = Mutex<HashMap<ClientId, Sender<ObjReply<Rep>>>>;

/// One client's latest flush, kept for resubmission until superseded.
struct Pending {
    /// Shared with the resubmission ticker, which sends it unlocked.
    bytes: Arc<Vec<u8>>,
    last_sent: Instant,
    resubmits: u32,
}

/// The connection to one server.
struct Endpoint {
    addr: SocketAddr,
    conn: Mutex<Option<ConnHandle>>,
    /// Redial schedule: next attempt time and current backoff.
    redial: Mutex<(Instant, Duration)>,
}

struct ClientState {
    registry: Registry,
    /// One endpoint per server, in address order.
    endpoints: Vec<Endpoint>,
    /// conn id → endpoint index, for routing closes back to their endpoint.
    by_conn: Mutex<HashMap<u64, usize>>,
    /// Endpoint indices whose connection is down, queued by `on_close`
    /// for redialing — the tick's work list, so a reactor iteration
    /// costs O(down + stalled flushes), never O(endpoints).
    down: Mutex<Vec<usize>>,
    pending: Mutex<HashMap<ClientId, Pending>>,
    handle: OnceLock<ReactorHandle>,
    resubmissions: Arc<Counter>,
}

impl ClientState {
    /// Queue `bytes` on the connection to every server. Best-effort: a
    /// missing or saturated connection sheds the frame — resubmission and
    /// the op deadline are the recovery path.
    fn broadcast(&self, bytes: &[u8]) {
        for ep in &self.endpoints {
            if let Some(conn) = &*ep.conn.lock().expect("endpoint conn lock") {
                let _ = conn.send(bytes);
            }
        }
    }

    /// Route one decoded reply envelope to its registered client.
    fn route(&self, env: wire::RepEnvelope) {
        let tx = self
            .registry
            .lock()
            .expect("reply registry lock")
            .get(&env.to)
            .cloned();
        let Some(tx) = tx else {
            return; // client never seen or already unregistered
        };
        let reply = ObjReply {
            from: env.from,
            frames: env
                .frames
                .into_iter()
                .map(|f| RepFrame {
                    op_nonce: f.op_nonce,
                    round: f.round,
                    payload: f.rep,
                })
                .collect(),
        };
        if tx.send(reply).is_err() {
            // The client hung up; drop its registration.
            self.registry
                .lock()
                .expect("reply registry lock")
                .remove(&env.to);
        }
    }

    /// Redial one down endpoint if its backoff has elapsed. Returns the
    /// endpoint's next wakeup, if it is still down.
    fn redial(&self, idx: usize, now: Instant) -> Option<Instant> {
        let ep = &self.endpoints[idx];
        if ep.conn.lock().expect("endpoint conn lock").is_some() {
            return None;
        }
        let mut sched = ep.redial.lock().expect("redial lock");
        if now < sched.0 {
            return Some(sched.0);
        }
        match TcpStream::connect_timeout(&ep.addr, Duration::from_millis(100)) {
            Ok(stream) => {
                let handle = self.handle.get().expect("reactor handle set at spawn");
                let conn = handle.register(stream);
                self.by_conn
                    .lock()
                    .expect("conn route lock")
                    .insert(conn.id(), idx);
                // Published before `pending` is read: a flush registered
                // after this loop's snapshot is broadcast on `conn` by its
                // own sender.
                *ep.conn.lock().expect("endpoint conn lock") = Some(conn.clone());
                sched.1 = REDIAL_MIN;
                // Frames in flight on the dead socket are gone; re-send
                // every registered client's latest flush on the new
                // connection so in-flight ops resume immediately.
                let mut pending = self.pending.lock().expect("pending lock");
                for p in pending.values_mut() {
                    if conn.send(&p.bytes) {
                        self.resubmissions.inc();
                        p.last_sent = now;
                    }
                }
                None
            }
            Err(_) => {
                sched.0 = now + sched.1;
                sched.1 = (sched.1 * 2).min(REDIAL_MAX);
                Some(sched.0)
            }
        }
    }
}

impl Events for ClientState {
    fn on_start(&self, reactor: ReactorHandle) {
        let _ = self.handle.set(reactor);
    }

    fn on_frame(&self, conn: &ConnHandle, raw: &[u8]) {
        match wire::decode_frame(raw) {
            Ok((Frame::Rep(env), _)) => self.route(env),
            // A request frame from a server is a protocol violation, a
            // version-mismatch reply means this build cannot talk to that
            // server at all, and control replies never belong here (a
            // `NetCluster` sends no control frames — `ops::ControlClient`
            // keeps its own connection); a decode error means the stream
            // is garbage. All of them end the connection.
            Ok(_) | Err(_) => conn.close(),
        }
    }

    fn on_close(&self, conn_id: u64) {
        let Some(idx) = self
            .by_conn
            .lock()
            .expect("conn route lock")
            .remove(&conn_id)
        else {
            return;
        };
        let ep = &self.endpoints[idx];
        let mut conn = ep.conn.lock().expect("endpoint conn lock");
        // Only clear the endpoint if it still holds the closed connection
        // (a redial may already have replaced it).
        if conn.as_ref().is_some_and(|c| c.id() == conn_id) {
            *conn = None;
            drop(conn);
            let mut sched = ep.redial.lock().expect("redial lock");
            sched.0 = Instant::now() + REDIAL_MIN;
            sched.1 = REDIAL_MIN;
            drop(sched);
            self.down.lock().expect("down list lock").push(idx);
        }
    }

    fn on_tick(&self, now: Instant) -> Option<Instant> {
        let mut next: Option<Instant> = None;
        let mut fold = |t: Instant| next = Some(next.map_or(t, |n| n.min(t)));

        // Redial down endpoints — only those `on_close` queued, so a
        // fully-connected cluster pays nothing here. Endpoints still down
        // after the attempt go back on the list.
        let down: Vec<usize> = std::mem::take(&mut *self.down.lock().expect("down list lock"));
        if !down.is_empty() {
            let mut still_down = Vec::new();
            for idx in down {
                if let Some(t) = self.redial(idx, now) {
                    fold(t);
                    still_down.push(idx);
                }
            }
            self.down.lock().expect("down list lock").extend(still_down);
        }

        // Re-broadcast stalled flushes.
        let mut due: Vec<Arc<Vec<u8>>> = Vec::new();
        {
            let mut pending = self.pending.lock().expect("pending lock");
            for p in pending.values_mut() {
                if p.resubmits >= RESUBMIT_CAP {
                    continue;
                }
                let at = p.last_sent + RESUBMIT_EVERY;
                if at <= now {
                    p.last_sent = now;
                    p.resubmits += 1;
                    due.push(Arc::clone(&p.bytes));
                    fold(now + RESUBMIT_EVERY);
                } else {
                    fold(at);
                }
            }
        }
        for bytes in due {
            self.resubmissions.inc();
            self.broadcast(&bytes);
        }
        next
    }
}

/// The client endpoint of one socket-backed object cluster.
///
/// Dropping the cluster shuts its connections down and joins the reactor
/// workers; operations still in flight on some client resolve through
/// their deadlines.
///
/// ## One live client per [`ClientId`] per cluster
///
/// [`Transport::send_frames`] registers the calling client's reply
/// channel keyed by its `ClientId` **on every flush**, so one
/// `NetCluster` may be shared by any number of clients with *distinct*
/// ids — but two **live** clients sharing an id on the same cluster
/// would steal each other's replies (each flush re-routes the id to the
/// most recent channel, and the stale holder starves into its
/// deadlines). Give every concurrently live client its own id; a handle
/// pool with exclusive id issuance — what `rastor_kv`'s
/// `ShardedKvStore::handle` does — is the load-bearing pattern. Reusing
/// an id after its previous holder has quiesced is fine: the registry
/// simply overwrites the stale route.
///
/// ```
/// use rastor_common::{ClientId, Value};
/// use rastor_core::{Protocol, StorageSystem};
/// use rastor_net::deploy::NetDeploy;
/// use rastor_sim::runtime::ThreadClient;
/// use std::time::Duration;
///
/// let mut sys = StorageSystem::new(Protocol::AtomicUnauth, 1, 1)?;
/// let harness = sys.spawn_net_cluster(None)?;
/// // Two live clients multiplexed over ONE socket-backed cluster:
/// // distinct ids, so the reactor demultiplexes correctly.
/// let mut writer = ThreadClient::new(ClientId::writer());
/// let mut reader = ThreadClient::new(ClientId::reader(0));
/// writer
///     .run_op(&harness.cluster, sys.write_client(Value::from_u64(7)), Duration::from_secs(10))
///     .expect("write completes");
/// let (out, _rounds) = reader
///     .run_op(&harness.cluster, sys.read_client(0), Duration::from_secs(10))
///     .expect("read completes");
/// assert_eq!(out.into_read().expect("read output").val, Value::from_u64(7));
/// # Ok::<(), rastor_common::Error>(())
/// ```
pub struct NetCluster {
    state: Arc<ClientState>,
    // Kept for its Drop: joining the workers tears the connections down.
    _reactor: Reactor,
}

impl NetCluster {
    /// Connect to every server backing the cluster (one
    /// [`crate::server::ObjectServer`] — or chaos proxy in front of one —
    /// per address), one connection per server.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] if any connection cannot be established.
    pub fn connect(addrs: &[SocketAddr]) -> Result<NetCluster> {
        let now = Instant::now();
        let endpoints = addrs
            .iter()
            .map(|&addr| Endpoint {
                addr,
                conn: Mutex::new(None),
                redial: Mutex::new((now, REDIAL_MIN)),
            })
            .collect();
        let state = Arc::new(ClientState {
            registry: Mutex::new(HashMap::new()),
            endpoints,
            by_conn: Mutex::new(HashMap::new()),
            down: Mutex::new(Vec::new()),
            pending: Mutex::new(HashMap::new()),
            handle: OnceLock::new(),
            resubmissions: Obs::global().counter(names::NET_RESUBMISSIONS),
        });
        let reactor = Reactor::spawn(Arc::clone(&state) as Arc<dyn Events>, None)?;
        // Dial every server synchronously so a bad address fails the
        // connect (redial-with-backoff takes over from here on).
        let handle = reactor.handle();
        for (idx, ep) in state.endpoints.iter().enumerate() {
            let stream = TcpStream::connect(ep.addr)
                .map_err(|e| Error::io(format!("connecting to object server {}", ep.addr), &e))?;
            let conn = handle.register(stream);
            state
                .by_conn
                .lock()
                .expect("conn route lock")
                .insert(conn.id(), idx);
            *ep.conn.lock().expect("endpoint conn lock") = Some(conn);
        }
        Ok(NetCluster {
            state,
            _reactor: reactor,
        })
    }

    /// Number of connections (one per server), not objects: a server may
    /// host many objects.
    pub fn num_connections(&self) -> usize {
        self.state.endpoints.len()
    }
}

impl Transport<Req, Rep> for NetCluster {
    /// Encode the batch once, straight from the shared requests, and queue
    /// it on the connection to every server — the wire twin of the channel
    /// substrate's one-envelope-per-object broadcast (each server fans
    /// the envelope out to the objects it hosts, which reply with
    /// per-object envelopes). The encoded flush replaces the client's
    /// pending-resubmission entry: only the *latest* flush is ever
    /// re-sent.
    fn send_frames(
        &self,
        from: ClientId,
        frames: &[ReqFrame<Req>],
        reply_to: &Sender<ObjReply<Rep>>,
    ) {
        self.state
            .registry
            .lock()
            .expect("reply registry lock")
            .insert(from, reply_to.clone());
        let bytes = Arc::new(wire::encode_req_envelope(from, frames));
        self.state.pending.lock().expect("pending lock").insert(
            from,
            Pending {
                bytes: Arc::clone(&bytes),
                last_sent: Instant::now(),
                resubmits: 0,
            },
        );
        self.state.broadcast(&bytes);
    }
}
