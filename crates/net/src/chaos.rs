//! [`ChaosProxy`]: a frame-aware TCP relay that injects network faults.
//!
//! The simulator owns scheduling adversaries; the thread runtime, until
//! now, could only crash objects. The chaos proxy gives socket
//! deployments the missing scenario diversity: put one in front of an
//! [`crate::server::ObjectServer`] and every connection through it
//! suffers seeded, reproducible **delay**, **jitter**, **drops** and
//! **reordering** — at wire-frame granularity, so the length-prefixed
//! stream stays well-formed no matter what is dropped or held back. It is
//! `rastor_check::netchaos`'s link fault injector. A partition is not a
//! link fault here: it is cut where the objects live
//! ([`rastor_sim::host::ObjectHost::set_partitioned`]), so a deployment
//! needs no relay to be partitionable.
//!
//! Faults are applied independently per direction per connection, each
//! with its own [`SplitMix64`] stream derived from [`ChaosCfg::seed`], so
//! a scenario replays bit-identically given the same connection order.
//!
//! Delays are head-of-line (each frame's release time is its
//! predecessor's release plus its own delay), which models a slow pipe
//! rather than per-frame independent latency — the realistic shape for a
//! single TCP connection, and the one that lets coalesced batches
//! amortize it. The proxy runs as an [`Events`] handler on one
//! single-worker [`crate::reactor`]: one thread relays every connection
//! in both directions, and delays are timers on the reactor tick rather
//! than threads asleep — a proxy carrying a thousand links costs the
//! same threads as one carrying one.

use crate::reactor::{ConnHandle, Events, Reactor, ReactorHandle};
use rastor_common::{Error, Result, SplitMix64};
use rastor_obs::{names, Counter, Registry};
use std::collections::{BinaryHeap, HashMap};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The `chaos.*` fault counters, resolved once per process — every proxy's
/// injected faults accumulate here, so an operator can see how much
/// scheduled misfortune a scenario actually delivered.
struct ChaosMetrics {
    dropped: Arc<Counter>,
    delayed: Arc<Counter>,
    reordered: Arc<Counter>,
}

fn chaos_metrics() -> &'static ChaosMetrics {
    static METRICS: OnceLock<ChaosMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = Registry::global();
        ChaosMetrics {
            dropped: r.counter(names::CHAOS_FRAMES_DROPPED),
            delayed: r.counter(names::CHAOS_FRAMES_DELAYED),
            reordered: r.counter(names::CHAOS_FRAMES_REORDERED),
        }
    })
}

/// Fault-injection knobs for a [`ChaosProxy`]. The default is a faithful
/// relay (no delay, no faults); set the knobs you want.
#[derive(Clone, Debug)]
pub struct ChaosCfg {
    /// Seed for the per-connection fault streams.
    pub seed: u64,
    /// Fixed latency added to every forwarded frame.
    pub delay: Duration,
    /// Extra uniform-random latency in `[0, jitter)` per frame.
    pub jitter: Duration,
    /// Probability a frame is silently dropped.
    pub drop_prob: f64,
    /// Probability a frame is held back and forwarded *after* its
    /// successor (adjacent reordering; a trailing held frame is flushed
    /// when the connection ends).
    pub reorder_prob: f64,
}

impl Default for ChaosCfg {
    fn default() -> ChaosCfg {
        ChaosCfg {
            seed: 1,
            delay: Duration::ZERO,
            jitter: Duration::ZERO,
            drop_prob: 0.0,
            reorder_prob: 0.0,
        }
    }
}

impl ChaosCfg {
    /// A pure added-latency profile: fixed `delay` plus uniform jitter of
    /// the same magnitude.
    pub fn delay_only(delay: Duration) -> ChaosCfg {
        ChaosCfg {
            delay,
            jitter: delay,
            ..ChaosCfg::default()
        }
    }

    /// Set the drop probability.
    ///
    /// ## Choosing a drop rate
    ///
    /// Drops act on whole **wire frames**, and a client sends *one
    /// coalesced request envelope per shard per flush*: dropping a
    /// request frame therefore starves **every** object of that shard
    /// for the round (the reply direction is gentler — one dropped reply
    /// costs one object's answer). Since the client resubmits a
    /// stalled flush (see [`crate::NetCluster`]), a drop costs one
    /// resubmission interval — tens of milliseconds — not a whole op
    /// deadline, so soaks can run genuinely lossy links:
    ///
    /// ```
    /// use rastor_net::ChaosCfg;
    /// use std::time::Duration;
    ///
    /// // A harsh lossy-link profile a soak still makes progress through:
    /// // ~20% of frames eaten, small head-of-line delay; resubmission
    /// // turns each unlucky flush into a short stall instead of a
    /// // deadline wait.
    /// let cfg = ChaosCfg::delay_only(Duration::from_micros(100)).with_drops(0.20);
    /// assert!(cfg.drop_prob < 1.0, "a link that drops everything is a partition");
    /// ```
    #[must_use]
    pub fn with_drops(mut self, prob: f64) -> ChaosCfg {
        self.drop_prob = prob;
        self
    }

    /// Set the reorder probability.
    #[must_use]
    pub fn with_reordering(mut self, prob: f64) -> ChaosCfg {
        self.reorder_prob = prob;
        self
    }

    /// Set the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> ChaosCfg {
        self.seed = seed;
        self
    }
}

/// A snapshot of one proxy's fault tallies — the per-proxy counterpart of
/// the process-wide `chaos.*` counters, so a chaos *search* can report how
/// much misfortune each individual failing link actually delivered (and a
/// replay can confirm it drew a comparable amount).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Frames relayed toward a peer (after the fault draws).
    pub forwarded: u64,
    /// Frames eaten by the drop probability.
    pub dropped: u64,
    /// Frames held back behind their successor.
    pub reordered: u64,
}

/// One direction of one relayed link, keyed by the conn the proxy *reads*
/// from; faults drawn here apply to frames flowing toward `peer`.
struct DirState {
    peer: ConnHandle,
    rng: SplitMix64,
    held: Option<Vec<u8>>,
    /// Head-of-line release horizon: when the last scheduled frame of
    /// this direction clears the simulated pipe.
    release: Instant,
}

/// A frame (or close sentinel) waiting for its release time.
struct TimedSend {
    at: Instant,
    seq: u64,
    dest: ConnHandle,
    /// `None` closes `dest` — the end-of-stream marker, sequenced after
    /// every frame read before the close.
    bytes: Option<Vec<u8>>,
}

impl PartialEq for TimedSend {
    fn eq(&self, other: &TimedSend) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for TimedSend {}
impl PartialOrd for TimedSend {
    fn partial_cmp(&self, other: &TimedSend) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimedSend {
    fn cmp(&self, other: &TimedSend) -> std::cmp::Ordering {
        // Min-heap by (release, seq): earliest due first, FIFO on ties.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

struct ChaosState {
    upstream: SocketAddr,
    cfg: ChaosCfg,
    next_link: AtomicU64,
    forwarded: AtomicU64,
    dropped: AtomicU64,
    reordered: AtomicU64,
    /// Reading-conn id → that direction's fault state. Lock order: `dirs`
    /// before `delayq`, always.
    dirs: Mutex<HashMap<u64, DirState>>,
    delayq: Mutex<BinaryHeap<TimedSend>>,
    send_seq: AtomicU64,
    handle: OnceLock<ReactorHandle>,
}

impl ChaosState {
    /// Schedule `bytes` toward `dest` at `at` (or close `dest` for
    /// `None`), then deliver everything already due.
    fn schedule(&self, at: Instant, dest: ConnHandle, bytes: Option<Vec<u8>>) {
        self.delayq
            .lock()
            .expect("delay queue lock")
            .push(TimedSend {
                at,
                seq: self.send_seq.fetch_add(1, Ordering::Relaxed),
                dest,
                bytes,
            });
        self.flush_due(Instant::now());
    }

    /// Deliver every scheduled send whose release time has passed.
    /// Returns the next pending release, if any.
    fn flush_due(&self, now: Instant) -> Option<Instant> {
        let mut q = self.delayq.lock().expect("delay queue lock");
        while q.peek().is_some_and(|t| t.at <= now) {
            let t = q.pop().expect("peeked");
            match t.bytes {
                Some(bytes) => {
                    let _ = t.dest.send(&bytes);
                }
                None => t.dest.close(),
            }
        }
        q.peek().map(|t| t.at)
    }
}

impl Events for ChaosState {
    fn on_start(&self, reactor: ReactorHandle) {
        let _ = self.handle.set(reactor);
    }

    fn on_open(&self, conn: &ConnHandle) {
        let mut dirs = self.dirs.lock().expect("dir map lock");
        if dirs.contains_key(&conn.id()) {
            return; // the upstream half of a link we just dialed
        }
        // A client connection: dial the upstream and pair the two
        // directions under one link id, mirroring the per-connection seed
        // shape of the threaded relay (`seed ^ (link << 1) ^ dir`).
        let Ok(stream) = TcpStream::connect(self.upstream) else {
            conn.close();
            return;
        };
        let up = self
            .handle
            .get()
            .expect("reactor handle set at spawn")
            .register(stream);
        let link = self.next_link.fetch_add(1, Ordering::SeqCst);
        let now = Instant::now();
        dirs.insert(
            conn.id(),
            DirState {
                peer: up.clone(),
                rng: SplitMix64::new(self.cfg.seed ^ (link << 1)),
                held: None,
                release: now,
            },
        );
        dirs.insert(
            up.id(),
            DirState {
                peer: conn.clone(),
                rng: SplitMix64::new(self.cfg.seed ^ (link << 1) ^ 1),
                held: None,
                release: now,
            },
        );
    }

    fn on_frame(&self, conn: &ConnHandle, raw: &[u8]) {
        let mut dirs = self.dirs.lock().expect("dir map lock");
        let Some(dir) = dirs.get_mut(&conn.id()) else {
            return; // link torn down under us
        };
        let cfg = &self.cfg;
        if cfg.drop_prob > 0.0 && dir.rng.next_f64() < cfg.drop_prob {
            chaos_metrics().dropped.inc();
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let wait = cfg.delay + cfg.jitter.mul_f64(dir.rng.next_f64());
        let now = Instant::now();
        // Head-of-line: this frame clears the pipe `wait` after the
        // previous one did (or after now, if the pipe was idle).
        let release = dir.release.max(now) + wait;
        dir.release = release;
        if wait > Duration::ZERO {
            chaos_metrics().delayed.inc();
        }
        if cfg.reorder_prob > 0.0 && dir.held.is_none() && dir.rng.next_f64() < cfg.reorder_prob {
            chaos_metrics().reordered.inc();
            self.reordered.fetch_add(1, Ordering::Relaxed);
            dir.held = Some(raw.to_vec());
            return; // forwarded right after its successor
        }
        let peer = dir.peer.clone();
        let held = dir.held.take();
        drop(dirs);
        self.forwarded.fetch_add(1, Ordering::Relaxed);
        self.schedule(release, peer.clone(), Some(raw.to_vec()));
        if let Some(h) = held {
            // The adjacent swap: the held predecessor rides out right
            // behind its successor (same release, later sequence).
            self.forwarded.fetch_add(1, Ordering::Relaxed);
            self.schedule(release, peer, Some(h));
        }
    }

    fn on_close(&self, conn_id: u64) {
        let mut dirs = self.dirs.lock().expect("dir map lock");
        let Some(dir) = dirs.remove(&conn_id) else {
            return;
        };
        let held = dir.held;
        let peer = dir.peer;
        let release = dir.release;
        drop(dirs);
        // Flush a trailing held frame rather than swallowing it. The close
        // itself is sequenced *after* every frame this direction already
        // scheduled.
        if let Some(h) = held {
            self.schedule(release, peer.clone(), Some(h));
        }
        self.schedule(release, peer, None);
    }

    fn on_tick(&self, now: Instant) -> Option<Instant> {
        self.flush_due(now)
    }
}

/// A fault-injecting TCP relay in front of one upstream address.
///
/// Dropping the proxy shuts down the listener and every relayed
/// connection.
pub struct ChaosProxy {
    addr: SocketAddr,
    state: Arc<ChaosState>,
    _reactor: Reactor,
}

impl ChaosProxy {
    /// Bind a loopback listener relaying to `upstream` under `cfg`.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] if the listener cannot bind.
    pub fn spawn(upstream: SocketAddr, cfg: ChaosCfg) -> Result<ChaosProxy> {
        let listener = TcpListener::bind(("127.0.0.1", 0))
            .map_err(|e| Error::io("binding a chaos proxy listener", &e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| Error::io("reading the bound proxy address", &e))?;
        let state = Arc::new(ChaosState {
            upstream,
            cfg,
            next_link: AtomicU64::new(0),
            forwarded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            reordered: AtomicU64::new(0),
            dirs: Mutex::new(HashMap::new()),
            delayq: Mutex::new(BinaryHeap::new()),
            send_seq: AtomicU64::new(0),
            handle: OnceLock::new(),
        });
        // One worker: a relay is pure frame shuffling, and one readiness
        // loop keeps each direction's fault stream strictly ordered by
        // arrival.
        let reactor =
            Reactor::spawn_with(Arc::clone(&state) as Arc<dyn Events>, Some(listener), 1)?;
        Ok(ChaosProxy {
            addr,
            state,
            _reactor: reactor,
        })
    }

    /// The address clients connect to instead of the upstream's.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// This proxy's fault tallies so far.
    pub fn stats(&self) -> ChaosStats {
        ChaosStats {
            forwarded: self.state.forwarded.load(Ordering::Relaxed),
            dropped: self.state.dropped.load(Ordering::Relaxed),
            reordered: self.state.reordered.load(Ordering::Relaxed),
        }
    }
}
