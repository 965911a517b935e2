//! The poll-based reactor behind every socket endpoint in this crate: a
//! readiness loop multiplexing many non-blocking connections onto a small
//! fixed pool of worker threads. [`ObjectServer`](crate::ObjectServer) and
//! [`NetCluster`](crate::NetCluster) both run on it.
//!
//! ## The readiness loop
//!
//! A [`Reactor`] owns N worker threads (default
//! [`DEFAULT_WORKERS`]). Each connection is pinned to one worker
//! (`conn_id % N`); the worker's loop is:
//!
//! 1. adopt newly registered connections, sweep externally closed ones;
//! 2. give the handler a tick ([`Events::on_tick`]) and learn its next
//!    timer deadline;
//! 3. wait for readiness (`poll(2)`) on every connection it owns — for
//!    output too on those with any queued — with that deadline as the
//!    timeout, kept to the next whole millisecond (`poll(2)`'s unit, so
//!    a nearer deadline is never spun on) and never longer than a coarse
//!    idle tick;
//! 4. for each readable connection, read until `WouldBlock`, reassemble
//!    whole frames ([`wire::frame_len`]) from the per-connection buffer,
//!    and hand each one to [`Events::on_frame`];
//! 5. for each writable connection with queued output, flush its bounded
//!    outbox.
//!
//! A connection's first bytes after any silence are therefore seen by
//! the very next wait, however busy the worker's other connections are.
//!
//! ## Buffer ownership and backpressure
//!
//! Each connection owns exactly two buffers. The *read accumulator* lives
//! on the worker thread, and the socket is read straight into its spare
//! room: it holds at most one partial frame's prefix plus whatever whole
//! frames one read burst (at most 64 KiB) delivered; frames are split off
//! and dispatched where they lie, so it never grows past one frame + one
//! read burst, and a received byte is copied only if it belongs to a
//! frame the burst left partial. The *outbox* is a shared, mutex-guarded
//! queue of the output the socket has not taken yet, the partly written
//! front frame included.
//!
//! Writes go through on the sender's thread: [`ConnHandle::send`] on a
//! connection whose outbox is empty makes the non-blocking `write(2)`
//! itself, queues only what the socket did not take, and wakes the worker
//! only then — so a request or reply that fits the socket buffer costs no
//! reactor wakeup. Once anything is queued, later sends append behind it
//! and the worker drains the outbox whenever the socket is writable.
//! Every write, on either thread, happens under the outbox lock and only
//! when nothing queued precedes it, so the bytes on the wire are whole
//! frames in `send` order whoever wrote them.
//!
//! The outbox is bounded ([`MAX_OUTBOX_BYTES`]): when a peer stops
//! reading, [`ConnHandle::send`] drops the frame and reports `false`
//! instead of buffering without limit — the transport contract is
//! best-effort, and a frame dropped to backpressure is indistinguishable
//! from one dropped by the network.
//!
//! ## The poller
//!
//! Readiness waiting is Linux `poll(2)`, declared by hand (the one foreign
//! call in the workspace) and woken through a self-pipe; the crate does
//! not build for other targets.

use crate::wire;
use rastor_common::{Error, Result};
use rastor_obs::{names, Counter, Registry};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default worker-thread count per reactor. Two is enough to overlap
/// frame processing with handler work at every scale the benches drive;
/// the point is that it does **not** grow with connections or objects.
pub const DEFAULT_WORKERS: usize = 2;

/// Ceiling on one connection's queued-but-unwritten output. Beyond it,
/// [`ConnHandle::send`] sheds frames (best-effort semantics) instead of
/// buffering without bound against a peer that stopped reading.
pub const MAX_OUTBOX_BYTES: usize = 8 * 1024 * 1024;

/// The coarse idle tick: the longest a worker sleeps when no timer is
/// pending. Wakeups for I/O and queued sends are immediate (waker); the
/// tick only bounds how stale [`Events::on_tick`] housekeeping can get.
const IDLE_TICK: Duration = Duration::from_millis(20);

/// The most one read burst takes off a socket before its frames are
/// dispatched.
const READ_CHUNK: usize = 64 * 1024;

/// The `net.*` reactor seam handles, resolved once per process (reactors
/// come and go; the counters accumulate across all of them).
struct ReactorMetrics {
    wakeups: Arc<Counter>,
    conns_open: Arc<Counter>,
}

fn reactor_metrics() -> &'static ReactorMetrics {
    static METRICS: OnceLock<ReactorMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = Registry::global();
        ReactorMetrics {
            wakeups: r.counter(names::NET_READINESS_WAKEUPS),
            conns_open: r.counter(names::NET_CONNS_OPEN),
        }
    })
}

// ---------------------------------------------------------------------------
// The poller
// ---------------------------------------------------------------------------

#[cfg(not(target_os = "linux"))]
compile_error!("rastor_net's reactor waits in Linux poll(2); no other target is supported");

/// One readiness interest for [`Poller::wait`]: an OS handle plus whether
/// its owner has pending output (so the poller should watch writability
/// too).
struct Interest {
    fd: i32,
    write: bool,
}

/// A handle that interrupts one worker's [`Poller::wait`] from any
/// thread: the writer half of the worker's self-pipe.
struct Waker(UnixStream);

impl Waker {
    /// Wake the worker. Cheap, idempotent while a wake is already
    /// pending, and safe from any thread.
    fn wake(&self) {
        // A full pipe means a wake is already pending; any other error
        // means the worker is gone. Both are fine to ignore.
        let _ = (&self.0).write(&[1]);
    }
}

/// The hand-declared `poll(2)` binding — one of the workspace's two
/// foreign calls (the other is `rastor_store`'s `renameat2(2)`), kept to
/// the three-field `pollfd` record and the syscall itself.
#[allow(unsafe_code)]
mod sys {
    /// `struct pollfd` from `poll(2)`.
    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: std::ffi::c_int) -> i32;
    }

    /// Wait on `fds` for up to `timeout_ms` (0 = return immediately).
    /// Returns the number of ready records, 0 on timeout, -1 on error
    /// (EINTR included — callers treat it as a timeout).
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> i32 {
        // SAFETY: `fds` is a valid exclusively-borrowed slice of
        // `#[repr(C)]` pollfd records matching the kernel ABI, and nfds
        // is its exact length; poll writes only within the slice.
        unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, timeout_ms) }
    }
}

/// The readiness wait a reactor worker blocks in: `poll(2)` over the
/// worker's interests plus the reader half of its self-pipe. One syscall
/// per wakeup regardless of connection count.
struct Poller {
    /// Reader half of the self-pipe, always first in the poll set.
    waker_rx: UnixStream,
    fds: Vec<sys::PollFd>,
}

impl Poller {
    fn new() -> Result<(Poller, Waker)> {
        let (rx, tx) =
            UnixStream::pair().map_err(|e| Error::io("creating a reactor waker pipe", &e))?;
        rx.set_nonblocking(true)
            .map_err(|e| Error::io("configuring the waker pipe", &e))?;
        tx.set_nonblocking(true)
            .map_err(|e| Error::io("configuring the waker pipe", &e))?;
        Ok((
            Poller {
                waker_rx: rx,
                fds: Vec::new(),
            },
            Waker(tx),
        ))
    }

    /// Wait until a source in `interests` is ready, the waker fires, or
    /// `timeout`, rounded up to a whole millisecond, elapses (a zero
    /// timeout does not block). Returns the ready interest-list indices
    /// as `(index, readable, writable)`.
    fn wait(&mut self, interests: &[Interest], timeout: Duration) -> Vec<(usize, bool, bool)> {
        self.fds.clear();
        self.fds.push(sys::PollFd {
            fd: self.waker_rx.as_raw_fd(),
            events: sys::POLLIN,
            revents: 0,
        });
        for it in interests {
            self.fds.push(sys::PollFd {
                fd: it.fd,
                events: sys::POLLIN | if it.write { sys::POLLOUT } else { 0 },
                revents: 0,
            });
        }
        let ms = i32::try_from(timeout.as_micros().div_ceil(1_000)).unwrap_or(i32::MAX);
        let n = sys::poll_fds(&mut self.fds, ms);
        let mut out = Vec::new();
        if n > 0 {
            if self.fds[0].revents != 0 {
                // Drain every pending wake so the pipe never fills.
                let mut sink = [0u8; 64];
                while matches!((&self.waker_rx).read(&mut sink), Ok(n) if n > 0) {}
            }
            for (i, pfd) in self.fds[1..].iter().enumerate() {
                let rd =
                    pfd.revents & (sys::POLLIN | sys::POLLERR | sys::POLLHUP | sys::POLLNVAL) != 0;
                let wr = pfd.revents & (sys::POLLOUT | sys::POLLERR | sys::POLLHUP) != 0;
                if rd || wr {
                    out.push((i, rd, wr));
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Connections
// ---------------------------------------------------------------------------

/// Write as much of `buf` as the socket takes without blocking. Returns
/// the byte count written, or `None` on a dead socket.
fn write_some(mut stream: &TcpStream, buf: &[u8]) -> Option<usize> {
    let mut off = 0;
    while off < buf.len() {
        match stream.write(&buf[off..]) {
            Ok(0) => return None,
            Ok(n) => off += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return None,
        }
    }
    Some(off)
}

/// The output a connection's socket has not taken yet: frames in `send`
/// order, the front one possibly partly written. Empty means nothing is
/// in flight, so the next byte written must start a frame.
struct Outbox {
    queue: VecDeque<Vec<u8>>,
    /// Bytes of the front frame already written.
    front_off: usize,
    /// Unwritten bytes across the queue.
    queued_bytes: usize,
}

impl Outbox {
    /// Write queued output until the queue is empty or the socket would
    /// block. Returns `false` on a dead socket.
    fn flush(&mut self, stream: &TcpStream) -> bool {
        while let Some(front) = self.queue.front() {
            let Some(n) = write_some(stream, &front[self.front_off..]) else {
                return false;
            };
            self.front_off += n;
            self.queued_bytes -= n;
            if self.front_off < front.len() {
                break;
            }
            self.queue.pop_front();
            self.front_off = 0;
        }
        true
    }
}

struct ConnShared {
    id: u64,
    /// Non-blocking from registration on: the worker reads it, and
    /// whichever thread holds the outbox lock with nothing queued writes
    /// it.
    stream: TcpStream,
    outbox: Mutex<Outbox>,
    /// Mirror of `outbox.queued_bytes`, readable without the lock: the
    /// worker reads it for every connection on every iteration, and must
    /// not contend there with the threads that are sending.
    queued: AtomicUsize,
    closed: AtomicBool,
    worker: Arc<WorkerShared>,
    #[cfg(test)]
    sends: AtomicU64,
}

/// A registered connection, cloneable into any thread that needs to send
/// on it. Sends are best-effort and never block: a send on an idle
/// connection writes the socket on the caller's thread, and the owning
/// worker does the rest of the I/O — every read, and the writes of
/// whatever a send had to queue.
#[derive(Clone)]
pub struct ConnHandle {
    shared: Arc<ConnShared>,
}

impl ConnHandle {
    /// The reactor-global connection id.
    pub fn id(&self) -> u64 {
        self.shared.id
    }

    /// Send one encoded frame. If nothing is queued ahead of it, the
    /// frame is written on the calling thread, and only the part the
    /// socket does not take is copied into the outbox for the worker to
    /// finish. Returns `false` — dropping the frame, never blocking —
    /// when the connection is closed (a write error here closes it) or
    /// the frame would take the outbox over [`MAX_OUTBOX_BYTES`].
    pub fn send(&self, frame: &[u8]) -> bool {
        #[cfg(test)]
        self.shared.sends.fetch_add(1, Ordering::Relaxed);
        if self.shared.closed.load(Ordering::Acquire) {
            return false;
        }
        let mut ob = self.shared.outbox.lock().expect("outbox lock");
        if ob.queued_bytes + frame.len() > MAX_OUTBOX_BYTES {
            return false;
        }
        let idle = ob.queue.is_empty();
        let written = if idle {
            let Some(n) = write_some(&self.shared.stream, frame) else {
                drop(ob);
                self.close();
                return false;
            };
            n
        } else {
            0
        };
        if written < frame.len() {
            ob.queue.push_back(frame[written..].to_vec());
            ob.queued_bytes += frame.len() - written;
            self.shared.queued.store(ob.queued_bytes, Ordering::Release);
            drop(ob);
            // Only the empty → non-empty edge wakes the worker: after it,
            // the worker either has a wake pending or already waits for
            // writability on this connection.
            if idle {
                self.shared.worker.waker.wake();
            }
        }
        true
    }

    /// Ask the owning worker to tear the connection down. Idempotent;
    /// [`Events::on_close`] fires exactly once, from the worker.
    pub fn close(&self) {
        self.shared.closed.store(true, Ordering::Release);
        self.shared.worker.sweep.store(true, Ordering::Release);
        self.shared.worker.waker.wake();
    }

    /// Whether the connection has been closed (locally or by the peer).
    pub fn is_closed(&self) -> bool {
        self.shared.closed.load(Ordering::Acquire)
    }

    /// [`ConnHandle::send`] calls on this connection so far.
    #[cfg(test)]
    pub(crate) fn sends(&self) -> u64 {
        self.shared.sends.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// The handler a [`Reactor`] drives. One handler instance serves every
/// worker thread concurrently — implementations synchronize their own
/// state.
pub trait Events: Send + Sync + 'static {
    /// The reactor is about to start its workers; keep the handle if the
    /// handler needs to register connections of its own (dials).
    fn on_start(&self, _reactor: ReactorHandle) {}

    /// A connection was adopted by its worker (accepted or registered).
    fn on_open(&self, _conn: &ConnHandle) {}

    /// One whole raw frame (header + body, framing pre-validated) arrived.
    fn on_frame(&self, conn: &ConnHandle, raw: &[u8]);

    /// The connection is gone — peer hang-up, I/O error, unalignable
    /// bytes, or a local [`ConnHandle::close`].
    fn on_close(&self, _conn_id: u64) {}

    /// Housekeeping tick, called once per worker loop iteration. Return
    /// the next timer deadline to bound the worker's poll timeout, or
    /// `None` to sleep until I/O (at most the idle tick).
    fn on_tick(&self, _now: Instant) -> Option<Instant> {
        None
    }
}

// ---------------------------------------------------------------------------
// The reactor
// ---------------------------------------------------------------------------

struct WorkerShared {
    waker: Waker,
    /// Connections registered but not yet adopted by this worker.
    inbox: Mutex<Vec<Arc<ConnShared>>>,
    /// Set when some conn of this worker was closed externally, so the
    /// worker knows to sweep (avoids an O(conns) scan per iteration).
    sweep: AtomicBool,
}

struct Core {
    shutdown: AtomicBool,
    next_conn: AtomicU64,
    workers: Vec<Arc<WorkerShared>>,
    /// Every live connection, for [`ReactorHandle::close_all`]; workers
    /// prune entries as connections die.
    conns: Mutex<HashMap<u64, Arc<ConnShared>>>,
}

/// A cloneable reference to a running reactor: register dialed
/// connections, close every connection, count what is open.
#[derive(Clone)]
pub struct ReactorHandle {
    core: Arc<Core>,
}

impl ReactorHandle {
    /// Adopt an already-connected stream: pin it to a worker, start
    /// reading frames from it. The returned handle can send immediately,
    /// before the worker has picked the stream up.
    pub fn register(&self, stream: TcpStream) -> ConnHandle {
        let id = self.core.next_conn.fetch_add(1, Ordering::Relaxed);
        let worker = Arc::clone(&self.core.workers[id as usize % self.core.workers.len()]);
        // Set before the handle escapes: its first send may write the
        // socket on the caller's thread, and that write must not block.
        // A stream that cannot be made non-blocking is never written.
        let blocking = stream.set_nonblocking(true).is_err();
        let _ = stream.set_nodelay(true);
        let shared = Arc::new(ConnShared {
            id,
            stream,
            outbox: Mutex::new(Outbox {
                queue: VecDeque::new(),
                front_off: 0,
                queued_bytes: 0,
            }),
            queued: AtomicUsize::new(0),
            closed: AtomicBool::new(blocking || self.core.shutdown.load(Ordering::Acquire)),
            worker: Arc::clone(&worker),
            #[cfg(test)]
            sends: AtomicU64::new(0),
        });
        reactor_metrics().conns_open.inc();
        self.core
            .conns
            .lock()
            .expect("reactor conn map lock")
            .insert(id, Arc::clone(&shared));
        worker
            .inbox
            .lock()
            .expect("worker inbox lock")
            .push(Arc::clone(&shared));
        worker.waker.wake();
        ConnHandle { shared }
    }

    /// Close every live connection (the listener, if any, stays up) —
    /// the mid-traffic socket-kill fault injector.
    pub fn close_all(&self) {
        let conns: Vec<Arc<ConnShared>> = self
            .core
            .conns
            .lock()
            .expect("reactor conn map lock")
            .values()
            .cloned()
            .collect();
        for c in conns {
            ConnHandle { shared: c }.close();
        }
    }
}

/// A running readiness loop: N worker threads, one optional listener,
/// one [`Events`] handler. Dropping it closes every connection and joins
/// the workers.
pub struct Reactor {
    core: Arc<Core>,
    threads: Vec<JoinHandle<()>>,
}

impl Reactor {
    /// Spawn a reactor with [`DEFAULT_WORKERS`] workers.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] if poller or listener setup fails.
    pub fn spawn(handler: Arc<dyn Events>, listener: Option<TcpListener>) -> Result<Reactor> {
        Reactor::spawn_with(handler, listener, DEFAULT_WORKERS)
    }

    /// Spawn with an explicit worker count.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] if poller or listener setup fails.
    pub fn spawn_with(
        handler: Arc<dyn Events>,
        listener: Option<TcpListener>,
        workers: usize,
    ) -> Result<Reactor> {
        let workers = workers.max(1);
        let mut pollers = Vec::with_capacity(workers);
        let mut shareds = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (p, waker) = Poller::new()?;
            pollers.push(p);
            shareds.push(Arc::new(WorkerShared {
                waker,
                inbox: Mutex::new(Vec::new()),
                sweep: AtomicBool::new(false),
            }));
        }
        if let Some(l) = &listener {
            l.set_nonblocking(true)
                .map_err(|e| Error::io("configuring a non-blocking listener", &e))?;
        }
        let core = Arc::new(Core {
            shutdown: AtomicBool::new(false),
            next_conn: AtomicU64::new(0),
            workers: shareds,
            conns: Mutex::new(HashMap::new()),
        });
        handler.on_start(ReactorHandle {
            core: Arc::clone(&core),
        });
        let mut threads = Vec::with_capacity(workers);
        let mut listener = listener;
        for (idx, poller) in pollers.into_iter().enumerate() {
            let core = Arc::clone(&core);
            let handler = Arc::clone(&handler);
            let listener = if idx == 0 { listener.take() } else { None };
            threads.push(std::thread::spawn(move || {
                worker_loop(&core, idx, handler.as_ref(), poller, listener);
            }));
        }
        Ok(Reactor { core, threads })
    }

    /// A cloneable handle to this reactor.
    pub fn handle(&self) -> ReactorHandle {
        ReactorHandle {
            core: Arc::clone(&self.core),
        }
    }

    /// Worker-thread count — fixed at spawn, independent of connections
    /// and of whatever the handler hosts.
    pub fn worker_count(&self) -> usize {
        self.threads.len()
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.core.shutdown.store(true, Ordering::SeqCst);
        for w in &self.core.workers {
            w.waker.wake();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// One worker's connection state, owned by its thread.
struct ConnState {
    shared: Arc<ConnShared>,
    /// Read accumulator, read into directly: at most one partial frame
    /// plus one read burst.
    rdbuf: Vec<u8>,
}

/// What one interest-list slot refers to.
enum Token {
    Listener,
    Conn(u64),
}

fn worker_loop(
    core: &Arc<Core>,
    idx: usize,
    handler: &dyn Events,
    mut poller: Poller,
    listener: Option<TcpListener>,
) {
    let me = Arc::clone(&core.workers[idx]);
    let mut conns: HashMap<u64, ConnState> = HashMap::new();
    let mut interests: Vec<Interest> = Vec::new();
    let mut tokens: Vec<Token> = Vec::new();

    loop {
        if core.shutdown.load(Ordering::Acquire) {
            break;
        }

        // Adopt registrations.
        let adopts: Vec<Arc<ConnShared>> = me
            .inbox
            .lock()
            .expect("worker inbox lock")
            .drain(..)
            .collect();
        for shared in adopts {
            if shared.closed.load(Ordering::Acquire) {
                teardown(core, handler, &shared);
                continue;
            }
            let conn = ConnHandle {
                shared: Arc::clone(&shared),
            };
            conns.insert(
                shared.id,
                ConnState {
                    shared,
                    rdbuf: Vec::new(),
                },
            );
            handler.on_open(&conn);
        }

        // Sweep externally closed connections.
        if me.sweep.swap(false, Ordering::AcqRel) {
            let dead: Vec<u64> = conns
                .iter()
                .filter(|(_, c)| c.shared.closed.load(Ordering::Acquire))
                .map(|(&id, _)| id)
                .collect();
            for id in dead {
                if let Some(c) = conns.remove(&id) {
                    teardown(core, handler, &c.shared);
                }
            }
        }

        // Tick, then wait.
        let now = Instant::now();
        let deadline = handler.on_tick(now);
        let timeout = deadline
            .map(|d| d.saturating_duration_since(now))
            .unwrap_or(IDLE_TICK)
            .min(IDLE_TICK);
        interests.clear();
        tokens.clear();
        if let Some(l) = &listener {
            interests.push(Interest {
                fd: l.as_raw_fd(),
                write: false,
            });
            tokens.push(Token::Listener);
        }
        for (&id, c) in &conns {
            interests.push(Interest {
                fd: c.shared.stream.as_raw_fd(),
                write: c.shared.queued.load(Ordering::Acquire) > 0,
            });
            tokens.push(Token::Conn(id));
        }
        let ready = poller.wait(&interests, timeout);
        reactor_metrics().wakeups.inc();

        // Process readiness.
        let mut to_close: Vec<u64> = Vec::new();
        for (i, rd, wr) in ready {
            match tokens[i] {
                Token::Listener => {
                    accept_burst(listener.as_ref().expect("listener token"), core);
                }
                Token::Conn(id) => {
                    if let Some(c) = conns.get_mut(&id) {
                        if !service(c, handler, rd, wr) {
                            to_close.push(id);
                        }
                    }
                }
            }
        }
        for id in to_close {
            if let Some(c) = conns.remove(&id) {
                teardown(core, handler, &c.shared);
            }
        }
    }

    // Shutdown: tear down everything this worker owns.
    for c in conns.into_values() {
        teardown(core, handler, &c.shared);
    }
}

/// Accept every pending connection.
fn accept_burst(listener: &TcpListener, core: &Arc<Core>) {
    let handle = ReactorHandle {
        core: Arc::clone(core),
    };
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                handle.register(stream);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// Service one connection's I/O. Returns whether it is still alive.
fn service(c: &mut ConnState, handler: &dyn Events, readable: bool, writable: bool) -> bool {
    if c.shared.closed.load(Ordering::Acquire) {
        return false;
    }
    if writable && !flush(c) {
        return false;
    }
    if readable {
        loop {
            // One burst, read straight into the accumulator's spare room
            // behind the partial frame it holds: until the socket would
            // block, the peer hangs up, or a burst's worth has arrived.
            let held = c.rdbuf.len();
            c.rdbuf.reserve(READ_CHUNK);
            let read = (&c.shared.stream)
                .take(READ_CHUNK as u64)
                .read_to_end(&mut c.rdbuf);
            let burst = c.rdbuf.len() - held;
            if burst > 0 && !dispatch(c, handler) {
                return false;
            }
            match read {
                Ok(_) if burst == READ_CHUNK => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                // End of stream, or a dead socket.
                Ok(_) | Err(_) => return false,
            }
        }
    }
    // Replies sent while reading went out on this thread already, or
    // queued behind output that waits for writability.
    true
}

/// Hand every whole frame at the front of the read accumulator to the
/// handler, keeping the partial frame behind them. Returns whether the
/// connection is still alive.
fn dispatch(c: &mut ConnState, handler: &dyn Events) -> bool {
    let mut consumed = 0;
    loop {
        let rest = &c.rdbuf[consumed..];
        match wire::frame_len(rest) {
            Ok(Some(len)) if rest.len() >= len => {
                let conn = ConnHandle {
                    shared: Arc::clone(&c.shared),
                };
                handler.on_frame(&conn, &rest[..len]);
                consumed += len;
            }
            Ok(_) => break,
            // Unalignable bytes: the stream is garbage from here on; drop
            // the connection.
            Err(_) => {
                c.rdbuf.clear();
                return false;
            }
        }
    }
    c.rdbuf.drain(..consumed);
    !c.shared.closed.load(Ordering::Acquire)
}

/// Write as much queued output as the socket takes. Returns `false` on a
/// dead socket.
fn flush(c: &ConnState) -> bool {
    let mut ob = c.shared.outbox.lock().expect("outbox lock");
    let alive = ob.flush(&c.shared.stream);
    c.shared.queued.store(ob.queued_bytes, Ordering::Release);
    alive
}

fn teardown(core: &Core, handler: &dyn Events, shared: &ConnShared) {
    shared.closed.store(true, Ordering::Release);
    let _ = shared.stream.shutdown(Shutdown::Both);
    core.conns
        .lock()
        .expect("reactor conn map lock")
        .remove(&shared.id);
    handler.on_close(shared.id);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Frame;
    use std::sync::mpsc;

    /// Reports opens and closes and, when asked, parks its worker in
    /// `on_tick` until released — so a test can act on a connection while
    /// no worker touches it.
    struct Probe {
        opened: mpsc::Sender<()>,
        closed: mpsc::Sender<()>,
        hold: AtomicBool,
        parked: mpsc::Sender<()>,
        release: Mutex<mpsc::Receiver<()>>,
    }

    impl Events for Probe {
        fn on_open(&self, _conn: &ConnHandle) {
            let _ = self.opened.send(());
        }

        fn on_frame(&self, _conn: &ConnHandle, _raw: &[u8]) {}

        fn on_close(&self, _conn_id: u64) {
            let _ = self.closed.send(());
        }

        fn on_tick(&self, _now: Instant) -> Option<Instant> {
            if self.hold.swap(false, Ordering::SeqCst) {
                let _ = self.parked.send(());
                let _ = self.release.lock().expect("release lock").recv();
            }
            None
        }
    }

    /// One worker, one adopted connection on it, and the peer's end.
    struct Rig {
        // Dropped before `reactor`, so a failed test never leaves the
        // worker parked while the reactor joins it.
        release: mpsc::Sender<()>,
        reactor: Reactor,
        probe: Arc<Probe>,
        parked: mpsc::Receiver<()>,
        closed: mpsc::Receiver<()>,
        conn: ConnHandle,
        peer: TcpStream,
    }

    fn rig() -> Rig {
        let (opened, opened_rx) = mpsc::channel();
        let (closed, closed_rx) = mpsc::channel();
        let (parked, parked_rx) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let probe = Arc::new(Probe {
            opened,
            closed,
            hold: AtomicBool::new(false),
            parked,
            release: Mutex::new(release_rx),
        });
        let reactor =
            Reactor::spawn_with(Arc::clone(&probe) as Arc<dyn Events>, None, 1).expect("reactor");
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let stream = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let conn = reactor.handle().register(stream);
        let (peer, _) = listener.accept().expect("accept");
        peer.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        opened_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("worker adopts the connection");
        Rig {
            release,
            reactor,
            probe,
            parked: parked_rx,
            closed: closed_rx,
            conn,
            peer,
        }
    }

    impl Rig {
        /// On return the worker is blocked in `on_tick`: every socket
        /// operation until `release` fires is the test thread's own.
        fn park(&self) {
            self.probe.hold.store(true, Ordering::SeqCst);
            self.conn.shared.worker.waker.wake();
            self.parked
                .recv_timeout(Duration::from_secs(10))
                .expect("worker parks");
        }

        fn queued_frames(&self) -> usize {
            self.conn
                .shared
                .outbox
                .lock()
                .expect("outbox lock")
                .queue
                .len()
        }
    }

    /// A well-framed frame of `len` body-ish bytes, distinct per length.
    fn frame(len: usize) -> Vec<u8> {
        wire::encode_frame(&Frame::AdminRep {
            corr: len as u64,
            ok: true,
            detail: "x".repeat(len),
        })
    }

    #[test]
    fn send_sheds_at_the_outbox_cap_against_a_peer_that_never_reads() {
        let r = rig();
        let frame = vec![0u8; 64 * 1024];
        // Kernel buffers take a few MiB before the outbox starts to fill.
        let attempts = (MAX_OUTBOX_BYTES + 64 * 1024 * 1024) / frame.len();
        let shed = (0..attempts).any(|_| {
            let took = r.conn.send(&frame);
            let queued = r.conn.shared.queued.load(Ordering::SeqCst);
            assert!(
                queued <= MAX_OUTBOX_BYTES,
                "outbox over its cap: {queued} B"
            );
            !took
        });
        assert!(shed, "send never shed against a peer that never reads");
        let queued = r.conn.shared.queued.load(Ordering::SeqCst);
        assert!(
            queued + frame.len() > MAX_OUTBOX_BYTES,
            "shed with room for the frame: {queued} B queued"
        );
        assert!(
            !r.conn.is_closed() && r.closed.try_recv().is_err(),
            "backpressure must not close the connection"
        );
    }

    /// With the worker parked, only the caller's own write can find the
    /// peer gone — after a plain close (FIN) or a reset (a close with
    /// unread bytes) — and the close it triggers reaches `on_close`
    /// exactly once, from the worker.
    #[test]
    fn a_caller_side_write_error_closes_the_connection_once() {
        for reset in [false, true] {
            let r = rig();
            if reset {
                assert!(r.conn.send(&frame(16)), "written through before the reset");
            }
            r.park();
            drop(r.peer);
            let mut sends = 0;
            while r.conn.send(&frame(1024)) {
                sends += 1;
                assert!(
                    sends < 100,
                    "sends kept succeeding to a closed peer (reset: {reset})"
                );
            }
            assert!(
                r.conn.is_closed(),
                "a failed write must close (reset: {reset})"
            );
            assert!(r.closed.try_recv().is_err(), "on_close ran off the worker");
            r.release.send(()).expect("worker parked");
            r.closed
                .recv_timeout(Duration::from_secs(10))
                .expect("the worker reports the close");
            drop(r.reactor);
            assert!(
                r.closed.try_recv().is_err(),
                "on_close fired twice (reset: {reset})"
            );
        }
    }

    /// A partly written frame in the outbox keeps the socket for itself:
    /// a later send queues behind it even when the socket has room, or
    /// its bytes would land inside the unfinished frame. Checked for both
    /// kinds of partial front: the remainder a caller's own write left,
    /// and a frame the worker's flush stopped inside.
    #[test]
    fn a_send_queues_behind_a_partly_written_frame() {
        let mut r = rig();
        r.park();
        let mut sent = Vec::new();
        let mut make_room = |r: &mut Rig| {
            let mut chunk = vec![0u8; 256 * 1024];
            r.peer.read_exact(&mut chunk).expect("peer reads");
            sent.extend_from_slice(&chunk);
        };

        let big = frame(6 * 1024 * 1024);
        assert!(r.conn.send(&big));
        assert_eq!(r.queued_frames(), 1, "the socket took a 6 MiB frame whole");
        make_room(&mut r);
        let small = frame(8);
        assert!(r.conn.send(&small));
        assert_eq!(
            r.queued_frames(),
            2,
            "a send wrote past a caller's remainder"
        );

        // Stand in for the parked worker: flush into the room just made.
        {
            let mut ob = r.conn.shared.outbox.lock().expect("outbox lock");
            assert!(ob.flush(&r.conn.shared.stream));
            assert!(ob.front_off > 0, "the flush did not stop inside the frame");
        }
        make_room(&mut r);
        let tiny = frame(1);
        assert!(r.conn.send(&tiny));
        assert_eq!(r.queued_frames(), 3, "a send wrote past a flushed part");
        r.release.send(()).expect("worker parked");

        let want = [big, small, tiny].concat();
        let mut rest = vec![0u8; want.len() - sent.len()];
        r.peer.read_exact(&mut rest).expect("peer reads the rest");
        sent.extend_from_slice(&rest);
        assert!(sent == want, "the frames arrived changed or reordered");
    }

    /// Counts its ticks and always wants the next one 200 µs out.
    struct Eager(AtomicU64);

    impl Events for Eager {
        fn on_frame(&self, _conn: &ConnHandle, _raw: &[u8]) {}

        fn on_tick(&self, now: Instant) -> Option<Instant> {
            self.0.fetch_add(1, Ordering::Relaxed);
            Some(now + Duration::from_micros(200))
        }
    }

    /// A sub-millisecond deadline is kept to the next whole millisecond,
    /// not spun on: a handler that always wants a tick 200 µs out gets at
    /// most one per millisecond.
    #[test]
    fn a_sub_millisecond_deadline_waits_out_a_whole_millisecond() {
        let eager = Arc::new(Eager(AtomicU64::new(0)));
        let reactor =
            Reactor::spawn_with(Arc::clone(&eager) as Arc<dyn Events>, None, 1).expect("reactor");
        std::thread::sleep(Duration::from_millis(100));
        let ticks = eager.0.load(Ordering::Relaxed);
        drop(reactor);
        assert!(
            (1..200).contains(&ticks),
            "{ticks} ticks in 100 ms: the worker spun"
        );
    }
}
