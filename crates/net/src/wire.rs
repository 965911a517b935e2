//! The wire codec: hand-rolled, dependency-free binary encoding for the
//! full `rastor_core::msg` vocabulary and the coalesced envelope shapes of
//! the thread runtime, framed for a byte stream.
//!
//! ## Frame layout
//!
//! Every message on the wire is one *frame*:
//!
//! ```text
//! offset  size  field
//! 0       2     magic  = b"rW"
//! 2       1     version = WIRE_VERSION
//! 3       1     kind    (1 = request envelope, 2 = reply envelope,
//!                        3 = version mismatch, 4–11 = control plane)
//! 4       4     body length, u32 little-endian
//! 8       n     body
//! ```
//!
//! Inside the body everything is fixed-width little-endian; byte strings
//! and sequences carry a `u32` length prefix. The layout is versioned
//! (decoders reject a foreign [`WIRE_VERSION`] with
//! [`Error::VersionMismatch`]) and self-delimiting, so relays like the
//! chaos proxy can cut the stream into whole frames without understanding
//! the bodies ([`read_raw_frame`]).
//!
//! ## The control plane and correlation ids
//!
//! Kinds 4–11 are the *ops plane*: status/metrics queries, pushed counter
//! reports, and admin commands, multiplexed over the same connections as
//! data traffic. Every control body **leads with a `u64` correlation id**
//! — a client-chosen token echoed verbatim in the reply, so one socket can
//! carry many concurrent control ops. The leading-corr layout is a
//! cross-version contract: even a peer speaking a different
//! [`WIRE_VERSION`] can lift the first 8 body bytes of a refused control
//! frame into its [`Frame::VersionMismatch`] reply, letting a multiplexed
//! client attribute the refusal to the right in-flight op.
//!
//! Malformed input — truncation, bad tags, an oversized length prefix,
//! garbage where the magic should be, or trailing bytes inside a body —
//! decodes to [`Error::Codec`], never to a panic: a Byzantine peer owns
//! the bytes it sends us.

use rastor_common::bytes::{put_bytes, put_len, put_u32, put_u64, Dec};
use rastor_common::{ClientId, Error, ObjectId, RegId, Result, Timestamp, TsVal, Value};
use rastor_core::msg::{AckKind, ObjectView, Rep, Req, Stamped};
use rastor_core::token::Token;
use std::io::{Read, Write};

/// The wire protocol version this build speaks.
///
/// History: v1 was the pre-tracing layout; v2 added a `u64` trace id to
/// every request/reply frame and the `TraceReq`/`Trace` control pair. A
/// v1 peer is refused per frame with [`Frame::VersionMismatch`] — the
/// negotiation machinery predates the bump, so mixed fleets fail loudly
/// and keep their connections usable.
pub const WIRE_VERSION: u8 = 2;

/// The two magic bytes opening every frame.
pub const MAGIC: [u8; 2] = *b"rW";

/// Frame header length (magic + version + kind + body length).
pub const HEADER_LEN: usize = 8;

/// Ceiling on a frame body (a corrupt length prefix must not look like a
/// 4 GiB allocation request).
pub const MAX_BODY_LEN: usize = 16 * 1024 * 1024;

const KIND_REQ: u8 = 1;
const KIND_REP: u8 = 2;
const KIND_VERSION_MISMATCH: u8 = 3;
const KIND_STATUS_REQ: u8 = 4;
const KIND_STATUS: u8 = 5;
const KIND_METRICS_REQ: u8 = 6;
const KIND_METRICS: u8 = 7;
const KIND_REPORT: u8 = 8;
const KIND_ACK: u8 = 9;
const KIND_ADMIN_REQ: u8 = 10;
const KIND_ADMIN_REP: u8 = 11;
const KIND_TRACE_REQ: u8 = 12;
const KIND_TRACE: u8 = 13;
const KIND_MAX: u8 = KIND_TRACE;

/// One round of one operation inside a request envelope, as carried on the
/// wire (the owned twin of `rastor_sim::runtime::ReqFrame`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WireReqFrame {
    /// Nonce of the operation the frame belongs to.
    pub op_nonce: u64,
    /// The round the frame drives.
    pub round: u32,
    /// The operation's trace id (0 when the client traces nothing) —
    /// carried end to end so server-side spans join the same trace.
    pub trace: u64,
    /// The round's request.
    pub req: Req,
}

/// A coalesced request envelope: every frame one client had pending for
/// one cluster at flush time. Servers broadcast the frames to every object
/// they host.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReqEnvelope {
    /// The submitting client.
    pub from: ClientId,
    /// The coalesced frames.
    pub frames: Vec<WireReqFrame>,
}

/// One reply frame inside a reply envelope.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WireRepFrame {
    /// Nonce of the operation the reply belongs to.
    pub op_nonce: u64,
    /// The round the reply answers.
    pub round: u32,
    /// The request frame's trace id, echoed back (0 when untraced).
    pub trace: u64,
    /// The object's reply.
    pub rep: Rep,
}

/// A coalesced reply envelope from one object to one client. `to` lets a
/// connection shared by many clients route each reply to the right reply
/// channel.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RepEnvelope {
    /// The client the replies are for.
    pub to: ClientId,
    /// The replying object (cluster-global id).
    pub from: ObjectId,
    /// One frame per answered request frame.
    pub frames: Vec<WireRepFrame>,
}

/// The status of one object hosted by an [`crate::ObjectServer`], as
/// reported in a [`Frame::Status`] reply — the host's own view.
pub use rastor_sim::host::ObjectStatus;

/// An administrative command carried by [`Frame::AdminReq`] — the verbs of
/// the `rastor` CLI, executed by the deployment's ops listener.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AdminCmd {
    /// Kill object `object` of shard `shard` and restart it from disk
    /// (requires a recoverable durability config).
    RestartObject {
        /// The target shard.
        shard: u32,
        /// The cluster-global object id within the shard.
        object: u32,
    },
    /// Crash object `object` of shard `shard` without restarting it.
    CrashObject {
        /// The target shard.
        shard: u32,
        /// The cluster-global object id within the shard.
        object: u32,
    },
    /// Toggle the chaos proxy partition on shard `shard`'s link.
    Partition {
        /// The target shard.
        shard: u32,
        /// `true` heals nothing — it *starts* dropping every frame;
        /// `false` lifts the partition.
        on: bool,
    },
}

/// Any decoded frame.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Frame {
    /// A client → server request envelope.
    Req(ReqEnvelope),
    /// A server → client reply envelope.
    Rep(RepEnvelope),
    /// Version negotiation: the sender refuses a frame because it speaks
    /// `want`, not the `got` the frame carried. Sent by a server in reply
    /// to a foreign-version frame (whose body it skipped whole, so the
    /// connection stays aligned and usable — see
    /// [`read_frame_admitting`]).
    VersionMismatch {
        /// The version byte of the refused frame.
        got: u8,
        /// The version the sender speaks ([`WIRE_VERSION`]).
        want: u8,
        /// The first 8 body bytes of the refused frame, read as a
        /// little-endian `u64` (0 if the body was shorter). For a refused
        /// control frame this is its correlation id — the contract that
        /// lets a multiplexed client pin the refusal on the right op.
        corr: u64,
    },
    /// A status query (control plane): "who do you host, and how are
    /// they?". Answered with [`Frame::Status`] echoing `corr`.
    StatusReq {
        /// Correlation id, echoed in the reply.
        corr: u64,
    },
    /// A server's answer to [`Frame::StatusReq`].
    Status {
        /// The query's correlation id.
        corr: u64,
        /// One entry per hosted object.
        objects: Vec<ObjectStatus>,
    },
    /// A metrics snapshot query (control plane). Answered with
    /// [`Frame::Metrics`] echoing `corr`.
    MetricsReq {
        /// Correlation id, echoed in the reply.
        corr: u64,
    },
    /// A server's answer to [`Frame::MetricsReq`]: its registry serialized
    /// as a `rastor-metrics/v1` JSON document.
    Metrics {
        /// The query's correlation id.
        corr: u64,
        /// The `rastor-metrics/v1` document.
        json: String,
    },
    /// A client *pushing* counters to a server's registry (e.g. `rastor
    /// bench` reporting per-shard fast/slow read counts to the shard that
    /// earned them). Acknowledged with [`Frame::Ack`].
    Report {
        /// Correlation id, echoed in the [`Frame::Ack`].
        corr: u64,
        /// `(counter name, increment)` pairs, applied via
        /// `Registry::add_counter` (invalid names are dropped, never
        /// fatal).
        counts: Vec<(String, u64)>,
    },
    /// A bare acknowledgement of a control frame that has no richer reply.
    Ack {
        /// The acknowledged frame's correlation id.
        corr: u64,
    },
    /// An administrative command (control plane), answered with
    /// [`Frame::AdminRep`].
    AdminReq {
        /// Correlation id, echoed in the reply.
        corr: u64,
        /// The command.
        cmd: AdminCmd,
    },
    /// The outcome of an [`Frame::AdminReq`].
    AdminRep {
        /// The command's correlation id.
        corr: u64,
        /// Whether the command succeeded.
        ok: bool,
        /// Human-readable detail (an error message when `!ok`).
        detail: String,
    },
    /// A slow-op trace query (control plane): "dump your captured slow-op
    /// traces". Answered with [`Frame::Trace`] echoing `corr`.
    TraceReq {
        /// Correlation id, echoed in the reply.
        corr: u64,
    },
    /// A server's answer to [`Frame::TraceReq`]: its span recorder's
    /// captured slow-op traces as a `rastor-traces/v1` JSON document.
    Trace {
        /// The query's correlation id.
        corr: u64,
        /// The `rastor-traces/v1` document.
        json: String,
    },
}

impl Frame {
    /// The correlation id of a control frame (including a
    /// [`Frame::VersionMismatch`], which echoes the refused frame's);
    /// `None` for data envelopes.
    pub fn corr(&self) -> Option<u64> {
        match self {
            Frame::Req(_) | Frame::Rep(_) => None,
            Frame::VersionMismatch { corr, .. }
            | Frame::StatusReq { corr }
            | Frame::Status { corr, .. }
            | Frame::MetricsReq { corr }
            | Frame::Metrics { corr, .. }
            | Frame::Report { corr, .. }
            | Frame::Ack { corr }
            | Frame::AdminReq { corr, .. }
            | Frame::AdminRep { corr, .. }
            | Frame::TraceReq { corr }
            | Frame::Trace { corr, .. } => Some(*corr),
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_client(out: &mut Vec<u8>, id: ClientId) {
    match id {
        ClientId::Writer => out.push(0),
        ClientId::Reader(i) => {
            out.push(1);
            put_u32(out, i);
        }
    }
}

fn put_reg(out: &mut Vec<u8>, reg: RegId) {
    match reg {
        RegId::Writer(i) => {
            out.push(0);
            put_u32(out, i);
        }
        RegId::ReaderReg(i) => {
            out.push(1);
            put_u32(out, i);
        }
    }
}

fn put_pair(out: &mut Vec<u8>, pair: &TsVal) {
    put_u64(out, pair.ts.0);
    put_bytes(out, pair.val.as_bytes());
}

fn put_stamped(out: &mut Vec<u8>, s: &Stamped) {
    put_pair(out, &s.pair);
    match s.token {
        None => out.push(0),
        Some(tok) => {
            out.push(1);
            put_u64(out, tok.to_bits());
        }
    }
}

fn put_view(out: &mut Vec<u8>, v: &ObjectView) {
    put_stamped(out, &v.pw);
    put_stamped(out, &v.w);
    put_len(out, v.hist.len());
    for s in &v.hist {
        put_stamped(out, s);
    }
}

fn ack_kind_tag(kind: AckKind) -> u8 {
    match kind {
        AckKind::Store => 0,
        AckKind::PreWrite => 1,
        AckKind::Commit => 2,
    }
}

/// Append the body encoding of one request to `out`.
pub fn encode_req(req: &Req, out: &mut Vec<u8>) {
    match req {
        Req::Collect { regs } => {
            out.push(0);
            put_len(out, regs.len());
            for r in regs {
                put_reg(out, *r);
            }
        }
        Req::Store { reg, pair } => {
            out.push(1);
            put_reg(out, *reg);
            put_stamped(out, pair);
        }
        Req::PreWrite { reg, pair } => {
            out.push(2);
            put_reg(out, *reg);
            put_stamped(out, pair);
        }
        Req::Commit { reg, pair } => {
            out.push(3);
            put_reg(out, *reg);
            put_stamped(out, pair);
        }
    }
}

/// Append the body encoding of one reply to `out`.
pub fn encode_rep(rep: &Rep, out: &mut Vec<u8>) {
    match rep {
        Rep::Views { views } => {
            out.push(0);
            put_len(out, views.len());
            for (reg, view) in views {
                put_reg(out, *reg);
                put_view(out, view);
            }
        }
        Rep::Ack { reg, kind } => {
            out.push(1);
            put_reg(out, *reg);
            out.push(ack_kind_tag(*kind));
        }
    }
}

fn encode_body(frame: &Frame, out: &mut Vec<u8>) {
    match frame {
        Frame::Req(env) => {
            put_client(out, env.from);
            put_len(out, env.frames.len());
            for f in &env.frames {
                put_u64(out, f.op_nonce);
                put_u32(out, f.round);
                put_u64(out, f.trace);
                encode_req(&f.req, out);
            }
        }
        Frame::Rep(env) => {
            put_client(out, env.to);
            put_u32(out, env.from.0);
            put_len(out, env.frames.len());
            for f in &env.frames {
                put_u64(out, f.op_nonce);
                put_u32(out, f.round);
                put_u64(out, f.trace);
                encode_rep(&f.rep, out);
            }
        }
        // Control bodies lead with the u64 corr — see the module docs for
        // why the position is load-bearing across versions. The
        // VersionMismatch body is the exception: it is a *reply about* a
        // corr, laid out as (got, want, corr).
        Frame::VersionMismatch { got, want, corr } => {
            out.push(*got);
            out.push(*want);
            put_u64(out, *corr);
        }
        Frame::StatusReq { corr }
        | Frame::MetricsReq { corr }
        | Frame::Ack { corr }
        | Frame::TraceReq { corr } => {
            put_u64(out, *corr);
        }
        Frame::Status { corr, objects } => {
            put_u64(out, *corr);
            put_len(out, objects.len());
            for o in objects {
                put_u32(out, o.id.0);
                out.push(u8::from(o.crashed));
                put_u64(out, o.served);
            }
        }
        Frame::Metrics { corr, json } | Frame::Trace { corr, json } => {
            put_u64(out, *corr);
            put_bytes(out, json.as_bytes());
        }
        Frame::Report { corr, counts } => {
            put_u64(out, *corr);
            put_len(out, counts.len());
            for (name, n) in counts {
                put_bytes(out, name.as_bytes());
                put_u64(out, *n);
            }
        }
        Frame::AdminReq { corr, cmd } => {
            put_u64(out, *corr);
            match cmd {
                AdminCmd::RestartObject { shard, object } => {
                    out.push(0);
                    put_u32(out, *shard);
                    put_u32(out, *object);
                }
                AdminCmd::CrashObject { shard, object } => {
                    out.push(1);
                    put_u32(out, *shard);
                    put_u32(out, *object);
                }
                AdminCmd::Partition { shard, on } => {
                    out.push(2);
                    put_u32(out, *shard);
                    out.push(u8::from(*on));
                }
            }
        }
        Frame::AdminRep { corr, ok, detail } => {
            put_u64(out, *corr);
            out.push(u8::from(*ok));
            put_bytes(out, detail.as_bytes());
        }
    }
}

/// Encode one frame — header and body — into a fresh byte vector.
///
/// # Panics
///
/// Panics if the body exceeds [`MAX_BODY_LEN`] (a single coalesced
/// envelope that large indicates a runaway batch, not a workload).
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&MAGIC);
    out.push(WIRE_VERSION);
    out.push(match frame {
        Frame::Req(_) => KIND_REQ,
        Frame::Rep(_) => KIND_REP,
        Frame::VersionMismatch { .. } => KIND_VERSION_MISMATCH,
        Frame::StatusReq { .. } => KIND_STATUS_REQ,
        Frame::Status { .. } => KIND_STATUS,
        Frame::MetricsReq { .. } => KIND_METRICS_REQ,
        Frame::Metrics { .. } => KIND_METRICS,
        Frame::Report { .. } => KIND_REPORT,
        Frame::Ack { .. } => KIND_ACK,
        Frame::AdminReq { .. } => KIND_ADMIN_REQ,
        Frame::AdminRep { .. } => KIND_ADMIN_REP,
        Frame::TraceReq { .. } => KIND_TRACE_REQ,
        Frame::Trace { .. } => KIND_TRACE,
    });
    put_u32(&mut out, 0); // patched below
    encode_body(frame, &mut out);
    let body_len = out.len() - HEADER_LEN;
    assert!(body_len <= MAX_BODY_LEN, "frame body exceeds MAX_BODY_LEN");
    out[4..8].copy_from_slice(
        &u32::try_from(body_len)
            .expect("checked above")
            .to_le_bytes(),
    );
    out
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

// The bounds-checked cursor and its primitive reads live in
// `rastor_common::bytes` (shared with the on-disk codec); these are the
// wire layout's domain decoders on top of it.

fn read_client(d: &mut Dec<'_>) -> Result<ClientId> {
    match d.u8()? {
        0 => Ok(ClientId::Writer),
        1 => Ok(ClientId::Reader(d.u32()?)),
        t => Err(Error::codec(format!("unknown client tag {t}"))),
    }
}

fn read_reg(d: &mut Dec<'_>) -> Result<RegId> {
    match d.u8()? {
        0 => Ok(RegId::Writer(d.u32()?)),
        1 => Ok(RegId::ReaderReg(d.u32()?)),
        t => Err(Error::codec(format!("unknown register tag {t}"))),
    }
}

fn read_pair(d: &mut Dec<'_>) -> Result<TsVal> {
    let ts = Timestamp(d.u64()?);
    let val = Value::from_bytes(d.bytes()?.to_vec());
    Ok(TsVal::new(ts, val))
}

fn read_stamped(d: &mut Dec<'_>) -> Result<Stamped> {
    let pair = read_pair(d)?;
    let token = match d.u8()? {
        0 => None,
        1 => Some(Token::from_bits(d.u64()?)),
        t => Err(Error::codec(format!("unknown token-presence tag {t}")))?,
    };
    Ok(Stamped { pair, token })
}

fn read_view(d: &mut Dec<'_>) -> Result<ObjectView> {
    let pw = read_stamped(d)?;
    let w = read_stamped(d)?;
    let n = d.seq_len()?;
    let mut hist = Vec::with_capacity(n);
    for _ in 0..n {
        hist.push(read_stamped(d)?);
    }
    Ok(ObjectView { pw, w, hist })
}

fn read_ack_kind(d: &mut Dec<'_>) -> Result<AckKind> {
    match d.u8()? {
        0 => Ok(AckKind::Store),
        1 => Ok(AckKind::PreWrite),
        2 => Ok(AckKind::Commit),
        t => Err(Error::codec(format!("unknown ack kind {t}"))),
    }
}

fn read_req(d: &mut Dec<'_>) -> Result<Req> {
    match d.u8()? {
        0 => {
            let n = d.seq_len()?;
            let mut regs = Vec::with_capacity(n);
            for _ in 0..n {
                regs.push(read_reg(d)?);
            }
            Ok(Req::Collect { regs })
        }
        1 => Ok(Req::Store {
            reg: read_reg(d)?,
            pair: read_stamped(d)?,
        }),
        2 => Ok(Req::PreWrite {
            reg: read_reg(d)?,
            pair: read_stamped(d)?,
        }),
        3 => Ok(Req::Commit {
            reg: read_reg(d)?,
            pair: read_stamped(d)?,
        }),
        t => Err(Error::codec(format!("unknown request tag {t}"))),
    }
}

fn read_rep(d: &mut Dec<'_>) -> Result<Rep> {
    match d.u8()? {
        0 => {
            let n = d.seq_len()?;
            let mut views = Vec::with_capacity(n);
            for _ in 0..n {
                let reg = read_reg(d)?;
                let view = read_view(d)?;
                views.push((reg, view));
            }
            Ok(Rep::Views { views })
        }
        1 => Ok(Rep::Ack {
            reg: read_reg(d)?,
            kind: read_ack_kind(d)?,
        }),
        t => Err(Error::codec(format!("unknown reply tag {t}"))),
    }
}

/// Decode one request from a standalone body (the inverse of
/// [`encode_req`]); rejects trailing bytes.
///
/// # Errors
///
/// [`Error::Codec`] on any malformation.
pub fn decode_req(body: &[u8]) -> Result<Req> {
    let mut d = Dec::new(body);
    let req = read_req(&mut d)?;
    d.done()?;
    Ok(req)
}

/// Decode one reply from a standalone body (the inverse of
/// [`encode_rep`]); rejects trailing bytes.
///
/// # Errors
///
/// [`Error::Codec`] on any malformation.
pub fn decode_rep(body: &[u8]) -> Result<Rep> {
    let mut d = Dec::new(body);
    let rep = read_rep(&mut d)?;
    d.done()?;
    Ok(rep)
}

/// Validate only the alignment-critical header fields — magic and body
/// length — and return `(version, kind, body_len)` unjudged. This is what
/// lets a negotiating reader consume a well-framed foreign-version frame
/// whole and keep the stream aligned.
fn decode_framing(header: &[u8; HEADER_LEN]) -> Result<(u8, u8, usize)> {
    if header[0..2] != MAGIC {
        return Err(Error::codec(format!(
            "bad magic {:02x}{:02x} (expected {:02x}{:02x})",
            header[0], header[1], MAGIC[0], MAGIC[1]
        )));
    }
    let body_len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) as usize;
    if body_len > MAX_BODY_LEN {
        return Err(Error::codec(format!(
            "frame body of {body_len} bytes exceeds the {MAX_BODY_LEN}-byte ceiling"
        )));
    }
    Ok((header[2], header[3], body_len))
}

/// Judge the version and kind bytes [`decode_framing`] left unjudged.
fn check_version_and_kind(version: u8, kind: u8) -> Result<()> {
    if version != WIRE_VERSION {
        return Err(Error::VersionMismatch {
            got: version,
            want: WIRE_VERSION,
        });
    }
    if !(KIND_REQ..=KIND_MAX).contains(&kind) {
        return Err(Error::codec(format!("unknown frame kind {kind}")));
    }
    Ok(())
}

/// Validate a frame header. Returns `(kind, body_len)`.
fn decode_header(header: &[u8; HEADER_LEN]) -> Result<(u8, usize)> {
    let (version, kind, body_len) = decode_framing(header)?;
    check_version_and_kind(version, kind)?;
    Ok((kind, body_len))
}

fn decode_body(kind: u8, body: &[u8]) -> Result<Frame> {
    let mut d = Dec::new(body);
    let frame = match kind {
        KIND_REQ => {
            let from = read_client(&mut d)?;
            let n = d.seq_len()?;
            let mut frames = Vec::with_capacity(n);
            for _ in 0..n {
                frames.push(WireReqFrame {
                    op_nonce: d.u64()?,
                    round: d.u32()?,
                    trace: d.u64()?,
                    req: read_req(&mut d)?,
                });
            }
            Frame::Req(ReqEnvelope { from, frames })
        }
        KIND_REP => {
            let to = read_client(&mut d)?;
            let from = ObjectId(d.u32()?);
            let n = d.seq_len()?;
            let mut frames = Vec::with_capacity(n);
            for _ in 0..n {
                frames.push(WireRepFrame {
                    op_nonce: d.u64()?,
                    round: d.u32()?,
                    trace: d.u64()?,
                    rep: read_rep(&mut d)?,
                });
            }
            Frame::Rep(RepEnvelope { to, from, frames })
        }
        KIND_VERSION_MISMATCH => Frame::VersionMismatch {
            got: d.u8()?,
            want: d.u8()?,
            corr: d.u64()?,
        },
        KIND_STATUS_REQ => Frame::StatusReq { corr: d.u64()? },
        KIND_STATUS => {
            let corr = d.u64()?;
            let n = d.seq_len()?;
            let mut objects = Vec::with_capacity(n);
            for _ in 0..n {
                objects.push(ObjectStatus {
                    id: ObjectId(d.u32()?),
                    crashed: read_bool(&mut d)?,
                    served: d.u64()?,
                });
            }
            Frame::Status { corr, objects }
        }
        KIND_METRICS_REQ => Frame::MetricsReq { corr: d.u64()? },
        KIND_METRICS => Frame::Metrics {
            corr: d.u64()?,
            json: read_string(&mut d)?,
        },
        KIND_REPORT => {
            let corr = d.u64()?;
            let n = d.seq_len()?;
            let mut counts = Vec::with_capacity(n);
            for _ in 0..n {
                let name = read_string(&mut d)?;
                let count = d.u64()?;
                counts.push((name, count));
            }
            Frame::Report { corr, counts }
        }
        KIND_ACK => Frame::Ack { corr: d.u64()? },
        KIND_ADMIN_REQ => {
            let corr = d.u64()?;
            let cmd = match d.u8()? {
                0 => AdminCmd::RestartObject {
                    shard: d.u32()?,
                    object: d.u32()?,
                },
                1 => AdminCmd::CrashObject {
                    shard: d.u32()?,
                    object: d.u32()?,
                },
                2 => AdminCmd::Partition {
                    shard: d.u32()?,
                    on: read_bool(&mut d)?,
                },
                t => return Err(Error::codec(format!("unknown admin command tag {t}"))),
            };
            Frame::AdminReq { corr, cmd }
        }
        KIND_ADMIN_REP => Frame::AdminRep {
            corr: d.u64()?,
            ok: read_bool(&mut d)?,
            detail: read_string(&mut d)?,
        },
        KIND_TRACE_REQ => Frame::TraceReq { corr: d.u64()? },
        KIND_TRACE => Frame::Trace {
            corr: d.u64()?,
            json: read_string(&mut d)?,
        },
        _ => unreachable!("decode_header admits only known kinds"),
    };
    d.done()?;
    Ok(frame)
}

fn read_bool(d: &mut Dec<'_>) -> Result<bool> {
    match d.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        t => Err(Error::codec(format!("unknown bool tag {t}"))),
    }
}

fn read_string(d: &mut Dec<'_>) -> Result<String> {
    String::from_utf8(d.bytes()?.to_vec())
        .map_err(|e| Error::codec(format!("invalid utf-8 in a wire string: {e}")))
}

/// Decode one frame from the front of `bytes`. Returns the frame and the
/// number of bytes consumed.
///
/// # Errors
///
/// [`Error::Codec`] on malformation (including a `bytes` shorter than the
/// frame its header announces) and [`Error::VersionMismatch`] on a foreign
/// version byte.
pub fn decode_frame(bytes: &[u8]) -> Result<(Frame, usize)> {
    let header: &[u8; HEADER_LEN] = bytes
        .get(..HEADER_LEN)
        .and_then(|h| h.try_into().ok())
        .ok_or_else(|| {
            Error::codec(format!(
                "truncated header: {} of {HEADER_LEN} bytes",
                bytes.len()
            ))
        })?;
    let (kind, body_len) = decode_header(header)?;
    let body = bytes
        .get(HEADER_LEN..HEADER_LEN + body_len)
        .ok_or_else(|| {
            Error::codec(format!(
                "truncated body: {} of {body_len} bytes",
                bytes.len() - HEADER_LEN
            ))
        })?;
    Ok((decode_body(kind, body)?, HEADER_LEN + body_len))
}

/// Write one frame to a stream.
///
/// # Errors
///
/// [`Error::Io`] if the write fails.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<()> {
    let bytes = encode_frame(frame);
    w.write_all(&bytes)
        .and_then(|()| w.flush())
        .map_err(|e| Error::io("writing a wire frame", &e))
}

/// Read and decode one frame from a stream.
///
/// # Errors
///
/// [`Error::Io`] on a read failure (including a peer hang-up),
/// [`Error::Codec`] / [`Error::VersionMismatch`] on malformed bytes.
pub fn read_frame(r: &mut impl Read) -> Result<Frame> {
    let raw = read_raw_frame(r)?;
    let (frame, used) = decode_frame(&raw)?;
    debug_assert_eq!(used, raw.len());
    Ok(frame)
}

/// What [`read_frame_admitting`] pulled off the stream: a frame this
/// build speaks, or a well-framed *foreign* frame it admitted (consumed
/// whole, keeping the stream aligned) without being able to decode.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Negotiated {
    /// A current-version frame, decoded.
    Frame(Frame),
    /// A foreign-version frame, consumed and discarded. `corr` is the
    /// first 8 body bytes as a little-endian `u64` (0 if shorter) — the
    /// refused frame's correlation id when it was a control frame, which
    /// the responder should echo in its [`Frame::VersionMismatch`].
    Foreign {
        /// The foreign version byte.
        got: u8,
        /// The (presumed) correlation id of the refused body.
        corr: u64,
    },
}

/// Read one frame from a stream, *admitting* foreign versions: a frame
/// that is well framed (good magic, sane length) but carries a foreign
/// version byte has its body read and discarded — the stream stays
/// frame-aligned — and comes back as [`Negotiated::Foreign`] carrying the
/// version byte and the body's leading correlation id. The caller can
/// answer with a [`Frame::VersionMismatch`] (echoing that corr) and keep
/// serving the connection; the next read picks up at the next frame
/// boundary.
///
/// [`read_frame`], by contrast, leaves the foreign body unread — right
/// for a peer that treats a version mismatch as fatal, wrong for one that
/// wants the connection to survive it.
///
/// # Errors
///
/// [`Error::Io`] on a read failure, [`Error::Codec`] on malformed bytes
/// (including a foreign frame whose announced length exceeds
/// [`MAX_BODY_LEN`] — a length beyond the ceiling cannot be trusted to
/// realign the stream).
pub fn read_frame_admitting(r: &mut impl Read) -> Result<Negotiated> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)
        .map_err(|e| Error::io("reading a frame header", &e))?;
    let (version, kind, body_len) = decode_framing(&header)?;
    let mut body = vec![0u8; body_len];
    r.read_exact(&mut body)
        .map_err(|e| Error::io("reading a frame body", &e))?;
    if version != WIRE_VERSION {
        let corr = body
            .get(..8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
            .unwrap_or(0);
        return Ok(Negotiated::Foreign { got: version, corr });
    }
    check_version_and_kind(version, kind)?;
    Ok(Negotiated::Frame(decode_body(kind, &body)?))
}

/// As [`read_frame_admitting`], but a foreign frame surfaces as
/// [`Error::VersionMismatch`] — for callers that only need the error, not
/// the refused frame's correlation id.
///
/// # Errors
///
/// [`Error::VersionMismatch`] on a foreign (but well-framed) version
/// byte; otherwise as [`read_frame_admitting`].
pub fn read_frame_negotiating(r: &mut impl Read) -> Result<Frame> {
    match read_frame_admitting(r)? {
        Negotiated::Frame(frame) => Ok(frame),
        Negotiated::Foreign { got, .. } => Err(Error::VersionMismatch {
            got,
            want: WIRE_VERSION,
        }),
    }
}

/// Incremental reassembly: the total size (header + body) of the frame at
/// the front of `buf`, or `None` when too few bytes have arrived to tell.
/// Validates only the alignment-critical framing — magic and length
/// ceiling — so a reactor connection can split a *foreign-version* frame
/// off its read buffer whole and answer it with a
/// [`Frame::VersionMismatch`], exactly as [`read_frame_admitting`] does on
/// a blocking stream. Inspect the split bytes with [`raw_version`] /
/// [`raw_corr`] before decoding.
///
/// # Errors
///
/// [`Error::Codec`] on bad magic or an oversized length prefix — the
/// stream cannot be realigned and the connection should be dropped.
pub fn frame_len(buf: &[u8]) -> Result<Option<usize>> {
    let Some(header) = buf.get(..HEADER_LEN) else {
        return Ok(None);
    };
    let header: &[u8; HEADER_LEN] = header.try_into().expect("HEADER_LEN bytes");
    let (_, _, body_len) = decode_framing(header)?;
    Ok(Some(HEADER_LEN + body_len))
}

/// The version byte of one raw frame (as split off by [`frame_len`] or
/// read by [`read_raw_frame`]).
///
/// # Panics
///
/// Panics if `raw` is shorter than a header.
pub fn raw_version(raw: &[u8]) -> u8 {
    assert!(raw.len() >= HEADER_LEN, "raw frame shorter than a header");
    raw[2]
}

/// The leading correlation id of one raw frame's body: the first 8 body
/// bytes as a little-endian `u64`, 0 when the body is shorter — the
/// cross-version contract a [`Frame::VersionMismatch`] reply echoes (see
/// [`Negotiated::Foreign`]).
pub fn raw_corr(raw: &[u8]) -> u64 {
    raw.get(HEADER_LEN..HEADER_LEN + 8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
        .unwrap_or(0)
}

/// Read one frame's verbatim bytes (header + body) from a stream without
/// decoding the body — the primitive relays like the chaos proxy cut the
/// stream with. The header is still validated, so a desynchronized stream
/// fails fast instead of smearing garbage downstream.
///
/// # Errors
///
/// As [`read_frame`].
pub fn read_raw_frame(r: &mut impl Read) -> Result<Vec<u8>> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)
        .map_err(|e| Error::io("reading a frame header", &e))?;
    let (_, body_len) = decode_header(&header)?;
    let mut raw = vec![0u8; HEADER_LEN + body_len];
    raw[..HEADER_LEN].copy_from_slice(&header);
    r.read_exact(&mut raw[HEADER_LEN..])
        .map_err(|e| Error::io("reading a frame body", &e))?;
    Ok(raw)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(ts: u64, v: u64) -> TsVal {
        TsVal::new(Timestamp(ts), Value::from_u64(v))
    }

    fn sample_req_env() -> ReqEnvelope {
        ReqEnvelope {
            from: ClientId::reader(3),
            frames: vec![
                WireReqFrame {
                    op_nonce: 7,
                    round: 1,
                    trace: 0xfeed_beef,
                    req: Req::Collect {
                        regs: vec![RegId::WRITER, RegId::ReaderReg(2)],
                    },
                },
                WireReqFrame {
                    op_nonce: 8,
                    round: 3,
                    trace: 0,
                    req: Req::Commit {
                        reg: RegId::Writer(1),
                        pair: Stamped::plain(pair(4, 44)),
                    },
                },
            ],
        }
    }

    #[test]
    fn envelope_roundtrip() {
        let env = sample_req_env();
        let bytes = encode_frame(&Frame::Req(env.clone()));
        let (frame, used) = decode_frame(&bytes).expect("decodes");
        assert_eq!(used, bytes.len());
        assert_eq!(frame, Frame::Req(env));
    }

    #[test]
    fn rep_envelope_roundtrip_with_views() {
        let env = RepEnvelope {
            to: ClientId::writer(),
            from: ObjectId(2),
            frames: vec![WireRepFrame {
                op_nonce: 1,
                round: 2,
                trace: 9,
                rep: Rep::Views {
                    views: vec![(
                        RegId::WRITER,
                        ObjectView {
                            pw: Stamped::plain(pair(2, 20)),
                            w: Stamped::plain(pair(1, 10)),
                            hist: vec![Stamped::bottom(), Stamped::plain(pair(1, 10))],
                        },
                    )],
                },
            }],
        };
        let bytes = encode_frame(&Frame::Rep(env.clone()));
        assert_eq!(decode_frame(&bytes).expect("decodes").0, Frame::Rep(env));
    }

    #[test]
    fn version_mismatch_is_its_own_error() {
        let mut bytes = encode_frame(&Frame::Req(sample_req_env()));
        bytes[2] = WIRE_VERSION + 1;
        assert_eq!(
            decode_frame(&bytes).unwrap_err(),
            Error::VersionMismatch {
                got: WIRE_VERSION + 1,
                want: WIRE_VERSION
            }
        );
    }

    #[test]
    fn version_mismatch_frame_roundtrips() {
        let frame = Frame::VersionMismatch {
            got: 9,
            want: WIRE_VERSION,
            corr: 0xdead_beef_cafe_f00d,
        };
        let bytes = encode_frame(&frame);
        assert_eq!(decode_frame(&bytes).expect("decodes").0, frame);
    }

    fn sample_control_frames() -> Vec<Frame> {
        vec![
            Frame::StatusReq { corr: 1 },
            Frame::Status {
                corr: 2,
                objects: vec![
                    ObjectStatus {
                        id: ObjectId(0),
                        crashed: false,
                        served: 41,
                    },
                    ObjectStatus {
                        id: ObjectId(3),
                        crashed: true,
                        served: 0,
                    },
                ],
            },
            Frame::MetricsReq { corr: 3 },
            Frame::Metrics {
                corr: 4,
                json: "{\n  \"schema\": \"rastor-metrics/v1\"\n}".into(),
            },
            Frame::Report {
                corr: 5,
                counts: vec![("kv.reads_fast.0".into(), 17), ("kv.reads_slow".into(), 2)],
            },
            Frame::Ack { corr: 6 },
            Frame::AdminReq {
                corr: 7,
                cmd: AdminCmd::RestartObject {
                    shard: 1,
                    object: 2,
                },
            },
            Frame::AdminReq {
                corr: 8,
                cmd: AdminCmd::CrashObject {
                    shard: 0,
                    object: 3,
                },
            },
            Frame::AdminReq {
                corr: 9,
                cmd: AdminCmd::Partition { shard: 2, on: true },
            },
            Frame::AdminRep {
                corr: 10,
                ok: false,
                detail: "durability 'in-memory' cannot recover state".into(),
            },
            Frame::TraceReq { corr: 11 },
            Frame::Trace {
                corr: 12,
                json: "{\n\"schema\": \"rastor-traces/v1\"\n}".into(),
            },
        ]
    }

    #[test]
    fn control_frames_roundtrip() {
        for frame in sample_control_frames() {
            let bytes = encode_frame(&frame);
            let (decoded, used) = decode_frame(&bytes).expect("decodes");
            assert_eq!(used, bytes.len());
            assert_eq!(decoded, frame);
        }
    }

    /// Every control body leads with the correlation id — the
    /// cross-version contract [`Negotiated::Foreign`] relies on.
    #[test]
    fn control_bodies_lead_with_their_corr() {
        for frame in sample_control_frames() {
            let corr = frame.corr().expect("control frames carry a corr");
            let bytes = encode_frame(&frame);
            let lead = u64::from_le_bytes(bytes[HEADER_LEN..HEADER_LEN + 8].try_into().unwrap());
            assert_eq!(lead, corr, "in {frame:?}");
        }
    }

    #[test]
    fn every_control_truncation_is_a_codec_error() {
        for frame in sample_control_frames() {
            let bytes = encode_frame(&frame);
            for cut in HEADER_LEN..bytes.len() {
                let mut cropped = bytes[..cut].to_vec();
                // Patch the length so only the *body* is short — the pure
                // header truncations are covered elsewhere.
                let body_len = u32::try_from(cut - HEADER_LEN).unwrap();
                cropped[4..8].copy_from_slice(&body_len.to_le_bytes());
                match decode_frame(&cropped) {
                    Err(Error::Codec { .. }) => {}
                    Ok((decoded, _)) if cut == bytes.len() => assert_eq!(decoded, frame),
                    other => panic!("{frame:?} cut at {cut}: unexpected {other:?}"),
                }
            }
        }
    }

    /// A foreign-version control frame comes back as
    /// [`Negotiated::Foreign`] with the refused body's leading corr — and
    /// the stream stays aligned for the next frame.
    #[test]
    fn admitting_read_lifts_the_foreign_corr() {
        let mut buf = encode_frame(&Frame::StatusReq { corr: 777 });
        buf[2] = WIRE_VERSION + 5;
        buf.extend_from_slice(&encode_frame(&Frame::Ack { corr: 9 }));
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(
            read_frame_admitting(&mut cursor).expect("admitted"),
            Negotiated::Foreign {
                got: WIRE_VERSION + 5,
                corr: 777
            }
        );
        assert_eq!(
            read_frame_admitting(&mut cursor).expect("aligned"),
            Negotiated::Frame(Frame::Ack { corr: 9 })
        );
    }

    /// A foreign frame with a body shorter than 8 bytes has no corr to
    /// lift; it must come back as 0, not an error.
    #[test]
    fn foreign_corr_defaults_to_zero_on_short_bodies() {
        let mut bytes = encode_frame(&Frame::VersionMismatch {
            got: 1,
            want: 1,
            corr: 0,
        });
        bytes[2] = WIRE_VERSION + 1;
        bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
        bytes.truncate(HEADER_LEN + 2);
        let mut cursor = std::io::Cursor::new(bytes);
        assert_eq!(
            read_frame_admitting(&mut cursor).expect("admitted"),
            Negotiated::Foreign {
                got: WIRE_VERSION + 1,
                corr: 0
            }
        );
    }

    #[test]
    fn non_utf8_wire_strings_are_codec_errors() {
        let frame = Frame::Metrics {
            corr: 1,
            json: "aaaa".into(),
        };
        let mut bytes = encode_frame(&frame);
        let len = bytes.len();
        bytes[len - 4..].copy_from_slice(&[0xff, 0xfe, 0x80, 0x80]);
        assert!(matches!(
            decode_frame(&bytes).unwrap_err(),
            Error::Codec { .. }
        ));
    }

    /// The negotiating read consumes a foreign-version frame whole — body
    /// included — so the very next read picks up the following frame
    /// intact. The plain [`read_frame`] on the same bytes would leave the
    /// foreign body in the stream and desynchronize.
    #[test]
    fn negotiating_read_skips_a_foreign_body_and_stays_aligned() {
        let env = Frame::Req(sample_req_env());
        let mut buf = encode_frame(&env);
        buf[2] = WIRE_VERSION + 3; // frame 1: from the future
        buf.extend_from_slice(&encode_frame(&env)); // frame 2: current
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(
            read_frame_negotiating(&mut cursor).unwrap_err(),
            Error::VersionMismatch {
                got: WIRE_VERSION + 3,
                want: WIRE_VERSION
            }
        );
        assert_eq!(
            read_frame_negotiating(&mut cursor).expect("aligned"),
            env,
            "the frame after the skipped one decodes intact"
        );
    }

    /// An oversized length prefix is rejected by the negotiating read
    /// even when the version byte is foreign: a length beyond the ceiling
    /// cannot be trusted to realign the stream, so it is a codec error,
    /// not a skippable mismatch.
    #[test]
    fn negotiating_read_rejects_oversized_foreign_frames() {
        let mut bytes = encode_frame(&Frame::Req(sample_req_env()));
        bytes[2] = WIRE_VERSION + 1;
        bytes[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut cursor = std::io::Cursor::new(bytes);
        assert!(matches!(
            read_frame_negotiating(&mut cursor).unwrap_err(),
            Error::Codec { .. }
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode_frame(&Frame::Req(sample_req_env()));
        bytes[0] = b'X';
        assert!(matches!(
            decode_frame(&bytes).unwrap_err(),
            Error::Codec { .. }
        ));
    }

    #[test]
    fn oversized_length_prefix_rejected_without_allocation() {
        let mut bytes = encode_frame(&Frame::Req(sample_req_env()));
        bytes[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_frame(&bytes).unwrap_err(),
            Error::Codec { .. }
        ));
    }

    #[test]
    fn every_truncation_is_a_codec_or_io_error() {
        let bytes = encode_frame(&Frame::Req(sample_req_env()));
        for cut in 0..bytes.len() {
            let err = decode_frame(&bytes[..cut]).expect_err("truncation must fail");
            assert!(
                matches!(err, Error::Codec { .. }),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn stream_read_write_roundtrip() {
        let env = Frame::Req(sample_req_env());
        let mut buf = Vec::new();
        write_frame(&mut buf, &env).expect("writes");
        write_frame(&mut buf, &env).expect("writes");
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).expect("frame 1"), env);
        assert_eq!(read_frame(&mut cursor).expect("frame 2"), env);
        assert!(matches!(
            read_frame(&mut cursor).unwrap_err(),
            Error::Io { .. }
        ));
    }

    /// [`frame_len`] reports `None` until the header is whole, then the
    /// exact total length — and agrees with the encoder at every prefix.
    #[test]
    fn frame_len_splits_at_every_prefix() {
        let bytes = encode_frame(&Frame::Req(sample_req_env()));
        for cut in 0..HEADER_LEN {
            assert_eq!(frame_len(&bytes[..cut]).expect("short is fine"), None);
        }
        for cut in HEADER_LEN..=bytes.len() {
            assert_eq!(
                frame_len(&bytes[..cut]).expect("framing valid"),
                Some(bytes.len())
            );
        }
    }

    #[test]
    fn frame_len_rejects_unalignable_streams() {
        let mut bytes = encode_frame(&Frame::Ack { corr: 1 });
        bytes[0] = b'X';
        assert!(frame_len(&bytes).is_err(), "bad magic");
        let mut bytes = encode_frame(&Frame::Ack { corr: 1 });
        bytes[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(frame_len(&bytes).is_err(), "oversized length prefix");
    }

    /// The raw inspectors agree with the admitting reader's foreign-frame
    /// contract: version from the header, corr from the leading body bytes.
    #[test]
    fn raw_inspectors_match_the_foreign_contract() {
        let mut bytes = encode_frame(&Frame::StatusReq { corr: 777 });
        bytes[2] = WIRE_VERSION + 5;
        assert_eq!(raw_version(&bytes), WIRE_VERSION + 5);
        assert_eq!(raw_corr(&bytes), 777);
        // A body shorter than 8 bytes has no corr to lift.
        let mut short = encode_frame(&Frame::VersionMismatch {
            got: 1,
            want: 1,
            corr: 0,
        });
        short[4..8].copy_from_slice(&2u32.to_le_bytes());
        short.truncate(HEADER_LEN + 2);
        assert_eq!(raw_corr(&short), 0);
    }

    #[test]
    fn raw_frame_is_verbatim() {
        let env = Frame::Rep(RepEnvelope {
            to: ClientId::reader(0),
            from: ObjectId(1),
            frames: vec![],
        });
        let bytes = encode_frame(&env);
        let mut cursor = std::io::Cursor::new(bytes.clone());
        assert_eq!(read_raw_frame(&mut cursor).expect("raw"), bytes);
    }
}
