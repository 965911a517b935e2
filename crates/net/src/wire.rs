//! The wire format: frames for a byte stream, the coalesced envelope
//! shapes of the thread runtime, and the control plane. The
//! `rastor_core::msg` vocabulary inside the envelopes is laid out by
//! [`rastor_core::codec`], the same bytes `rastor_store` logs.
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
use rastor_common::{ClientId, Error, ObjectId, Result};
use rastor_core::codec::{encode_rep, encode_req, read_rep, read_req, MIN_REP_LEN, MIN_REQ_LEN};
use rastor_core::msg::{Rep, Req};
use rastor_sim::runtime::ReqFrame;
use std::io::{Read, Write};

/// The wire protocol version this build speaks.
///
/// History: v1 was the pre-tracing layout; v2 added a `u64` trace id to
/// every request/reply frame and the `TraceReq`/`Trace` control pair; v3
/// writes each pair of an object view once, later copies as one-byte
/// references ([`rastor_core::codec`]), with `rastor_store`'s
/// `STORE_VERSION` 2. An older peer is refused per frame with
/// [`Frame::VersionMismatch`] — the negotiation machinery predates the
/// bumps, so mixed fleets fail loudly and keep their connections usable.
pub const WIRE_VERSION: u8 = 3;

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

/// Encoded size of what precedes the request or reply in an envelope
/// frame: op nonce, round, trace id.
const FRAME_PREFIX_LEN: usize = 8 + 4 + 8;

/// Encoded size of an [`ObjectStatus`]: id, crashed flag, served count.
const OBJECT_STATUS_LEN: usize = 4 + 1 + 8;

/// Smallest encoded [`Frame::Report`] entry: an empty name and its count.
const MIN_COUNT_LEN: usize = 4 + 8;

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
    /// to a foreign-version frame (which [`frame_len`] split off whole, so
    /// the connection stays aligned and usable).
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

/// A request envelope's body, from its frames' `(op_nonce, round, trace,
/// req)`, however the caller holds them.
fn put_req_body<'a>(
    out: &mut Vec<u8>,
    from: ClientId,
    frames: impl ExactSizeIterator<Item = (u64, u32, u64, &'a Req)>,
) {
    put_client(out, from);
    put_len(out, frames.len());
    for (op_nonce, round, trace, req) in frames {
        put_u64(out, op_nonce);
        put_u32(out, round);
        put_u64(out, trace);
        encode_req(req, out);
    }
}

fn encode_body(frame: &Frame, out: &mut Vec<u8>) {
    match frame {
        Frame::Req(env) => put_req_body(
            out,
            env.from,
            env.frames
                .iter()
                .map(|f| (f.op_nonce, f.round, f.trace, &f.req)),
        ),
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
    encode_frame_into(frame, &mut out);
    out
}

/// Append one frame to `out` — so a sender can reuse one buffer's
/// allocation, and put several frames in one write.
///
/// # Panics
///
/// As [`encode_frame`].
pub(crate) fn encode_frame_into(frame: &Frame, out: &mut Vec<u8>) {
    let kind = match frame {
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
    };
    put_frame(out, kind, |out| encode_body(frame, out));
}

/// Encode a request envelope straight from the frames a client holds —
/// the bytes [`encode_frame`] gives the same envelope as a
/// [`Frame::Req`], without first cloning every request into one.
///
/// # Panics
///
/// As [`encode_frame`].
pub(crate) fn encode_req_envelope(from: ClientId, frames: &[ReqFrame<Req>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    put_frame(&mut out, KIND_REQ, |out| {
        put_req_body(
            out,
            from,
            frames
                .iter()
                .map(|f| (f.op_nonce, f.round, f.trace, &*f.payload)),
        );
    });
    out
}

/// Append a frame of `kind` whose body `body` writes, patching its length
/// into the header once the body is written.
fn put_frame(out: &mut Vec<u8>, kind: u8, body: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&MAGIC);
    out.push(WIRE_VERSION);
    out.push(kind);
    put_u32(out, 0); // patched below
    body(out);
    let body_len = out.len() - start - HEADER_LEN;
    assert!(body_len <= MAX_BODY_LEN, "frame body exceeds MAX_BODY_LEN");
    out[start + 4..start + HEADER_LEN].copy_from_slice(
        &u32::try_from(body_len)
            .expect("checked above")
            .to_le_bytes(),
    );
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

fn read_client(d: &mut Dec<'_>) -> Result<ClientId> {
    match d.u8()? {
        0 => Ok(ClientId::Writer),
        1 => Ok(ClientId::Reader(d.u32()?)),
        t => Err(Error::codec(format!("unknown client tag {t}"))),
    }
}

/// Validate only the alignment-critical header fields — magic and body
/// length — and return `(version, kind, body_len)` unjudged, so
/// [`frame_len`] can split a well-framed foreign-version frame off whole
/// and keep the stream aligned.
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

/// Validate a frame header, judging the version and kind bytes
/// [`decode_framing`] left unjudged. Returns `(kind, body_len)`.
fn decode_header(header: &[u8; HEADER_LEN]) -> Result<(u8, usize)> {
    let (version, kind, body_len) = decode_framing(header)?;
    if version != WIRE_VERSION {
        return Err(Error::VersionMismatch {
            got: version,
            want: WIRE_VERSION,
        });
    }
    if !(KIND_REQ..=KIND_MAX).contains(&kind) {
        return Err(Error::codec(format!("unknown frame kind {kind}")));
    }
    Ok((kind, body_len))
}

fn decode_body(kind: u8, body: &[u8]) -> Result<Frame> {
    let mut d = Dec::new(body);
    let frame = match kind {
        KIND_REQ => {
            let from = read_client(&mut d)?;
            let n = d.seq_len(FRAME_PREFIX_LEN + MIN_REQ_LEN)?;
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
            let n = d.seq_len(FRAME_PREFIX_LEN + MIN_REP_LEN)?;
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
            let n = d.seq_len(OBJECT_STATUS_LEN)?;
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
            let n = d.seq_len(MIN_COUNT_LEN)?;
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

/// Incremental reassembly: the total size (header + body) of the frame at
/// the front of `buf`, or `None` when too few bytes have arrived to tell.
/// Validates only the alignment-critical framing — magic and length
/// ceiling — so a reactor connection can split a *foreign-version* frame
/// off its read buffer whole and answer it with a
/// [`Frame::VersionMismatch`]. Inspect the split bytes with
/// [`raw_version`] / [`raw_corr`] before decoding.
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
/// cross-version contract a [`Frame::VersionMismatch`] reply echoes.
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

    use rastor_common::{RegId, Timestamp, TsVal, Value};
    use rastor_core::msg::{ObjectView, Stamped};
    use rastor_core::token::Token;

    fn tokened(ts: u64, v: u64, bits: u64) -> Stamped {
        Stamped {
            pair: TsVal::new(Timestamp(ts), Value::from_u64(v)),
            token: Some(Token::from_bits(bits)),
        }
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
                        pair: tokened(4, 44, 0xDEAD_BEEF),
                    },
                },
            ],
        }
    }

    /// A view with a tokened pre-write, a ⊥ committed pair and history.
    fn sample_rep_env() -> RepEnvelope {
        let pw = tokened(5, 50, 0x0123_4567_89AB_CDEF);
        RepEnvelope {
            to: ClientId::writer(),
            from: ObjectId(2),
            frames: vec![WireRepFrame {
                op_nonce: 1,
                round: 2,
                trace: 9,
                rep: Rep::Views {
                    views: vec![(
                        RegId::ReaderReg(2),
                        ObjectView {
                            pw: pw.clone(),
                            w: Stamped::bottom(),
                            hist: vec![pw],
                        },
                    )],
                },
            }],
        }
    }

    // The committed byte vectors of wire v3. A test that needs them edited
    // is a layout change: bump `WIRE_VERSION` (and `STORE_VERSION`).
    #[rustfmt::skip]
    const GOLDEN_REQ_ENVELOPE: &[u8] = &[
        0x72, 0x57, 0x03, 0x01, 0x63, 0x00, 0x00, 0x00, 0x01, 0x03, 0x00, 0x00,
        0x00, 0x02, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x01, 0x00, 0x00, 0x00, 0xef, 0xbe, 0xed, 0xfe, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
        0x02, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x03, 0x00, 0x01, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x2c, 0x01, 0xef, 0xbe, 0xad, 0xde, 0x00, 0x00, 0x00, 0x00,
    ];
    #[rustfmt::skip]
    const GOLDEN_REP_VIEWS_ENVELOPE: &[u8] = &[
        0x72, 0x57, 0x03, 0x02, 0x57, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00,
        0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x02, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x02, 0x00, 0x00, 0x00, 0x05,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x32, 0x01, 0xef, 0xcd, 0xab, 0x89,
        0x67, 0x45, 0x23, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01,
    ];

    #[test]
    fn envelopes_match_their_golden_bytes_and_roundtrip() {
        assert_eq!(WIRE_VERSION, 3);
        for (frame, golden) in [
            (Frame::Req(sample_req_env()), GOLDEN_REQ_ENVELOPE),
            (Frame::Rep(sample_rep_env()), GOLDEN_REP_VIEWS_ENVELOPE),
        ] {
            assert_eq!(encode_frame(&frame), golden, "{frame:?}");
            let (decoded, used) = decode_frame(golden).expect("decodes");
            assert_eq!(used, golden.len());
            assert_eq!(decoded, frame);
        }
    }

    /// A client encodes its request envelope from the frames it holds,
    /// with no owned copy — and gets the owned envelope's bytes.
    #[test]
    fn a_request_envelope_encodes_the_same_from_borrowed_frames() {
        for env in [
            sample_req_env(),
            ReqEnvelope {
                from: ClientId::writer(),
                frames: vec![],
            },
        ] {
            let frames: Vec<ReqFrame<Req>> = env
                .frames
                .iter()
                .map(|f| ReqFrame {
                    op_nonce: f.op_nonce,
                    round: f.round,
                    trace: f.trace,
                    payload: std::sync::Arc::new(f.req.clone()),
                })
                .collect();
            assert_eq!(
                encode_req_envelope(env.from, &frames),
                encode_frame(&Frame::Req(env))
            );
        }
    }

    /// Frames encoded into one buffer sit back to back, each whole — what
    /// a burst of reply envelopes sends in one write.
    #[test]
    fn frames_encoded_into_one_buffer_sit_back_to_back() {
        let frames = [
            Frame::Rep(sample_rep_env()),
            Frame::Ack { corr: 3 },
            Frame::Req(sample_req_env()),
        ];
        let mut buf = Vec::new();
        for frame in &frames {
            encode_frame_into(frame, &mut buf);
        }
        assert_eq!(
            buf,
            frames.iter().flat_map(encode_frame).collect::<Vec<u8>>()
        );
    }

    /// Overwrite the `u32` sequence count at body offset `at` with the
    /// number of body bytes behind it — the largest count a bound of one
    /// byte per element lets through — and expect the count bound itself
    /// to refuse it, before anything is allocated for the elements.
    fn assert_count_refused(frame: &Frame, at: usize) {
        let mut bytes = encode_frame(frame);
        let at = HEADER_LEN + at;
        let remaining = u32::try_from(bytes.len() - at - 4).expect("small frame");
        bytes[at..at + 4].copy_from_slice(&remaining.to_le_bytes());
        match decode_frame(&bytes) {
            Err(Error::Codec { detail }) if detail.contains("sequence length") => {}
            other => panic!("{frame:?}: expected the count bound to refuse, got {other:?}"),
        }
    }

    #[test]
    fn an_envelope_frame_count_of_the_bytes_remaining_is_refused() {
        // Both bodies open with 5 bytes of addressing: a reader id, or
        // the writer tag and the replying object's id.
        assert_count_refused(&Frame::Req(sample_req_env()), 5);
        assert_count_refused(&Frame::Rep(sample_rep_env()), 5);
    }

    #[test]
    fn a_control_sequence_count_of_the_bytes_remaining_is_refused() {
        for frame in sample_control_frames() {
            if matches!(frame, Frame::Status { .. } | Frame::Report { .. }) {
                assert_count_refused(&frame, 8); // behind the corr
            }
        }
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
    /// cross-version contract [`raw_corr`] relies on.
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

    /// A length beyond the ceiling cannot be trusted to realign the
    /// stream, so it is a codec error even when the version byte is
    /// foreign — not a skippable mismatch.
    #[test]
    fn frame_len_rejects_unalignable_streams() {
        let mut bytes = encode_frame(&Frame::Ack { corr: 1 });
        bytes[0] = b'X';
        assert!(frame_len(&bytes).is_err(), "bad magic");
        let mut bytes = encode_frame(&Frame::Ack { corr: 1 });
        bytes[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(frame_len(&bytes).is_err(), "oversized length prefix");
        bytes[2] = WIRE_VERSION + 1;
        assert!(frame_len(&bytes).is_err(), "oversized and foreign");
    }

    /// The foreign-frame contract on raw bytes: [`frame_len`] splits a
    /// foreign-version frame off whole, the inspectors read its version
    /// from the header and its corr from the leading body bytes, and the
    /// frame behind it decodes intact.
    #[test]
    fn raw_inspectors_match_the_foreign_contract() {
        let mut bytes = encode_frame(&Frame::StatusReq { corr: 777 });
        bytes[2] = WIRE_VERSION + 5;
        let foreign_len = bytes.len();
        bytes.extend_from_slice(&encode_frame(&Frame::Ack { corr: 9 }));
        assert_eq!(frame_len(&bytes).expect("well framed"), Some(foreign_len));
        assert_eq!(raw_version(&bytes), WIRE_VERSION + 5);
        assert_eq!(raw_corr(&bytes), 777);
        assert_eq!(
            decode_frame(&bytes[foreign_len..]).expect("aligned").0,
            Frame::Ack { corr: 9 }
        );
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
