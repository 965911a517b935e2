//! The ops plane's client: [`ControlClient`] makes control round trips
//! (status, metrics, traces, counter reports, admin commands) to one
//! [`crate::ObjectServer`], which answers them in-band on the address its
//! clients use (see `server.rs`) — so `rastor status` can ask a shard
//! "who do you host?" even mid-workload, and an admin verb goes to the
//! one server that hosts what it names.
//!
//! Every control op is identified by a client-chosen `u64` correlation id
//! echoed in the reply (see [`crate::wire`]), including
//! [`Frame::VersionMismatch`] refusals, which echo the refused frame's
//! corr.

use crate::wire::{self, AdminCmd, Frame, ObjectStatus};
use rastor_common::{Error, Result};
use std::net::{SocketAddr, TcpStream};
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

/// A blocking client for the control plane of one [`crate::ObjectServer`].
///
/// Each call mints a fresh correlation id, sends its request, and reads
/// until the reply that echoes that corr, skipping stale replies a failed
/// earlier call left behind. A reply must arrive within 10 s.
pub struct ControlClient {
    stream: TcpStream,
    next_corr: u64,
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
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| Error::io("setting a control reply timeout", &e))?;
        Ok(ControlClient {
            stream,
            next_corr: 1,
        })
    }

    /// One control round trip: mint a corr, send `build(corr)`, read until
    /// the reply echoing it.
    fn call(&mut self, build: impl FnOnce(u64) -> Frame) -> Result<Frame> {
        let corr = self.next_corr;
        self.next_corr += 1;
        wire::write_frame(&mut self.stream, &build(corr))?;
        loop {
            match wire::read_frame(&mut self.stream)? {
                reply if reply.corr() != Some(corr) => continue,
                Frame::VersionMismatch { got, want, .. } => {
                    return Err(Error::VersionMismatch { got, want })
                }
                reply => return Ok(reply),
            }
        }
    }

    /// Ask the server for the status of every object it hosts.
    ///
    /// # Errors
    ///
    /// I/O and timeout errors, [`Error::VersionMismatch`] from a
    /// foreign-version server, [`Error::Codec`] on an off-protocol reply.
    pub fn status(&mut self) -> Result<Vec<ObjectStatus>> {
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
    pub fn metrics_json(&mut self) -> Result<String> {
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
    pub fn traces_json(&mut self) -> Result<String> {
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
    pub fn report(&mut self, counts: Vec<(String, u64)>) -> Result<()> {
        match self.call(|corr| Frame::Report { corr, counts })? {
            Frame::Ack { .. } => Ok(()),
            other => Err(off_protocol("Report", &other)),
        }
    }

    /// Execute an admin command at the server of the shard it names; any
    /// other server refuses it.
    ///
    /// # Errors
    ///
    /// As [`ControlClient::status`] — a *refused* command is an
    /// `Ok(AdminOutcome { ok: false, .. })`, not an error.
    pub fn admin(&mut self, cmd: AdminCmd) -> Result<AdminOutcome> {
        match self.call(|corr| Frame::AdminReq { corr, cmd })? {
            Frame::AdminRep { ok, detail, .. } => Ok(AdminOutcome { ok, detail }),
            other => Err(off_protocol("AdminReq", &other)),
        }
    }
}

fn off_protocol(sent: &str, got: &Frame) -> Error {
    Error::codec(format!("off-protocol reply to a {sent}: {got:?}"))
}
