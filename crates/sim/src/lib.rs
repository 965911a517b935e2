//! # rastor-sim
//!
//! A deterministic discrete-event simulator for the asynchronous
//! message-passing model of *"The Complexity of Robust Atomic Storage"*
//! (PODC 2011): clients (one writer, many readers) exchange request/reply
//! messages with storage objects over reliable point-to-point channels;
//! objects never initiate communication; up to `t` objects are malicious and
//! clients may crash.
//!
//! ## Design
//!
//! * **Round-based clients** ([`RoundClient`]): an operation is a sequence of
//!   *communication rounds* per the paper's Definition 1 — each round
//!   broadcasts one request to all objects and then waits on replies until
//!   the protocol's predicate fires. The engine counts rounds, which is the
//!   paper's time-complexity metric.
//! * **Objects as behaviors** ([`ObjectBehavior`]): a correct object is a
//!   deterministic state machine that replies immediately to each request;
//!   a Byzantine object is *any other* implementation of the same trait
//!   (including staying silent).
//! * **Adversarial scheduling** ([`Controller`]): every message send passes
//!   through a controller that decides its delivery time, may hold it "in
//!   transit" indefinitely, and may release it later. A seeded random
//!   controller drives soak tests; a scripted controller replays the paper's
//!   lower-bound run constructions step by step.
//! * **Traces** ([`trace::Trace`]): the engine records an operation history
//!   (for atomicity/regularity checking) and per-client *observation
//!   transcripts* (for the indistinguishability arguments at the heart of
//!   the paper's proofs: two runs are indistinguishable to a reader iff its
//!   transcripts are identical).
//! * **Thread runtime** ([`runtime`]): the same [`ObjectBehavior`] and
//!   [`RoundClient`] implementations can be deployed over real OS threads and
//!   channels, demonstrating that the protocols are simulator-independent.
//! * **Object host** ([`host`]): the one host every real-time substrate
//!   (in-process or TCP) runs its objects on — per-object FIFO, served by
//!   the submitting thread or an executor pool, service jitter, crash and
//!   restart.
//!
//! ## Example
//!
//! ```
//! use rastor_common::{ClientId, ObjectId};
//! use rastor_sim::{ClientAction, ObjectBehavior, RoundClient, Sim, SimConfig};
//!
//! // A trivial "echo" protocol: the object echoes the request, the client
//! // completes after hearing from a majority.
//! struct EchoObject;
//! impl ObjectBehavior<u64, u64> for EchoObject {
//!     fn on_request(&mut self, _from: ClientId, req: &u64) -> Option<u64> {
//!         Some(*req)
//!     }
//! }
//!
//! struct EchoClient { heard: usize, quorum: usize }
//! impl RoundClient<u64, u64> for EchoClient {
//!     type Out = u64;
//!     fn start(&mut self) -> u64 { 7 }
//!     fn on_reply(&mut self, _from: ObjectId, _round: u32, reply: &u64)
//!         -> ClientAction<u64, u64>
//!     {
//!         self.heard += 1;
//!         if self.heard >= self.quorum { ClientAction::Complete(*reply) }
//!         else { ClientAction::Wait }
//!     }
//! }
//!
//! let mut sim: Sim<u64, u64, u64> = Sim::new(SimConfig::default());
//! for _ in 0..3 { sim.add_object(Box::new(EchoObject)); }
//! sim.invoke_at(0, ClientId::reader(0), rastor_common::OpKind::Read,
//!               Box::new(EchoClient { heard: 0, quorum: 2 }));
//! let done = sim.run_to_quiescence();
//! assert_eq!(done.len(), 1);
//! assert_eq!(done[0].output, 7);
//! assert_eq!(done[0].stat.rounds.get(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod control;
pub mod driver;
pub mod engine;
pub mod host;
pub mod runtime;
pub mod trace;

pub use control::{
    Controller, FixedDelay, PartitionController, ScriptedController, UniformDelay, Verdict,
};
pub use driver::{Broadcast, Dispatch, OpCompletion, OpDriver, OpTimeout, StalePolicy};
pub use engine::{
    ClientAction, Completion, Envelope, MsgDir, MsgId, ObjectBehavior, RoundClient, Scheduler, Sim,
    SimConfig,
};
pub use host::{ObjectHost, ObjectStatus, ReplySink};
pub use runtime::{ObjReply, OpResult, RepFrame, ReqFrame, ThreadClient, ThreadCluster, Transport};
pub use trace::{Observation, OpRecord, Trace};
