//! # rastor-core
//!
//! Robust read/write register emulations from fault-prone storage objects —
//! the storage system of *"The Complexity of Robust Atomic Storage"*
//! (Dobre, Guerraoui, Majuntke, Suri, Vukolić — PODC 2011).
//!
//! ## What's here
//!
//! | Protocol | Model | S | Write | Read | Semantics |
//! |---|---|---|---|---|---|
//! | [`clients::AbdWriteClient`] / [`clients::AbdReadClient`] | crash | 2t+1 | 1 rnd | 2 rnd | atomic |
//! | [`clients::ByzWriteClient`] / [`clients::RegularReadClient`] | Byzantine | 3t+1 | 2 rnd | 2 rnd | regular |
//! | [`clients::RegularReadClient::auth`] | Byzantine + secret values | 3t+1 | 2 rnd | 1 rnd | regular |
//! | [`transform::AtomicReadClient::unauth`] | Byzantine | 3t+1 | 2 rnd | **4 rnd** | **atomic** |
//! | [`transform::AtomicReadClient::auth`] | Byzantine + secret values | 3t+1 | 2 rnd | **3 rnd** | **atomic** |
//! | [`transform::ReadMode::Fast`] (adaptive) | Byzantine | 3t+1 | 2 rnd | 2 rnd uncontended, 4 rnd fallback | atomic |
//! | [`baseline::SafeNoWriteReadClient`] | Byzantine | 3t+1 | 2 rnd | t+1 rnd | safe |
//! | [`baseline::RetryStableReadClient`] | Byzantine | 3t+1 | 2 rnd | unbounded | baseline |
//!
//! The bolded rows are the paper's headline constructions (Section 5),
//! matching its lower bounds: reads from scalable robust atomic storage
//! need 4 rounds (3 with secret values), and those budgets suffice.
//!
//! ## Quick start
//!
//! ```
//! use rastor_core::harness::{Protocol, StorageSystem, Workload};
//! use rastor_common::Value;
//! use rastor_sim::FixedDelay;
//!
//! let mut sys = StorageSystem::new(Protocol::AtomicUnauth, 1, 2)?;
//! let workload = Workload::default()
//!     .with_write(0, Value::from_u64(42))
//!     .with_read(100, 0);
//! let result = sys.run(Box::new(FixedDelay::new(1)), &workload, vec![]);
//! assert!(result.history.check_atomic().is_empty());
//! assert_eq!(result.read_rounds(), vec![4]);
//! # Ok::<(), rastor_common::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod baseline;
pub mod checker;
pub mod clients;
pub mod codec;
pub mod collect;
pub mod harness;
pub mod msg;
pub mod mwmr;
pub mod object;
pub mod token;
pub mod transform;

pub use adversary::FaultKind;
pub use checker::{judge, History, ReadRec, Violation, WriteRec};
pub use clients::OpOutput;
pub use harness::{Protocol, RunResult, StorageSystem, Workload};
pub use msg::{AckKind, ObjectView, Rep, Req, Stamped};
pub use object::HonestObject;
pub use token::{AuthKey, Token};
pub use transform::ReadMode;
