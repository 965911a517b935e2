//! The wire protocol between clients and storage objects.
//!
//! One unified request/reply vocabulary serves every protocol in the crate:
//!
//! * [`Req::Collect`] — read an object's view of one or more logical
//!   registers (all read rounds);
//! * [`Req::Store`] — single-phase store, used by the crash-model ABD
//!   protocol (write and read write-back);
//! * [`Req::PreWrite`] / [`Req::Commit`] — the two write phases of the
//!   Byzantine-model protocols. Observing a committed timestamp at one
//!   correct object implies its pre-write completed at a full quorum, which
//!   is what makes unauthenticated data attributable.
//!
//! Multiplexing several *logical* registers (the `R + 1` registers of the
//! regular→atomic transformation) over the same physical objects happens via
//! [`RegId`] tags; a single [`Req::Collect`] may name many registers so the
//! transformation's parallel reads cost one physical round.

use crate::token::Token;
use rastor_common::{RegId, TsVal};

/// A timestamped pair optionally accompanied by an authentication token
/// (secret-value model only; `None` in the unauthenticated model).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Stamped {
    /// The timestamped value pair.
    pub pair: TsVal,
    /// The writer's token over the pair, if the run uses the secret-value
    /// model.
    pub token: Option<Token>,
}

impl Stamped {
    /// An unauthenticated stamped pair.
    pub fn plain(pair: TsVal) -> Stamped {
        Stamped { pair, token: None }
    }

    /// The initial `(0, ⊥)` entry.
    pub fn bottom() -> Stamped {
        Stamped::plain(TsVal::bottom())
    }
}

/// Client → object requests.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Req {
    /// Read the object's views of the named logical registers.
    Collect {
        /// Registers to report on.
        regs: Vec<RegId>,
    },
    /// Single-phase store (crash model): adopt the pair if fresher.
    Store {
        /// Target register.
        reg: RegId,
        /// Pair to adopt.
        pair: Stamped,
    },
    /// Byzantine-model write phase 1: record the pair as pre-written.
    PreWrite {
        /// Target register.
        reg: RegId,
        /// Pair to pre-write.
        pair: Stamped,
    },
    /// Byzantine-model write phase 2: commit the pair.
    Commit {
        /// Target register.
        reg: RegId,
        /// Pair to commit.
        pair: Stamped,
    },
}

/// Kind of acknowledged request (so clients can match acks to phases).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AckKind {
    /// Ack of a [`Req::Store`].
    Store,
    /// Ack of a [`Req::PreWrite`].
    PreWrite,
    /// Ack of a [`Req::Commit`].
    Commit,
}

/// An object's view of one logical register, as returned to a collect.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ObjectView {
    /// The freshest pre-written pair.
    pub pw: Stamped,
    /// The freshest committed pair.
    pub w: Stamped,
    /// The largest pairs the object adopted for this register (pre-writes,
    /// commits and stores), in ascending order — vouchers beyond `pw` and
    /// `w` for a pair a slower object still reports. A correct object sends
    /// its two largest (see `crate::object`); the codec and the decision
    /// rule accept any length, since a Byzantine one sends what it likes.
    pub hist: Vec<Stamped>,
}

impl ObjectView {
    /// Whether `pair` occurs anywhere in this view (pw, w, or history).
    pub fn vouches_for(&self, pair: &TsVal) -> bool {
        self.pw.pair == *pair || self.w.pair == *pair || self.hist.iter().any(|s| s.pair == *pair)
    }

    /// All distinct pairs in this view.
    pub fn pairs(&self) -> Vec<&Stamped> {
        let mut out: Vec<&Stamped> = self.hist.iter().collect();
        for extra in [&self.pw, &self.w] {
            if !out.iter().any(|s| **s == *extra) {
                out.push(extra);
            }
        }
        out
    }
}

/// Object → client replies.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Rep {
    /// Reply to [`Req::Collect`]: a view per requested register.
    Views {
        /// `(register, view)` pairs, in request order.
        views: Vec<(RegId, ObjectView)>,
    },
    /// Acknowledgement of a store/pre-write/commit.
    Ack {
        /// The register acknowledged.
        reg: RegId,
        /// Which phase was acknowledged.
        kind: AckKind,
    },
}

impl Rep {
    /// Extract the view of one register from a `Views` reply.
    pub fn view_of(&self, reg: RegId) -> Option<&ObjectView> {
        match self {
            Rep::Views { views } => views.iter().find(|(r, _)| *r == reg).map(|(_, v)| v),
            Rep::Ack { .. } => None,
        }
    }

    /// Whether this is an ack of the given register and phase.
    pub fn is_ack(&self, reg: RegId, kind: AckKind) -> bool {
        matches!(self, Rep::Ack { reg: r, kind: k } if *r == reg && *k == kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rastor_common::{Timestamp, Value};

    fn pair(ts: u64, v: u64) -> TsVal {
        TsVal::new(Timestamp(ts), Value::from_u64(v))
    }

    #[test]
    fn stamped_bottom_is_plain() {
        let b = Stamped::bottom();
        assert!(b.pair.is_bottom());
        assert!(b.token.is_none());
    }

    #[test]
    fn view_vouching_covers_all_fields() {
        let view = ObjectView {
            pw: Stamped::plain(pair(3, 30)),
            w: Stamped::plain(pair(2, 20)),
            hist: vec![Stamped::plain(pair(1, 10))],
        };
        assert!(view.vouches_for(&pair(1, 10)));
        assert!(view.vouches_for(&pair(2, 20)));
        assert!(view.vouches_for(&pair(3, 30)));
        assert!(!view.vouches_for(&pair(4, 40)));
        // Same timestamp, different value: no vouch (forgery detection).
        assert!(!view.vouches_for(&pair(2, 99)));
    }

    #[test]
    fn view_pairs_deduplicates() {
        let s = Stamped::plain(pair(1, 10));
        let view = ObjectView {
            pw: s.clone(),
            w: s.clone(),
            hist: vec![s.clone()],
        };
        assert_eq!(view.pairs().len(), 1);
    }

    #[test]
    fn rep_view_extraction() {
        let rep = Rep::Views {
            views: vec![(RegId::WRITER, ObjectView::default())],
        };
        assert!(rep.view_of(RegId::WRITER).is_some());
        assert!(rep.view_of(RegId::ReaderReg(0)).is_none());
        assert!(!rep.is_ack(RegId::WRITER, AckKind::Store));
    }

    #[test]
    fn rep_ack_matching() {
        let rep = Rep::Ack {
            reg: RegId::WRITER,
            kind: AckKind::PreWrite,
        };
        assert!(rep.is_ack(RegId::WRITER, AckKind::PreWrite));
        assert!(!rep.is_ack(RegId::WRITER, AckKind::Commit));
        assert!(!rep.is_ack(RegId::ReaderReg(1), AckKind::PreWrite));
        assert!(rep.view_of(RegId::WRITER).is_none());
    }
}
