//! The correct (honest) storage-object state machine.
//!
//! An honest object keeps, per logical register:
//!
//! * `pw` — the freshest *pre-written* pair (phase-1 of Byzantine writes);
//! * `w` — the freshest *committed* pair (phase-2, or a crash-model store);
//! * `hist` — the **two largest** pairs it has adopted; a smaller one is
//!   forgotten the moment a third arrives (why two is enough is argued in
//!   [`crate::collect`]'s header).
//!
//! `pw` and `w` are monotone in timestamp order, so replayed or reordered
//! client messages cannot roll the object's state back, and register state
//! is a constant number of pairs however many writes it has seen. The
//! object replies to each request immediately and never initiates
//! communication, matching the paper's object model.

use crate::msg::{AckKind, ObjectView, Rep, Req, Stamped};
use rastor_common::{ClientId, RegId};
use rastor_sim::ObjectBehavior;
use std::collections::BTreeMap;

/// How many adopted pairs a register remembers besides `pw` and `w`.
const HIST_KEPT: usize = 2;

/// State of one logical register on one object.
#[derive(Clone, Debug, Default)]
pub struct RegState {
    pw: Stamped,
    w: Stamped,
    /// Ascending, at most [`HIST_KEPT`] entries.
    hist: Vec<Stamped>,
}

impl RegState {
    /// Remember `s` among the [`HIST_KEPT`] largest adopted pairs, dropping
    /// the smallest when it does not fit — which may be `s` itself.
    fn adopt_hist(&mut self, s: &Stamped) {
        #[cfg(any(debug_assertions, feature = "ghost"))]
        assert!(
            !self
                .hist
                .iter()
                .any(|h| h.pair.ts == s.pair.ts && h.pair.val != s.pair.val),
            "ghost: two distinct values share timestamp {:?} in one register \
             (per-writer timestamp uniqueness violated): {:?}",
            s.pair.ts,
            s.pair
        );
        if let Err(at) = self.hist.binary_search_by(|h| h.pair.cmp(&s.pair)) {
            self.hist.insert(at, s.clone());
            if self.hist.len() > HIST_KEPT {
                self.hist.remove(0);
            }
        }
    }

    fn pre_write(&mut self, s: Stamped) {
        #[cfg(any(debug_assertions, feature = "ghost"))]
        let old = self.clone();
        self.adopt_hist(&s);
        if s.pair > self.pw.pair {
            self.pw = s;
        }
        #[cfg(any(debug_assertions, feature = "ghost"))]
        self.ghost_monotone(&old);
    }

    fn commit(&mut self, s: Stamped) {
        #[cfg(any(debug_assertions, feature = "ghost"))]
        let old = self.clone();
        self.adopt_hist(&s);
        if s.pair > self.pw.pair {
            self.pw = s.clone();
        }
        if s.pair > self.w.pair {
            self.w = s;
        }
        #[cfg(any(debug_assertions, feature = "ghost"))]
        self.ghost_monotone(&old);
    }

    /// Ghost: no update may roll `pw`/`w` back or leave `w` ahead of `pw`
    /// (commits also pre-write); the history holds at most [`HIST_KEPT`]
    /// pairs, its largest is `pw`, and a pair leaves it only under
    /// [`HIST_KEPT`] larger ones. Compiled out in release builds unless the
    /// `ghost` feature is on.
    #[cfg(any(debug_assertions, feature = "ghost"))]
    fn ghost_monotone(&self, old: &RegState) {
        assert!(self.pw.pair >= old.pw.pair, "ghost: pw regressed");
        assert!(self.w.pair >= old.w.pair, "ghost: w regressed");
        assert!(
            self.w.pair <= self.pw.pair,
            "ghost: committed past pre-written"
        );
        assert!(
            self.hist.len() <= HIST_KEPT,
            "ghost: history holds {} pairs",
            self.hist.len()
        );
        assert!(
            self.pw.pair.is_bottom() || self.hist.last().map(|h| &h.pair) == Some(&self.pw.pair),
            "ghost: largest remembered pair is not pw"
        );
        for gone in old.hist.iter().filter(|h| !self.hist.contains(h)) {
            assert!(
                self.hist.len() == HIST_KEPT && self.hist.iter().all(|h| h.pair > gone.pair),
                "ghost: forgot {:?} without {HIST_KEPT} larger pairs",
                gone.pair
            );
        }
    }

    /// Render the externally visible view.
    pub fn view(&self) -> ObjectView {
        ObjectView {
            pw: self.pw.clone(),
            w: self.w.clone(),
            hist: self.hist.clone(),
        }
    }

    /// Rebuild register state from a rendered view — the inverse of
    /// [`RegState::view`], used by durability layers to restore a
    /// snapshotted object. Lossless because a view carries the complete
    /// state (`pw`, `w`, the remembered pairs); a longer history (a forged
    /// view, a snapshot from before histories were bounded) is cut to its
    /// largest pairs.
    pub fn from_view(view: &ObjectView) -> RegState {
        let mut state = RegState {
            pw: view.pw.clone(),
            w: view.w.clone(),
            hist: Vec::new(),
        };
        for s in &view.hist {
            state.adopt_hist(s);
        }
        state
    }
}

/// A correct storage object hosting any number of logical registers.
///
/// The same object type serves every protocol in the crate: the crash-model
/// ABD register uses `Store`/`Collect`, the Byzantine protocols use
/// `PreWrite`/`Commit`/`Collect`, and the regular→atomic transformation
/// multiplexes `R + 1` registers through `RegId` tags.
#[derive(Clone, Debug, Default)]
pub struct HonestObject {
    regs: BTreeMap<RegId, RegState>,
}

impl HonestObject {
    /// A fresh object with every register at `(0, ⊥)`.
    pub fn new() -> HonestObject {
        HonestObject::default()
    }

    /// Apply one request, returning the reply a correct object sends.
    ///
    /// Exposed (in addition to the [`ObjectBehavior`] impl) so that
    /// adversarial wrappers and the lower-bound state-forging machinery can
    /// drive snapshots of honest state.
    pub fn apply(&mut self, req: &Req) -> Rep {
        match req {
            Req::Collect { regs } => Rep::Views {
                views: regs.iter().map(|r| (*r, self.view_of(*r))).collect(),
            },
            Req::Store { reg, pair } => {
                // Crash-model store: a single-phase commit.
                self.regs.entry(*reg).or_default().commit(pair.clone());
                Rep::Ack {
                    reg: *reg,
                    kind: AckKind::Store,
                }
            }
            Req::PreWrite { reg, pair } => {
                self.regs.entry(*reg).or_default().pre_write(pair.clone());
                Rep::Ack {
                    reg: *reg,
                    kind: AckKind::PreWrite,
                }
            }
            Req::Commit { reg, pair } => {
                self.regs.entry(*reg).or_default().commit(pair.clone());
                Rep::Ack {
                    reg: *reg,
                    kind: AckKind::Commit,
                }
            }
        }
    }

    /// Peek at a register's view without mutating (absent registers read as
    /// initial).
    pub fn view_of(&self, reg: RegId) -> ObjectView {
        self.regs.get(&reg).map(RegState::view).unwrap_or_default()
    }

    /// Number of registers this object has materialized.
    pub fn num_regs(&self) -> usize {
        self.regs.len()
    }

    /// Export the complete state of every materialized register — the
    /// durability snapshot hook. A view is the *full* register state
    /// (`pw`, `w`, the remembered pairs), so the export round-trips through
    /// [`HonestObject::from_export`] losslessly, and its size depends on
    /// the number of registers, not on the number of writes.
    pub fn export_regs(&self) -> Vec<(RegId, ObjectView)> {
        self.regs.iter().map(|(r, s)| (*r, s.view())).collect()
    }

    /// Rebuild an object from an export — the durability recovery hook.
    /// The recovered object vouches for exactly the pairs the exported one
    /// did, with their original timestamps (no rewind, no renumbering).
    pub fn from_export(regs: impl IntoIterator<Item = (RegId, ObjectView)>) -> HonestObject {
        HonestObject {
            regs: regs
                .into_iter()
                .map(|(r, view)| (r, RegState::from_view(&view)))
                .collect(),
        }
    }
}

impl ObjectBehavior<Req, Rep> for HonestObject {
    fn on_request(&mut self, _from: ClientId, req: &Req) -> Option<Rep> {
        Some(self.apply(req))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rastor_common::{Timestamp, TsVal, Value};

    fn stamped(ts: u64, v: u64) -> Stamped {
        Stamped::plain(TsVal::new(Timestamp(ts), Value::from_u64(v)))
    }

    #[test]
    fn initial_view_is_bottom() {
        let obj = HonestObject::new();
        let view = obj.view_of(RegId::WRITER);
        assert!(view.pw.pair.is_bottom());
        assert!(view.w.pair.is_bottom());
        assert!(view.hist.is_empty());
    }

    #[test]
    fn prewrite_updates_pw_not_w() {
        let mut obj = HonestObject::new();
        obj.apply(&Req::PreWrite {
            reg: RegId::WRITER,
            pair: stamped(1, 10),
        });
        let view = obj.view_of(RegId::WRITER);
        assert_eq!(view.pw, stamped(1, 10));
        assert!(view.w.pair.is_bottom());
        assert_eq!(view.hist.len(), 1);
    }

    #[test]
    fn commit_updates_both() {
        let mut obj = HonestObject::new();
        obj.apply(&Req::Commit {
            reg: RegId::WRITER,
            pair: stamped(1, 10),
        });
        let view = obj.view_of(RegId::WRITER);
        assert_eq!(view.pw, stamped(1, 10));
        assert_eq!(view.w, stamped(1, 10));
    }

    #[test]
    fn updates_are_monotone() {
        let mut obj = HonestObject::new();
        obj.apply(&Req::Commit {
            reg: RegId::WRITER,
            pair: stamped(5, 50),
        });
        // A stale (replayed) commit must not roll back state…
        obj.apply(&Req::Commit {
            reg: RegId::WRITER,
            pair: stamped(3, 30),
        });
        let view = obj.view_of(RegId::WRITER);
        assert_eq!(view.w, stamped(5, 50));
        // …but it still lands in the history.
        assert!(view.vouches_for(&stamped(3, 30).pair));
    }

    #[test]
    fn history_keeps_the_two_newest_pairs() {
        let mut obj = HonestObject::new();
        let pairs = |obj: &HonestObject| -> Vec<Stamped> { obj.view_of(RegId::WRITER).hist };
        for ts in 1..=4 {
            obj.apply(&Req::PreWrite {
                reg: RegId::WRITER,
                pair: stamped(ts, ts * 10),
            });
        }
        assert_eq!(pairs(&obj), [stamped(3, 30), stamped(4, 40)]);
        assert_eq!(obj.view_of(RegId::WRITER).pw, stamped(4, 40));

        // A late pre-write below both is acked and never stored…
        let rep = obj.apply(&Req::PreWrite {
            reg: RegId::WRITER,
            pair: stamped(1, 10),
        });
        assert!(rep.is_ack(RegId::WRITER, AckKind::PreWrite));
        let view = obj.view_of(RegId::WRITER);
        assert_eq!(view.hist, [stamped(3, 30), stamped(4, 40)]);
        assert_eq!(view.pw, stamped(4, 40));
        assert!(view.w.pair.is_bottom());
        assert!(!view.vouches_for(&stamped(1, 10).pair));

        // …while a late commit still raises `w`, which is what freshness
        // is read from.
        obj.apply(&Req::Commit {
            reg: RegId::WRITER,
            pair: stamped(2, 20),
        });
        let view = obj.view_of(RegId::WRITER);
        assert_eq!(view.w, stamped(2, 20));
        assert_eq!(view.pw, stamped(4, 40));
        assert_eq!(view.hist, [stamped(3, 30), stamped(4, 40)]);
    }

    #[test]
    fn a_collect_writes_nothing() {
        let mut obj = HonestObject::new();
        obj.apply(&Req::Commit {
            reg: RegId::WRITER,
            pair: stamped(1, 10),
        });
        let before = obj.export_regs();
        for _ in 0..3 {
            let rep = obj.apply(&Req::Collect {
                regs: vec![RegId::WRITER, RegId::ReaderReg(0), RegId::Writer(9)],
            });
            assert_eq!(rep.view_of(RegId::Writer(9)), Some(&ObjectView::default()));
        }
        assert_eq!(obj.num_regs(), 1);
        assert_eq!(obj.export_regs(), before);
    }

    #[test]
    fn registers_are_isolated() {
        let mut obj = HonestObject::new();
        obj.apply(&Req::Commit {
            reg: RegId::WRITER,
            pair: stamped(1, 10),
        });
        obj.apply(&Req::Commit {
            reg: RegId::ReaderReg(0),
            pair: stamped(2, 20),
        });
        assert_eq!(obj.view_of(RegId::WRITER).w, stamped(1, 10));
        assert_eq!(obj.view_of(RegId::ReaderReg(0)).w, stamped(2, 20));
        assert_eq!(obj.view_of(RegId::ReaderReg(1)).w, Stamped::bottom());
    }

    #[test]
    fn collect_reports_requested_registers() {
        let mut obj = HonestObject::new();
        let rep = obj.apply(&Req::Collect {
            regs: vec![RegId::WRITER, RegId::ReaderReg(3)],
        });
        match rep {
            Rep::Views { views } => {
                assert_eq!(views.len(), 2);
                assert_eq!(views[0].0, RegId::WRITER);
                assert_eq!(views[1].0, RegId::ReaderReg(3));
            }
            Rep::Ack { .. } => panic!("collect returns views"),
        }
    }

    #[test]
    fn export_roundtrips_losslessly() {
        let mut obj = HonestObject::new();
        obj.apply(&Req::PreWrite {
            reg: RegId::WRITER,
            pair: stamped(2, 20),
        });
        obj.apply(&Req::Commit {
            reg: RegId::WRITER,
            pair: stamped(1, 10),
        });
        obj.apply(&Req::Store {
            reg: RegId::ReaderReg(0),
            pair: stamped(3, 30),
        });
        let export = obj.export_regs();
        let rebuilt = HonestObject::from_export(export.clone());
        assert_eq!(rebuilt.export_regs(), export);
        assert_eq!(rebuilt.num_regs(), 2);
        // The rebuilt object keeps vouching for everything, at the
        // original timestamps.
        assert_eq!(rebuilt.view_of(RegId::WRITER).pw, stamped(2, 20));
        assert_eq!(rebuilt.view_of(RegId::WRITER).w, stamped(1, 10));
        assert!(rebuilt
            .view_of(RegId::WRITER)
            .vouches_for(&stamped(1, 10).pair));
        // And it stays monotone from where it left off.
        let mut rebuilt = rebuilt;
        rebuilt.apply(&Req::Commit {
            reg: RegId::WRITER,
            pair: stamped(1, 10),
        });
        assert_eq!(rebuilt.view_of(RegId::WRITER).pw, stamped(2, 20));
    }

    #[test]
    fn store_acks_with_store_kind() {
        let mut obj = HonestObject::new();
        let rep = obj.apply(&Req::Store {
            reg: RegId::WRITER,
            pair: stamped(1, 1),
        });
        assert!(rep.is_ack(RegId::WRITER, AckKind::Store));
    }
}
