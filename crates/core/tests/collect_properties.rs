//! Property-based tests of the collect engine's decision rule — the safety
//! core of the unauthenticated Byzantine reads.
//!
//! Strategy: generate a random "world" (a complete write at some timestamp,
//! random staleness among correct objects, t adversarial views of arbitrary
//! shape), feed the views to the engine, and assert the decision is always
//! genuine and fresh.

use proptest::prelude::*;
use rastor_common::{ClusterConfig, ObjectId, RegId, Timestamp, TsVal, Value};
use rastor_core::collect::{CollectEngine, CollectStatus};
use rastor_core::msg::{ObjectView, Rep, Stamped};

fn stamped(ts: u64) -> Stamped {
    Stamped::plain(TsVal::new(Timestamp(ts), Value::from_u64(ts * 100)))
}

/// A correct object's view after observing pre-writes up to `pw` and
/// commits up to `w`, with everything it adopted in the history — what an
/// object that never forgets would report, a superset of the real one's.
fn honest_view(pw: u64, w: u64) -> ObjectView {
    let hist: Vec<Stamped> = (1..=pw).map(stamped).collect();
    ObjectView {
        pw: if pw == 0 {
            Stamped::bottom()
        } else {
            stamped(pw)
        },
        w: if w == 0 {
            Stamped::bottom()
        } else {
            stamped(w)
        },
        hist,
    }
}

/// An adversarial view: arbitrary forged pair in all fields.
fn forged_view(ts: u64, val: u64) -> ObjectView {
    let s = Stamped::plain(TsVal::new(Timestamp(ts), Value::from_u64(val)));
    ObjectView {
        pw: s.clone(),
        w: s.clone(),
        hist: vec![s],
    }
}

/// One view per replying object, decoded from one random word each: a
/// non-replier, a forger (arbitrary `pw`/`w`, a history mixing genuine and
/// never-written pairs) or an honest object at an arbitrary lag.
fn reply_set(objects: usize, writes: u64, words: &[u64]) -> Vec<(u32, ObjectView)> {
    let mut out = Vec::new();
    for (oid, &x) in words.iter().take(objects).enumerate() {
        let (a, b, c) = ((x >> 3) % 64, (x >> 9) % 64, (x >> 15) % 64);
        let view = match x % 8 {
            0 => continue,
            1 | 2 => {
                let pair = |n: u64| {
                    let ts = n % (writes + 3);
                    let val = if n & 32 == 0 { ts * 100 } else { n };
                    Stamped::plain(TsVal::new(Timestamp(ts), Value::from_u64(val)))
                };
                ObjectView {
                    pw: pair(a),
                    w: pair(b),
                    hist: (0..c % 5).map(|i| pair(a + b * i + c)).collect(),
                }
            }
            _ => {
                let pw = a % (writes + 1);
                honest_view(pw, b % (pw + 1))
            }
        };
        out.push((oid as u32, view));
    }
    out
}

/// The unauthenticated engine's verdict on exactly this reply set: the
/// views arrive in round 1 (too early to decide), then round 2 opens and
/// one re-sent reply makes the engine evaluate all of them at once.
fn decide_on(
    cfg: ClusterConfig,
    replies: &[(u32, ObjectView)],
) -> (CollectEngine, Option<Stamped>) {
    let mut e = CollectEngine::unauth(cfg, vec![RegId::WRITER]);
    let rep = |v: &ObjectView| Rep::Views {
        views: vec![(RegId::WRITER, v.clone())],
    };
    for (oid, v) in replies {
        e.on_reply(ObjectId(*oid), 1, &rep(v));
    }
    e.begin_round();
    if let Some((oid, v)) = replies.first() {
        e.on_reply(ObjectId(*oid), 2, &rep(v));
    }
    let decision = e.decisions().get(&RegId::WRITER).cloned();
    (e, decision)
}

proptest! {
    /// The lemma in `collect.rs`'s header, "safety does not depend on what
    /// is forgotten": delete any history entries from any views, and
    /// whatever the engine then decides is vouched by ≥ t + 1 and
    /// justifiable on the *undeleted* views, and is at most what those
    /// decide; and the fast-path certificate is the same on both sides,
    /// rests on `S − t` commits with nothing newer, and equals the decision
    /// wherever both exist.
    #[test]
    fn deleting_history_entries_never_licenses_a_decision(
        t in 1usize..3,
        writes in 1u64..7,
        words in proptest::collection::vec(0u64..u64::MAX, 7..8),
        cuts in proptest::collection::vec(0u64..u64::MAX, 7..8),
    ) {
        let cfg = ClusterConfig::byzantine(t).unwrap();
        let full = reply_set(cfg.num_objects(), writes, &words);
        let cut: Vec<(u32, ObjectView)> = full
            .iter()
            .map(|(oid, v)| {
                let mut v = v.clone();
                let mut bit = 0;
                v.hist.retain(|_| {
                    bit += 1;
                    cuts[*oid as usize] >> bit & 1 == 0
                });
                (*oid, v)
            })
            .collect();
        let (full_engine, full_decision) = decide_on(cfg, &full);
        let (cut_engine, cut_decision) = decide_on(cfg, &cut);

        if let Some(d) = &cut_decision {
            let vouchers = full.iter().filter(|(_, v)| v.vouches_for(&d.pair)).count();
            prop_assert!(
                d.pair.is_bottom() || vouchers >= cfg.vouch(),
                "{:?} decided on {} full-view vouchers", d, vouchers
            );
            let higher = full.iter().filter(|(_, v)| v.w.pair.ts > d.pair.ts).count();
            prop_assert!(
                cfg.num_objects() - full.len() + higher <= t,
                "{:?} is not justifiable on the full views", d
            );
            let f = full_decision.as_ref();
            prop_assert!(
                f.is_some_and(|f| d.pair <= f.pair),
                "cut views decide {:?}, full views {:?}", d, f
            );
        }
        let certified = cut_engine.fast_certificate();
        prop_assert_eq!(&certified, &full_engine.fast_certificate());
        if let Some(c) = &certified {
            let committed = full.iter().filter(|(_, v)| v.w.pair == c.pair).count();
            prop_assert!(committed >= cfg.quorum(), "{:?} certified on {} commits", c, committed);
            prop_assert!(
                full.iter().all(|(_, v)| v.pw.pair <= c.pair && v.w.pair <= c.pair),
                "{:?} certified beside a newer claim", c
            );
            // Once both hold, the certificate and the decision rule agree,
            // so checking the certificate before deciding returns nothing
            // the decided read would not.
            prop_assert!(
                full_decision.as_ref().is_none_or(|f| f.pair == c.pair),
                "certificate {:?}, decision {:?}", c, full_decision
            );
        }
    }

    /// After a complete write at ts* (commit quorum = S−t objects), any
    /// reply set that lets the engine decide yields a genuine pair ≥ ts*.
    #[test]
    fn decisions_are_fresh_and_genuine(
        t in 1usize..4,
        ts_star in 1u64..20,
        byz_ts in 0u64..1000,
        byz_val in 0u64..1000,
        straggler_lag in 0u64..3,
    ) {
        let cfg = ClusterConfig::byzantine(t).unwrap();
        let s = cfg.num_objects();
        let mut e = CollectEngine::with_min_rounds(cfg, vec![RegId::WRITER], None, 1);

        // Commit quorum: objects t..s-1 hold w = ts* (2t+1 of them, all
        // correct). Objects 0..t are Byzantine and report forgeries.
        // One designated straggler among the correct lags behind.
        let mut status = CollectStatus::Wait;
        for oid in 0..s {
            let rep = if oid < t {
                Rep::Views { views: vec![(RegId::WRITER, forged_view(byz_ts, byz_val))] }
            } else if oid == t {
                // Straggler: saw the pre-write but maybe not the commit.
                let lag = ts_star.saturating_sub(straggler_lag);
                Rep::Views { views: vec![(RegId::WRITER, honest_view(ts_star, lag))] }
            } else {
                Rep::Views { views: vec![(RegId::WRITER, honest_view(ts_star, ts_star))] }
            };
            status = e.on_reply(ObjectId(oid as u32), 1, &rep);
            // The fast-path certificate, asked after every reply, is held
            // to the same standard as the decision.
            if let Some(c) = e.fast_certificate() {
                prop_assert!(c.pair.ts >= Timestamp(ts_star), "stale certificate {:?}", c);
                prop_assert_eq!(c.pair.val.clone(), Value::from_u64(c.pair.ts.0 * 100));
            }
            if status == CollectStatus::Decided {
                break;
            }
        }
        prop_assert_eq!(status, CollectStatus::Decided, "all replies in: must decide");
        let decision = &e.decisions()[&RegId::WRITER];
        // Fresh: at least the completed write.
        prop_assert!(
            decision.pair.ts >= Timestamp(ts_star),
            "stale decision {:?} after write {}", decision, ts_star
        );
        // Genuine: the returned pair is one the writer produced (value
        // convention: ts*100), never the forgery.
        prop_assert_eq!(
            decision.pair.val.clone(),
            Value::from_u64(decision.pair.ts.0 * 100),
            "forged value returned"
        );
    }

    /// With no write at all, t forgers can never push the engine off ⊥.
    #[test]
    fn no_write_means_bottom(
        t in 1usize..4,
        byz_ts in 1u64..1000,
    ) {
        let cfg = ClusterConfig::byzantine(t).unwrap();
        let s = cfg.num_objects();
        let mut e = CollectEngine::with_min_rounds(cfg, vec![RegId::WRITER], None, 1);
        let mut status = CollectStatus::Wait;
        for oid in 0..s {
            let rep = if oid < t {
                Rep::Views { views: vec![(RegId::WRITER, forged_view(byz_ts, 7))] }
            } else {
                Rep::Views { views: vec![(RegId::WRITER, honest_view(0, 0))] }
            };
            status = e.on_reply(ObjectId(oid as u32), 1, &rep);
            if status == CollectStatus::Decided {
                break;
            }
        }
        prop_assert_eq!(status, CollectStatus::Decided);
        prop_assert!(e.decisions()[&RegId::WRITER].pair.is_bottom());
    }

    /// The engine refuses to decide while justification is impossible:
    /// with only a quorum of replies where one correct member holds a
    /// lonely fresh commit, it must not decide an older candidate.
    #[test]
    fn no_premature_stale_decision(t in 1usize..4, ts_star in 1u64..10) {
        let cfg = ClusterConfig::byzantine(t).unwrap();
        let s = cfg.num_objects();
        let mut e = CollectEngine::with_min_rounds(cfg, vec![RegId::WRITER], None, 1);
        // Reply set: t silent (non-repliers), one informed correct object,
        // the rest stale-correct. The engine must NOT decide bottom.
        let informed = 0u32;
        let mut last = CollectStatus::Wait;
        for oid in 0..(s - t) {
            let rep = if oid as u32 == informed {
                Rep::Views { views: vec![(RegId::WRITER, honest_view(ts_star, ts_star))] }
            } else {
                Rep::Views { views: vec![(RegId::WRITER, honest_view(0, 0))] }
            };
            last = e.on_reply(ObjectId(oid as u32), 1, &rep);
            if let CollectStatus::Decided = last {
                let d = &e.decisions()[&RegId::WRITER];
                // Deciding is only sound if the decision is fresh.
                prop_assert!(d.pair.ts >= Timestamp(ts_star));
            }
        }
        // With a lonely fresh commit the round cannot be justified:
        // the engine asks for another round instead of deciding stale.
        prop_assert_ne!(last, CollectStatus::Decided);
        prop_assert_eq!(last, CollectStatus::NextRound);
    }

    /// Auth mode: forged tokens never decide; genuine max always wins.
    #[test]
    fn auth_decisions_require_valid_tokens(
        t in 1usize..4,
        ts_star in 1u64..20,
        forged_ts in 21u64..1000,
    ) {
        use rastor_core::token::AuthKey;
        let key = AuthKey::new(1);
        let wrong = AuthKey::new(2);
        let cfg = ClusterConfig::byzantine_auth(t).unwrap();
        let s = cfg.num_objects();
        let mut e = CollectEngine::auth(cfg, vec![RegId::WRITER], key);
        let genuine_pair = TsVal::new(Timestamp(ts_star), Value::from_u64(1));
        let genuine = Stamped { token: Some(key.mint(&genuine_pair)), pair: genuine_pair.clone() };
        let fake_pair = TsVal::new(Timestamp(forged_ts), Value::from_u64(2));
        let fake = Stamped { token: Some(wrong.mint(&fake_pair)), pair: fake_pair };
        let mut status = CollectStatus::Wait;
        for oid in 0..s {
            let view = if oid < t {
                ObjectView { pw: fake.clone(), w: fake.clone(), hist: vec![fake.clone()] }
            } else {
                ObjectView { pw: genuine.clone(), w: genuine.clone(), hist: vec![genuine.clone()] }
            };
            status = e.on_reply(
                ObjectId(oid as u32),
                1,
                &Rep::Views { views: vec![(RegId::WRITER, view)] },
            );
            if status == CollectStatus::Decided {
                break;
            }
        }
        prop_assert_eq!(status, CollectStatus::Decided);
        prop_assert_eq!(&e.decisions()[&RegId::WRITER].pair, &genuine_pair);
    }
}
