//! History checkers for the paper's correctness properties.
//!
//! Section 2.2 of the paper defines single-writer **atomicity** through four
//! properties over a partial run (writes are naturally ordered by the single
//! writer; `val_k` is the value of the k-th write, `val_0 = ⊥`):
//!
//! 1. if a read returns `x` then there is `k` such that `val_k = x`;
//! 2. if a complete read succeeds write `wr_k`, it returns `val_l` with
//!    `l ≥ k`;
//! 3. if a read returns `val_k` (k ≥ 1) then `wr_k` precedes or is
//!    concurrent with the read;
//! 4. if read `rd1` returns `val_k` and a read `rd2` that succeeds `rd1`
//!    returns `val_l`, then `l ≥ k`.
//!
//! **Regularity** is properties (1)–(3); property (4) — no new/old
//! inversion — is what separates atomic from regular and what the
//! transformation's write-back buys.
//!
//! Every integration test and soak run records a [`History`] and asserts the
//! appropriate checker returns no violations; the lower-bound executors
//! assert the *presence* of specific violations. Runs that span several
//! registers (one per kv key) or may lose operations are turned into one
//! verdict by [`judge`] — the single seam where the definition of a
//! correct run lives.

use crate::clients::OpOutput;
use rastor_common::{ClientId, Timestamp, TsVal, Value};
use rastor_sim::Completion;
use std::collections::BTreeMap;
use std::fmt;

/// A recorded write operation (complete or not).
#[derive(Clone, Debug)]
pub struct WriteRec {
    /// Timestamp the writer assigned (k-th write carries `Timestamp(k)`).
    pub ts: Timestamp,
    /// The written value.
    pub val: Value,
    /// Invocation time.
    pub invoked_at: u64,
    /// Response time (`None` while incomplete, e.g. writer crashed).
    pub completed_at: Option<u64>,
}

/// A recorded complete read operation.
#[derive(Clone, Debug)]
pub struct ReadRec {
    /// The invoking reader.
    pub client: ClientId,
    /// Invocation time.
    pub invoked_at: u64,
    /// Response time.
    pub completed_at: u64,
    /// The pair the read returned.
    pub returned: TsVal,
}

/// A violation of the atomicity/regularity properties.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Violation {
    /// Property 1: a read returned a value that was never written.
    ForgedValue {
        /// The offending read's client.
        client: ClientId,
        /// The pair returned.
        returned: TsVal,
    },
    /// Property 2: a read that succeeds `wr_k` returned `val_l` with `l < k`.
    StaleRead {
        /// The offending read's client.
        client: ClientId,
        /// Timestamp returned.
        returned: Timestamp,
        /// Timestamp of the latest write preceding the read.
        required: Timestamp,
    },
    /// Property 3: a read returned a value whose write started after the
    /// read completed.
    FutureRead {
        /// The offending read's client.
        client: ClientId,
        /// Timestamp returned.
        returned: Timestamp,
    },
    /// Property 4: new/old inversion between two non-concurrent reads.
    NewOldInversion {
        /// The earlier read's client.
        first: ClientId,
        /// The later read's client.
        second: ClientId,
        /// Timestamp the earlier read returned.
        first_ts: Timestamp,
        /// Timestamp the later read returned.
        second_ts: Timestamp,
    },
    /// Property 4 at a shared boundary: one client's read returned an older
    /// pair than its own previous read, the later one invoked at the very
    /// instant the earlier completed. Across clients that tie is
    /// concurrency; within one client it is order, because a client's
    /// reads of one register are sequential (by the model, and by kv's
    /// one-operation-per-key-per-handle rule).
    SameClientRegression {
        /// The client that issued both reads.
        client: ClientId,
        /// Timestamp its earlier read returned.
        first_ts: Timestamp,
        /// Timestamp its later read returned.
        second_ts: Timestamp,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::ForgedValue { client, returned } => {
                write!(f, "{client} read forged/never-written value {returned}")
            }
            Violation::StaleRead {
                client,
                returned,
                required,
            } => write!(
                f,
                "{client} read stale {returned} after write {required} completed"
            ),
            Violation::FutureRead { client, returned } => {
                write!(f, "{client} read {returned} before that write was invoked")
            }
            Violation::NewOldInversion {
                first,
                second,
                first_ts,
                second_ts,
            } => write!(
                f,
                "new/old inversion: {first} read {first_ts}, then {second} read {second_ts}"
            ),
            Violation::SameClientRegression {
                client,
                first_ts,
                second_ts,
            } => write!(
                f,
                "same-client regression: {client} read {first_ts} then {second_ts}"
            ),
        }
    }
}

/// A complete operation history of one register, ready for checking.
#[derive(Clone, Debug, Default)]
pub struct History {
    writes: BTreeMap<Timestamp, WriteRec>,
    reads: Vec<ReadRec>,
}

impl History {
    /// Start an empty history.
    pub fn new() -> History {
        History::default()
    }

    /// Record a write (complete or incomplete).
    pub fn push_write(&mut self, rec: WriteRec) {
        self.writes.insert(rec.ts, rec);
    }

    /// Record a complete read.
    pub fn push_read(&mut self, rec: ReadRec) {
        self.reads.push(rec);
    }

    /// Recorded writes in timestamp order.
    pub fn writes(&self) -> impl Iterator<Item = &WriteRec> {
        self.writes.values()
    }

    /// Recorded reads in insertion order.
    pub fn reads(&self) -> &[ReadRec] {
        &self.reads
    }

    /// Ingest the completions of a simulator run. Writes carry their pair in
    /// [`OpOutput::Wrote`]; reads in [`OpOutput::Read`]. Incomplete writes
    /// (crashed writer) must be added separately via [`History::push_write`]
    /// with `completed_at: None`.
    pub fn ingest(&mut self, completions: &[Completion<OpOutput>]) {
        for c in completions {
            match &c.output {
                OpOutput::Wrote(pair) => self.push_write(WriteRec {
                    ts: pair.ts,
                    val: pair.val.clone(),
                    invoked_at: c.stat.invoked_at,
                    completed_at: Some(c.stat.completed_at),
                }),
                OpOutput::Read(pair) => self.push_read(ReadRec {
                    client: c.client,
                    invoked_at: c.stat.invoked_at,
                    completed_at: c.stat.completed_at,
                    returned: pair.clone(),
                }),
            }
        }
    }

    /// Check regularity: properties (1)–(3).
    pub fn check_regular(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        for rd in &self.reads {
            // Property 1: value genuineness.
            let genuine = if rd.returned.ts.is_bottom() {
                rd.returned.val.is_bottom()
            } else {
                self.writes
                    .get(&rd.returned.ts)
                    .map(|w| w.val == rd.returned.val)
                    .unwrap_or(false)
            };
            if !genuine {
                out.push(Violation::ForgedValue {
                    client: rd.client,
                    returned: rd.returned.clone(),
                });
                continue;
            }
            // Property 2: freshness w.r.t. preceding writes.
            let required = self
                .writes
                .values()
                .filter(|w| w.completed_at.map(|c| c < rd.invoked_at).unwrap_or(false))
                .map(|w| w.ts)
                .max()
                .unwrap_or(Timestamp::BOTTOM);
            if rd.returned.ts < required {
                out.push(Violation::StaleRead {
                    client: rd.client,
                    returned: rd.returned.ts,
                    required,
                });
            }
            // Property 3: no reads from the future.
            if !rd.returned.ts.is_bottom() {
                if let Some(w) = self.writes.get(&rd.returned.ts) {
                    if w.invoked_at > rd.completed_at {
                        out.push(Violation::FutureRead {
                            client: rd.client,
                            returned: rd.returned.ts,
                        });
                    }
                }
            }
        }
        out
    }

    /// Check atomicity: regularity plus property (4). Two reads are ordered
    /// when the first completed strictly before the second was invoked —
    /// or, for reads of one client, at the same instant (the two must not
    /// *be* one instant, or neither comes first).
    pub fn check_atomic(&self) -> Vec<Violation> {
        let mut out = self.check_regular();
        for a in &self.reads {
            for b in &self.reads {
                if b.returned.ts >= a.returned.ts {
                    continue;
                }
                if a.completed_at < b.invoked_at {
                    out.push(Violation::NewOldInversion {
                        first: a.client,
                        second: b.client,
                        first_ts: a.returned.ts,
                        second_ts: b.returned.ts,
                    });
                } else if a.client == b.client
                    && a.completed_at == b.invoked_at
                    && a.invoked_at < b.completed_at
                {
                    out.push(Violation::SameClientRegression {
                        client: a.client,
                        first_ts: a.returned.ts,
                        second_ts: b.returned.ts,
                    });
                }
            }
        }
        out
    }
}

/// The verdict on one run: every way it fell short of "each operation
/// completed and every register's history is atomic", as printable lines
/// (empty = clean).
///
/// `histories` are the run's registers, each under the label its
/// violations are reported with (a kv key; empty for a single-register
/// run). `expected` is how many operations the run was asked to perform and
/// `failed` describes each one that returned an error instead of a result.
/// Lines start with `liveness:` (a failed operation), `wait-freedom:`
/// (operations neither recorded nor failed) or `atomicity:` (a
/// [`History::check_atomic`] violation) — the prefixes reports and
/// witness searches key on.
pub fn judge(histories: &[(String, History)], expected: usize, failed: &[String]) -> Vec<String> {
    let mut out: Vec<String> = failed.iter().map(|f| format!("liveness: {f}")).collect();
    let recorded: usize = histories
        .iter()
        .map(|(_, h)| h.writes.len() + h.reads.len())
        .sum();
    if recorded + failed.len() != expected {
        out.push(format!(
            "wait-freedom: {recorded} of {expected} ops completed"
        ));
    }
    for (label, history) in histories {
        let sep = if label.is_empty() { "" } else { ": " };
        out.extend(
            history
                .check_atomic()
                .into_iter()
                .map(|v| format!("atomicity: {label}{sep}{v}")),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(ts: u64, val: u64, inv: u64, comp: Option<u64>) -> WriteRec {
        WriteRec {
            ts: Timestamp(ts),
            val: Value::from_u64(val),
            invoked_at: inv,
            completed_at: comp,
        }
    }

    fn r(client: u32, inv: u64, comp: u64, ts: u64, val: u64) -> ReadRec {
        ReadRec {
            client: ClientId::reader(client),
            invoked_at: inv,
            completed_at: comp,
            returned: if ts == 0 {
                TsVal::bottom()
            } else {
                TsVal::new(Timestamp(ts), Value::from_u64(val))
            },
        }
    }

    #[test]
    fn clean_history_passes() {
        let mut h = History::new();
        h.push_write(w(1, 10, 0, Some(5)));
        h.push_read(r(0, 6, 9, 1, 10));
        h.push_read(r(1, 10, 12, 1, 10));
        assert!(h.check_atomic().is_empty());
    }

    #[test]
    fn forged_value_detected() {
        let mut h = History::new();
        h.push_write(w(1, 10, 0, Some(5)));
        h.push_read(r(0, 6, 9, 1, 99)); // right ts, wrong value
        h.push_read(r(1, 6, 9, 7, 70)); // never-written ts
        let v = h.check_regular();
        assert_eq!(v.len(), 2);
        assert!(matches!(v[0], Violation::ForgedValue { .. }));
        assert!(matches!(v[1], Violation::ForgedValue { .. }));
    }

    #[test]
    fn stale_read_detected() {
        let mut h = History::new();
        h.push_write(w(1, 10, 0, Some(5)));
        h.push_write(w(2, 20, 6, Some(9)));
        h.push_read(r(0, 10, 12, 1, 10)); // write 2 completed at 9 < 10
        let v = h.check_regular();
        assert_eq!(v.len(), 1);
        assert!(matches!(
            v[0],
            Violation::StaleRead {
                required: Timestamp(2),
                ..
            }
        ));
    }

    #[test]
    fn concurrent_read_may_return_either() {
        let mut h = History::new();
        h.push_write(w(1, 10, 0, Some(5)));
        h.push_write(w(2, 20, 6, Some(20)));
        // Read overlaps write 2: returning either 1 or 2 is regular.
        h.push_read(r(0, 8, 15, 1, 10));
        h.push_read(r(1, 8, 25, 2, 20));
        assert!(h.check_regular().is_empty());
    }

    #[test]
    fn future_read_detected() {
        let mut h = History::new();
        h.push_write(w(1, 10, 50, Some(60)));
        h.push_read(r(0, 0, 10, 1, 10)); // read completed before write invoked
        let v = h.check_regular();
        assert!(v.iter().any(|x| matches!(x, Violation::FutureRead { .. })));
    }

    #[test]
    fn incomplete_write_is_concurrent_not_required() {
        let mut h = History::new();
        h.push_write(w(1, 10, 0, Some(5)));
        h.push_write(w(2, 20, 6, None)); // writer crashed mid-write
        h.push_read(r(0, 100, 110, 1, 10)); // old value OK: write 2 never completed
        h.push_read(r(1, 100, 110, 2, 20)); // new value also OK: concurrent
        assert!(h.check_regular().is_empty());
    }

    #[test]
    fn new_old_inversion_detected_only_by_atomic() {
        let mut h = History::new();
        h.push_write(w(1, 10, 0, Some(5)));
        h.push_write(w(2, 20, 6, Some(50))); // write 2 concurrent with both reads
        h.push_read(r(0, 10, 20, 2, 20)); // rd1 returns the concurrent write
        h.push_read(r(1, 30, 40, 1, 10)); // rd2 after rd1 returns the older one
        assert!(h.check_regular().is_empty(), "regular permits this");
        let v = h.check_atomic();
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], Violation::NewOldInversion { .. }));
    }

    /// One client's reads are sequential, so a later read invoked at the
    /// very tick the earlier one completed is *after* it. (At the parent of
    /// this test the pair counted as concurrent and `check_atomic` passed
    /// it; only the explorer's own loop caught it.)
    #[test]
    fn same_client_boundary_tie_regression_is_a_violation() {
        let mut h = History::new();
        h.push_write(w(1, 10, 0, Some(5)));
        h.push_write(w(2, 20, 6, Some(50)));
        h.push_read(r(0, 10, 20, 2, 20));
        h.push_read(r(0, 20, 30, 1, 10)); // invoked at rd1's completion tick
        assert!(h.check_regular().is_empty(), "regular permits this");
        assert_eq!(
            h.check_atomic(),
            vec![Violation::SameClientRegression {
                client: ClientId::reader(0),
                first_ts: Timestamp(2),
                second_ts: Timestamp(1),
            }]
        );
        assert!(h.check_atomic()[0].to_string().contains("same-client"));
    }

    /// The same tie between two *different* clients is concurrency: either
    /// order linearizes, so nothing is reported.
    #[test]
    fn different_clients_at_a_boundary_tie_stay_concurrent() {
        let mut h = History::new();
        h.push_write(w(1, 10, 0, Some(5)));
        h.push_write(w(2, 20, 6, Some(50)));
        h.push_read(r(0, 10, 20, 2, 20));
        h.push_read(r(1, 20, 30, 1, 10));
        assert!(h.check_atomic().is_empty());
        // Nor do two same-instant reads of one client order each other.
        let mut h = History::new();
        h.push_write(w(1, 10, 0, Some(50)));
        h.push_read(r(0, 7, 7, 1, 10));
        h.push_read(r(0, 7, 7, 0, 0));
        assert!(h.check_atomic().is_empty());
    }

    #[test]
    fn judge_counts_ops_and_labels_violations() {
        let mut clean = History::new();
        clean.push_write(w(1, 10, 0, Some(5)));
        clean.push_read(r(0, 6, 9, 1, 10));
        let mut stale = History::new();
        stale.push_write(w(1, 10, 0, Some(5)));
        stale.push_read(r(0, 10, 15, 0, 0));
        let histories = vec![(String::new(), clean), ("k".to_string(), stale)];
        assert!(judge(&histories[..1], 2, &[]).is_empty());
        let verdict = judge(&histories, 6, &["handle 0 get a: timed out".to_string()]);
        assert_eq!(verdict.len(), 3, "{verdict:?}");
        assert_eq!(verdict[0], "liveness: handle 0 get a: timed out");
        assert_eq!(verdict[1], "wait-freedom: 4 of 6 ops completed");
        assert!(
            verdict[2].starts_with("atomicity: k: r0 read stale"),
            "{verdict:?}"
        );
    }

    #[test]
    fn bottom_read_before_any_write_is_fine() {
        let mut h = History::new();
        h.push_read(r(0, 0, 5, 0, 0));
        assert!(h.check_atomic().is_empty());
    }

    #[test]
    fn bottom_read_after_complete_write_is_stale() {
        let mut h = History::new();
        h.push_write(w(1, 10, 0, Some(5)));
        h.push_read(r(0, 10, 15, 0, 0));
        let v = h.check_regular();
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], Violation::StaleRead { .. }));
    }

    #[test]
    fn violations_display() {
        let v = Violation::ForgedValue {
            client: ClientId::reader(0),
            returned: TsVal::new(Timestamp(9), Value::from_u64(1)),
        };
        assert!(v.to_string().contains("forged"));
    }
}
