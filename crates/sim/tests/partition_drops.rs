//! `chaos.partition_drops` counts object copies, like the rest of the
//! `chaos.*` family: a submit refused by a cut host adds one per live
//! object, and a cut adds one per copy it finds in transit. The counter
//! is process-wide, so this binary holds this one test.

use rastor_common::{ClientId, ObjectId};
use rastor_obs::{names, trace, Registry};
use rastor_sim::runtime::{ReqEnvelope, ReqFrame, ThreadCluster};
use rastor_sim::{ChaosCfg, ObjectBehavior};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Duration;

struct Echo;
impl ObjectBehavior<u32, u32> for Echo {
    fn on_request(&mut self, _from: ClientId, req: &u32) -> Option<u32> {
        Some(*req)
    }
}

#[test]
fn a_cut_counts_one_drop_per_object_copy() {
    let drops = || {
        Registry::global()
            .counter(names::CHAOS_PARTITION_DROPS)
            .get()
    };
    let envelope = || {
        Arc::new(ReqEnvelope {
            from: ClientId::reader(0),
            frames: vec![ReqFrame {
                op_nonce: 1,
                round: 1,
                trace: trace::NO_TRACE,
                req: 1u32,
            }],
        })
    };
    let (sink, _replies) = channel();
    // Four objects, one crashed: every envelope has three live copies.
    // The jitter keeps the copies of a submit in transit for seconds.
    for jitter in [None, Some(Duration::from_secs(30))] {
        let controller = jitter.map(|j| Box::new(ChaosCfg::jitter_only(j)) as _);
        let cluster =
            ThreadCluster::spawn((0..4).map(|_| Box::new(Echo) as _).collect(), controller);
        let host = cluster.host();
        host.crash(ObjectId(3));
        let before = drops();
        if jitter.is_some() {
            host.submit(envelope(), &sink);
        }
        host.set_partitioned(true);
        let in_transit = drops() - before;
        assert_eq!(in_transit, if jitter.is_some() { 3 } else { 0 });
        host.submit(envelope(), &sink);
        assert_eq!(
            drops() - before - in_transit,
            3,
            "a refused submit counts its live copies (jitter {jitter:?})"
        );
    }
}
