//! Standing a workload's store up: in-process, behind loopback TCP, or
//! WAL-backed — always `t = 1`, two shards, fast reads on, service delay
//! off (`jitter: None`), so the numbers measure rastor and not a sleep.

use crate::workload::{key_name, Spec, Substrate, ValueMaker, SHARDS, T};
use rastor_common::{ObjectId, Result};
use rastor_core::adversary::SilentObject;
use rastor_core::msg::{Rep, Req};
use rastor_kv::{ShardedKvStore, StoreConfig};
use rastor_net::NetKv;
use rastor_sim::ObjectBehavior;
use std::path::Path;

/// A running store. Dropping it stops every object thread, server and
/// connection it started.
pub struct Deployment {
    pub store: ShardedKvStore,
    /// Owns the listeners and servers of a TCP deployment.
    _net: Option<NetKv>,
}

/// The object every shard loses to the adversary in `silent_object`
/// workloads.
const SILENT: ObjectId = ObjectId(0);

fn behavior(spec: &Spec, oid: ObjectId) -> Option<Box<dyn ObjectBehavior<Req, Rep> + Send>> {
    (spec.silent_object && oid == SILENT).then(|| Box::new(SilentObject) as _)
}

impl Deployment {
    /// Spawn the store of `spec`; WAL workloads keep their data under
    /// `data_dir` (spawning on a dir that holds data is a cold-start
    /// recovery).
    pub fn spawn(spec: &Spec, data_dir: &Path) -> Result<Deployment> {
        let cfg = StoreConfig::new(T, SHARDS, spec.threads).with_fast_reads(true);
        Ok(match spec.substrate {
            Substrate::Mem => Deployment {
                store: ShardedKvStore::spawn_with(cfg, |_, oid| behavior(spec, oid))?,
                _net: None,
            },
            Substrate::Wal => Deployment {
                store: ShardedKvStore::spawn_with(cfg.with_wal(data_dir), |_, oid| {
                    behavior(spec, oid)
                })?,
                _net: None,
            },
            Substrate::Tcp => {
                let net = NetKv::spawn_with(cfg, None, |_, oid| behavior(spec, oid))?;
                Deployment {
                    store: net.store.clone(),
                    _net: Some(net),
                }
            }
        })
    }

    /// Write every key once, at depth 1 (the steadiest preload mode
    /// measured: depth-16 preload times were bimodal).
    pub fn preload(&self, spec: &Spec, maker: &ValueMaker) -> Result<()> {
        let mut handle = self.store.handle(0)?;
        handle.set_depth(1);
        let items: Vec<_> = (0..spec.keys)
            .map(|k| (key_name(k), maker.make(k, 0)))
            .collect();
        handle.put_batch(&items).map(|_| ())
    }
}
