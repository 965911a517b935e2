//! Deploy-path glue: the socket substrate behind the same high-level entry
//! points as the in-process one.
//!
//! * [`NetDeploy`] extends [`StorageSystem`] with
//!   [`NetDeploy::spawn_net_cluster`], the socket sibling of
//!   [`StorageSystem::spawn_thread_cluster`]: honest objects behind a
//!   loopback listener plus a connected [`NetCluster`], ready for a
//!   [`rastor_sim::runtime::ThreadClient`].
//! * [`NetKv`] stands up a [`ShardedKvStore`] whose shards are reached
//!   over TCP — one [`ObjectServer`] per shard, each listening on one
//!   address for data and control frames alike — via
//!   [`ShardedKvStore::over_transports`]. Its fault surface is the
//!   servers': crash, restart from disk, and partition
//!   ([`NetKv::partition`], cut at each server's host), and an optional
//!   [`ChaosCfg`] link-fault profile drawn at each server's host.

use crate::client::NetCluster;
use crate::server::ObjectServer;
use rastor_common::{ClusterConfig, Error, ObjectId, Result};
use rastor_core::msg::{Rep, Req};
use rastor_core::object::HonestObject;
use rastor_core::StorageSystem;
use rastor_kv::{restart_from_disk, ShardedKvStore, StoreConfig};
use rastor_sim::host::ChaosCfg;
use rastor_sim::runtime::Transport;
use rastor_sim::ObjectBehavior;
use rastor_store::Durability;
use std::sync::Arc;
use std::time::Duration;

/// A single-cluster socket deployment: the server owning the objects and
/// a connected client endpoint.
pub struct NetHarness {
    /// The listener hosting the cluster's objects (drop it and the
    /// cluster is gone; crash objects through it).
    pub server: ObjectServer,
    /// The connected client endpoint; pass it anywhere a
    /// [`Transport`] is accepted.
    pub cluster: NetCluster,
}

/// Extension trait putting [`StorageSystem`] deployments on sockets.
pub trait NetDeploy {
    /// The same deployment as
    /// [`StorageSystem::spawn_thread_cluster`], but socket-backed: honest
    /// objects behind a loopback [`ObjectServer`], plus a [`NetCluster`]
    /// connected to it. Drive the automata from
    /// [`StorageSystem::write_client`] / [`StorageSystem::read_client`]
    /// over `harness.cluster` with a
    /// [`rastor_sim::runtime::ThreadClient`] — identical protocol code,
    /// third substrate.
    ///
    /// # Errors
    ///
    /// [`rastor_common::Error::Io`] if the listener or connection fails.
    fn spawn_net_cluster(&self, jitter: Option<Duration>) -> Result<NetHarness>;
}

impl NetDeploy for StorageSystem {
    fn spawn_net_cluster(&self, jitter: Option<Duration>) -> Result<NetHarness> {
        let behaviors: Vec<Box<dyn ObjectBehavior<Req, Rep> + Send>> =
            (0..self.config().num_objects())
                .map(|_| Box::new(HonestObject::new()) as _)
                .collect();
        let jitter = jitter.map(|jitter| ChaosCfg {
            jitter,
            ..ChaosCfg::default()
        });
        let server = ObjectServer::spawn(behaviors, 0, jitter)?;
        let cluster = NetCluster::connect(&[server.local_addr()])?;
        Ok(NetHarness { server, cluster })
    }
}

/// A sharded kv store whose shards live behind TCP: one listener per
/// shard, with the store itself a plain [`ShardedKvStore`] — the full
/// pipelined handle API, unchanged.
pub struct NetKv {
    /// The store; clone it into worker threads as usual.
    pub store: ShardedKvStore,
    /// One server per shard, in shard order — the fault-injection
    /// surface ([`ObjectServer::crash_object`],
    /// [`ObjectServer::restart_object`]).
    pub servers: Vec<ObjectServer>,
    /// The durability policy the servers' honest objects were spawned
    /// with, kept for [`NetKv::restart_object`].
    durability: Arc<dyn Durability>,
}

impl NetKv {
    /// Stand up `cfg.num_shards` socket-backed shards of honest objects
    /// (each `3t + 1` objects behind its own listener; `cfg.jitter` is the
    /// server-side per-envelope service delay) and connect a
    /// [`ShardedKvStore`] to them. With `chaos = Some(c)`, every shard's
    /// host draws link faults per object from the profile `c` seeded
    /// `c.seed + shard`, its jitter raised by `cfg.jitter`. Behind one
    /// shard listener every object is its own fault domain: a profile can
    /// drop the commit to one honest object while its peer stores it.
    /// `cfg.durability` applies at the servers: a wal-backed
    /// config gives every shard a data dir
    /// (`dir/shard-<s>/obj-<o>.{wal,snap}`) and unlocks
    /// [`NetKv::restart_object`]; it also persists the client-side key
    /// directory, so re-spawning on the same dir is a cold-start recovery
    /// of the whole deployment.
    ///
    /// # Errors
    ///
    /// Propagates [`ShardedKvStore::over_transports`] validation errors
    /// and [`rastor_common::Error::Io`] from listeners/connections.
    pub fn spawn(cfg: StoreConfig, chaos: Option<ChaosCfg>) -> Result<NetKv> {
        NetKv::spawn_with(cfg, chaos, |_, _| None)
    }

    /// As [`NetKv::spawn`], choosing each object's behavior by `(shard,
    /// object)` — the server-side fault-injection hook, mirroring
    /// [`ShardedKvStore::spawn_with`]: `Some(byzantine)` overrides, `None`
    /// gets the default durability-managed honest object.
    ///
    /// # Errors
    ///
    /// As [`NetKv::spawn`].
    pub fn spawn_with(
        cfg: StoreConfig,
        chaos: Option<ChaosCfg>,
        mut behavior: impl FnMut(usize, ObjectId) -> Option<Box<dyn ObjectBehavior<Req, Rep> + Send>>,
    ) -> Result<NetKv> {
        let num_objects = ClusterConfig::byzantine(cfg.t)?.num_objects();
        let mut servers = Vec::with_capacity(cfg.num_shards);
        let mut transports: Vec<Box<dyn Transport<Req, Rep> + Send + Sync>> =
            Vec::with_capacity(cfg.num_shards);
        for s in 0..cfg.num_shards {
            let shard_durability = cfg.durability.for_shard(s);
            let behaviors = (0..num_objects as u32)
                .map(|o| match behavior(s, ObjectId(o)) {
                    Some(custom) => Ok(custom),
                    None => Ok(shard_durability.object(ObjectId(o))?.0),
                })
                .collect::<Result<Vec<_>>>()?;
            let profile = match (&chaos, cfg.jitter) {
                (None, None) => None,
                (c, jitter) => {
                    let c = c.clone().unwrap_or_default();
                    Some(ChaosCfg {
                        seed: c.seed.wrapping_add(s as u64),
                        jitter: c.jitter + jitter.unwrap_or_default(),
                        ..c
                    })
                }
            };
            let server = ObjectServer::spawn(behaviors, 0, profile)?;
            transports.push(Box::new(NetCluster::connect(&[server.local_addr()])?));
            servers.push(server);
        }
        let store = ShardedKvStore::over_transports(
            cfg.t,
            cfg.num_handles,
            cfg.fast_reads,
            transports,
            Arc::clone(&cfg.durability),
            cfg.metrics.clone(),
        )?;
        Ok(NetKv {
            store,
            servers,
            durability: cfg.durability,
        })
    }

    /// The address of shard `shard`'s server: data and control frames
    /// alike.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn addr(&self, shard: usize) -> std::net::SocketAddr {
        self.servers[shard].local_addr()
    }

    /// The server of shard `shard`.
    ///
    /// # Errors
    ///
    /// [`Error::InvariantViolation`] if `shard` is out of range.
    fn server(&self, shard: usize) -> Result<&ObjectServer> {
        self.servers
            .get(shard)
            .ok_or_else(|| Error::InvariantViolation {
                detail: format!("no shard {shard} in this deployment"),
            })
    }

    /// The server of shard `shard`, if it hosts `id`.
    ///
    /// # Errors
    ///
    /// [`Error::InvariantViolation`] if `shard` or `id` is out of range.
    fn hosting_server(&self, shard: usize, id: ObjectId) -> Result<&ObjectServer> {
        Some(self.server(shard)?)
            .filter(|s| s.host().hosts(id))
            .ok_or_else(|| Error::InvariantViolation {
                detail: format!("shard {shard} hosts no object {}", id.0),
            })
    }

    /// Crash one hosted object of one shard's server (no restart) — the
    /// checked twin of indexing [`NetKv::servers`] directly, for callers
    /// handling remote input.
    ///
    /// # Errors
    ///
    /// [`Error::InvariantViolation`] if `shard` or `id` is out of range.
    pub fn crash_object(&self, shard: usize, id: ObjectId) -> Result<()> {
        self.hosting_server(shard, id)?.crash_object(id);
        Ok(())
    }

    /// Cut shard `shard` off from its clients, or heal it:
    /// [`ObjectHost::set_partitioned`](rastor_sim::host::ObjectHost::set_partitioned)
    /// on the shard's server. Connections stay open and control
    /// frames keep being answered; clients see the shard's objects stop
    /// answering, and resume without reconnecting once it heals.
    ///
    /// # Errors
    ///
    /// [`Error::InvariantViolation`] if `shard` is out of range.
    pub fn partition(&self, shard: usize, on: bool) -> Result<()> {
        self.server(shard)?.host().set_partitioned(on);
        Ok(())
    }

    /// Kill one hosted object of one shard's server and restart it from
    /// disk while clients stay connected — [`restart_from_disk`] on the
    /// hosting server, as [`ShardedKvStore::restart_object`] is on a
    /// local shard. Returns the wall-clock kill-to-serving-again time.
    ///
    /// # Errors
    ///
    /// [`Error::InvariantViolation`] if `shard` or `id` is out of range or
    /// the deployment's durability is not recoverable (spawn with a
    /// wal-backed [`StoreConfig`]); recovery I/O and corruption errors
    /// otherwise.
    pub fn restart_object(&self, shard: usize, id: ObjectId) -> Result<Duration> {
        let server = self.hosting_server(shard, id)?;
        restart_from_disk(server.host(), self.durability.as_ref(), shard, id)
    }
}
