//! Deploy-path glue: the socket substrate behind the same high-level entry
//! points as the in-process one.
//!
//! * [`NetDeploy`] extends [`StorageSystem`] with
//!   [`NetDeploy::spawn_net_cluster`], the socket sibling of
//!   [`StorageSystem::spawn_thread_cluster`]: honest objects behind a
//!   loopback listener plus a connected [`NetCluster`], ready for a
//!   [`rastor_sim::runtime::ThreadClient`].
//! * [`spawn_servers`] stands up one [`ObjectServer`] per shard of a
//!   [`StoreConfig`], each listening on one address for data, control and
//!   admin frames alike — all that `rastor serve` runs.
//! * [`NetKv`] connects a [`ShardedKvStore`] to those servers via
//!   [`ShardedKvStore::over_transports`]. Its fault surface is the
//!   servers': crash, restart from disk
//!   ([`ObjectServer::restart_from_disk`]) and partition, each at a
//!   server's host, and an optional [`ChaosCfg`] link-fault profile, one
//!   controller per server's host.

use crate::client::NetCluster;
use crate::server::ObjectServer;
use rastor_common::{ClusterConfig, ObjectId, Result};
use rastor_core::msg::{Rep, Req};
use rastor_core::object::HonestObject;
use rastor_core::StorageSystem;
use rastor_kv::{ShardedKvStore, StoreConfig};
use rastor_sim::runtime::Transport;
use rastor_sim::ChaosCfg;
use rastor_sim::ObjectBehavior;
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
        let jitter = jitter.map(|j| Box::new(ChaosCfg::jitter_only(j)) as _);
        let server = ObjectServer::spawn(behaviors, 0, jitter)?;
        let cluster = NetCluster::connect(&[server.local_addr()])?;
        Ok(NetHarness { server, cluster })
    }
}

/// Stand up one [`ObjectServer`] per shard of `cfg`, in shard order: each
/// serves the shard's `3t + 1` objects, built by `cfg.durability` scoped
/// to the shard (a wal-backed config gives every shard a data dir,
/// `dir/shard-<s>/obj-<o>.{wal,snap}`, and makes its objects restartable
/// from disk) unless `behavior(shard, object)` overrides one. `cfg.jitter`
/// is the per-envelope service delay at every object. With `chaos =
/// Some(c)`, every shard's host is controlled by its own copy of the
/// profile `c`, seeded `c.seed + shard`, its jitter raised by `cfg.jitter`.
/// Behind one shard listener every object is its own fault domain: a
/// profile can drop the commit to one honest object while its peer stores
/// it.
///
/// # Errors
///
/// [`rastor_common::Error::Io`] from listeners and from opening durable
/// objects; an invalid fault budget.
pub fn spawn_servers(
    cfg: &StoreConfig,
    chaos: Option<ChaosCfg>,
    mut behavior: impl FnMut(usize, ObjectId) -> Option<Box<dyn ObjectBehavior<Req, Rep> + Send>>,
) -> Result<Vec<ObjectServer>> {
    let num_objects = ClusterConfig::byzantine(cfg.t)?.num_objects();
    (0..cfg.num_shards)
        .map(|s| {
            let durability = cfg.durability.for_shard(s);
            let behaviors = (0..num_objects as u32)
                .map(|o| match behavior(s, ObjectId(o)) {
                    Some(custom) => Ok(custom),
                    None => Ok(durability.object(ObjectId(o))?.0),
                })
                .collect::<Result<Vec<_>>>()?;
            let profile = match (&chaos, cfg.jitter) {
                (None, None) => None,
                (c, jitter) => {
                    let mut c = c.clone().unwrap_or_default();
                    c.seed = c.seed.wrapping_add(s as u64);
                    c.jitter += jitter.unwrap_or_default();
                    Some(Box::new(c) as _)
                }
            };
            ObjectServer::spawn_shard(s, durability, behaviors, profile)
        })
        .collect()
}

/// A sharded kv store whose shards live behind TCP: one listener per
/// shard, with the store itself a plain [`ShardedKvStore`] — the full
/// pipelined handle API, unchanged.
pub struct NetKv {
    /// The store; clone it into worker threads as usual.
    pub store: ShardedKvStore,
    /// One server per shard, in shard order — the fault-injection
    /// surface ([`ObjectServer::host`],
    /// [`ObjectServer::restart_from_disk`]).
    pub servers: Vec<ObjectServer>,
}

impl NetKv {
    /// Stand up `cfg.num_shards` socket-backed shards of honest objects
    /// ([`spawn_servers`]) and connect a [`ShardedKvStore`] to them.
    /// `cfg.durability` applies at the servers, and also persists the
    /// client-side key directory, so re-spawning on the same dir is a
    /// cold-start recovery of the whole deployment.
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
        behavior: impl FnMut(usize, ObjectId) -> Option<Box<dyn ObjectBehavior<Req, Rep> + Send>>,
    ) -> Result<NetKv> {
        let servers = spawn_servers(&cfg, chaos, behavior)?;
        let transports = servers
            .iter()
            .map(|server| {
                NetCluster::connect(&[server.local_addr()])
                    .map(|c| Box::new(c) as Box<dyn Transport<Req, Rep> + Send + Sync>)
            })
            .collect::<Result<_>>()?;
        let store = ShardedKvStore::over_transports(
            cfg.t,
            cfg.num_handles,
            cfg.fast_reads,
            transports,
            cfg.durability,
            cfg.metrics,
        )?;
        Ok(NetKv { store, servers })
    }

    /// The address of shard `shard`'s server: data, control and admin
    /// frames alike.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn addr(&self, shard: usize) -> std::net::SocketAddr {
        self.servers[shard].local_addr()
    }
}
