//! Construction-time options for a [`ShardedKvStore`](crate::ShardedKvStore).

use rastor_obs::Registry;
use rastor_store::{Durability, InMemory, WalBacked};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Default maximum number of operations a handle keeps in flight.
pub const DEFAULT_DEPTH: usize = 8;

/// Construction-time options for a [`ShardedKvStore`](crate::ShardedKvStore).
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Per-shard fault budget (each shard deploys `3t + 1` objects).
    pub t: usize,
    /// Number of independent shard clusters.
    pub num_shards: usize,
    /// Size of the handle pool (= writers = readers per key group).
    pub num_handles: u32,
    /// Optional per-envelope service delay at every object (uniform in
    /// `0..jitter`): emulates network/storage latency and surfaces
    /// interleavings. A coalesced batch envelope pays it once, which is
    /// why batching amortizes it. `None` runs the objects flat out.
    pub jitter: Option<Duration>,
    /// How default (honest) objects persist their state. [`InMemory`]
    /// (the default) keeps today's behavior — a killed object is a
    /// permanent crash. A [`WalBacked`] config lays data out as
    /// `dir/shard-<s>/obj-<o>.{wal,snap}` and unlocks
    /// [`ShardedKvStore::restart_object`](crate::ShardedKvStore::restart_object):
    /// kill-then-recover from disk.
    pub durability: Arc<dyn Durability>,
    /// Run gets in [`ReadMode::Fast`](rastor_core::ReadMode::Fast): an
    /// uncontended, confirmed read returns after its 2 collect rounds instead of the full 4-round
    /// write-back, falling back automatically under contention or
    /// Byzantine skew. Off by default (the paper's baseline read).
    pub fast_reads: bool,
    /// Where handles record their kv-seam metrics (`kv.*`: per-op latency
    /// histograms, per-shard fast/slow read counters, the ops time ring).
    /// Defaults to the process-wide [`Registry::global`]; point it at a
    /// private registry to isolate a store's numbers, or `None` to switch
    /// the kv seam off entirely (benchmark control runs).
    pub metrics: Option<Arc<Registry>>,
}

impl StoreConfig {
    /// A `num_shards`-way store with fault budget `t` and `num_handles`
    /// client handles, no object-side jitter, in-memory objects.
    pub fn new(t: usize, num_shards: usize, num_handles: u32) -> StoreConfig {
        StoreConfig {
            t,
            num_shards,
            num_handles,
            jitter: None,
            durability: Arc::new(InMemory),
            fast_reads: false,
            metrics: Some(Registry::global()),
        }
    }

    /// Enable (or disable) the adaptive 2-round fast read path for gets.
    #[must_use]
    pub fn with_fast_reads(mut self, fast_reads: bool) -> StoreConfig {
        self.fast_reads = fast_reads;
        self
    }

    /// Set the per-envelope object service delay.
    #[must_use]
    pub fn with_jitter(mut self, jitter: Duration) -> StoreConfig {
        self.jitter = Some(jitter);
        self
    }

    /// Back every honest object with a write-ahead log + snapshots under
    /// `dir` (per-shard sub-directories are carved automatically). Spawning
    /// on a dir that already holds data is a cold-start recovery: the
    /// store comes up with every shard's registers intact.
    #[must_use]
    pub fn with_wal(self, dir: impl AsRef<Path>) -> StoreConfig {
        self.with_durability(Arc::new(WalBacked::new(dir.as_ref())))
    }

    /// Set the durability policy directly.
    #[must_use]
    pub fn with_durability(mut self, durability: Arc<dyn Durability>) -> StoreConfig {
        self.durability = durability;
        self
    }

    /// Route kv-seam metrics to `registry` (`None` disables the seam).
    #[must_use]
    pub fn with_metrics(mut self, metrics: Option<Arc<Registry>>) -> StoreConfig {
        self.metrics = metrics;
        self
    }
}
