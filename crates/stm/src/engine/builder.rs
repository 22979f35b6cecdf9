//! [`StmBuilder`]: per-instance configuration and assembly.

use super::{Algorithm, Stm};
use crate::algo::adaptive::{AdaptiveConfig, AdaptiveState};
use crate::epoch::SnapshotRegistry;
use crate::orec::{self, CachePadded, OrecTable};
use crate::recorder::HistoryRecorder;
use crate::stats::StmStats;
use crate::waiter::Waiters;
use crate::wal::Wal;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// Configures and builds an [`Stm`] instance.
///
/// # Examples
///
/// ```
/// use ptm_stm::{Algorithm, Stm};
///
/// let stm = Stm::builder(Algorithm::Tl2)
///     .max_attempts(1_000)
///     .orec_stripes(256)
///     .build();
/// assert!(format!("{stm:?}").contains("max_attempts: 1000"));
/// ```
#[derive(Debug)]
pub struct StmBuilder {
    algorithm: Algorithm,
    max_attempts: u64,
    orec_stripes: usize,
    recorder: Option<HistoryRecorder>,
    adaptive: AdaptiveConfig,
    durability: Option<Arc<Wal>>,
}

impl StmBuilder {
    /// Starts from the defaults: 10 million attempts, 1024 orec stripes,
    /// no history recording, default adaptive tuning.
    pub fn new(algorithm: Algorithm) -> Self {
        StmBuilder {
            algorithm,
            max_attempts: 10_000_000,
            orec_stripes: orec::DEFAULT_STRIPES,
            recorder: None,
            adaptive: AdaptiveConfig::default(),
            durability: None,
        }
    }

    /// Hard ceiling on attempts per transaction before the engine gives
    /// up (panic from [`Stm::atomically`], error from [`Stm::run`]).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn max_attempts(mut self, n: u64) -> Self {
        assert!(n > 0, "max_attempts must be at least 1");
        self.max_attempts = n;
        self
    }

    /// Number of orec stripes (rounded up to a power of two). More
    /// stripes mean fewer false conflicts; fewer mean less memory.
    /// Ignored by NOrec, which has no orecs.
    pub fn orec_stripes(mut self, stripes: usize) -> Self {
        self.orec_stripes = stripes;
        self
    }

    /// Records every transaction of this instance as a t-operation
    /// history into `recorder`, for cross-checking real concurrent runs
    /// against the `ptm-model` opacity/serializability checkers. Keep a
    /// clone of the recorder to [`HistoryRecorder::drain`] afterwards.
    ///
    /// Recording adds one globally sequenced marker per operation
    /// boundary, so it perturbs timing; leave it off for benchmarks.
    pub fn record_history(mut self, recorder: HistoryRecorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Logs every committed write set that staged a durability payload
    /// ([`Transaction::stage_durable`](crate::Transaction::stage_durable))
    /// to `wal` from inside the publish critical section, stamped with
    /// the commit tick. See [`crate::wal`] for the ordering guarantee
    /// this buys and `ptm-server`'s durability layer for the recovery
    /// path built on it. Off by default; instances without a log pay
    /// nothing.
    pub fn durability_hook(mut self, wal: Arc<Wal>) -> Self {
        self.durability = Some(wal);
        self
    }

    /// Tuning knobs for [`Algorithm::Adaptive`]'s mode controller:
    /// sampling window, scan threshold, hysteresis.
    /// Ignored by the static algorithms.
    pub fn adaptive_config(mut self, cfg: AdaptiveConfig) -> Self {
        self.adaptive = cfg;
        self
    }

    /// Builds the instance.
    ///
    /// # Panics
    ///
    /// Panics if the algorithm is [`Algorithm::Adaptive`] and the
    /// [`AdaptiveConfig`] is inconsistent (see its field docs).
    pub fn build(self) -> Stm {
        // The instances that serve snapshots. Adaptive does whenever
        // its controller picks the Mv hooks, so it carries the registry
        // from birth — and with it the append publish for every commit
        // (`twophase::publish`).
        let snapshots = serves_snapshots(self.algorithm).then(SnapshotRegistry::new);
        self.assemble(Arc::new(CachePadded(AtomicU64::new(0))), snapshots)
    }

    /// Builds the instance in `other`'s timestamp domain: the two share
    /// one version clock and one snapshot registry, and keep their own
    /// orec tables, statistics and configuration. A transaction can then
    /// read both at one snapshot ([`Transaction::beside`]) and publish
    /// both at one clock tick ([`Transaction::commit_all`]) —
    /// what `ptm-server` builds the shards of an Mv or Adaptive store
    /// with.
    ///
    /// # Panics
    ///
    /// Panics unless both instances serve snapshots ([`Algorithm::Mv`]
    /// or [`Algorithm::Adaptive`]): the single-version algorithms gain
    /// nothing from a shared clock, and NOrec's clock is its sequence
    /// lock, which a group's second lock half would spin on forever.
    /// Also as [`build`](Self::build).
    ///
    /// [`Transaction::beside`]: crate::Transaction::beside
    /// [`Transaction::commit_all`]: crate::Transaction::commit_all
    ///
    /// # Examples
    ///
    /// ```
    /// use ptm_stm::{Algorithm, Stm};
    ///
    /// let first = Stm::mv();
    /// let second = Stm::builder(Algorithm::Mv).build_beside(&first);
    /// assert_eq!(second.algorithm(), Algorithm::Mv);
    /// ```
    pub fn build_beside(self, other: &Stm) -> Stm {
        assert!(
            serves_snapshots(self.algorithm) && other.snapshots.is_some(),
            "build_beside: both instances must serve snapshots (Mv or Adaptive), \
             got {:?} beside {:?}",
            self.algorithm,
            other.algorithm
        );
        let (clock, snapshots) = (Arc::clone(&other.clock), other.snapshots.clone());
        self.assemble(clock, snapshots)
    }

    /// The instance around a clock and a registry, fresh or shared.
    fn assemble(
        self,
        clock: Arc<CachePadded<AtomicU64>>,
        snapshots: Option<SnapshotRegistry>,
    ) -> Stm {
        // NOrec never touches orecs (its waiters all wait on the clock,
        // as stripe 0), so one stripe still earns its arm: it saves 8 KB
        // of words at the default stripe count. Tlrw's reads RMW their
        // words, so it keeps one word per cache line pair
        // (`OrecTable::spread_out`).
        let orecs = match self.algorithm {
            Algorithm::Norec => OrecTable::new(1),
            Algorithm::Tlrw => OrecTable::spread_out(self.orec_stripes),
            Algorithm::Tl2 | Algorithm::Incremental | Algorithm::Mv | Algorithm::Adaptive => {
                OrecTable::new(self.orec_stripes)
            }
        };
        let adaptive = match self.algorithm {
            Algorithm::Adaptive => {
                self.adaptive.validate();
                Some(AdaptiveState::new(self.adaptive))
            }
            _ => None,
        };
        let stats = Arc::new(StmStats::default());
        if let Some(wal) = &self.durability {
            wal.attach_stats(stats.clone());
        }
        Stm {
            algorithm: self.algorithm,
            clock,
            orecs,
            waiters: Waiters::default(),
            stats,
            max_attempts: self.max_attempts,
            recorder: self.recorder,
            adaptive,
            snapshots,
            durability: self.durability,
        }
    }
}

/// Whether `algorithm` serves snapshots: Mv always, Adaptive whenever
/// its controller picks the Mv hooks.
fn serves_snapshots(algorithm: Algorithm) -> bool {
    matches!(algorithm, Algorithm::Mv | Algorithm::Adaptive)
}
