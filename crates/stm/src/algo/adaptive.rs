//! Adaptive: workload-driven switching between the two sides of the
//! paper's time–space separation.
//!
//! A static algorithm fixes at [`StmBuilder`](crate::StmBuilder) time how
//! its read-only transactions pay. Invisible single-version reads (Tl2)
//! pay in *time*: validation, and abort–rescan churn when writers overlap
//! a long scan (Theorem 3). Multiversion reads (Mv) pay in *space*:
//! retained versions, in exchange for read-only transactions that never
//! validate and never abort ("On Partial Wait-Freedom in Transactional
//! Memory", PAPERS.md). `Algorithm::Adaptive` makes that choice a
//! *runtime* quantity: a mode controller samples [`StatsSnapshot`] deltas
//! over commit windows and moves the live engine between
//!
//! * **invisible mode** — the Tl2 hooks: reads are two plain loads and an
//!   O(1) check, commits replace values in place, no chains; and
//! * **multiversion mode** — the Mv hooks: read-only transactions read
//!   the snapshot named by their start time and cannot abort, commits
//!   append versions the low-watermark collector trims.
//!
//! Visible reads stay a static algorithm ([`Algorithm::Tlrw`]): they
//! trade shared-memory RMWs for fewer aborts among many cores, which is
//! not a side of this separation.
//!
//! ## The vote
//!
//! Each window of [`AdaptiveConfig::window_commits`] commits votes on one
//! signal, the window's mean **scan length**: reads per *read-only*
//! commit (`ro_reads / ro_commits` in [`StatsSnapshot`]; a read counts
//! the same under either mode's hooks). The window votes multiversion iff
//! its read-only commits averaged at least
//! [`AdaptiveConfig::mv_scan_reads`] reads and no snapshot read was
//! aborted by a [`MvConfig`](crate::MvConfig) space bound
//! (`eviction_aborts`: the bound no longer fits the camping pattern, and
//! invisible reads need no chains). Otherwise it votes invisible — also
//! when the window held no read-only commit at all.
//!
//! Counting per read-only commit, not per commit, makes the vote
//! flood-proof: ten 256-read scans racing 990 blind one-write commits
//! average 2.6 reads per commit but 256 per scan, and the scans are what
//! Mv serves. Updating transactions validate under both modes, so their
//! reads carry no vote.
//!
//! A switch additionally requires [`AdaptiveConfig::hysteresis_windows`]
//! consecutive windows voting against the current mode, so a workload
//! oscillating around the threshold does not flap.
//!
//! ## The drained transition
//!
//! Both modes keep the orec table in one format, `version << 1 | locked`
//! with every version a tick of the one global clock, and a switch resets
//! neither: every stamp either mode published is at or below the clock
//! any later transaction samples, so the table carries across a switch
//! untouched. What must never overlap are the two *publish* protocols.
//! Tl2 swaps in a value stamped 0, visible to every snapshot, and may draw
//! its commit tick by adopting a racing committer's CAS, which writes
//! nothing to the clock. An Mv snapshot reader racing the first would
//! read a value its snapshot predates; racing the second, it would miss
//! the release edge its snapshot relies on (see `versioned::draw_wv`).
//! So every adaptive transaction registers in its mode's active counter
//! at its first operation and **pins that mode for the whole attempt**,
//! and the switcher
//!
//! 1. raises a *draining* flag — new transactions spin (yielding) until
//!    the transition resolves, in-flight ones finish under their pinned
//!    mode;
//! 2. waits for the old mode's active count to reach zero, giving up
//!    (and lowering the flag) after [`AdaptiveConfig::max_drain`] so a
//!    long-running or nested transaction stalls the switch, never the
//!    system;
//! 3. rebases the snapshot registry's cached watermark to the current
//!    clock: quiescence leaves the registry empty (an Mv transaction
//!    holds its slot for its whole pinned attempt), so every version the
//!    departing mode retained is releasable;
//! 4. publishes the new mode, which releases the spinning beginners.
//!
//! Histories recorded across a switch stay opaque because the drain
//! totally orders old-mode transactions before new-mode ones in real
//! time: a switch can only *restrict* the interleavings the checker must
//! serialize.

use crate::engine::{Algorithm, Stm, Transaction};
use crate::stats::StatsSnapshot;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use super::{mv, tl2};

/// Tuning knobs for [`Algorithm::Adaptive`](crate::Algorithm::Adaptive)'s
/// mode controller, set through
/// [`StmBuilder::adaptive_config`](crate::StmBuilder::adaptive_config).
///
/// The defaults suit transaction mixes in the tens-of-operations range;
/// shrink `window_commits` (and `hysteresis_windows`) to make tests and
/// short workloads switch quickly.
///
/// # Examples
///
/// ```
/// use ptm_stm::{AdaptiveConfig, Algorithm, Stm};
///
/// let stm = Stm::builder(Algorithm::Adaptive)
///     .adaptive_config(AdaptiveConfig {
///         window_commits: 64,
///         hysteresis_windows: 1,
///         ..AdaptiveConfig::default()
///     })
///     .build();
/// assert_eq!(stm.active_mode(), Algorithm::Tl2); // starts invisible
/// ```
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveConfig {
    /// Commits per sampling window: the controller inspects the stats
    /// delta once every `window_commits` commits. Must be at least 1.
    pub window_commits: u64,
    /// Mean reads per read-only commit (the scan length) at or above
    /// which a window votes for **multiversion** mode, where long
    /// read-only transactions never validate and never abort; below it
    /// the window votes invisible. Must be at least 1.
    pub mv_scan_reads: f64,
    /// Consecutive windows that must vote against the current mode
    /// before the switch executes. Must be at least 1.
    pub hysteresis_windows: u32,
    /// How long a switch may wait for in-flight transactions of the old
    /// mode to finish before giving up and keeping the current mode
    /// (retried at the next window). Bounds the stall a long-running —
    /// or nested, hence undrainable — transaction can impose.
    pub max_drain: Duration,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            window_commits: 256,
            mv_scan_reads: 64.0,
            hysteresis_windows: 2,
            max_drain: Duration::from_millis(5),
        }
    }
}

impl AdaptiveConfig {
    /// Panics on inconsistent settings; called by
    /// [`StmBuilder::build`](crate::StmBuilder::build).
    pub(crate) fn validate(&self) {
        assert!(
            self.window_commits >= 1,
            "window_commits must be at least 1"
        );
        assert!(
            self.hysteresis_windows >= 1,
            "hysteresis_windows must be at least 1"
        );
        assert!(
            self.mv_scan_reads >= 1.0,
            "mv_scan_reads must be at least 1"
        );
    }
}

/// The two hook sets, indexed by the state word's mode bit (and so by
/// `AdaptiveState::active`).
const MODES: [Algorithm; 2] = [Algorithm::Tl2, Algorithm::Mv];

/// Mode bit of the packed state word: an index into [`MODES`].
const MODE: u64 = 1;

/// Draining flag in the packed state word.
const DRAIN: u64 = 2;

/// The index of a hook set in [`MODES`].
fn index_of(mode: Algorithm) -> usize {
    usize::from(mode == Algorithm::Mv)
}

/// Controller bookkeeping, touched once per window under the `ctl` lock.
#[derive(Default)]
struct Ctl {
    /// Stats at the previous sample, for windowed deltas.
    last: StatsSnapshot,
    /// Consecutive windows that voted against the current mode.
    streak: u32,
}

/// Live mode-controller state owned by an adaptive [`Stm`].
pub(crate) struct AdaptiveState {
    cfg: AdaptiveConfig,
    /// Packed `mode | DRAIN?` word; only the controller mutates it.
    state: AtomicU64,
    /// In-flight transactions per mode; a switch drains the old mode's
    /// count to zero before publishing the new one.
    active: [AtomicU64; 2],
    /// Commit count at the last sample; the window check compares it
    /// against the live commit counter (one plain load per stats shard),
    /// so the per-commit hot path pays no extra RMW.
    last_sample: AtomicU64,
    ctl: Mutex<Ctl>,
}

impl std::fmt::Debug for AdaptiveState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptiveState")
            .field("mode", &self.mode())
            .field("cfg", &self.cfg)
            .finish()
    }
}

impl AdaptiveState {
    pub(crate) fn new(cfg: AdaptiveConfig) -> Self {
        AdaptiveState {
            cfg,
            state: AtomicU64::new(index_of(Algorithm::Tl2) as u64),
            active: [AtomicU64::new(0), AtomicU64::new(0)],
            last_sample: AtomicU64::new(0),
            ctl: Mutex::new(Ctl::default()),
        }
    }

    /// The hook set currently (or about to be) in force: `Tl2` or `Mv`.
    pub(crate) fn mode(&self) -> Algorithm {
        MODES[(self.state.load(Ordering::SeqCst) & MODE) as usize]
    }
}

/// Begin hook: pin the current mode for this attempt (spinning out any
/// in-progress transition), register in its active counter, and sample
/// the mode's snapshot time.
pub(crate) fn begin(tx: &mut Transaction<'_>) -> u64 {
    let ad = tx
        .stm
        .adaptive
        .as_ref()
        .expect("Algorithm::Adaptive instances carry adaptive state");
    loop {
        let s = ad.state.load(Ordering::SeqCst);
        if s & DRAIN != 0 {
            // A switch is draining the old mode; it needs those threads
            // scheduled, so yield rather than burn the timeslice.
            std::thread::yield_now();
            continue;
        }
        let i = (s & MODE) as usize;
        ad.active[i].fetch_add(1, Ordering::SeqCst);
        // Registration races the switcher's drain flag: re-check, and
        // back out if a transition started in between (the switcher
        // either saw our increment and is waiting for it, or we saw its
        // flag — never neither).
        if ad.state.load(Ordering::SeqCst) == s {
            tx.pinned = true;
            // Resolve the per-operation dispatch to the pinned hooks:
            // later reads/commits cost one match, exactly like a static
            // instance.
            tx.mode = MODES[i];
            return match tx.mode {
                Algorithm::Mv => mv::begin(tx),
                _ => tl2::begin(tx.stm),
            };
        }
        ad.active[i].fetch_sub(1, Ordering::SeqCst);
    }
}

/// Deregisters an attempt from its mode's active counter; called from
/// the transaction's `Drop` (every attempt, every exit path) and
/// idempotent through `mem::take`. No-op for static instances.
pub(crate) fn release_slot(tx: &mut Transaction<'_>) {
    if std::mem::take(&mut tx.pinned) {
        if let Some(ad) = tx.stm.adaptive.as_ref() {
            ad.active[index_of(tx.mode)].fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Commit-path controller hook: counts a read-only commit's scan length,
/// counts the commit towards the sampling window and, on a window
/// boundary, samples the stats delta and possibly performs a mode switch.
/// Called by the engine *after* the committing attempt has released its
/// mode slot, so the caller never holds one while the switch drains.
/// No-op for static instances.
pub(crate) fn after_commit(tx: &Transaction<'_>) {
    let stm = tx.stm;
    let Some(ad) = stm.adaptive.as_ref() else {
        return;
    };
    if let Some(reads) = tx.tally.read_only_reads() {
        stm.stats.read_only_commit(reads);
    }
    // Window check on the commit counter the stats layer already
    // maintains: plain loads (one per stats shard), no extra RMW. The
    // committing attempt was released before this runs, so its
    // operation tallies are already flushed into any snapshot sampled
    // here.
    let commits = stm.stats.commit_count();
    if commits.wrapping_sub(ad.last_sample.load(Ordering::Relaxed)) < ad.cfg.window_commits {
        return;
    }
    // One sampler at a time; a lost race just means another thread is
    // already looking at this window.
    let Ok(mut ctl) = ad.ctl.try_lock() else {
        return;
    };
    ad.last_sample.store(commits, Ordering::Relaxed);
    sample(stm, ad, &mut ctl);
}

/// Inspects the window's stats delta and runs the hysteresis/switch
/// logic.
fn sample(stm: &Stm, ad: &AdaptiveState, ctl: &mut Ctl) {
    let snap = stm.stats().snapshot();
    let d = snap.since(&ctl.last);
    ctl.last = snap;
    let mode = ad.mode();
    if desired(&ad.cfg, &d) == mode {
        ctl.streak = 0;
        return;
    }
    ctl.streak += 1;
    // A failed drain keeps the streak: the switch re-fires at the next
    // window boundary without re-earning hysteresis.
    if ctl.streak >= ad.cfg.hysteresis_windows && try_switch(stm, ad, mode) {
        ctl.streak = 0;
    }
}

/// The mode this window votes for: `Mv` iff its read-only commits
/// averaged at least `mv_scan_reads` reads and no snapshot read was
/// evicted, `Tl2` otherwise.
fn desired(cfg: &AdaptiveConfig, d: &StatsSnapshot) -> Algorithm {
    let scans = d.ro_commits > 0 && d.ro_reads as f64 / d.ro_commits as f64 >= cfg.mv_scan_reads;
    if scans && d.eviction_aborts == 0 {
        Algorithm::Mv
    } else {
        Algorithm::Tl2
    }
}

/// The drained transition out of `from`; returns whether it completed.
fn try_switch(stm: &Stm, ad: &AdaptiveState, from: Algorithm) -> bool {
    let old = index_of(from);
    ad.state.store(old as u64 | DRAIN, Ordering::SeqCst);
    let deadline = Instant::now() + ad.cfg.max_drain;
    while ad.active[old].load(Ordering::SeqCst) != 0 {
        if Instant::now() >= deadline {
            // In-flight old-mode transactions (a long body, or a nested
            // transaction on the caller's own stack) did not finish in
            // time: keep the current mode rather than stall beginners.
            ad.state.store(old as u64, Ordering::SeqCst);
            return false;
        }
        std::thread::yield_now();
    }
    // Quiesced: no transaction is active (beginners spin on the drain
    // flag, the new mode's count is zero by the stable-state invariant),
    // which also empties the snapshot registry — an Mv transaction holds
    // its slot for its whole pinned attempt. Rebase the cached watermark
    // to the current clock: every version the departing mode retained
    // for its snapshots is releasable, and the next Mv period starts
    // from an exact cache instead of a stale floor.
    if let Some(reg) = stm.snapshots.as_ref() {
        reg.refresh_watermark(&stm.clock);
    }
    stm.stats.mode_transition();
    // The SeqCst store publishing the new mode orders everything above
    // before any beginner that observes it.
    ad.state.store(old as u64 ^ MODE, Ordering::SeqCst);
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A window of `commits` commits of which `ro_commits` were read-only
    /// and read `ro_reads` in total.
    fn window(commits: u64, ro_commits: u64, ro_reads: u64) -> StatsSnapshot {
        StatsSnapshot {
            commits,
            ro_commits,
            ro_reads,
            ..StatsSnapshot::default()
        }
    }

    #[test]
    fn blind_writer_floods_do_not_dilute_the_scan_vote() {
        // Ten 256-read scans against 990 blind one-write commits: 2.6
        // reads per commit and a read/write ratio of 2.6, which a
        // per-commit vote reads as write-heavy. Per read-only commit the
        // window is 256-read scans, which Mv serves.
        let cfg = AdaptiveConfig::default();
        let d = StatsSnapshot {
            reads: 2_560,
            writes: 990,
            ..window(1_000, 10, 2_560)
        };
        assert_eq!(desired(&cfg, &d), Algorithm::Mv);
    }

    #[test]
    fn short_or_absent_read_only_transactions_vote_invisible() {
        let cfg = AdaptiveConfig::default();
        // The threshold is inclusive.
        assert_eq!(desired(&cfg, &window(100, 100, 6_400)), Algorithm::Mv);
        assert_eq!(desired(&cfg, &window(100, 100, 6_399)), Algorithm::Tl2);
        // Read-mostly but short: 16-read transactions buy nothing from
        // snapshots.
        assert_eq!(desired(&cfg, &window(100, 90, 1_440)), Algorithm::Tl2);
        // Write-heavy transfers, every commit a writer; an empty window.
        let d = StatsSnapshot {
            reads: 200,
            writes: 200,
            ..window(100, 0, 0)
        };
        assert_eq!(desired(&cfg, &d), Algorithm::Tl2);
        assert_eq!(desired(&cfg, &window(0, 0, 0)), Algorithm::Tl2);
    }

    #[test]
    fn eviction_aborts_vote_invisible_even_for_scans() {
        // Still scan-heavy, but snapshots are aging out of capped chains:
        // the space bound no longer fits the camping pattern.
        let cfg = AdaptiveConfig::default();
        let d = StatsSnapshot {
            eviction_aborts: 3,
            ..window(100, 100, 10_000)
        };
        assert_eq!(desired(&cfg, &d), Algorithm::Tl2);
    }

    #[test]
    #[should_panic(expected = "mv_scan_reads")]
    fn sub_one_scan_threshold_is_rejected() {
        AdaptiveConfig {
            mv_scan_reads: 0.5,
            ..AdaptiveConfig::default()
        }
        .validate();
    }
}
