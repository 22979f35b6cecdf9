//! Adaptive: workload-driven switching across the paper's time–space
//! tradeoff.
//!
//! The static single-version algorithms force the user to pick a side
//! of the tradeoff at [`StmBuilder`](crate::StmBuilder) time: invisible reads
//! (Tl2) pay validation time and abort–rescan churn when writers are
//! frequent, visible reads (Tlrw) pay one shared-memory RMW inside every
//! first read of a stripe and reader–writer conflicts when readers
//! dominate. `Algorithm::Adaptive` makes the tradeoff a *runtime*
//! quantity: a mode controller samples [`StatsSnapshot`] deltas over
//! commit windows and moves the live engine between
//!
//! * **invisible mode** — the Tl2 hooks over versioned orec words
//!   (read-mostly phases: reads are two plain loads, no shared-memory
//!   write),
//! * **visible mode** — the Tlrw hooks over reader–writer orec words
//!   (write-heavy or abort-thrashing phases: per-stripe write locks, no
//!   global clock hotspot, no read-set validation), and
//! * **multiversion mode** — the Mv hooks over versioned orec words
//!   (scan-heavy phases: long read-only transactions read the snapshot
//!   named by their start time and *cannot* abort, paying in retained
//!   versions — the paper's space axis as a routing target).
//!
//! ## The decision signals
//!
//! Each window of [`AdaptiveConfig::window_commits`] commits, the
//! controller computes from the stats delta (reads here meaning `reads +
//! snapshot_reads`, so the signals stay comparable across modes):
//!
//! * the **read/write-set size ratio** `reads / writes` — the primary
//!   time-axis signal: at or below `WRITE_RATIO_VISIBLE` (3) the
//!   window was write-heavy (go visible), at or above
//!   `READ_RATIO_INVISIBLE` (8) it was read-mostly (leave visible); the
//!   band between the two thresholds is dead — no switching pressure
//!   either way;
//! * the **scan length** `reads / commits` — the space-axis signal: at
//!   or above [`AdaptiveConfig::mv_scan_reads`] the window's
//!   transactions are long scans, which Mv serves without aborts or
//!   validation; read-mostly departures from the other modes route to
//!   multiversion instead of invisible when this fires;
//! * the **abort rate** and **validation probes per read** — fast-path
//!   accelerators out of invisible mode: when optimistic execution is
//!   thrashing (aborted attempts re-running, validation work exceeding
//!   the read work it protects), the switch skips hysteresis;
//! * **reader conflicts per commit** — an accelerant *out of* visible
//!   mode: visible-read lock churn means the pessimistic side is paying
//!   for a workload it no longer fits;
//! * **eviction aborts** — an accelerant out of multiversion mode: under
//!   a [`MvConfig`](crate::MvConfig) space bound, snapshots aging out of
//!   capped chains mean the space budget no longer fits the camping
//!   pattern, and invisible reads serve it with no chains at all.
//!
//! A switch additionally requires the same target mode for
//! [`AdaptiveConfig::hysteresis_windows`] consecutive windows, so a
//! workload oscillating around a threshold does not flap.
//!
//! ## The epoch-quiesced transition
//!
//! The modes interpret the *same* orec table under different word
//! formats (`version << 1 | locked` for Tl2 and Mv vs `readers << 1 |
//! writer` for Tlrw), so a switch must never let transactions of
//! different modes overlap. Every adaptive transaction registers in a
//! per-mode active counter at its first operation and **pins its
//! starting mode for the whole attempt**; the switcher
//!
//! 1. raises a *draining* flag — new transactions spin (yielding) until
//!    the transition resolves, in-flight ones finish under their pinned
//!    mode;
//! 2. waits for the old mode's active count to reach zero, giving up
//!    (and lowering the flag) after [`AdaptiveConfig::max_drain`] so a
//!    long-running or nested transaction stalls the switch, never the
//!    system;
//! 3. reinterprets the quiesced table by resetting every word to zero —
//!    sound in every direction: a zero word is "unlocked, version 0" to
//!    the versioned format and "no readers, no writer" to the
//!    reader–writer format, and every commit published under the old
//!    mode happened-before the barrier, so the new mode never needs the
//!    discarded versions to detect a conflict that predates it (the
//!    global clock is *not* reset, keeping Tl2 and Mv snapshots
//!    monotonic across any number of round trips). Quiescence also
//!    leaves the snapshot registry empty — an Mv transaction holds its
//!    registry slot for its whole pinned attempt — so a switch out of
//!    multiversion mode strands no snapshot, and the switcher rebases
//!    the registry's cached watermark to the current clock, releasing
//!    every version the departed mode retained;
//! 4. publishes the new mode, which releases the spinning beginners.
//!
//! Histories recorded across a switch stay opaque for the same reason
//! the reset is sound: the quiesce barrier totally orders old-mode
//! transactions before new-mode ones in real time, so a switch can only
//! *restrict* the interleavings the checker must serialize.

use crate::engine::{Stm, Transaction};
use crate::stats::{ActiveMode, StatsSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use super::{mv, tl2, tlrw};

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
    /// Reads per commit (scan length, counting snapshot reads) at or
    /// above which a read-leaning window counts as scan-heavy and
    /// routes to **multiversion** mode, where long read-only
    /// transactions never validate and never abort. Must be at least 1.
    pub mv_scan_reads: f64,
    /// Consecutive windows that must agree on a target mode before the
    /// switch executes (fast-path signals override). Must be at least 1.
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

/// Read/write ratio at or below which a window counts as write-heavy
/// and votes for **visible** mode.
const WRITE_RATIO_VISIBLE: f64 = 3.0;

/// Read/write ratio at or above which a window counts as read-mostly
/// and votes for **invisible** mode.
const READ_RATIO_INVISIBLE: f64 = 8.0;

// The gap between the two ratios is the dead band that prevents
// flapping on mixed workloads.
const _: () = assert!(WRITE_RATIO_VISIBLE < READ_RATIO_INVISIBLE);

/// Abort rate (aborts / attempts) at or above which a vote for visible
/// mode skips hysteresis: optimistic execution is thrashing and every
/// extra window spent invisible re-runs work.
const ABORT_RATE_FAST: f64 = 0.25;

/// Validation probes per read at or above which a vote for visible mode
/// skips hysteresis: validation re-work has outgrown the read work it
/// protects.
const PROBE_RATE_FAST: f64 = 2.0;

/// Reader conflicts per commit at or above which visible mode is
/// abandoned regardless of the read/write ratio: visible-read lock
/// churn is aborting transactions the invisible mode would commit.
const READER_CONFLICT_RATE: f64 = 0.5;

/// Mode bits in the packed state word: an [`ActiveMode`] discriminant,
/// naming which of the three hook sets is in force.
const MODE_MASK: u64 = 3;

/// Decodes the mode bits of the packed state word.
fn mode_of(state: u64) -> ActiveMode {
    ActiveMode::from_u8((state & MODE_MASK) as u8)
}

/// Draining flag in the packed state word (bits 0–1 are the mode).
const DRAIN: u64 = 4;

/// Controller bookkeeping, touched once per window under the `ctl` lock.
#[derive(Default)]
struct Ctl {
    /// Stats at the previous sample, for windowed deltas.
    last: StatsSnapshot,
    /// Mode the recent windows have been voting for, if any.
    target: Option<ActiveMode>,
    /// Consecutive windows that voted for `target`.
    streak: u32,
}

/// Live mode-controller state owned by an adaptive [`Stm`].
pub(crate) struct AdaptiveState {
    cfg: AdaptiveConfig,
    /// Packed `mode | DRAIN?` word; only the controller mutates it.
    state: AtomicU64,
    /// In-flight transactions per mode; a switch drains the old mode's
    /// count to zero before reinterpreting the orec table.
    active: [AtomicU64; 3],
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
            state: AtomicU64::new(ActiveMode::Invisible as u64),
            active: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
            last_sample: AtomicU64::new(0),
            ctl: Mutex::new(Ctl::default()),
        }
    }

    /// The mode currently (or about to be) in force.
    pub(crate) fn mode(&self) -> ActiveMode {
        mode_of(self.state.load(Ordering::SeqCst))
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
        let mode = mode_of(s);
        ad.active[mode as usize].fetch_add(1, Ordering::SeqCst);
        // Registration races the switcher's drain flag: re-check, and
        // back out if a transition started in between (the switcher
        // either saw our increment and is waiting for it, or we saw its
        // flag — never neither).
        if ad.state.load(Ordering::SeqCst) == s {
            tx.pinned = Some(mode);
            // Resolve the per-operation dispatch to the pinned hooks:
            // later reads/commits cost one match, exactly like a static
            // instance.
            tx.mode = mode.algorithm();
            return match mode {
                ActiveMode::Invisible => tl2::begin(tx.stm),
                ActiveMode::Visible => tlrw::begin(tx.stm),
                ActiveMode::Multiversion => mv::begin(tx),
            };
        }
        ad.active[mode as usize].fetch_sub(1, Ordering::SeqCst);
    }
}

/// Deregisters an attempt from its mode's active counter; called from
/// the transaction's `Drop` (every attempt, every exit path) and
/// idempotent through `Option::take`. No-op for static instances.
pub(crate) fn release_slot(tx: &mut Transaction<'_>) {
    if let Some(mode) = tx.pinned.take() {
        if let Some(ad) = tx.stm.adaptive.as_ref() {
            ad.active[mode as usize].fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Commit-path controller hook: counts the commit towards the sampling
/// window and, on a window boundary, samples the stats delta and
/// possibly performs a mode switch. Called by the engine *after* the
/// committing transaction has been dropped, so the caller never holds an
/// active-mode slot while the switch drains. No-op for static instances.
pub(crate) fn after_commit(stm: &Stm) {
    let Some(ad) = stm.adaptive.as_ref() else {
        return;
    };
    // Window check on the commit counter the stats layer already
    // maintains: plain loads (one per stats shard), no extra RMW. The
    // committing transaction was dropped before this runs, so its
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
    let Some(want) = desired(&ad.cfg, mode, &d) else {
        ctl.target = None;
        ctl.streak = 0;
        return;
    };
    if ctl.target == Some(want) {
        ctl.streak += 1;
    } else {
        ctl.target = Some(want);
        ctl.streak = 1;
    }
    let decided = ctl.streak >= ad.cfg.hysteresis_windows || fast_path(mode, &d);
    // A failed drain keeps the streak: the switch re-fires at the next
    // window boundary without re-earning hysteresis.
    if decided && try_switch(stm, ad, mode, want) {
        ctl.target = None;
        ctl.streak = 0;
    }
}

/// The mode this window's signals vote for, if any (`None` inside the
/// dead band). Reads are counted mode-independently (`reads +
/// snapshot_reads`), so the ratio and scan-length signals mean the same
/// thing whichever hooks produced them.
fn desired(cfg: &AdaptiveConfig, mode: ActiveMode, d: &StatsSnapshot) -> Option<ActiveMode> {
    if d.commits == 0 {
        return None;
    }
    let reads = d.reads + d.snapshot_reads;
    let ratio = reads as f64 / d.writes.max(1) as f64;
    // Scan-heavy: transactions long enough that Mv's abort-free
    // validation-free snapshot reads beat both single-version modes.
    let scanny = reads as f64 / d.commits as f64 >= cfg.mv_scan_reads;
    match mode {
        ActiveMode::Invisible => {
            if scanny && ratio > WRITE_RATIO_VISIBLE {
                Some(ActiveMode::Multiversion)
            } else {
                (ratio <= WRITE_RATIO_VISIBLE || fast_path(mode, d)).then_some(ActiveMode::Visible)
            }
        }
        ActiveMode::Visible => {
            let conflicts = d.reader_conflicts as f64 / d.commits as f64;
            (ratio >= READ_RATIO_INVISIBLE || conflicts >= READER_CONFLICT_RATE).then_some(
                if scanny {
                    ActiveMode::Multiversion
                } else {
                    ActiveMode::Invisible
                },
            )
        }
        ActiveMode::Multiversion => {
            if ratio <= WRITE_RATIO_VISIBLE {
                // Write-heavy: chains churn for readers that no longer
                // scan; the visible side serves writers best.
                Some(ActiveMode::Visible)
            } else {
                // Short transactions no longer need snapshots, and
                // eviction aborts mean the space bound no longer fits
                // the camping pattern — either way invisible reads serve
                // the read side without the chains.
                (!scanny || d.eviction_aborts > 0).then_some(ActiveMode::Invisible)
            }
        }
    }
}

/// Whether the window shows optimistic execution thrashing badly enough
/// to skip hysteresis on the way out of invisible mode.
fn fast_path(mode: ActiveMode, d: &StatsSnapshot) -> bool {
    if mode != ActiveMode::Invisible {
        return false;
    }
    let attempts = (d.commits + d.aborts).max(1) as f64;
    let abort_rate = d.aborts as f64 / attempts;
    let probes_per_read = d.validation_probes as f64 / d.reads.max(1) as f64;
    abort_rate >= ABORT_RATE_FAST || probes_per_read >= PROBE_RATE_FAST
}

/// The epoch-quiesced transition itself; returns whether it completed.
fn try_switch(stm: &Stm, ad: &AdaptiveState, from: ActiveMode, to: ActiveMode) -> bool {
    debug_assert_ne!(from, to);
    ad.state.store(from as u64 | DRAIN, Ordering::SeqCst);
    let deadline = Instant::now() + ad.cfg.max_drain;
    while ad.active[from as usize].load(Ordering::SeqCst) != 0 {
        if Instant::now() >= deadline {
            // In-flight old-mode transactions (a long body, or a nested
            // transaction on the caller's own stack) did not finish in
            // time: keep the current mode rather than stall beginners.
            ad.state.store(from as u64, Ordering::SeqCst);
            return false;
        }
        std::thread::yield_now();
    }
    // Quiesced: no transaction of any mode is active (beginners spin on
    // the drain flag, the other modes' counts are zero by the stable-
    // state invariant), so no thread holds or interprets any orec word.
    stm.orecs.reset_all();
    // Quiescence also empties the snapshot registry (an Mv transaction
    // holds its slot for its whole pinned attempt), so rebase its cached
    // watermark to the current clock: every version the departing mode
    // retained for its snapshots is releasable, and the next Mv window
    // starts from an exact cache instead of a stale floor.
    if let Some(reg) = stm.snapshots.as_ref() {
        reg.refresh_watermark(&stm.clock);
    }
    stm.stats.mode_transition(to);
    // The SeqCst store publishing the new mode orders the resets above
    // before any beginner that observes it.
    ad.state.store(to as u64, Ordering::SeqCst);
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta(commits: u64, aborts: u64, reads: u64, writes: u64) -> StatsSnapshot {
        StatsSnapshot {
            commits,
            aborts,
            reads,
            writes,
            ..StatsSnapshot::default()
        }
    }

    #[test]
    fn ratio_thresholds_vote_with_a_dead_band() {
        let cfg = AdaptiveConfig::default();
        // Write-heavy: 2 reads / 2 writes per commit.
        let d = delta(100, 0, 200, 200);
        assert_eq!(
            desired(&cfg, ActiveMode::Invisible, &d),
            Some(ActiveMode::Visible)
        );
        assert_eq!(desired(&cfg, ActiveMode::Visible, &d), None);
        // Read-mostly: 16 reads per write.
        let d = delta(100, 0, 1600, 100);
        assert_eq!(
            desired(&cfg, ActiveMode::Visible, &d),
            Some(ActiveMode::Invisible)
        );
        assert_eq!(desired(&cfg, ActiveMode::Invisible, &d), None);
        // Dead band: neither threshold crossed, no pressure either way.
        let d = delta(100, 0, 500, 100);
        assert_eq!(desired(&cfg, ActiveMode::Invisible, &d), None);
        assert_eq!(desired(&cfg, ActiveMode::Visible, &d), None);
    }

    #[test]
    fn empty_windows_vote_for_nothing() {
        let cfg = AdaptiveConfig::default();
        let d = delta(0, 0, 0, 0);
        assert_eq!(desired(&cfg, ActiveMode::Invisible, &d), None);
        assert_eq!(desired(&cfg, ActiveMode::Visible, &d), None);
    }

    #[test]
    fn thrashing_takes_the_fast_path_to_visible() {
        let cfg = AdaptiveConfig::default();
        // Read-mostly by ratio, but every other attempt aborts: the
        // abort-rate accelerator votes visible anyway.
        let d = delta(100, 120, 3200, 100);
        assert!(fast_path(ActiveMode::Invisible, &d));
        assert_eq!(
            desired(&cfg, ActiveMode::Invisible, &d),
            Some(ActiveMode::Visible)
        );
        // Validation re-work exceeding double the reads trips the probe
        // accelerator even with a zero abort rate.
        let d = StatsSnapshot {
            validation_probes: 8000,
            ..delta(100, 0, 3200, 100)
        };
        assert!(fast_path(ActiveMode::Invisible, &d));
        // The fast path never applies to leaving visible mode.
        assert!(!fast_path(ActiveMode::Visible, &d));
    }

    #[test]
    fn reader_conflicts_evict_visible_mode() {
        let cfg = AdaptiveConfig::default();
        // Write-leaning ratio would keep visible mode, but the lock
        // churn signal forces the way out.
        let d = StatsSnapshot {
            reader_conflicts: 80,
            ..delta(100, 80, 400, 100)
        };
        assert_eq!(
            desired(&cfg, ActiveMode::Visible, &d),
            Some(ActiveMode::Invisible)
        );
    }

    #[test]
    fn scan_heavy_windows_route_to_multiversion() {
        let cfg = AdaptiveConfig::default();
        // 100 reads per commit, read-mostly: the scan signal redirects
        // the read-side departure to multiversion from either
        // single-version mode.
        let d = delta(100, 0, 10_000, 100);
        assert_eq!(
            desired(&cfg, ActiveMode::Invisible, &d),
            Some(ActiveMode::Multiversion)
        );
        assert_eq!(
            desired(&cfg, ActiveMode::Visible, &d),
            Some(ActiveMode::Multiversion)
        );
        // Snapshot reads count as reads: a window already in
        // multiversion mode keeps voting to stay (no pressure).
        let d = StatsSnapshot {
            snapshot_reads: 10_000,
            ..delta(100, 0, 0, 100)
        };
        assert_eq!(desired(&cfg, ActiveMode::Multiversion, &d), None);
        // Long scans but write-heavy overall: versions churn on every
        // commit, visible mode wins the writes.
        let d = delta(100, 0, 10_000, 5_000);
        assert_eq!(
            desired(&cfg, ActiveMode::Invisible, &d),
            Some(ActiveMode::Visible)
        );
        assert_eq!(
            desired(&cfg, ActiveMode::Multiversion, &d),
            Some(ActiveMode::Visible)
        );
    }

    #[test]
    fn eviction_pressure_and_short_transactions_leave_multiversion() {
        let cfg = AdaptiveConfig::default();
        // Read-mostly but short transactions: snapshots buy nothing.
        let d = StatsSnapshot {
            snapshot_reads: 1600,
            ..delta(100, 0, 0, 100)
        };
        assert_eq!(
            desired(&cfg, ActiveMode::Multiversion, &d),
            Some(ActiveMode::Invisible)
        );
        // Still scan-heavy, but snapshots are aging out of the capped
        // chains: the space bound no longer fits the camping pattern.
        let d = StatsSnapshot {
            snapshot_reads: 10_000,
            eviction_aborts: 3,
            ..delta(100, 0, 0, 100)
        };
        assert_eq!(
            desired(&cfg, ActiveMode::Multiversion, &d),
            Some(ActiveMode::Invisible)
        );
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
