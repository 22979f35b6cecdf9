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
//! * **invisible mode** — the Tl2 read hooks: a read is two plain loads
//!   of the orec word around the head value and an O(1) check; and
//! * **multiversion mode** — the Mv read hooks: read-only transactions
//!   read the snapshot named by their start time and cannot abort.
//!
//! Commits publish the same way in both modes: they append versions the
//! low-watermark collector trims (in invisible mode no snapshot holds
//! the watermark back, so chains stay near one version).
//!
//! Visible reads stay a static algorithm
//! ([`Algorithm::Tlrw`](crate::Algorithm::Tlrw)): they trade
//! shared-memory RMWs for fewer aborts among many cores, which is not a
//! side of this separation.
//!
//! ## The vote
//!
//! Each window of [`AdaptiveConfig::window_commits`] commits votes on one
//! signal, the window's mean **scan length**: reads per *read-only*
//! commit (`ro_reads / ro_commits` in [`StatsSnapshot`]; a read counts
//! the same under either mode's hooks). The window votes multiversion iff
//! its read-only commits averaged at least
//! [`AdaptiveConfig::mv_scan_reads`] reads. Otherwise it votes invisible
//! — also when the window held no read-only commit at all.
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
//! ## One publish protocol, two read-hook sets
//!
//! What varies per attempt is only the **read side**. The **publish**
//! protocol is the instance's, fixed at build time: every commit of an
//! adaptive instance goes through `mv::publish` — append a pending
//! version, draw `wv` with one always-writing `fetch_add` under the held
//! write locks, stamp, trim — whichever hooks the committing attempt
//! read with (static Tl2 and Incremental keep the cheaper swap). Both
//! read-hook sets then see exactly the commits with `wv <= rv`:
//!
//! * a **Tl2-hook** read (orec check / read / re-check against `rv`)
//!   aborts on a stripe locked or stamped past `rv`; a committer with
//!   `wv <= rv` took its locks before its clock write, which the
//!   reader's acquire load of the clock synchronizes with, so the
//!   reader finds that commit's lock or its stamp, never a half;
//! * an **Mv-hook** read walks to the newest version stamped `<= rv`;
//!   the always-writing clock draw is the release edge from the
//!   appends to any reader that drew `rv >= wv` (see `mv`).
//!
//! Updaters of either kind validate under their held write locks
//! before drawing `wv` (`versioned::validate`: version equality for
//! Tl2-hook reads, an upper bound for snapshot reads), so attempts of
//! both kinds serialize by timestamp while running side by side, and a
//! switch needs no quiescence: it is one relaxed store of the mode,
//! read by `Stm::hooks` when an attempt begins. An attempt keeps the
//! hooks it began with; one begun just before a switch finishes on the
//! old hooks, concurrently with attempts on the new ones. The orec
//! table keeps one format, `version << 1 | locked` with every version a
//! tick of the one clock, under both hook sets, and chains are trimmed
//! against the snapshot registry at every commit, so neither needs
//! touching at a switch either.

use super::Hooks;
use crate::engine::{Stm, Transaction};
use crate::stats::StatsSnapshot;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

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
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            window_commits: 256,
            mv_scan_reads: 64.0,
            hysteresis_windows: 2,
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
    /// The live mode: Mv hooks when set, Tl2 hooks otherwise. Written
    /// only by the sampler holding `ctl`. Relaxed is enough both ways:
    /// the flag publishes no other data, and every commit of the
    /// instance publishes the same way, so an attempt beginning on a
    /// stale mode is as correct as one on the fresh mode (see the
    /// module docs).
    multiversion: AtomicBool,
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
            multiversion: AtomicBool::new(false),
            last_sample: AtomicU64::new(0),
            ctl: Mutex::new(Ctl::default()),
        }
    }

    /// The hook set an attempt beginning now runs: `Tl2` or `Mv`.
    pub(crate) fn mode(&self) -> Hooks {
        if self.multiversion.load(Ordering::Relaxed) {
            Hooks::Mv
        } else {
            Hooks::Tl2
        }
    }
}

/// Commit-path controller hook: counts a read-only commit's scan length,
/// counts the commit towards the sampling window and, on a window
/// boundary, samples the stats delta and possibly switches the mode.
/// Called by the engine after the committing attempt has flushed its
/// tallies. No-op for static instances.
pub(crate) fn after_commit(tx: &Transaction<'_>) {
    let stm = tx.stm;
    let Some(ad) = stm.adaptive.as_ref() else {
        return;
    };
    if let Some(reads) = tx.tally.read_only_reads() {
        stm.stats.read_only_commit(reads);
    }
    // Window check on the commit counter the stats layer already
    // maintains: plain loads (one per stats shard), no extra RMW.
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
    let want = desired(&ad.cfg, &d);
    if want == ad.mode() {
        ctl.streak = 0;
        return;
    }
    ctl.streak += 1;
    if ctl.streak >= ad.cfg.hysteresis_windows {
        ctl.streak = 0;
        stm.stats.mode_transition();
        ad.multiversion.store(want == Hooks::Mv, Ordering::Relaxed);
    }
}

/// The mode this window votes for: `Mv` iff its read-only commits
/// averaged at least `mv_scan_reads` reads, `Tl2` otherwise.
fn desired(cfg: &AdaptiveConfig, d: &StatsSnapshot) -> Hooks {
    if d.ro_commits > 0 && d.ro_reads as f64 / d.ro_commits as f64 >= cfg.mv_scan_reads {
        Hooks::Mv
    } else {
        Hooks::Tl2
    }
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
        assert_eq!(desired(&cfg, &d), Hooks::Mv);
    }

    #[test]
    fn short_or_absent_read_only_transactions_vote_invisible() {
        let cfg = AdaptiveConfig::default();
        // The threshold is inclusive.
        assert_eq!(desired(&cfg, &window(100, 100, 6_400)), Hooks::Mv);
        assert_eq!(desired(&cfg, &window(100, 100, 6_399)), Hooks::Tl2);
        // Read-mostly but short: 16-read transactions buy nothing from
        // snapshots.
        assert_eq!(desired(&cfg, &window(100, 90, 1_440)), Hooks::Tl2);
        // Write-heavy transfers, every commit a writer; an empty window.
        let d = StatsSnapshot {
            reads: 200,
            writes: 200,
            ..window(100, 0, 0)
        };
        assert_eq!(desired(&cfg, &d), Hooks::Tl2);
        assert_eq!(desired(&cfg, &window(0, 0, 0)), Hooks::Tl2);
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
