//! Mv: multi-version invisible reads — the paper's *space* axis on real
//! threads (Perelman–Fan–Keidar, PODC'10).
//!
//! Every transaction draws a snapshot timestamp from the global clock at
//! its first operation and registers it in the instance's
//! [`SnapshotRegistry`](crate::epoch::SnapshotRegistry). A read then
//! walks the variable's version chain to the newest version stamped at
//! or before the snapshot — **zero orec probes, zero validation, zero
//! shared-memory writes** — so a read-only transaction observes the
//! consistent cut named by its start time and commits without ever
//! aborting, no matter how hard writers storm. The chain is trimmed by
//! *liveness* alone (the low watermark), so every version a live
//! snapshot names stays reachable.
//!
//! Updating transactions pay the usual single-version price: commit
//! locks the write set's stripes in sorted order (the same versioned
//! orec words TL2 uses) and validates that no stripe a read touched has
//! advanced past the snapshot — `versioned::lock_write_stripes`, then
//! `versioned::validate`, whose per-read check is an upper bound for
//! snapshot reads — and then **appends** a version stamped with a
//! freshly drawn commit timestamp instead of replacing the value
//! ([`publish`]):
//!
//! 1. append each written value with a *pending* stamp (past this point
//!    the commit cannot fail — validation already passed under the held
//!    locks);
//! 2. draw `wv` with one `fetch_add` on the clock (every versioned
//!    commit draws its tick this way);
//! 3. withdraw the committer's own snapshot, then resolve the pending
//!    stamps to `wv` (readers that raced into the one-RMW window spin
//!    it out rather than guessing);
//! 4. trim each written chain against the registry's low watermark —
//!    one floor-first slot scan per publish (see `crate::epoch`), taken
//!    after the committers' snapshots are withdrawn — retiring detached
//!    versions through the epoch collector;
//! 5. release the stripe locks restamped to `wv`.
//!
//! The clock-draw-after-append order is what makes snapshots sound: a
//! reader can only draw `rv >= wv` after the clock reached `wv`, by
//! which time every `wv`-stamped version is already reachable (pending,
//! resolved by the time the reader's traversal needs its stamp). A
//! reader with `rv < wv` skips the new versions and finds the ones its
//! snapshot names — which the watermark (a lower bound on every active
//! `rv`) keeps alive.
//!
//! Instances that share one timestamp domain (one clock, one registry:
//! `StmBuilder::build_beside`) publish a group the same way: [`publish`]
//! takes the group and a domain — a lone commit is a group of one — and
//! runs step 1 on **every** member of that domain before the one draw of
//! step 2, then steps 3–5 on each. The argument above then covers the
//! group: a reader with `rv >= wv` drew it after every member's appends,
//! one with `rv < wv` skips them all, so no snapshot sees part of the
//! group. Drawing a tick per member would let a snapshot fall between
//! two of them. A group spanning other instances too calls [`publish`]
//! once per domain.
//!
//! That argument needs more than program order: the reader must
//! *happens-after* the appends. Snapshot reads do zero orec probes and
//! read-only transactions never validate, so the clock itself is the
//! only location that can carry the edge — which is why step 2 must be
//! an RMW that **always writes**. Every clock write is then a release
//! operation in the clock's modification order, so a reader whose
//! acquire load returns `c >= wv` synchronizes (through the release
//! sequence of RMWs ending at `c`) with the committer that wrote `wv`,
//! and therefore sees its appended heads.
//!
//! Costs, in the paper's terms: weak DAP is given up (the global clock
//! orders commits) and space is spent on superseded versions —
//! `versions_trimmed` / `max_chain_len` in
//! [`StatsSnapshot`](crate::StatsSnapshot) watch that budget, and
//! `snapshot_reads` counts the reads that paid no validation for it.
//! In time, a read-only transaction pays per t-read one walk of the
//! chain: it visits 1 + k nodes, k the retained versions stamped after
//! its `rv` (one `prev` hop each, `chain_walk_steps`), and performs no
//! RMW and no fence. A reader no commit has overtaken reads the head;
//! a camped one pays linearly in how far it has fallen behind.
//!
//! ## Open: validation before the draw (the T/C/R cycle)
//!
//! An updater validates, *then* draws `wv`, and a commit landing in
//! between can close a cycle no check sees. *T* reads `x`, writes `y`,
//! locks `y` and validates `x`; *C* commits `x`; a read-only *R* draws
//! `rv` past *C*'s stamp, sees the new `x` and the old `y` (*T* has not
//! appended), and commits; *T* draws `wv > rv` and publishes. *T*
//! precedes *C* (*C* overwrote what *T* read), *C* precedes *R*, and *R*
//! precedes *T* (*T* overwrote what *R* read): snapshot isolation's
//! read-only anomaly (Fekete, O'Neil & O'Neil, 2004), open for a lone
//! commit and a one-domain group alike. The fix — append, draw,
//! validate, then stamp or unlink — moves one place: the append and
//! draw at the start of [`publish`], ahead of the group's validate-all.

use super::versioned;
use crate::engine::{Stm, Transaction};
use crate::epoch;
use crate::orec::stamped;
use crate::tvar::{TVar, TxValue};
use crate::txlog::VersionedRead;
use std::sync::atomic::Ordering;

/// Snapshot time: the global clock at begin, published in the snapshot
/// registry so the low-watermark collector keeps this transaction's cut
/// reachable until it resolves.
pub(crate) fn begin(tx: &mut Transaction<'_>) -> u64 {
    let reg = tx
        .stm
        .snapshots
        .as_ref()
        .expect("snapshot-serving instances carry a snapshot registry");
    let (rv, guard) = reg.pin(&tx.stm.clock);
    tx.snap = Some(guard);
    rv
}

/// Snapshot read: walk the chain to the newest version stamped at or
/// before `rv`. No orec probe, no validation; the read set records only
/// the stripe and the snapshot bound, for the *commit-time* validation
/// an updating transaction must still pass. Never aborts: the version
/// the snapshot names is retained for as long as the snapshot lives.
///
/// Inlined into `Transaction::read_each`'s batch loop: called out of
/// line there, a warm Mv scan ran about 30 % slower per key.
#[inline]
pub(crate) fn read<T: TxValue, R>(
    tx: &mut Transaction<'_>,
    var: &TVar<T>,
    f: impl FnOnce(&T) -> R,
) -> R {
    let stripe = tx.stm.orecs.stripe_of(var.id());
    tx.log.reads.push(VersionedRead {
        stripe,
        meta: tx.rv,
    });
    tx.tally.snapshot_read();
    let (out, steps) = var.inner.read_at_counted(&tx.pin, tx.rv, f);
    tx.tally.chain_walk(steps);
    out
}

/// Append publish, for every commit of an instance that serves
/// snapshots (Mv, and Adaptive whichever read hooks the attempt ran),
/// under the locks the group's lock half took: publishes the members of
/// `group` in `domain`'s timestamp domain, and no other. A lone commit
/// is a group of one; a group spanning several domains calls this once
/// per domain. Infallible.
///
/// Step 1 appends every writer's versions pending — past this point
/// the commit cannot fail — then step 2 draws the domain's one commit
/// tick `wv` with an always-writing `fetch_add` on its clock: snapshot
/// readers probe no orecs, so this release write is the only
/// happens-before edge from the appends to a reader drawing
/// `rv >= wv` (module docs). Then every member withdraws its snapshot,
/// the domain's low watermark is read once, and each writer
/// [`finish`]es at `wv` against it.
pub(crate) fn publish(group: &mut [Transaction<'_>], domain: &Stm) {
    let member = |tx: &&mut Transaction<'_>| domain.shares_domain(tx.stm);
    let mut wrote = false;
    for tx in group.iter_mut().filter(member) {
        if !tx.log.writes.is_empty() {
            tx.log.append_writes();
            wrote = true;
        }
    }
    if !wrote {
        return;
    }
    let wv = domain.clock.fetch_add(1, Ordering::AcqRel) + 1;
    // The committers read nothing more, and their own snapshots are the
    // oldest pins they could hold against the trims below: every one
    // goes before the watermark is read (a sibling's nested pin would
    // keep the superseded versions alive), so a lone committer trims
    // each written chain to its new head.
    for tx in group.iter_mut().filter(member) {
        tx.snap = None;
    }
    // One scan for the domain: its members share the registry, and a
    // watermark lower-bounds every live and future snapshot for as long
    // as the trims below run.
    let watermark = domain
        .snapshots
        .as_ref()
        .expect("snapshot-serving instances carry a snapshot registry")
        .watermark(&domain.clock);
    for tx in group.iter_mut().filter(member) {
        if !tx.log.written.is_empty() {
            finish(tx, wv, watermark);
        }
    }
}

/// Steps 3–5 for one writer of the group: log the durability payload,
/// stamp the pending versions `wv`, trim against the group's
/// `watermark`, release the stripe locks and wake their waiters.
fn finish(tx: &mut Transaction<'_>, wv: u64, watermark: u64) {
    // Log the staged durability payload before the pending stamps
    // resolve: a snapshot reader cannot consume a `wv` version until
    // `stamp_head` lands, so the record is in the log before anything
    // observes the commit (see `crate::wal`). Memory-only.
    tx.durability_record(wv);
    let stm = tx.stm;
    let log = &mut *tx.log;
    for var in &log.written {
        var.stamp_head(wv);
    }
    // Trim under the still-held stripe locks (one chain mutator at a
    // time); the watermark lower-bounds every active and future
    // snapshot, so nothing a reader can still walk to is detached.
    for var in &log.written {
        let (retained, trimmed) = var.trim_chain(watermark, &mut log.retired);
        tx.tally.trim((retained + trimmed) as u64, trimmed as u64);
    }
    versioned::release(stm, &log.held_buf, Some(stamped(wv)));
    // Retire only after every append above: the epoch tag must postdate
    // the last moment a reader could have loaded a detached pointer.
    epoch::retire_batch(&mut log.retired);
    // Wake waiters parked on the written stripes (after the release
    // restamp, so a woken reader's revalidation sees version > bound).
    stm.wake_stripes(log.stripe_buf.iter().copied());
    log.written.clear();
}
