//! E10 — randomized concurrent executions of every TM, audited by the
//! formal-model checkers: opacity, strict serializability,
//! progressiveness, and strong progressiveness.
//!
//! Each configuration runs scripted transactions under a seeded random
//! scheduler, so failures are reproducible from the printed seed.

use progressive_tm::core::{ScriptOp, TmHarness, TmKind, TxScript, ALL_TMS};
use progressive_tm::model;
use progressive_tm::sim::{ProcessId, RandomPolicy, TObjId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a random script of 2–4 operations over `n_objects` items.
fn random_script(rng: &mut StdRng, n_objects: usize) -> TxScript {
    let len = rng.gen_range(2..=4);
    let ops = (0..len)
        .map(|_| {
            let x = TObjId::new(rng.gen_range(0..n_objects));
            if rng.gen_bool(0.5) {
                ScriptOp::Read(x)
            } else {
                ScriptOp::Write(x, rng.gen_range(1..100))
            }
        })
        .collect();
    TxScript {
        ops,
        retry_until_commit: false,
    }
}

fn run_random(tm: TmKind, seed: u64, n_procs: usize, scripts_per_proc: usize) {
    let n_objects = 3;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut h = TmHarness::new(n_procs, |b| tm.install(b, n_objects));
    for _ in 0..scripts_per_proc {
        for p in 0..n_procs {
            h.run_script(ProcessId::new(p), random_script(&mut rng, n_objects));
        }
        h.run_all(&mut RandomPolicy::seeded(seed.wrapping_mul(31)), 500_000);
    }
    h.stop_all();

    let log = h.log();
    let hist = model::History::from_log(&log).expect("well-formed history");
    let label = format!("{} seed={seed}", tm.name());

    assert!(model::is_opaque(&hist), "{label}: opacity violated");
    assert!(
        model::is_strictly_serializable(&hist),
        "{label}: strict serializability violated"
    );
    assert!(
        model::is_progressive(&hist),
        "{label}: progressiveness violated"
    );
    assert!(
        model::is_strongly_progressive(&hist),
        "{label}: strong progressiveness violated"
    );
}

#[test]
fn progressive_random_executions_are_opaque() {
    for seed in 0..12 {
        run_random(TmKind::Progressive, seed, 3, 2);
    }
}

#[test]
fn visible_random_executions_are_opaque() {
    for seed in 0..12 {
        run_random(TmKind::Visible, seed, 3, 2);
    }
}

#[test]
fn tl2_random_executions_are_opaque() {
    for seed in 0..12 {
        run_random(TmKind::Tl2, seed, 3, 2);
    }
}

#[test]
fn norec_random_executions_are_opaque() {
    for seed in 0..12 {
        run_random(TmKind::Norec, seed, 3, 2);
    }
}

#[test]
fn glock_random_executions_are_opaque() {
    for seed in 0..12 {
        run_random(TmKind::Glock, seed, 3, 2);
    }
}

#[test]
fn larger_systems_stay_correct() {
    for &tm in ALL_TMS {
        run_random(tm, 999, 4, 2);
    }
}

#[test]
fn burst_schedules_stay_correct() {
    use progressive_tm::sim::BurstPolicy;
    for &tm in ALL_TMS {
        let mut h = TmHarness::new(3, |b| tm.install(b, 3));
        let mut rng = StdRng::seed_from_u64(77);
        for p in 0..3 {
            h.run_script(ProcessId::new(p), random_script(&mut rng, 3));
        }
        // Long solo bursts: the shape of the paper's indistinguishability
        // arguments.
        let mut policy = BurstPolicy::seeded(7, 20);
        let steps = ptm_sim::run_policy(h.sim(), &mut policy, 500_000);
        assert!(steps < 500_000);
        h.stop_all();
        let hist = h.history();
        assert!(model::is_opaque(&hist), "{}", tm.name());
    }
}
