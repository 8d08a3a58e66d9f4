//! The rebuild-oracle parity gate for the dynamic update subsystem.
//!
//! Grid (from the PR-4 acceptance criteria): randomized op sequences over
//! ≥ 3 seeds × missing rates {0.1, 0.3, 0.6} × algorithms {BIG, IBIG}.
//! After every batch of ops the [`DynamicEngine`] must be
//! **bit-identical** — same entries, same scores, same tie order — to
//! contexts rebuilt from scratch over the live data, for every `k` in an
//! edge-heavy set, and its `query_many` batches at fan-out widths
//! {1, 2, 4} must equal its single queries, random tie-breaks included.
//! The harness keeps its *own* mirror of the expected live rows (it does
//! not trust the engine's bookkeeping), checks the engine's snapshot
//! against it, and pins the maintained `MaxScore` queue to the
//! from-scratch queue — the invariant the whole tie-order argument
//! rests on.

mod common;

use common::{apply_to_mirror, assert_batch_parity, random_op, row, Mirror, Mix};
use tkdi::core::dynamic::{CompactionPolicy, DynamicOptions};
use tkdi::core::{maxscore, BinChoice, TkdQuery};
use tkdi::prelude::*;
use tkdi::ql::PlanStats;

/// The parity cell: engine state vs rebuild-from-scratch oracles across
/// both algorithms × an edge-heavy k set, then the batch cell.
fn assert_parity(engine: &mut DynamicEngine, mirror: &Mirror, tag: &str) {
    // Bookkeeping parity first: snapshot and live ids match the mirror.
    if !mirror.rows.is_empty() {
        assert_eq!(engine.snapshot(), mirror.dataset(), "{tag}: snapshot");
        // The planner's maintained counts are the mirror's statistics.
        assert_eq!(
            PlanStats::of_engine(engine),
            PlanStats::of(&mirror.dataset()),
            "{tag}: plan stats"
        );
    } else {
        assert_eq!(
            PlanStats::of_engine(engine),
            PlanStats::of(&engine.snapshot()),
            "{tag}: plan stats (empty)"
        );
    }
    assert_eq!(engine.live_ids(), mirror.ids(), "{tag}: live ids");
    // Queue parity: the maintained MaxScore queue IS the rebuilt queue.
    if !mirror.rows.is_empty() {
        let snap = mirror.dataset();
        let ids = mirror.ids();
        let scratch: Vec<(ObjectId, usize)> = maxscore::maxscore_queue(&snap)
            .into_iter()
            .map(|(pos, ms)| (ids[pos as usize], ms))
            .collect();
        assert_eq!(engine.maintained_queue(), scratch, "{tag}: queue");
    }
    let n = mirror.rows.len();
    let ids = mirror.ids();
    let snap = if n > 0 { Some(mirror.dataset()) } else { None };
    let ks = [0usize, 1, 2, n.saturating_sub(1), n, n + 3];
    for alg in [Algorithm::Big, Algorithm::Ibig] {
        for k in ks {
            let oracle: Vec<(ObjectId, usize)> = match &snap {
                None => Vec::new(),
                Some(ds) => TkdQuery::new(k)
                    .algorithm(alg)
                    .run(ds)
                    .iter()
                    .map(|e| (ids[e.id as usize], e.score))
                    .collect(),
            };
            let got: Vec<(ObjectId, usize)> = engine
                .query(&EngineQuery::new(k).algorithm(alg))
                .expect("BIG/IBIG supported")
                .iter()
                .map(|e| (e.id, e.score))
                .collect();
            assert_eq!(got, oracle, "{tag}: {alg:?} k={k}");
        }
    }
    assert_batch_parity(engine, &ks, tag);
}

/// One grid cell: a full randomized op sequence under `seed × missing`,
/// checked against the oracle after every batch.
fn run_sequence(seed: u64, missing_pct: u64, policy: CompactionPolicy) {
    let dims = 3;
    let mut rng = Mix(seed);
    // Start from a small random dataset.
    let initial: Vec<Vec<Option<f64>>> =
        (0..12).map(|_| row(&mut rng, dims, missing_pct)).collect();
    let ds = Dataset::from_rows(dims, &initial).unwrap();
    let mut next_id = ds.len() as ObjectId;
    let mut mirror = Mirror::seeded(&initial);
    let mut engine = DynamicEngine::with_options(
        ds,
        DynamicOptions {
            bins: BinChoice::Fixed(3),
            policy,
        },
    );
    for batch in 0..10 {
        let ops: Vec<UpdateOp> = (0..7)
            .map(|_| {
                let op = random_op(&mut rng, &mirror, dims, missing_pct);
                apply_to_mirror(&mut mirror, &op, &mut next_id);
                op
            })
            .collect();
        engine.apply_all(&ops).expect("harness sends valid ops");
        assert_parity(
            &mut engine,
            &mirror,
            &format!("seed={seed} missing={missing_pct} batch={batch}"),
        );
    }
}

#[test]
fn randomized_ops_match_rebuild_oracle_missing_10() {
    for seed in [1u64, 2, 3] {
        run_sequence(seed, 10, CompactionPolicy::never());
    }
}

#[test]
fn randomized_ops_match_rebuild_oracle_missing_30() {
    for seed in [4u64, 5, 6] {
        run_sequence(seed, 30, CompactionPolicy::never());
    }
}

#[test]
fn randomized_ops_match_rebuild_oracle_missing_60() {
    for seed in [7u64, 8, 9] {
        run_sequence(seed, 60, CompactionPolicy::never());
    }
}

#[test]
fn randomized_ops_with_aggressive_compaction() {
    // Same sequences, but compacting eagerly: every few tombstones
    // trigger a rebuild, exercising id remapping mid-sequence. Parity
    // must be unaffected (compaction is semantically invisible).
    let policy = CompactionPolicy {
        max_tombstone_fraction: 0.1,
        min_dead: 2,
    };
    for (seed, missing) in [(10u64, 10u64), (11, 30), (12, 60)] {
        run_sequence(seed, missing, policy);
    }
}

#[test]
fn auto_bins_cell() {
    // The default Eq. 8 binning path (bins re-resolved at compaction)
    // through one randomized sequence per missing rate.
    let dims = 4;
    for (seed, missing) in [(20u64, 10u64), (21, 30), (22, 60)] {
        let mut rng = Mix(seed);
        let initial: Vec<Vec<Option<f64>>> =
            (0..10).map(|_| row(&mut rng, dims, missing)).collect();
        let ds = Dataset::from_rows(dims, &initial).unwrap();
        let mut next_id = ds.len() as ObjectId;
        let mut mirror = Mirror::seeded(&initial);
        let mut engine = DynamicEngine::new(ds);
        for _ in 0..25 {
            let op = random_op(&mut rng, &mirror, dims, missing);
            apply_to_mirror(&mut mirror, &op, &mut next_id);
            engine.apply(&op).expect("valid op");
        }
        assert_parity(&mut engine, &mirror, &format!("auto-bins seed={seed}"));
    }
}
