//! Churn stress for the dynamic update subsystem: long mixed op streams,
//! delete-everything/regrow cycles, compaction thrash, interleaved
//! fanned-out query batches, and batches hammered on a tie-heavy
//! dataset. Spot-checks against the rebuild oracle at checkpoints (the
//! exhaustive per-batch gate lives in `tests/dynamic_parity.rs`);
//! between checkpoints it asserts the cheap invariants on every step.

mod common;

use common::assert_batch_parity;
use tkdi::core::dynamic::{CompactionPolicy, DynamicOptions};
use tkdi::core::{BinChoice, TkdQuery};
use tkdi::prelude::*;

struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

fn row(rng: &mut Mix, dims: usize) -> Vec<Option<f64>> {
    loop {
        let r: Vec<Option<f64>> = (0..dims)
            .map(|_| {
                if rng.next().is_multiple_of(5) {
                    None
                } else {
                    Some((rng.next() % 8) as f64)
                }
            })
            .collect();
        if r.iter().any(Option::is_some) {
            return r;
        }
    }
}

fn oracle_entries(engine: &DynamicEngine, k: usize, alg: Algorithm) -> Vec<(ObjectId, usize)> {
    if engine.is_empty() {
        return Vec::new();
    }
    let snap = engine.snapshot();
    let ids = engine.live_ids();
    TkdQuery::new(k)
        .algorithm(alg)
        .run(&snap)
        .iter()
        .map(|e| (ids[e.id as usize], e.score))
        .collect()
}

#[test]
fn sustained_churn_with_compaction() {
    let dims = 4;
    let mut rng = Mix(99);
    let initial: Vec<Vec<Option<f64>>> = (0..80).map(|_| row(&mut rng, dims)).collect();
    let mut engine = DynamicEngine::with_options(
        Dataset::from_rows(dims, &initial).unwrap(),
        DynamicOptions {
            bins: BinChoice::Fixed(4),
            policy: CompactionPolicy {
                max_tombstone_fraction: 0.3,
                min_dead: 16,
            },
        },
    );
    let mut live: Vec<ObjectId> = engine.live_ids();
    let mut expected_len = live.len();
    for step in 0..400 {
        match rng.next() % 10 {
            0..=3 if !live.is_empty() => {
                let pick = (rng.next() as usize) % live.len();
                let id = live.swap_remove(pick);
                engine.delete(id).expect("live id");
                expected_len -= 1;
            }
            4..=5 if !live.is_empty() => {
                let id = live[(rng.next() as usize) % live.len()];
                let dim = (rng.next() as usize) % dims;
                // Only send updates that keep the row valid.
                let observed: Vec<usize> = (0..dims)
                    .filter(|&d| engine.value(id, d).unwrap().is_some())
                    .collect();
                let nv = if rng.next().is_multiple_of(4) {
                    None
                } else {
                    Some((rng.next() % 8) as f64)
                };
                if nv.is_some() || observed != vec![dim] {
                    engine.update_value(id, dim, nv).expect("valid update");
                }
            }
            _ => {
                let id = engine.insert(&row(&mut rng, dims)).expect("valid row");
                live.push(id);
                expected_len += 1;
            }
        }
        assert_eq!(engine.len(), expected_len, "step {step}");
        // Interleaved batches must never fail or return dead ids.
        if step % 7 == 0 {
            let batch = [
                EngineQuery::new(5),
                EngineQuery::new(5).algorithm(Algorithm::Ibig),
            ];
            for r in engine.query_many(&batch, 2).expect("BIG/IBIG supported") {
                for e in r.iter() {
                    assert!(
                        engine.contains(e.id),
                        "step {step}: dead id {} returned",
                        e.id
                    );
                }
            }
        }
        // Oracle checkpoint.
        if step % 57 == 0 || step == 399 {
            for alg in [Algorithm::Big, Algorithm::Ibig] {
                let got: Vec<(ObjectId, usize)> = engine
                    .query(&EngineQuery::new(9).algorithm(alg))
                    .unwrap()
                    .iter()
                    .map(|e| (e.id, e.score))
                    .collect();
                assert_eq!(got, oracle_entries(&engine, 9, alg), "step {step} {alg:?}");
            }
            assert_batch_parity(&mut engine, &[1, 9], &format!("step {step}"));
        }
    }
    assert!(engine.epoch() > 0, "churn at 30 % threshold must compact");
    assert!(engine.stats().compactions > 0);
}

#[test]
fn drain_and_regrow_cycles() {
    let dims = 2;
    let mut rng = Mix(7);
    let mut engine = DynamicEngine::with_options(
        Dataset::from_rows(dims, &[vec![Some(1.0), Some(1.0)]]).unwrap(),
        DynamicOptions {
            bins: BinChoice::Auto,
            policy: CompactionPolicy {
                max_tombstone_fraction: 0.5,
                min_dead: 8,
            },
        },
    );
    for cycle in 0..4 {
        // Drain to empty, one object at a time, querying along the way.
        while !engine.is_empty() {
            let ids = engine.live_ids();
            engine
                .delete(ids[(rng.next() as usize) % ids.len()])
                .unwrap();
            let r = engine.query(&EngineQuery::new(3)).unwrap();
            assert_eq!(
                r.iter().map(|e| (e.id, e.score)).collect::<Vec<_>>(),
                oracle_entries(&engine, 3, Algorithm::Big),
                "cycle {cycle} during drain"
            );
        }
        assert!(engine.query(&EngineQuery::new(5)).unwrap().is_empty());
        // Regrow bigger than before.
        for _ in 0..(10 + cycle * 5) {
            engine.insert(&row(&mut rng, dims)).unwrap();
        }
        for alg in [Algorithm::Big, Algorithm::Ibig] {
            let got: Vec<(ObjectId, usize)> = engine
                .query(&EngineQuery::new(6).algorithm(alg))
                .unwrap()
                .iter()
                .map(|e| (e.id, e.score))
                .collect();
            assert_eq!(
                got,
                oracle_entries(&engine, 6, alg),
                "cycle {cycle} after regrow {alg:?}"
            );
        }
        assert_batch_parity(&mut engine, &[1, 6], &format!("cycle {cycle}"));
    }
}

/// Tie-heavy dataset: tiny cardinality so scores collide massively and
/// the k-th score is contested at every offer.
fn tie_heavy(n: usize) -> Dataset {
    let rows: Vec<Vec<Option<f64>>> = (0..n)
        .map(|i| {
            vec![
                Some((i % 3) as f64),
                Some(((i / 3) % 3) as f64),
                (i % 7 != 0).then_some((i % 2) as f64),
            ]
        })
        .collect();
    Dataset::from_rows(3, &rows).unwrap()
}

/// Many batches on four oversubscribed workers, on a queue dominated by
/// tied scores: every answer comes back in batch order, equal to the
/// single query, with no id lost or repeated.
#[test]
fn query_many_never_loses_or_duplicates_results() {
    let mut engine = DynamicEngine::new(tie_heavy(256));
    let n = engine.len();
    let batch: Vec<EngineQuery> = (0..16)
        .map(|i| {
            let alg = if i % 2 == 0 {
                Algorithm::Big
            } else {
                Algorithm::Ibig
            };
            EngineQuery::new(1 + i * 3).algorithm(alg)
        })
        .collect();
    let want: Vec<TkdResult> = batch.iter().map(|q| engine.query(q).unwrap()).collect();
    for it in 0..60 {
        let got = engine.query_many(&batch, 4).unwrap();
        assert_eq!(got.len(), batch.len(), "iteration {it}");
        for ((q, r), w) in batch.iter().zip(&got).zip(&want) {
            assert_eq!(r.entries(), w.entries(), "iteration {it} {q:?}");
            let mut ids = r.ids();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), r.len(), "duplicated id, iteration {it}");
            assert_eq!(r.len(), q.k.min(n), "lost result, iteration {it}");
        }
    }
}
