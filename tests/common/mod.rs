//! Shared test-support for the integration suites: the deterministic
//! dataset/op-sequence generators every differential harness uses.
//!
//! One copy of the splitmix recipe, the tie-heavy cell distribution, the
//! mirror bookkeeping, the random-op generator and the batch parity
//! cell — shared by `dynamic_parity.rs`, `dynamic_stress.rs`,
//! `persist_parity.rs` and the serve suites through `mod common;`. Keeping the
//! generators identical across suites matters: the serve-layer tests
//! replay the *same* distributions the in-process oracles were hardened
//! on, so a wire-layer divergence cannot hide behind a workload skew.

// Each integration test binary compiles its own copy of this module and
// uses a different subset of it.
#![allow(dead_code)]

use tkdi::core::TieBreak;
use tkdi::prelude::*;

/// Splitmix-style deterministic stream (the harness convention; no RNG
/// dependency).
pub struct Mix(pub u64);

impl Mix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A random cell: mostly small integers (tie-heavy), some halves, some
/// signed zeros, `None` with probability `missing_pct`.
pub fn cell(rng: &mut Mix, missing_pct: u64) -> Option<f64> {
    if rng.next() % 100 < missing_pct {
        return None;
    }
    Some(match rng.next() % 10 {
        0 => -0.0,
        1 => 0.0,
        m => (rng.next() % 7) as f64 + if m == 2 { 0.5 } else { 0.0 },
    })
}

/// A random row with at least one observed cell (all-missing rows are
/// invalid by Definition 1 and rejected by the engine).
pub fn row(rng: &mut Mix, dims: usize, missing_pct: u64) -> Vec<Option<f64>> {
    loop {
        let r: Vec<Option<f64>> = (0..dims).map(|_| cell(rng, missing_pct)).collect();
        if r.iter().any(Option::is_some) {
            return r;
        }
    }
}

/// A whole random dataset from the same cell distribution.
pub fn random_dataset(rng: &mut Mix, n: usize, dims: usize, missing_pct: u64) -> Dataset {
    let rows: Vec<Vec<Option<f64>>> = (0..n).map(|_| row(rng, dims, missing_pct)).collect();
    Dataset::from_rows(dims, &rows).expect("rows are valid")
}

/// Deterministic incomplete dataset with a bounded value domain — the
/// parallel-grid flavor (`card` distinct values per dimension).
pub fn synth(seed: u64, n: usize, d: usize, card: u64, missing_pct: u64) -> Dataset {
    let mut rng = Mix(seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1));
    let mut rows = Vec::with_capacity(n);
    while rows.len() < n {
        let r: Vec<Option<f64>> = (0..d)
            .map(|_| {
                if rng.next() % 100 < missing_pct {
                    None
                } else {
                    Some((rng.next() % card) as f64)
                }
            })
            .collect();
        if r.iter().any(Option::is_some) {
            rows.push(r);
        }
    }
    Dataset::from_rows(d, &rows).expect("rows are valid")
}

/// The harness's independent expectation: live rows in insertion order.
/// It never trusts the engine's bookkeeping — parity checks compare the
/// engine *against* this.
pub struct Mirror {
    pub rows: Vec<(ObjectId, Vec<Option<f64>>)>,
}

impl Mirror {
    /// Seed a mirror from the initial rows (ids 0..n in order).
    pub fn seeded(initial: &[Vec<Option<f64>>]) -> Mirror {
        Mirror {
            rows: initial
                .iter()
                .enumerate()
                .map(|(i, r)| (i as ObjectId, r.clone()))
                .collect(),
        }
    }

    /// The live rows as a fresh dataset (rebuild-oracle input).
    pub fn dataset(&self) -> Dataset {
        let rows: Vec<Vec<Option<f64>>> = self.rows.iter().map(|(_, r)| r.clone()).collect();
        Dataset::from_rows(self.rows.first().map_or(1, |(_, r)| r.len()), &rows)
            .expect("mirror rows are valid")
    }

    /// Live stable ids in insertion order.
    pub fn ids(&self) -> Vec<ObjectId> {
        self.rows.iter().map(|&(id, _)| id).collect()
    }
}

/// One random op that is guaranteed valid against the mirror's current
/// state (live ids only, never an all-missing row).
pub fn random_op(rng: &mut Mix, mirror: &Mirror, dims: usize, missing_pct: u64) -> UpdateOp {
    let die = rng.next() % 10;
    if mirror.rows.is_empty() || die >= 5 {
        return UpdateOp::Insert(row(rng, dims, missing_pct));
    }
    let (id, r) = &mirror.rows[rng.below(mirror.rows.len())];
    if die < 2 {
        return UpdateOp::Delete(*id);
    }
    // Cell update; avoid producing an all-missing row (the engine rejects
    // it, and the harness only sends valid ops).
    let dim = rng.below(dims);
    let nv = cell(rng, missing_pct);
    let observed_elsewhere = r.iter().enumerate().any(|(d, v)| d != dim && v.is_some());
    if nv.is_none() && !observed_elsewhere {
        return UpdateOp::Insert(row(rng, dims, missing_pct));
    }
    UpdateOp::Set(*id, dim, nv)
}

/// Mirror the effect of `op`, allocating ids the way the engine does
/// (monotone, never reused).
pub fn apply_to_mirror(mirror: &mut Mirror, op: &UpdateOp, next_id: &mut ObjectId) {
    match op {
        UpdateOp::Insert(r) => {
            mirror.rows.push((*next_id, r.clone()));
            *next_id += 1;
        }
        UpdateOp::InsertLabeled(_, r) => {
            mirror.rows.push((*next_id, r.clone()));
            *next_id += 1;
        }
        UpdateOp::Delete(id) => mirror.rows.retain(|(i, _)| i != id),
        UpdateOp::Set(id, dim, v) => {
            let (_, r) = mirror
                .rows
                .iter_mut()
                .find(|(i, _)| i == id)
                .expect("harness only updates live ids");
            r[*dim] = *v;
        }
    }
}

/// Fan-out widths every batch parity cell runs at.
pub const BATCH_THREADS: [usize; 3] = [1, 2, 4];

/// The batch parity cell: one `query_many` batch over `ks` × {BIG, IBIG}
/// × {by id, random ties}, at every width in [`BATCH_THREADS`], must
/// return in batch order exactly what `query` returns for each query
/// alone — entries, scores and tie order.
pub fn assert_batch_parity(engine: &mut DynamicEngine, ks: &[usize], tag: &str) {
    let mut batch = Vec::new();
    for alg in [Algorithm::Big, Algorithm::Ibig] {
        for (i, &k) in ks.iter().enumerate() {
            batch.push(EngineQuery::new(k).algorithm(alg));
            batch.push(
                EngineQuery::new(k)
                    .algorithm(alg)
                    .tie_break(TieBreak::Random(i as u64)),
            );
        }
    }
    let want: Vec<TkdResult> = batch
        .iter()
        .map(|q| engine.query(q).expect("BIG/IBIG supported"))
        .collect();
    for threads in BATCH_THREADS {
        let got = engine
            .query_many(&batch, threads)
            .expect("BIG/IBIG supported");
        assert_eq!(got.len(), batch.len(), "{tag}: threads={threads}");
        for ((q, g), w) in batch.iter().zip(&got).zip(&want) {
            assert_eq!(g.entries(), w.entries(), "{tag}: threads={threads} {q:?}");
        }
    }
}
