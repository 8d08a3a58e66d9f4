//! Seeded workload inputs: datasets, request mixes and update batches.
//!
//! Everything here is a pure function of its seed, so the same seed gives
//! the same request sequence and the same op stream. Mixes are drawn in
//! shuffled blocks with exact class counts, so two seeds differ in order,
//! not in proportions: a run's cost does not depend on how many expensive
//! statements one seed happened to draw.
//!
//! The rows are part of a workload's definition and do not follow the
//! run's seed: on 20K IND rows the cost of one BIG k = 8 query moves by
//! ±30% from one random draw of the rows to the next, which would swamp
//! the run-to-run spread the benchmark's bounds are meant to catch.

use tkd_core::UpdateOp;
use tkd_data::synthetic::{generate, Distribution, SyntheticConfig};
use tkd_model::{Dataset, ObjectId};

/// Value domain of every generated dimension.
pub const CARDINALITY: u64 = 100;

/// SplitMix64: small, fast and fully determined by its state.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// Offsets in seconds of `n` open-loop arrivals at `rate` per second:
/// a Poisson process, as from independent users. Unlike a fixed grid, it
/// does not hold every arrival at one phase against the server's long
/// requests, so how many requests wait behind one, and how long, varies
/// smoothly rather than by the grid's alignment.
pub fn arrivals(seed: u64, stream: u64, n: usize, rate: f64) -> Vec<f64> {
    let mut rng = Rng::new(seed, 0xA7A7_0000 + stream);
    let mut at = 0.0;
    (0..n)
        .map(|_| {
            let now = at;
            // Uniform in (0, 1]: the top 53 bits, shifted off zero.
            let u = ((rng.next() >> 11) + 1) as f64 / (1u64 << 53) as f64;
            at += -u.ln() / rate;
            now
        })
        .collect()
}

/// Seed of every workload's rows.
const DATA_SEED: u64 = 20_160_516;

/// Independent synthetic rows, cardinality 100, the paper's default shape.
pub fn dataset(n: usize, dims: usize, missing: f64) -> Dataset {
    generate(&SyntheticConfig {
        n,
        dims,
        cardinality: CARDINALITY as usize,
        missing_rate: missing,
        distribution: Distribution::Independent,
        seed: DATA_SEED,
    })
}

/// Class of request `j` in a mix whose block holds `counts[c]` requests
/// of class `c`, each block shuffled by its own stream of `seed`.
pub fn class_of(seed: u64, counts: &[usize], j: usize) -> usize {
    let block: usize = counts.iter().sum();
    let mut classes: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(c, &k)| std::iter::repeat_n(c, k))
        .collect();
    Rng::new(seed, 0xB10C_0000 + (j / block) as u64).shuffle(&mut classes);
    classes[j % block]
}

/// Valid update batches against a live id set it tracks itself: each
/// batch is half inserts, a quarter deletes and a quarter cell sets, in
/// shuffled order. Inserted ids are predicted the way the engine
/// allocates them (monotone, never reused), so later ops may target them.
pub struct OpStream {
    rng: Rng,
    live: Vec<ObjectId>,
    next_id: ObjectId,
    dims: usize,
    missing: f64,
}

impl OpStream {
    /// Batches against a fresh engine over `n` rows (ids `0..n`).
    pub fn new(n: usize, dims: usize, missing: f64, seed: u64) -> OpStream {
        OpStream::over(
            (0..n as ObjectId).collect(),
            n as ObjectId,
            dims,
            missing,
            seed,
        )
    }

    /// Batches against an engine whose live ids are `live` and whose next
    /// insert gets `next_id`.
    pub fn over(
        live: Vec<ObjectId>,
        next_id: ObjectId,
        dims: usize,
        missing: f64,
        seed: u64,
    ) -> OpStream {
        OpStream {
            rng: Rng::new(seed, 0x0B5E_0000),
            live,
            next_id,
            dims,
            missing,
        }
    }

    pub fn batch(&mut self, len: usize) -> Vec<UpdateOp> {
        let mut kinds: Vec<u8> = (0..len)
            .map(|i| match i * 4 / len {
                0 | 1 => 0,
                2 => 1,
                _ => 2,
            })
            .collect();
        self.rng.shuffle(&mut kinds);
        kinds
            .into_iter()
            .map(|kind| match kind {
                0 => {
                    let mut row: Vec<Option<f64>> = (0..self.dims)
                        .map(|_| {
                            if (self.rng.below(1000) as f64) < self.missing * 1000.0 {
                                None
                            } else {
                                Some(self.value())
                            }
                        })
                        .collect();
                    if row.iter().all(Option::is_none) {
                        let d = self.rng.below(self.dims);
                        row[d] = Some(self.value());
                    }
                    self.live.push(self.next_id);
                    self.next_id += 1;
                    UpdateOp::Insert(row)
                }
                1 => {
                    let at = self.rng.below(self.live.len());
                    UpdateOp::Delete(self.live.swap_remove(at))
                }
                _ => {
                    let id = self.live[self.rng.below(self.live.len())];
                    let dim = self.rng.below(self.dims);
                    UpdateOp::Set(id, dim, Some(self.value()))
                }
            })
            .collect()
    }

    fn value(&mut self) -> f64 {
        (self.rng.next() % CARDINALITY) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_keep_exact_block_counts() {
        let counts = [75, 10, 5, 9, 1];
        let mut seen = [0usize; 5];
        for j in 0..300 {
            seen[class_of(7, &counts, j)] += 1;
        }
        assert_eq!(seen, [225, 30, 15, 27, 3]);
        assert_ne!(
            (0..100)
                .map(|j| class_of(7, &counts, j))
                .collect::<Vec<_>>(),
            (0..100)
                .map(|j| class_of(8, &counts, j))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn arrivals_keep_their_rate() {
        let a = arrivals(5, 0, 20_000, 100.0);
        assert_eq!(a[0], 0.0);
        assert!(a.windows(2).all(|w| w[1] >= w[0]));
        let rate = (a.len() - 1) as f64 / a[a.len() - 1];
        assert!((rate - 100.0).abs() < 3.0, "{rate}");
        assert_eq!(a, arrivals(5, 0, 20_000, 100.0));
    }

    #[test]
    fn op_stream_applies_cleanly_and_repeats() {
        let ds = dataset(300, 4, 0.2);
        let mut engine = tkd_core::DynamicEngine::new(ds);
        let mut a = OpStream::new(300, 4, 0.2, 9);
        let mut b = OpStream::new(300, 4, 0.2, 9);
        for _ in 0..20 {
            let ops = a.batch(16);
            assert_eq!(ops, b.batch(16));
            let report = engine.apply_ops(&ops);
            assert!(report.error.is_none(), "{:?}", report.error);
            assert_eq!(report.applied, 16);
        }
    }
}
