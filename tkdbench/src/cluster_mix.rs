//! `cluster-mix`: the multi-process plane, run in-process on loopback.
//!
//! n = 10K, d = 6, σ = 0.2, IND, split into 4 shards (about 1 MB each)
//! on 2 `Worker`s. One caller blocks on the `Coordinator` for a fixed op
//! count, in rounds: per block of 20, nine BIG k = 8 and nine IBIG k = 8
//! queries and two routed batches of 16 ops. Only here are the τ exchange
//! and the shard fan-out exercised.

use crate::env::{peak_rss_mb, reset_peak_rss};
use crate::gen::{class_of, dataset, OpStream};
use crate::layers::{self, ClusterCounts, Observed};
use crate::replay::Replay;
use crate::run::{describe, overhead, set_up, Cfg, E2e, Params, RunResult};
use crate::serve::{engine_answer, round_qps, rounds, Answer, Reply, Sample, ROUND_PAUSE, WARM_UP};
use crate::stats::{median, ratio, summarize, summarize_rounds, Summary};
use crate::trace::{Span, NO_PARENT};
use std::path::{Path, PathBuf};
use std::time::Instant;
use tkd_cluster::{ClusterConfig, ClusterStats, Coordinator, Worker, WorkerConfig};
use tkd_core::{Algorithm, DynamicEngine, UpdateOp};
use tkd_model::Dataset;
use tkd_serve::QuerySpec;

/// Per block of 20: BIG k=8, IBIG k=8, batches.
const COUNTS: [usize; 3] = [9, 9, 2];
const BATCH_OPS: usize = 16;
const SHARDS: usize = 4;
const WORKERS: usize = 2;
/// Ops per second of `--seconds`: a fixed op count, sized so a run
/// takes about `--seconds` on a 2-core host at the commit that
/// introduced the benchmark. Counters then repeat exactly per seed.
const OPS_PER_SECOND: f64 = 150.0;

const FULL: Params = Params {
    n: 10_000,
    dims: 6,
    missing: 0.2,
};
const TINY: Params = Params {
    n: 600,
    dims: 4,
    missing: 0.2,
};

enum Op {
    Query(Algorithm),
    Batch(Vec<UpdateOp>),
}

struct Cluster {
    workers: Vec<Worker>,
    coord: Coordinator,
    dir: PathBuf,
}

impl Cluster {
    fn stop(self) {
        for w in self.workers {
            w.stop();
        }
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Seed the cluster and answer a first query, `trials` times; keep the
/// last one. Workers start before the clock does: in a deployment they
/// are already running when the coordinator seeds.
fn start(ds: &Dataset, dir: &Path, trials: usize) -> (Cluster, Vec<f64>) {
    let start = |t| {
        let workers: Vec<Worker> = (0..WORKERS)
            .map(|_| Worker::start("127.0.0.1:0", WorkerConfig::default()).expect("worker starts"))
            .collect();
        let addrs: Vec<_> = workers.iter().map(Worker::local_addr).collect();
        let dir = dir.join(format!("cluster-{t}"));
        let begin = Instant::now();
        let mut coord =
            Coordinator::seed(ds, SHARDS, &addrs, ClusterConfig::new(&dir)).expect("cluster seeds");
        coord.query(8, Algorithm::Big).expect("first answer");
        let secs = begin.elapsed().as_secs_f64();
        let cluster = Cluster {
            workers,
            coord,
            dir,
        };
        (cluster, secs)
    };
    set_up(trials, start, Cluster::stop)
}

struct Pass {
    warm: Vec<Result<Answer, String>>,
    samples: Vec<Sample>,
    /// Coordinator counters each op added (traced run only).
    deltas: Vec<ClusterStats>,
    /// Completed ops per second of each round.
    round_qps: Vec<f64>,
    setup_s: Vec<f64>,
    rss_mb: f64,
}

/// Run the ops as `rounds` equal rounds apart by `ROUND_PAUSE` (see
/// `serve::ROUND_PAUSE` for why).
fn pass(ds: &Dataset, dir: &Path, ops: &[Op], rounds: usize, trace: bool, trials: usize) -> Pass {
    reset_peak_rss();
    let (mut cluster, setup_s) = start(ds, dir, trials);
    let mut warm = Vec::new();
    let warm_end = Instant::now() + WARM_UP;
    while Instant::now() < warm_end {
        let reply = cluster.coord.query(8, Algorithm::Big);
        warm.push(
            reply
                .map(|r| engine_answer(r.entries()))
                .map_err(|e| e.to_string()),
        );
    }
    let per_round = ops.len().div_ceil(rounds);
    let mut samples = Vec::with_capacity(ops.len());
    let mut deltas = Vec::with_capacity(if trace { ops.len() } else { 0 });
    for (j, op) in ops.iter().enumerate() {
        if j > 0 && j % per_round == 0 {
            std::thread::sleep(ROUND_PAUSE);
        }
        let before = cluster.coord.stats;
        let sent = Instant::now();
        let reply = match op {
            Op::Query(alg) => cluster
                .coord
                .query(8, *alg)
                .map(|r| Reply::Entries(engine_answer(r.entries()))),
            Op::Batch(batch) => cluster.coord.update(batch).map(|()| Reply::Applied),
        };
        let done = Instant::now();
        if trace {
            let after = cluster.coord.stats;
            deltas.push(ClusterStats {
                frames: after.frames - before.frames,
                tau_rounds: after.tau_rounds - before.tau_rounds,
                candidates_shipped: after.candidates_shipped - before.candidates_shipped,
                repairs: after.repairs - before.repairs,
            });
        }
        samples.push(Sample {
            j,
            scheduled: None,
            round: Some(j / per_round),
            sent,
            done,
            reply: reply.map_err(|e| e.to_string()),
        });
    }
    cluster.stop();
    let rss_mb = peak_rss_mb();
    let round_qps = round_qps(&samples, rounds);
    Pass {
        warm,
        samples,
        deltas,
        round_qps,
        setup_s,
        rss_mb,
    }
}

pub fn run(cfg: &Cfg) -> RunResult {
    let p = cfg.params(FULL, TINY);
    let ds = dataset(p.n, p.dims, p.missing);
    let count = (OPS_PER_SECOND * cfg.seconds).round().max(1.0) as usize;
    let mut stream = OpStream::new(p.n, p.dims, p.missing, cfg.seed);
    let ops: Vec<Op> = (0..count)
        .map(|j| match class_of(cfg.seed, &COUNTS, j) {
            0 => Op::Query(Algorithm::Big),
            1 => Op::Query(Algorithm::Ibig),
            _ => Op::Batch(stream.batch(BATCH_OPS)),
        })
        .collect();
    let rounds = rounds(cfg.seconds);
    let first = pass(&ds, &cfg.dir, &ops, rounds, false, cfg.setup_trials());
    let second = cfg
        .trace
        .then(|| pass(&ds, &cfg.dir, &ops, rounds, true, cfg.setup_trials()));
    let passes: Vec<&Pass> = std::iter::once(&first).chain(second.as_ref()).collect();

    // The oracle: an in-process twin fed the same ops in the same order.
    let mut replay = Replay::new(DynamicEngine::new(ds), cfg.trace);
    let mut warm_answer = engine_answer(
        replay
            .twin
            .query(&tkd_core::EngineQuery::new(8))
            .expect("BIG is served")
            .entries(),
    );
    let mut expect: Vec<Option<Answer>> = ops
        .iter()
        .enumerate()
        .map(|(j, op)| match op {
            Op::Query(alg) => Some(replay.query(j as u64, QuerySpec::new(8).algorithm(*alg))),
            Op::Batch(batch) => {
                let (report, _) = replay.batch(j as u64, batch);
                assert!(report.error.is_none(), "generated batches apply");
                None
            }
        })
        .collect();
    if cfg.corrupt {
        if let Some(first) = expect.iter_mut().flatten().find_map(|a| a.first_mut()) {
            first.1 += 1;
        }
        if let Some(first) = warm_answer.first_mut() {
            first.1 += 1;
        }
    }

    let mut out = RunResult::default();
    let mut views = Vec::new();
    for (i, pass) in passes.iter().enumerate() {
        let tag = if i == 0 { "untraced" } else { "traced" };
        let mut failed = 0u64;
        for reply in &pass.warm {
            if reply.as_ref().ok() != Some(&warm_answer) {
                failed += 1;
                out.mismatches += u64::from(reply.is_ok());
            }
        }
        for s in &pass.samples {
            let ok = match (&s.reply, &expect[s.j]) {
                (Ok(Reply::Entries(got)), Some(want)) => got == want,
                (Ok(Reply::Applied), None) => true,
                _ => false,
            };
            if !ok {
                failed += 1;
                out.mismatches += u64::from(s.reply.is_ok());
            }
        }
        let attempted = (pass.samples.len() + pass.warm.len()) as u64;
        out.attempted += attempted;
        out.failed += failed;
        // The gated p50 is BIG's alone: in a BIG/IBIG mix the pooled
        // median sits where the two classes' latencies meet, and it jumps
        // between them. The tail pools both classes.
        let (mut big, mut ibig, mut queries, mut updates) = (
            vec![Vec::new(); rounds],
            Vec::new(),
            vec![Vec::new(); rounds],
            Vec::new(),
        );
        for s in &pass.samples {
            let (ms, round) = (s.latency_ms(), s.round.expect("every op has a round"));
            match ops[s.j] {
                Op::Query(alg) => {
                    if alg == Algorithm::Big {
                        big[round].push(ms);
                    } else {
                        ibig.push(ms);
                    }
                    queries[round].push(ms);
                }
                Op::Batch(_) => updates.push(ms),
            }
        }
        let big = summarize_rounds(big);
        let ibig = summarize(ibig);
        let query = Summary {
            p50: big.p50,
            ..summarize_rounds(queries)
        };
        let update = summarize(updates);
        let e2e = E2e {
            setup_s: pass.setup_s.clone(),
            query,
            peak_qps: median(pass.round_qps.clone()),
            peak_rss_mb: pass.rss_mb,
            attempted,
            failed,
        };
        out.log.push(format!(
            "{tag}: closed loop, 1 caller, {} ops in {rounds} rounds at {:?}/s on {SHARDS} shards / {WORKERS} workers",
            pass.samples.len(),
            pass.round_qps.iter().map(|q| q.round()).collect::<Vec<_>>()
        ));
        out.log
            .push(format!("{tag}: {}", describe("query", &query)));
        out.log
            .push(format!("{tag}: {}", describe("BIG k=8 query", &big)));
        out.log
            .push(format!("{tag}: {}", describe("IBIG k=8 query", &ibig)));
        out.log
            .push(format!("{tag}: {}", describe("update", &update)));
        out.log.push(format!(
            "{tag}: error_frac={} ({failed} of {attempted})",
            ratio(failed as f64, attempted as f64)
        ));
        if i == 0 {
            out.class.put_latency("update", &update);
            out.class.put(
                "error_frac",
                ratio(failed as f64, attempted as f64),
                "ratio",
            );
        }
        views.push(e2e);
    }
    out.e2e = views[0].metrics();
    if let Some(second) = &second {
        let e2e = &views[1];
        let traced = e2e.metrics();
        let mut c = ClusterCounts::default();
        let mut query_us = Vec::new();
        let mut roots = Vec::with_capacity(second.samples.len());
        let origin = second.samples.first().map_or_else(Instant::now, |s| s.sent);
        for (s, delta) in second.samples.iter().zip(&second.deltas) {
            roots.push(Span {
                name: "coordinator.call",
                start_ns: (s.sent - origin).as_nanos() as u64,
                end_ns: (s.done - origin).as_nanos() as u64,
                parent: NO_PARENT,
                req: s.j as u64,
            });
            if matches!(ops[s.j], Op::Query(_)) {
                c.queries += 1;
                c.query_frames += delta.frames;
                c.tau_rounds += delta.tau_rounds;
                c.candidates += delta.candidates_shipped;
                query_us.push(s.latency_ms() * 1e3);
            } else {
                c.updates += 1;
                c.update_frames += delta.frames;
            }
        }
        c.query_p50_us = median(query_us);
        let obs = Observed {
            roots,
            cluster: Some(c),
            error_frac: ratio(e2e.failed as f64, e2e.attempted as f64),
            batches: c.updates as usize,
            ..Observed::default()
        };
        out.layers = layers::layer_metrics(&mut replay, &obs, p.missing, cfg.seed, &cfg.dir);
        out.layers.0.extend(overhead(&out.e2e, &traced).0);
        out.log.extend(crate::write_spans(
            &replay,
            &obs.roots,
            "cluster-mix",
            &cfg.dir,
        ));
    }
    out.env = crate::env::record(
        cfg.seed,
        "cluster-mix",
        "every routed batch: each touched shard's worker rewrites its seq-stamped snapshot (write, fsync, rename, fsync dir) before the ack",
        &cfg.dir,
    );
    out
}
