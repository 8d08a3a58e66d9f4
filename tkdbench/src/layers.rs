//! Per-layer metrics of a traced run.
//!
//! Most numbers come from the replay's child spans and the counters the
//! program exposes. A layer the workload's traffic never reaches (text on
//! the write mix, maintenance on the read mix, …) is probed instead with
//! a few calls on the workload's own data, so each time reads what that
//! layer costs here; its traffic counter (`ql.statements`,
//! `maint.batches`, the cluster counts) stays 0 and shows the bypass.

use crate::gen::OpStream;
use crate::replay::{Replay, Shape};
use crate::stats::{mean, median, ratio, Metrics};
use crate::trace::{Span, NO_PARENT};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use tkd_core::{Algorithm, StandingSpec};
use tkd_serve::{QuerySpec, ServerStats};

/// Request id of probe spans (no request of the workload has it).
const PROBE: u64 = u64::MAX;

pub const UNSCOPED: &str = "SELECT TOP 8 DOMINATING";

/// What the workload itself observed, beside the replay.
#[derive(Default)]
pub struct Observed {
    pub server: Option<ServerStats>,
    /// Root spans of the traced window: one per client or coordinator
    /// call, `req` = request index.
    pub roots: Vec<Span>,
    pub notes: usize,
    pub notes_nonempty: usize,
    pub notes_fallback: usize,
    pub cluster: Option<ClusterCounts>,
    pub write_amp: f64,
    pub error_frac: f64,
    /// Statements and batches the workload's traffic sent.
    pub statements: usize,
    pub batches: usize,
}

#[derive(Clone, Copy, Default)]
pub struct ClusterCounts {
    pub queries: u64,
    pub query_frames: u64,
    pub tau_rounds: u64,
    pub candidates: u64,
    pub updates: u64,
    pub update_frames: u64,
    /// p50 of the coordinator's query calls, µs.
    pub query_p50_us: f64,
}

/// The standing queries the write mix subscribes (and the probe uses).
pub fn standing_specs() -> Vec<StandingSpec> {
    vec![
        StandingSpec::new(8),
        StandingSpec::new(8).algorithm(Algorithm::Ibig),
        StandingSpec::new(32),
        StandingSpec::new(32).algorithm(Algorithm::Ibig),
    ]
}

fn mean_us(r: &Replay, name: &str) -> f64 {
    mean(&r.tracer.durations_us(name))
}

/// Fill in spans for every layer the traffic skipped.
fn probe_bypassed(r: &mut Replay, missing: f64, seed: u64, dir: &Path) {
    for (name, spec) in [
        ("engine.big8", QuerySpec::new(8)),
        ("engine.big64", QuerySpec::new(64)),
        ("engine.ibig8", QuerySpec::new(8).algorithm(Algorithm::Ibig)),
    ] {
        if r.tracer.count(name) == 0 {
            for _ in 0..5 {
                r.query(PROBE, spec);
            }
        }
    }
    let subspace = subspace_statement(&[0, 1, 2]);
    for (name, shape, text) in [
        ("ql.unscoped.exec", Shape::Unscoped, UNSCOPED),
        ("ql.subspace.exec", Shape::Subspace, subspace.as_str()),
    ] {
        if r.tracer.count(name) == 0 {
            for _ in 0..3 {
                r.text(PROBE, shape, text);
            }
        }
    }
    let bytes = tkd_store::encode_engine(&mut r.twin);
    if r.tracer.count("maint.apply") == 0 || r.tracer.count("standing.apply") == 0 {
        // Paired copies of the twin: the same batches with and without
        // the standing queries.
        let mut plain = tkd_store::decode_engine(&bytes).expect("twin snapshot decodes");
        let mut subs = tkd_store::decode_engine(&bytes).expect("twin snapshot decodes");
        for spec in standing_specs() {
            subs.register(spec).expect("valid standing spec");
        }
        let parts = plain.store_parts_ref();
        let next_id = parts.next_id;
        let mut ops = OpStream::over(
            plain.live_ids(),
            next_id,
            plain.dims(),
            missing,
            seed ^ 0x9B0B,
        );
        for _ in 0..4 {
            let batch = ops.batch(16);
            let a = r.tracer.time("probe.maint.apply", NO_PARENT, PROBE, || {
                plain.apply_ops(&batch)
            });
            let b = r.tracer.time("probe.standing.apply", NO_PARENT, PROBE, || {
                subs.apply_ops(&batch)
            });
            assert!(
                a.error.is_none() && b.error.is_none(),
                "probe batches apply"
            );
        }
    }
    let path = dir.join("probe.tkd");
    if r.tracer.count("store.encode") == 0 {
        for _ in 0..3 {
            let twin = &mut r.twin;
            let bytes = r.tracer.time("store.encode", NO_PARENT, PROBE, || {
                tkd_store::encode_engine(twin)
            });
            r.tracer
                .time("store.rewrite", NO_PARENT, PROBE, || {
                    tkd_store::atomic_rewrite(&path, &bytes)
                })
                .expect("probe snapshot rewrite");
        }
    } else {
        tkd_store::atomic_rewrite(&path, &bytes).expect("probe snapshot rewrite");
    }
    for _ in 0..3 {
        let engine = r
            .tracer
            .time("store.load", NO_PARENT, PROBE, || {
                tkd_store::load_engine(&path)
            })
            .expect("probe snapshot loads");
        black_box(engine);
    }
}

pub fn subspace_statement(dims: &[usize]) -> String {
    let list: Vec<String> = dims.iter().map(|d| format!("d{}", d + 1)).collect();
    format!("SELECT TOP 8 DOMINATING SUBSPACE ({})", list.join(", "))
}

/// `BitmapIndex::max_bit_score` on the workload's rows, ns per call.
fn index_probe(r: &Replay) -> f64 {
    let ds = r.twin.snapshot();
    let index = tkd_index::BitmapIndex::build(&ds);
    let objects: Vec<u32> = (0..ds.len() as u32)
        .step_by((ds.len() / 2000).max(1))
        .collect();
    let mut calls = 0usize;
    let start = Instant::now();
    while start.elapsed().as_millis() < 50 {
        for &o in &objects {
            black_box(index.max_bit_score(black_box(o)));
        }
        calls += objects.len();
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// The popcount kernels at the workload's column length, ns per 1 000
/// words: `(and_count, count_and_andnot)`.
fn kernel_probe(bits: usize, seed: u64) -> (f64, f64) {
    let words = bits.div_ceil(64).max(1);
    let mut rng = crate::gen::Rng::new(seed, 0x7E57);
    let col = |rng: &mut crate::gen::Rng| -> Vec<u64> { (0..words).map(|_| rng.next()).collect() };
    let (a, b, c) = (col(&mut rng), col(&mut rng), col(&mut rng));
    let per_kword = |f: &dyn Fn() -> usize| {
        let mut reps = 0usize;
        let start = Instant::now();
        while start.elapsed().as_millis() < 30 {
            for _ in 0..64 {
                black_box(f());
            }
            reps += 64;
        }
        start.elapsed().as_nanos() as f64 / (reps as f64 * words as f64 / 1000.0)
    };
    let and = per_kword(&|| tkd_bitvec::kernels::and_count(black_box(&a), black_box(&b)));
    let andnot = per_kword(&|| {
        tkd_bitvec::kernels::count_and_andnot(black_box(&a), black_box(&b), black_box(&c))
    });
    (and, andnot)
}

/// Every per-layer metric, in the order `BENCHMARK.json` lists them.
pub fn layer_metrics(
    r: &mut Replay,
    obs: &Observed,
    missing: f64,
    seed: u64,
    dir: &Path,
) -> Metrics {
    // Replay spans of the traffic, before probes add any.
    let replay_us: HashMap<u64, f64> = r
        .tracer
        .spans
        .iter()
        .filter(|s| s.name == "replay")
        .map(|s| (s.req, s.us()))
        .collect();
    // Traffic counters, before probes add to them.
    let (prune, queries, entries) = (r.prune, r.queries, r.entries);
    let (frames, request_bytes, response_bytes) =
        (r.frames as f64, r.request_bytes, r.response_bytes);
    let wire_us = |r: &Replay, name: &str| {
        let traffic: f64 = r
            .tracer
            .spans
            .iter()
            .filter(|s| s.name == name && s.req != PROBE)
            .map(Span::us)
            .sum();
        ratio(traffic, frames)
    };
    let (encode_us, decode_us) = (wire_us(r, "wire.encode"), wire_us(r, "wire.decode"));
    probe_bypassed(r, missing, seed, dir);

    let mut m = Metrics::default();
    // Per request: its request frame plus its response frame.
    m.put("wire.encode_us", encode_us, "us");
    m.put("wire.decode_us", decode_us, "us");
    m.put(
        "wire.request_bytes",
        ratio(request_bytes as f64, frames),
        "B",
    );
    m.put(
        "wire.response_bytes",
        ratio(response_bytes as f64, frames),
        "B",
    );

    let overhead: Vec<f64> = obs
        .roots
        .iter()
        .filter_map(|root| replay_us.get(&root.req).map(|inproc| root.us() - inproc))
        .collect();
    m.put("server.overhead_us", median(overhead), "us");
    let s = obs.server.unwrap_or_default();
    m.put(
        "server.coalesced_frac",
        ratio(s.coalesced_batches as f64, s.served_queries as f64),
        "ratio",
    );
    m.put("server.overloaded", s.overloaded as f64, "count");
    m.put("server.timeouts", s.timeouts as f64, "count");

    m.put("ql.statements", obs.statements as f64, "count");
    for shape in ["unscoped", "subspace"] {
        for stage in ["parse", "plan", "exec"] {
            let span = format!("ql.{shape}.{stage}");
            m.put(format!("{span}_us"), mean_us(r, &span), "us");
        }
    }

    m.put("engine.big8_us", mean_us(r, "engine.big8"), "us");
    m.put("engine.big64_us", mean_us(r, "engine.big64"), "us");
    m.put("engine.ibig8_us", mean_us(r, "engine.ibig8"), "us");
    let p = prune;
    let total = p.total() as f64;
    m.put(
        "engine.scored_per_query",
        ratio(p.scored as f64, queries as f64),
        "count",
    );
    m.put(
        "engine.h1_pruned_frac",
        ratio(p.h1_pruned as f64, total),
        "ratio",
    );
    m.put(
        "engine.h2_pruned_frac",
        ratio(p.h2_pruned as f64, total),
        "ratio",
    );
    m.put(
        "engine.h3_pruned_frac",
        ratio(p.h3_pruned as f64, total),
        "ratio",
    );
    m.put(
        "engine.k_per_scored",
        ratio(entries as f64, p.scored as f64),
        "ratio",
    );

    m.put("index.max_bit_score_ns", index_probe(r), "ns");
    let (and, andnot) = kernel_probe(r.twin.snapshot().len(), seed);
    m.put("kernels.and_count_ns_per_kword", and, "ns");
    m.put("kernels.count_and_andnot_ns_per_kword", andnot, "ns");

    // Maintenance with and without standing queries: the traffic's own
    // batches where it had them, else the paired probe.
    let plain = if obs.batches > 0 {
        mean_us(r, "maint.apply")
    } else {
        mean_us(r, "probe.maint.apply")
    };
    let patch = if r.tracer.count("standing.apply") > 0 {
        mean_us(r, "standing.apply") - mean_us(r, "maint.apply")
    } else {
        mean_us(r, "probe.standing.apply") - mean_us(r, "probe.maint.apply")
    };
    m.put("maint.batches", obs.batches as f64, "count");
    m.put("maint.apply_us", plain, "us");
    m.put(
        "maint.compactions",
        r.twin.stats().compactions as f64,
        "count",
    );
    m.put("standing.patch_us", patch, "us");
    m.put(
        "standing.fallback_frac",
        ratio(obs.notes_fallback as f64, obs.notes as f64),
        "ratio",
    );
    m.put(
        "standing.notes_per_batch",
        ratio(obs.notes_nonempty as f64, obs.batches as f64),
        "count",
    );

    m.put("store.encode_us", mean_us(r, "store.encode"), "us");
    m.put("store.rewrite_us", mean_us(r, "store.rewrite"), "us");
    m.put(
        "store.bytes_per_batch",
        ratio(r.snapshot_bytes as f64, r.batches as f64),
        "B",
    );
    m.put("store.load_us", mean_us(r, "store.load"), "us");

    let c = obs.cluster.unwrap_or_default();
    let inproc = {
        let mut k8 = r.tracer.durations_us("engine.big8");
        k8.extend(r.tracer.durations_us("engine.ibig8"));
        k8
    };
    let inproc_p50 = median(inproc.clone());
    m.put(
        "cluster.frames_per_query",
        ratio(c.query_frames as f64, c.queries as f64),
        "count",
    );
    m.put(
        "cluster.tau_rounds_per_query",
        ratio(c.tau_rounds as f64, c.queries as f64),
        "count",
    );
    m.put(
        "cluster.candidates_per_query",
        ratio(c.candidates as f64, c.queries as f64),
        "count",
    );
    m.put(
        "cluster.frames_per_update",
        ratio(c.update_frames as f64, c.updates as f64),
        "count",
    );
    m.put("cluster.inproc_us", mean(&inproc), "us");
    m.put("cluster.overhead_x", ratio(c.query_p50_us, inproc_p50), "x");

    m.put("write_amp", obs.write_amp, "ratio");
    m.put("error_frac", obs.error_frac, "ratio");
    m
}
