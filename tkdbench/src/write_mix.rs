//! `write-mix`: durable writes beside reads and a subscriber.
//!
//! n = 10K, d = 6, σ = 0.2, IND. The engine is loaded from a snapshot at
//! setup and the server rewrites that snapshot after every batch, so each
//! acked batch has been written and fsynced. Three connections:
//!
//! - a writer sends 16-op batches open loop at 10 per second;
//! - a reader sends BIG k = 8 queries in rounds (see `serve::ROUND_PAUSE`):
//!   open loop at 90 per second, then a closed-loop stretch for
//!   `peak_qps`;
//! - a passive subscriber holds four standing queries and times their
//!   notifications.
//!
//! Reads and writes travel on their own connections, so a query that
//! arrives while a batch holds the engine thread waits for it: a
//! write-path gain that stalls reads, or frees them, shows in `query_*`.
//! The writer and the subscriber spend almost all their time blocked on
//! a socket, so the client side keeps about one busy thread.

use crate::env::{peak_rss_mb, reset_peak_rss, wchar};
use crate::gen::{dataset, OpStream};
use crate::layers::{self, standing_specs, Observed};
use crate::replay::{to_wire, Replay};
use crate::run::{describe, overhead, set_up, timed, Cfg, E2e, Params, RunResult};
use crate::serve::{
    connect, engine_answer, rounds, run_window, sleep_until, warm_up, wire_answer, Answer, Call,
    Load, Reply, Sample,
};
use crate::stats::{median, ratio, summarize, summarize_rounds};
use crate::trace::{Span, NO_PARENT};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use tkd_core::{apply_notification, ResultEntry, UpdateOp};
use tkd_serve::protocol::{encode_request, encode_response};
use tkd_serve::{
    QuerySpec, Request, Response, ServeConfig, ServeError, Server, ServerStats, UpdateAck,
    WireNotification,
};

const BATCH_OPS: usize = 16;
/// Open-loop rates: 90% queries and 10% batches of 100 requests a
/// second.
const QUERY_RATE: f64 = 90.0;
const BATCH_RATE: f64 = 10.0;
/// Share of the window the reader spends in open loop.
const OPEN_SHARE: f64 = 0.3;
/// Closed-loop queries per round: about 0.6 s of them on a 2-core host
/// at the commit that introduced the benchmark.
const PER_CLOSED: usize = 6_000;
/// How long the subscriber waits, after the writer is done, for
/// notifications still in flight.
const NOTIFY_GRACE: Duration = Duration::from_secs(10);
/// Replay request ids: the twin's answer after `b` batches is request
/// `STATE + b`, batch `b` is request `BATCH + b`.
const STATE: u64 = 1 << 40;
const BATCH: u64 = 2 << 40;

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

/// Load the snapshot and start serving over it, `trials` times; keep the
/// last server. Each trial starts from its own copy of `base` and ends
/// with the first answer.
fn start(base: &Path, dir: &Path, trials: usize) -> (Server, Vec<f64>) {
    let start = |t| {
        let path = dir.join(format!("serve-{t}.tkd"));
        std::fs::copy(base, &path).expect("copy base snapshot");
        let begin = Instant::now();
        let (engine, load) = timed(|| tkd_store::load_engine(&path).expect("snapshot loads"));
        let config = ServeConfig {
            snapshot: Some(path),
            load_time: Some(Duration::from_secs_f64(load)),
            ..ServeConfig::default()
        };
        let server = Server::start(engine, "127.0.0.1:0", config).expect("server starts");
        connect(server.local_addr())
            .query(QuerySpec::new(8))
            .expect("first answer");
        (server, begin.elapsed().as_secs_f64())
    };
    set_up(trials, start, |server: Server| {
        server.stop().expect("setup trial drains");
    })
}

/// The reader's load: rounds of open-loop queries at `QUERY_RATE`, then
/// `PER_CLOSED` closed-loop queries, on one connection.
fn reader_load(seconds: f64, seed: u64, trace: bool) -> Load {
    let rounds = rounds(seconds);
    Load {
        conns: 1,
        rounds,
        per_open: (seconds * OPEN_SHARE * QUERY_RATE / rounds as f64).round() as usize,
        rate: QUERY_RATE,
        per_closed: PER_CLOSED,
        seed,
        trace,
    }
}

struct Pass {
    warm: Vec<Result<Answer, ServeError>>,
    setup_s: Vec<f64>,
    stats: ServerStats,
    initial: Vec<(u64, Answer)>,
    queries: Vec<Sample>,
    batches: Vec<Sample>,
    notes: Vec<(WireNotification, Instant)>,
    round_qps: Vec<f64>,
    roots: Vec<Span>,
    /// Bytes written during the window, sockets included.
    wchar: f64,
    rss_mb: f64,
}

fn call_span(trace: bool, roots: &mut Vec<Span>, origin: Instant, s: &Sample, req: u64) {
    if trace {
        roots.push(Span {
            name: "client.call",
            start_ns: s.sent.saturating_duration_since(origin).as_nanos() as u64,
            end_ns: s.done.saturating_duration_since(origin).as_nanos() as u64,
            parent: NO_PARENT,
            req,
        });
    }
}

fn writer(
    addr: SocketAddr,
    batches: &[Vec<UpdateOp>],
    t0: Instant,
    trace: bool,
) -> (Vec<Sample>, Vec<Span>) {
    let mut client = connect(addr);
    let mut samples = Vec::with_capacity(batches.len());
    let mut roots = Vec::new();
    for (b, ops) in batches.iter().enumerate() {
        let due = t0 + Duration::from_secs_f64(b as f64 / BATCH_RATE);
        sleep_until(due);
        let sent = Instant::now();
        let reply = client.update(ops).map(Reply::Ack);
        let s = Sample {
            j: b,
            scheduled: Some(due),
            round: None,
            sent,
            done: Instant::now(),
            reply: reply.map_err(|e| e.to_string()),
        };
        call_span(trace, &mut roots, t0, &s, BATCH + b as u64);
        samples.push(s);
    }
    (samples, roots)
}

fn pass(base: &Path, dir: &Path, batches: &[Vec<UpdateOp>], load: &Load, trials: usize) -> Pass {
    reset_peak_rss();
    let (server, setup_s) = start(base, dir, trials);
    let addr = server.local_addr();
    let warm = warm_up(addr);
    let mut sub = connect(addr);
    let initial: Vec<(u64, Answer)> = standing_specs()
        .iter()
        .map(|spec| {
            let ack = sub.subscribe(spec).expect("subscribed");
            (ack.id, wire_answer(&ack.result))
        })
        .collect();
    let writer_done = AtomicBool::new(false);
    let expected = AtomicUsize::new(usize::MAX);
    let before = wchar();
    let t0 = Instant::now() + Duration::from_millis(20);
    let calls: Vec<Call> = (0..load.len())
        .map(|_| Call::Query(QuerySpec::new(8)))
        .collect();
    let ((batch_samples, batch_roots), reads, notes) = std::thread::scope(|s| {
        let subscriber = s.spawn(|| {
            let mut notes = Vec::new();
            let mut done_at: Option<Instant> = None;
            loop {
                match sub.next_notification(Duration::from_millis(20)) {
                    Ok(Some(note)) => notes.push((note, Instant::now())),
                    Ok(None) => {}
                    Err(_) => break,
                }
                if notes.len() >= expected.load(Ordering::SeqCst) {
                    break;
                }
                if writer_done.load(Ordering::SeqCst) {
                    let since = *done_at.get_or_insert_with(Instant::now);
                    if since.elapsed() > NOTIFY_GRACE {
                        break;
                    }
                }
            }
            notes
        });
        let writes = s.spawn(|| {
            let out = writer(addr, batches, t0, load.trace);
            let acked = out.0.iter().filter(|s| s.reply.is_ok()).count();
            expected.store(acked * standing_specs().len(), Ordering::SeqCst);
            writer_done.store(true, Ordering::SeqCst);
            out
        });
        let reads = run_window(addr, &calls, load, t0);
        (
            writes.join().expect("writer thread"),
            reads,
            subscriber.join().expect("subscriber thread"),
        )
    });
    let wchar = wchar() - before;
    let stats = connect(addr).stats().expect("stats answer");
    drop(sub);
    server.stop().expect("server drains");
    let mut roots = batch_roots;
    roots.extend(reads.roots);
    Pass {
        warm,
        setup_s,
        stats,
        initial,
        queries: reads.samples,
        batches: batch_samples,
        notes,
        round_qps: reads.round_qps,
        roots,
        wchar,
        rss_mb: peak_rss_mb(),
    }
}

/// Batches applied for certain before `q` was sent, and batches sent
/// before it was answered: its answer must be the twin's after a number
/// of batches in between.
fn state_range(q: &Sample, batches: &[Sample]) -> (usize, usize) {
    let lo = batches
        .iter()
        .filter(|b| b.reply.is_ok() && b.done <= q.sent)
        .count();
    let hi = batches.iter().filter(|b| b.sent <= q.done).count();
    (lo, hi.max(lo))
}

pub fn run(cfg: &Cfg) -> RunResult {
    let p = cfg.params(FULL, TINY);
    let ds = dataset(p.n, p.dims, p.missing);
    let base = cfg.dir.join("base.tkd");
    tkd_store::save_engine(&base, &mut tkd_core::DynamicEngine::new(ds)).expect("base snapshot");
    let load = reader_load(cfg.seconds, cfg.seed, false);
    let mut ops = OpStream::new(p.n, p.dims, p.missing, cfg.seed);
    let count = (cfg.seconds * BATCH_RATE).round() as usize;
    let batches: Vec<Vec<UpdateOp>> = (0..count).map(|_| ops.batch(BATCH_OPS)).collect();
    let run_pass = |trace| {
        let load = Load { trace, ..load };
        pass(&base, &cfg.dir, &batches, &load, cfg.setup_trials())
    };
    let first = run_pass(false);
    let second = cfg.trace.then(|| run_pass(true));
    let passes: Vec<&Pass> = std::iter::once(&first).chain(second.as_ref()).collect();

    // The oracle: a twin loaded from the same snapshot, with the same
    // standing queries, applies the batches in order. After each batch it
    // records the query answer, the ack and every standing result.
    let mut replay = Replay::new(
        tkd_store::load_engine(&base).expect("twin loads"),
        cfg.trace,
    );
    if cfg.trace {
        replay.plain = Some(tkd_store::load_engine(&base).expect("twin loads"));
        replay.snapshot = Some(cfg.dir.join("twin.tkd"));
    }
    let twin_initial = replay.subscribe(&standing_specs());
    let mut states = vec![replay.query(STATE, QuerySpec::new(8))];
    let mut acks: Vec<UpdateAck> = Vec::with_capacity(batches.len());
    let mut standing: Vec<Vec<Answer>> = Vec::with_capacity(batches.len());
    for (b, batch) in batches.iter().enumerate() {
        let (report, ack) = replay.batch(BATCH + b as u64, batch);
        assert!(report.error.is_none(), "generated batches apply");
        acks.push(ack);
        standing.push(
            replay
                .subs
                .iter()
                .map(|&id| engine_answer(replay.twin.standing_result(id).expect("registered")))
                .collect(),
        );
        states.push(replay.query(STATE + b as u64 + 1, QuerySpec::new(8)));
    }
    if cfg.corrupt {
        for state in &mut states {
            if let Some(first) = state.first_mut() {
                first.1 += 1;
            }
        }
    }

    let mut out = RunResult::default();
    let mut views = Vec::new();
    for (i, pass) in passes.iter().enumerate() {
        let tag = if i == 0 { "untraced" } else { "traced" };
        let (mut failed, mut mismatches) = (0u64, 0u64);
        let mut check = |ok: bool, answered: bool| {
            if !ok {
                failed += 1;
                mismatches += u64::from(answered);
            }
        };
        for reply in &pass.warm {
            check(reply.as_ref().ok() == Some(&states[0]), reply.is_ok());
        }
        for q in &pass.queries {
            let (lo, hi) = state_range(q, &pass.batches);
            let seen = &states[lo.min(states.len() - 1)..=hi.min(states.len() - 1)];
            let ok = matches!(&q.reply, Ok(Reply::Entries(a)) if seen.contains(a));
            check(ok, q.reply.is_ok());
        }
        for b in &pass.batches {
            let ok = matches!(&b.reply, Ok(Reply::Ack(a)) if *a == acks[b.j]);
            check(ok, b.reply.is_ok());
        }
        // Fold each subscription's notifications onto its initial result;
        // after every batch it must equal the twin's standing result.
        let acked = pass.batches.iter().filter(|b| b.reply.is_ok()).count();
        let (mut nonempty, mut fallback) = (0usize, 0usize);
        for (k, (sub_id, init)) in pass.initial.iter().enumerate() {
            check(*init == twin_initial[k], true);
            let mut state: Vec<ResultEntry> = to_entries(init);
            let mut mine: Vec<&WireNotification> = pass
                .notes
                .iter()
                .map(|(n, _)| n)
                .filter(|n| n.id == *sub_id)
                .collect();
            mine.sort_by_key(|n| n.batch_seq);
            let seqs: Vec<u64> = mine.iter().map(|n| n.batch_seq).collect();
            check(seqs == (1..=acked as u64).collect::<Vec<_>>(), true);
            for note in mine {
                state = apply_notification(&state, &to_core(note));
                let want = (note.batch_seq as usize)
                    .checked_sub(1)
                    .and_then(|b| standing.get(b))
                    .map(|all| &all[k]);
                check(Some(&engine_answer(&state)) == want, true);
                nonempty += usize::from(
                    !(note.added.is_empty() && note.removed.is_empty() && note.rescored.is_empty()),
                );
                fallback += usize::from(note.via_fallback);
            }
        }
        out.mismatches += mismatches;
        // Every standing result a subscriber should hold, initial and
        // after each acked batch, is one more answer checked.
        let attempted = (pass.warm.len()
            + pass.queries.len()
            + pass.batches.len()
            + pass.initial.len() * (acked + 1)) as u64;
        out.attempted += attempted;
        out.failed += failed;

        let notify_ms: Vec<f64> = pass
            .batches
            .iter()
            .filter_map(|b| {
                let Ok(Reply::Ack(ack)) = &b.reply else {
                    return None;
                };
                let last = pass
                    .notes
                    .iter()
                    .filter(|(n, _)| n.batch_seq == ack.seq)
                    .map(|(_, at)| *at)
                    .max()?;
                Some(last.saturating_duration_since(b.scheduled?).as_secs_f64() * 1e3)
            })
            .collect();
        // Gated latencies come from the closed loop, where the threads
        // stay busy: open-loop latency at this rate is mostly the wake-up
        // of idle threads, which moves with the host's other load.
        let (opened, closed): (Vec<&Sample>, Vec<&Sample>) =
            pass.queries.iter().partition(|s| s.scheduled.is_some());
        let mut per_round = vec![Vec::new(); load.rounds];
        for s in closed {
            per_round[s.round.expect("closed-loop samples have a round")].push(s.latency_ms());
        }
        let query = summarize_rounds(per_round);
        let open_query = summarize(opened.iter().map(|s| s.latency_ms()).collect());
        let update = summarize(pass.batches.iter().map(Sample::latency_ms).collect());
        let notify = summarize(notify_ms);
        let late = summarize(
            opened
                .iter()
                .copied()
                .chain(&pass.batches)
                .map(Sample::late_ms)
                .collect(),
        );
        let write_amp = write_amp(pass, &batches);
        let e2e = E2e {
            setup_s: pass.setup_s.clone(),
            query,
            peak_qps: median(pass.round_qps.clone()),
            peak_rss_mb: pass.rss_mb,
            attempted,
            failed,
        };
        out.log.push(format!(
            "{tag}: reader {} rounds of {} queries at {QUERY_RATE}/s then {PER_CLOSED} closed loop at {:?}/s; writer {} batches at {BATCH_RATE}/s; {} notifications",
            load.rounds,
            load.per_open,
            pass.round_qps.iter().map(|q| q.round()).collect::<Vec<_>>(),
            pass.batches.len(),
            pass.notes.len()
        ));
        out.log
            .push(format!("{tag}: {}", describe("closed-loop query", &query)));
        out.log.push(format!(
            "{tag}: {}",
            describe("open-loop query", &open_query)
        ));
        out.log
            .push(format!("{tag}: {}", describe("update", &update)));
        out.log
            .push(format!("{tag}: {}", describe("notify", &notify)));
        out.log
            .push(format!("{tag}: {}", describe("generator lateness", &late)));
        out.log.push(format!(
            "{tag}: error_frac={} ({failed} of {attempted}, {mismatches} mismatches); write_amp={write_amp}; server: compactions={} timeouts={} overloaded={}",
            ratio(failed as f64, attempted as f64),
            pass.stats.compactions,
            pass.stats.timeouts,
            pass.stats.overloaded
        ));
        if i == 0 {
            out.class.put_latency("update", &update);
            out.class.put_latency("notify", &notify);
            out.class.put_latency("openloop.query", &open_query);
            out.class.put("loadgen.late_p99_ms", late.tail, "ms");
            out.class.put("write_amp", write_amp, "ratio");
            out.class.put(
                "error_frac",
                ratio(failed as f64, attempted as f64),
                "ratio",
            );
        }
        views.push((e2e, write_amp, nonempty, fallback, acked));
    }
    out.e2e = views[0].0.metrics();
    if let Some(second) = &second {
        let (e2e, write_amp, nonempty, fallback, acked) = &views[1];
        let traced = e2e.metrics();
        // Pair each open-loop query's root span with the twin's answer at
        // the state it certainly saw. Closed-loop queries repeat back to
        // back on hot caches, so they have no in-process counterpart.
        let roots = second
            .roots
            .iter()
            .filter_map(|r| match second.queries.get(r.req as usize) {
                Some(q) if r.req < STATE => q.scheduled.map(|_| Span {
                    req: STATE + state_range(q, &second.batches).0 as u64,
                    ..*r
                }),
                _ => Some(*r),
            })
            .collect();
        let obs = Observed {
            server: Some(second.stats),
            roots,
            notes: second.notes.len(),
            notes_nonempty: *nonempty,
            notes_fallback: *fallback,
            write_amp: *write_amp,
            error_frac: ratio(e2e.failed as f64, e2e.attempted as f64),
            batches: *acked,
            ..Observed::default()
        };
        out.layers = layers::layer_metrics(&mut replay, &obs, p.missing, cfg.seed, &cfg.dir);
        out.layers.0.extend(overhead(&out.e2e, &traced).0);
        out.log.extend(crate::write_spans(
            &replay,
            &obs.roots,
            "write-mix",
            &cfg.dir,
        ));
    }
    out.env = crate::env::record(
        cfg.seed,
        "write-mix",
        "every acked batch: encode_engine, then atomic_rewrite (write, fsync, rename, fsync dir) before the ack",
        &cfg.dir,
    );
    out
}

/// Bytes written to files per byte of update payload: the window's
/// `wchar` minus every frame the benchmark and server exchanged.
fn write_amp(pass: &Pass, batches: &[Vec<UpdateOp>]) -> f64 {
    let len = |r: Result<Vec<u8>, ServeError>| r.map_or(0, |f| f.len());
    let query = len(encode_request(&Request::Query(QuerySpec::new(8))));
    let mut frames = 0usize;
    let mut payload = 0usize;
    for b in &pass.batches {
        let request = len(encode_request(&Request::UpdateOps(batches[b.j].clone())));
        payload += request;
        frames += request;
        if let Ok(Reply::Ack(ack)) = &b.reply {
            frames += len(encode_response(&Response::UpdateAck(ack.clone())));
        }
    }
    for q in &pass.queries {
        frames += query;
        if let Ok(Reply::Entries(a)) = &q.reply {
            frames += len(encode_response(&Response::QueryResult(to_wire(a))));
        }
    }
    for (note, _) in &pass.notes {
        frames += len(encode_response(&Response::Notify(note.clone())));
    }
    ratio((pass.wchar - frames as f64).max(0.0), payload as f64)
}

fn to_entries(answer: &Answer) -> Vec<ResultEntry> {
    answer
        .iter()
        .map(|&(id, score)| ResultEntry {
            id: id as u32,
            score: score as usize,
        })
        .collect()
}

fn to_core(note: &WireNotification) -> tkd_core::Notification {
    tkd_core::Notification {
        id: note.id,
        batch_seq: note.batch_seq,
        added: to_entries(&wire_answer(&note.added)),
        removed: note.removed.iter().map(|&id| id as u32).collect(),
        rescored: to_entries(&wire_answer(&note.rescored)),
        kth_score: note.kth_score.map(|s| s as usize),
        via_fallback: note.via_fallback,
    }
}
