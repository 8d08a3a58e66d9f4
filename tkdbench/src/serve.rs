//! Drives a running `tkd_serve::Server` from client threads, in rounds of
//! an open-loop stretch on a fixed schedule and a closed-loop stretch,
//! with every reply kept for the output check.

use crate::trace::{Span, NO_PARENT};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};
use tkd_serve::{Client, QuerySpec, ServeError, UpdateAck, WireEntry};

/// `(id, score)` pairs in answer order: ids, scores and tie order all
/// take part in every comparison.
pub type Answer = Vec<(u64, u64)>;

pub fn wire_answer(entries: &[WireEntry]) -> Answer {
    entries.iter().map(|e| (e.id, e.score)).collect()
}

pub fn engine_answer(entries: &[tkd_core::ResultEntry]) -> Answer {
    entries
        .iter()
        .map(|e| (u64::from(e.id), e.score as u64))
        .collect()
}

pub enum Call {
    Query(QuerySpec),
    Text(String),
}

#[derive(Debug)]
pub enum Reply {
    Entries(Answer),
    Ack(UpdateAck),
    /// A cluster batch applied; the coordinator returns no ack.
    Applied,
}

/// One request as the client saw it.
pub struct Sample {
    pub j: usize,
    /// When the open-loop schedule wanted it sent; `None` in closed loop.
    pub scheduled: Option<Instant>,
    /// Closed-loop round; `None` in open loop.
    pub round: Option<usize>,
    pub sent: Instant,
    pub done: Instant,
    pub reply: Result<Reply, String>,
}

impl Sample {
    /// Latency in ms: from the scheduled send in open loop, so a stall
    /// also counts against the requests queued behind it.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.scheduled.unwrap_or(self.sent)).as_secs_f64() * 1e3
    }

    /// How late the generator sent it, in ms.
    pub fn late_ms(&self) -> f64 {
        self.scheduled.map_or(0.0, |s| {
            self.sent.saturating_duration_since(s).as_secs_f64() * 1e3
        })
    }
}

/// Unmeasured closed-loop BIG k = 8 queries before each timed window, so
/// caches fill and lazy set-up finishes first.
pub const WARM_UP: Duration = Duration::from_millis(500);

/// Run the warm-up on one connection; every reply is kept for the check.
pub fn warm_up(addr: SocketAddr) -> Vec<Result<Answer, ServeError>> {
    let mut client = connect(addr);
    let end = Instant::now() + WARM_UP;
    let mut replies = Vec::new();
    while Instant::now() < end {
        replies.push(client.query(QuerySpec::new(8)).map(|e| wire_answer(&e)));
    }
    replies
}

pub fn sleep_until(at: Instant) {
    if let Some(wait) = at.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
}

pub fn connect(addr: SocketAddr) -> Client {
    Client::connect_with(addr, Duration::from_secs(30)).expect("benchmark client connects")
}

pub fn issue(client: &mut Client, call: &Call) -> Result<Reply, ServeError> {
    match call {
        Call::Query(spec) => client.query(*spec).map(|e| Reply::Entries(wire_answer(&e))),
        Call::Text(text) => client
            .query_text(text)
            .map(|e| Reply::Entries(wire_answer(&e))),
    }
}

/// Transport failures leave the stream unusable; typed rejections do not.
pub fn is_transport(e: &ServeError) -> bool {
    !matches!(
        e,
        ServeError::Overloaded { .. }
            | ServeError::Timeout { .. }
            | ServeError::ShuttingDown
            | ServeError::Rejected { .. }
    )
}

/// The load shape of one window: `rounds` rounds, each an open-loop
/// stretch of `per_open` requests at `rate` per second, then a
/// closed-loop stretch of `per_closed` requests, where each connection
/// sends its next request as soon as the last one is answered. Each
/// stretch is followed by [`ROUND_PAUSE`] idle.
pub struct Load {
    pub conns: usize,
    pub rounds: usize,
    pub per_open: usize,
    pub rate: f64,
    pub per_closed: usize,
    /// Seeds the open-loop arrival times.
    pub seed: u64,
    /// Push a root span per call (the traced run).
    pub trace: bool,
}

impl Load {
    /// Requests one window sends.
    pub fn len(&self) -> usize {
        self.rounds * (self.per_open + self.per_closed)
    }
}

/// On a small host, where the scheduler places the client, connection
/// and engine threads sets the latency and rate of a whole stretch of
/// requests; after an idle gap it places them afresh. So rounds sample
/// placements independently, and one unlucky placement moves a run's
/// figures by one round's share, not by all of it. Closed-loop stretches
/// have a fixed request count, so every round has the same mix.
pub const ROUND_PAUSE: Duration = Duration::from_millis(50);

/// Rounds in a window of `seconds`: about one per two seconds.
pub fn rounds(seconds: f64) -> usize {
    (seconds / 2.0).round().max(1.0) as usize
}

/// Everything one window produced.
pub struct Window {
    pub samples: Vec<Sample>,
    pub roots: Vec<Span>,
    /// Completed requests per second of each closed-loop round.
    pub round_qps: Vec<f64>,
}

impl Window {
    /// The median closed-loop round's rate.
    pub fn peak_qps(&self) -> f64 {
        crate::stats::median(self.round_qps.clone())
    }
}

/// Completed requests per second of each closed-loop round: the round's
/// successful replies over the time from its first send to its last
/// answer.
pub fn round_qps(samples: &[Sample], rounds: usize) -> Vec<f64> {
    (0..rounds)
        .map(|r| {
            let round = samples.iter().filter(|s| s.round == Some(r));
            let first = round.clone().map(|s| s.sent).min();
            let last = round.clone().map(|s| s.done).max();
            let ok = round.filter(|s| s.reply.is_ok()).count();
            match (first, last) {
                (Some(a), Some(b)) if b > a => ok as f64 / (b - a).as_secs_f64(),
                _ => 0.0,
            }
        })
        .collect()
}

/// Run one window against `addr`. The connections take the requests of
/// `seq` in order from a shared cursor; in an open-loop stretch, request
/// `j` is due at the stretch's start plus its Poisson arrival offset.
/// Root spans are timed from `origin`.
pub fn run_window(addr: SocketAddr, seq: &[Call], load: &Load, origin: Instant) -> Window {
    assert!(seq.len() >= load.len(), "sequence covers the window");
    let (rounds, per_open, per_closed) = (load.rounds, load.per_open, load.per_closed);
    let offsets: Vec<Vec<f64>> = (0..rounds)
        .map(|r| crate::gen::arrivals(load.seed, r as u64, per_open, load.rate))
        .collect();
    let cursor = AtomicUsize::new(0);
    // Start of the current open stretch, in ns since `origin`.
    let stretch = AtomicU64::new(0);
    let barrier = Barrier::new(load.conns);
    let per_conn: Vec<(Vec<Sample>, Vec<Span>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..load.conns)
            .map(|_| {
                s.spawn(|| {
                    let mut client = connect(addr);
                    let mut samples = Vec::with_capacity(seq.len() / load.conns + 1);
                    let mut roots =
                        Vec::with_capacity(if load.trace { samples.capacity() } else { 0 });
                    let mut send = |client: &mut Client,
                                    j: usize,
                                    scheduled: Option<Instant>,
                                    round| {
                        let sent = Instant::now();
                        let reply = issue(client, &seq[j]);
                        let done = Instant::now();
                        if load.trace {
                            roots.push(Span {
                                name: "client.call",
                                start_ns: sent.saturating_duration_since(origin).as_nanos() as u64,
                                end_ns: done.saturating_duration_since(origin).as_nanos() as u64,
                                parent: NO_PARENT,
                                req: j as u64,
                            });
                        }
                        if matches!(&reply, Err(e) if is_transport(e)) {
                            *client = connect(addr);
                        }
                        samples.push(Sample {
                            j,
                            scheduled,
                            round,
                            sent,
                            done,
                            reply: reply.map_err(|e| e.to_string()),
                        });
                    };
                    for (round, offsets) in offsets.iter().enumerate() {
                        let base = round * (per_open + per_closed);
                        if barrier.wait().is_leader() {
                            let at = Instant::now().saturating_duration_since(origin).as_nanos()
                                as u64
                                + 1_000_000;
                            cursor.store(base, Ordering::SeqCst);
                            stretch.store(at, Ordering::SeqCst);
                        }
                        barrier.wait();
                        let at = origin + Duration::from_nanos(stretch.load(Ordering::SeqCst));
                        loop {
                            let j = cursor.fetch_add(1, Ordering::SeqCst);
                            if j >= base + per_open {
                                break;
                            }
                            let due = at + Duration::from_secs_f64(offsets[j - base]);
                            sleep_until(due);
                            send(&mut client, j, Some(due), None);
                        }
                        if barrier.wait().is_leader() {
                            // Take back the values the open stretch's
                            // last pulls overshot.
                            cursor.store(base + per_open, Ordering::SeqCst);
                        }
                        barrier.wait();
                        std::thread::sleep(ROUND_PAUSE);
                        loop {
                            let j = cursor.fetch_add(1, Ordering::SeqCst);
                            if j >= base + per_open + per_closed {
                                break;
                            }
                            send(&mut client, j, None, Some(round));
                        }
                        barrier.wait();
                        std::thread::sleep(ROUND_PAUSE);
                    }
                    (samples, roots)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut samples = Vec::new();
    let mut roots = Vec::new();
    for (s, r) in per_conn {
        samples.extend(s);
        roots.extend(r);
    }
    samples.sort_by_key(|s| s.j);
    roots.sort_by_key(|r| r.req);
    let round_qps = round_qps(&samples, rounds);
    Window {
        samples,
        roots,
        round_qps,
    }
}
