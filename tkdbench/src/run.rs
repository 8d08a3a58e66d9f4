//! What every workload shares: its configuration, its result, and the
//! end-to-end metrics.

use crate::stats::{median, ratio, Metrics, Summary};
use std::path::PathBuf;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` documents.
    Full,
    /// Seconds-long runs for the self-test.
    Tiny,
}

#[derive(Clone, Debug)]
pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Self-test only: falsify one oracle answer, so the check must fail.
    pub corrupt: bool,
    /// Scratch directory for snapshots, inside the checkout.
    pub dir: PathBuf,
}

/// A workload's input size: rows, dimensions and missing rate.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    pub n: usize,
    pub dims: usize,
    pub missing: f64,
}

impl Cfg {
    /// Setup repetitions; `setup_s` is their median.
    pub fn setup_trials(&self) -> usize {
        match self.size {
            Size::Full => 11,
            Size::Tiny => 2,
        }
    }

    /// The workload's `full` or `tiny` input size.
    pub fn params(&self, full: Params, tiny: Params) -> Params {
        match self.size {
            Size::Full => full,
            Size::Tiny => tiny,
        }
    }
}

/// Set up `trials` times, each trial timed by `start` in seconds; stop
/// every set-up but the last, and return it with the times.
pub fn set_up<T>(
    trials: usize,
    mut start: impl FnMut(usize) -> (T, f64),
    mut stop: impl FnMut(T),
) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(trials);
    let mut kept = None;
    for t in 0..trials.max(1) {
        if let Some(old) = kept.take() {
            stop(old);
        }
        let (up, secs) = start(t);
        times.push(secs);
        kept = Some(up);
    }
    (kept.expect("at least one setup trial"), times)
}

#[derive(Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
    pub e2e: Metrics,
    /// Latencies of the request classes only some workloads send (text,
    /// update, notify), open-loop figures and error accounting, from the
    /// untraced window: printed in every run, gated in none.
    pub class: Metrics,
    pub layers: Metrics,
    pub log: Vec<String>,
    pub env: Vec<(String, String)>,
}

impl RunResult {
    /// Every answer matched the oracle, and there were answers.
    pub fn correct(&self) -> bool {
        self.mismatches == 0 && self.attempted > 0
    }
}

/// One window's end-to-end view.
pub struct E2e {
    pub setup_s: Vec<f64>,
    /// Structured-query latency.
    pub query: Summary,
    pub peak_qps: f64,
    /// `VmHWM` at the end of the window, before the oracle is built.
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
}

impl E2e {
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        m.put("setup_s", median(self.setup_s.clone()), "s");
        m.put_latency("query", &self.query);
        m.put("peak_qps", self.peak_qps, "1/s");
        m.put("peak_rss_mb", self.peak_rss_mb, "MB");
        m.put(
            "ok_frac",
            1.0 - ratio(self.failed as f64, self.attempted as f64),
            "ratio",
        );
        m
    }
}

/// `overhead.<metric>`: traced minus untraced, per end-to-end metric.
pub fn overhead(untraced: &Metrics, traced: &Metrics) -> Metrics {
    let mut m = Metrics::default();
    for t in &traced.0 {
        let u = untraced.get(&t.name).unwrap_or(0.0);
        m.put(format!("overhead.{}", t.name), t.value - u, t.unit);
    }
    m
}

/// Time `f` and return its result with the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// A log line for a latency class: its p50, its tail percentile and the
/// sample count behind both.
pub fn describe(name: &str, s: &Summary) -> String {
    let rounds = if s.rounds > 1 {
        format!(" (lower-quartile round of {})", s.rounds)
    } else {
        String::new()
    };
    format!(
        "{name}: n={} p50={:.3} ms p{:.1}={:.3} ms{rounds}",
        s.n, s.p50, s.tail_pct, s.tail
    )
}
