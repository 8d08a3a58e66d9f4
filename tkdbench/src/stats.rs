//! Percentiles and the named, unit-carrying metrics a run reports.

/// Latency summary of one request class, in the unit of its samples.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// The 99th percentile, or the highest percentile that still has at
    /// least ten samples above it when there are too few samples for p99.
    pub tail: f64,
    /// Which percentile `tail` is.
    pub tail_pct: f64,
    /// Rounds the sample was taken in (see [`summarize_rounds`]).
    pub rounds: usize,
}

pub fn summarize(mut xs: Vec<f64>) -> Summary {
    if xs.is_empty() {
        return Summary::default();
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    // Nearest rank, 1-based.
    let mut rank = ((0.99 * n as f64).ceil() as usize).max(1);
    if n > 10 {
        rank = rank.min(n - 10);
    } else {
        rank = n;
    }
    Summary {
        n,
        p50: median_sorted(&xs),
        tail: xs[rank - 1],
        tail_pct: 100.0 * rank as f64 / n as f64,
        rounds: 1,
    }
}

/// [`summarize`] per round; the p50 and the tail are each the lower
/// quartile of the rounds' values. On a shared host, contention comes in
/// episodes of several seconds that slow every round inside them, and a
/// run may spend none or most of its rounds in one: the median round, or
/// a pool of every round, then lands on either side. The lower quartile
/// reads the rounds outside such episodes unless they cover three
/// quarters of the run, while a slower program slows every round.
pub fn summarize_rounds(rounds: Vec<Vec<f64>>) -> Summary {
    let mut per: Vec<Summary> = rounds
        .into_iter()
        .filter(|r| !r.is_empty())
        .map(summarize)
        .collect();
    let quartile = per.len().saturating_sub(1) / 4;
    per.sort_by(|a, b| a.p50.total_cmp(&b.p50));
    let p50 = per.get(quartile).map_or(0.0, |s| s.p50);
    per.sort_by(|a, b| a.tail.total_cmp(&b.tail));
    let tail = per.get(quartile).copied().unwrap_or_default();
    Summary {
        n: per.iter().map(|s| s.n).sum(),
        p50,
        tail: tail.tail,
        tail_pct: tail.tail_pct,
        rounds: per.len(),
    }
}

pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    median_sorted(&xs)
}

fn median_sorted(xs: &[f64]) -> f64 {
    match xs.len() {
        0 => 0.0,
        n if n % 2 == 1 => xs[n / 2],
        n => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered list of metrics; names are unique.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        debug_assert!(self.get(&name).is_none(), "metric {name} set twice");
        self.0.push(Metric { name, value, unit });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// A latency class: `<prefix>_p50_ms` and `<prefix>_p99_ms`.
    pub fn put_latency(&mut self, prefix: &str, s: &Summary) {
        self.put(format!("{prefix}_p50_ms"), s.p50, "ms");
        self.put(format!("{prefix}_p99_ms"), s.tail, "ms");
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON number: all digits of the measurement, never NaN or infinite.
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_above_it() {
        let s = summarize((1..=200).map(f64::from).collect());
        assert_eq!(s.n, 200);
        assert_eq!(s.p50, 100.5);
        assert_eq!(s.tail, 190.0);
        assert_eq!(s.tail_pct, 95.0);
        let s = summarize((1..=2000).map(f64::from).collect());
        assert_eq!(s.tail, 1980.0);
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(summarize(vec![3.0, 1.0]).tail, 3.0);
        let s = summarize_rounds(vec![vec![1.0, 2.0, 3.0], vec![10.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!((s.n, s.p50, s.tail, s.rounds), (7, 2.0, 3.0, 3));
        let rounds: Vec<Vec<f64>> = (1..=15)
            .map(|r| (0..20).map(|i| f64::from(r * 100 - i)).collect())
            .collect();
        let s = summarize_rounds(rounds);
        assert_eq!((s.n, s.p50, s.tail, s.tail_pct), (300, 390.5, 390.0, 50.0));
    }

    #[test]
    fn json_is_finite() {
        let mut m = Metrics::default();
        m.put("a", 1.25, "ms");
        m.put("b", f64::NAN, "s");
        assert_eq!(
            m.to_json(),
            "{\"a\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 0, \"unit\": \"s\"}}"
        );
    }
}
