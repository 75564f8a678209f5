//! Run results, the statistics drawn from them, and the printed report:
//! a human-readable table, then one JSON object as the last line.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Request tallies for one measured phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Requests (or jobs) sent.
    pub attempted: u64,
    /// Answered with every point evaluated.
    pub succeeded: u64,
    /// Answered with an error or failed points.
    pub failed: u64,
    /// Refused by admission control.
    pub refused: u64,
}

/// What one invocation prints: a human-readable text, then the JSON
/// line's fields.
pub struct Output {
    /// The human-readable report.
    pub text: String,
    /// Every output check passed.
    pub correct: bool,
    /// Requests (or jobs) attempted.
    pub attempted: u64,
    /// Requests that failed or were refused.
    pub failed: u64,
    /// The metrics, by name.
    pub metrics: Vec<Metric>,
}

/// Length of one throughput window.
const RATE_WINDOW: Duration = Duration::from_secs(1);

/// Throughput in consecutive one-second windows of a measured phase. A
/// partial window at the end is dropped.
pub struct RateWindows {
    start: Instant,
    points: u64,
    /// Points per second of each whole window.
    pub rates: Vec<f64>,
}

impl RateWindows {
    /// Starts the first window now.
    pub fn new() -> Self {
        RateWindows {
            start: Instant::now(),
            points: 0,
            rates: Vec::new(),
        }
    }

    /// Counts `points` just completed, closing the window when it is
    /// full.
    pub fn add(&mut self, points: u64) {
        self.points += points;
        let elapsed = self.start.elapsed();
        if elapsed >= RATE_WINDOW {
            self.rates.push(self.points as f64 / elapsed.as_secs_f64());
            self.start = Instant::now();
            self.points = 0;
        }
    }
}

/// What a measured phase (or several, joined) saw.
#[derive(Default)]
pub struct Load {
    /// Per-request (per-job) latency, nanoseconds.
    pub lat_ns: Vec<u64>,
    /// Request tallies.
    pub counts: Counts,
    /// Points (Monte Carlo samples) in fully answered requests.
    pub points: u64,
    /// Points per second of each whole throughput window.
    pub rates: Vec<f64>,
    /// Measured wall time.
    pub elapsed: Duration,
}

impl Load {
    /// Points per second: the median whole window, or the whole phase's
    /// average when it was too short for a whole window.
    pub fn rate(&self) -> f64 {
        if self.rates.is_empty() {
            self.points as f64 / self.elapsed.as_secs_f64()
        } else {
            median(&self.rates)
        }
    }

    /// Appends another phase's results.
    pub fn extend(&mut self, other: Load) {
        self.lat_ns.extend(other.lat_ns);
        self.counts.attempted += other.counts.attempted;
        self.counts.succeeded += other.counts.succeeded;
        self.counts.failed += other.counts.failed;
        self.counts.refused += other.counts.refused;
        self.points += other.points;
        self.rates.extend(other.rates);
        self.elapsed += other.elapsed;
    }
}

/// One untraced run of a workload.
#[derive(Default)]
pub struct Run {
    /// Seconds per set-up round.
    pub setup_times: Vec<f64>,
    /// The measured load.
    pub load: Load,
    /// Peak resident set of each process that carried load, KiB.
    pub rss_kib: Vec<u64>,
    /// Outputs compared by the correctness check.
    pub checked: usize,
    /// What the correctness check found wrong.
    pub mismatches: Vec<String>,
}

/// The `q`-quantile (`0..=1`) of `values` by nearest rank.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// One named metric with its unit.
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

impl Run {
    /// The four end-to-end metrics: the median set-up round, the median
    /// request latency, the median throughput window, and the highest
    /// peak resident set among the loaded processes. Peak memory is
    /// bimodal per process (a worker thread's heap arena does or does
    /// not grow under the load), so the run reports the high mode, which
    /// nearly every run reaches, instead of a median or mean that moves
    /// with how many processes landed in each mode.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let lat_ms: Vec<f64> = self.load.lat_ns.iter().map(|&n| n as f64 * 1e-6).collect();
        let rss_kib = self.rss_kib.iter().copied().max().unwrap_or(0);
        vec![
            Metric::new("setup_s", median(&self.setup_times), "s"),
            Metric::new("lat_p50_ms", median(&lat_ms), "ms"),
            Metric::new("points_per_s", self.load.rate(), "points/s"),
            Metric::new("rss_peak_mib", rss_kib as f64 / 1024.0, "MiB"),
        ]
    }

    /// The printed output of this run.
    pub fn output(&self, workload: &str) -> Output {
        Output {
            text: self.describe(workload),
            correct: self.mismatches.is_empty(),
            attempted: self.load.counts.attempted,
            failed: self.load.counts.failed + self.load.counts.refused,
            metrics: self.end_to_end(),
        }
    }

    /// The human-readable lines for this run.
    pub fn describe(&self, workload: &str) -> String {
        let lat_ms: Vec<f64> = self.load.lat_ns.iter().map(|&n| n as f64 * 1e-6).collect();
        let mut s = String::new();
        let _ = writeln!(s, "workload {workload}");
        for m in self.end_to_end() {
            let _ = writeln!(s, "  {:<14} {:>14.6} {}", m.name, m.value, m.unit);
        }
        let _ = writeln!(
            s,
            "  lat_p99_ms     {:>14.6} ms (not gated; {} samples, {} beyond p99)",
            quantile(&lat_ms, 0.99),
            lat_ms.len(),
            lat_ms.len() / 100
        );
        let _ = writeln!(
            s,
            "  setup rounds   {}",
            self.setup_times
                .iter()
                .map(|t| format!("{t:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        let _ = writeln!(
            s,
            "  throughput     {:.1} points/s over the whole phase; window quartiles {:.1} {:.1} {:.1}",
            self.load.points as f64 / self.load.elapsed.as_secs_f64(),
            quantile(&self.load.rates, 0.25),
            quantile(&self.load.rates, 0.5),
            quantile(&self.load.rates, 0.75)
        );
        let _ = writeln!(
            s,
            "  peak RSS       {} KiB per loaded process",
            self.rss_kib
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(" ")
        );
        let c = self.load.counts;
        let _ = writeln!(
            s,
            "  requests       attempted {} succeeded {} failed {} refused {}",
            c.attempted, c.succeeded, c.failed, c.refused
        );
        let _ = writeln!(
            s,
            "  check          {} outputs compared, {} mismatches",
            self.checked,
            self.mismatches.len()
        );
        for m in &self.mismatches {
            let _ = writeln!(s, "  MISMATCH       {m}");
        }
        s
    }
}

/// The final JSON line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let value = if m.value.is_finite() {
            format!("{:?}", m.value)
        } else {
            "null".to_string()
        };
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_by_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(true, 3, 0, &[Metric::new("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
