//! What one benchmark run prints: named metrics with units, the count of
//! operations attempted and failed, and whether every output check held.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of running one workload (or the traced run).
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// One line per output check that did not hold.
    pub violations: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON result (sample
    /// counts, reference figures, the per-layer table).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records a check: `Err` keeps its message as a violation.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(msg) = result {
            // A broken check usually breaks on every round; keep the
            // first few messages, count the rest.
            if self.violations.len() < 20 {
                self.violations.push(msg);
            } else if self.violations.len() == 20 {
                self.violations
                    .push("further violations omitted".to_owned());
            }
        }
    }

    #[must_use]
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// Adds another outcome's counts, violations and metrics.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.violations.extend(other.violations);
        self.metrics.extend(other.metrics);
        self.notes.extend(other.notes);
    }

    /// The single JSON line the run ends with.
    #[must_use]
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// A finite f64 as a JSON number with every digit Rust's shortest
/// round-trip formatting gives.
#[must_use]
pub fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between
/// closest ranks. Sorts `xs` in place.
#[must_use]
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// The median of `xs` (sorts in place).
#[must_use]
pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// A duration in whole nanoseconds (saturating).
#[must_use]
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Peak resident set of this process (`VmHWM`), in MB (2^20 bytes).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The timed phase of a gated run: set-up repetitions, batch times,
/// each round's throughput, and the deadline.
///
/// The run is [`TimedPhase::EPOCHS`] epochs. Each epoch sets the
/// workload up afresh, with the previous epoch's state dropped first,
/// and then runs whole rounds until its share of `seconds` has passed.
/// `setup_s` is the median of the epochs' set-up times, taken across the
/// whole run rather than back to back at its start: on a shared host the
/// speed of the workloads drifts by 10–20% over a few seconds, and
/// set-ups spread over the run read through that drift.
///
/// `ops_per_s` is the median of the rounds' throughputs, not the total
/// over the run, for the same reason: a burst of a neighbour's traffic
/// slows a few rounds, and the median reads through it.
///
/// `peak_rss_mb` is read when the first epoch ends. How much of the
/// memory an epoch frees the system allocator hands back to the next
/// set-up varies from run to run, so the peak over all epochs would
/// measure the benchmark's re-set-ups rather than the workload.
pub struct TimedPhase {
    batches: NsHistogram,
    round_ns: u64,
    round_rates: Vec<f64>,
    ops: u64,
    setup_secs: Vec<f64>,
    peak_rss_mb: Option<f64>,
    start: Instant,
    seconds: f64,
}

impl TimedPhase {
    /// Set-ups per run.
    pub const EPOCHS: usize = 8;

    /// Starts the clock.
    #[must_use]
    pub fn start(seconds: f64) -> TimedPhase {
        TimedPhase {
            batches: NsHistogram::new(),
            round_ns: 0,
            round_rates: Vec::new(),
            ops: 0,
            setup_secs: Vec::with_capacity(Self::EPOCHS),
            peak_rss_mb: None,
            start: Instant::now(),
            seconds,
        }
    }

    /// Starts the next epoch by timing `setup`, or returns `None` when
    /// every epoch has run. Drop the previous epoch's state before
    /// calling, so that each set-up starts from the same footprint.
    pub fn set_up<T>(&mut self, setup: impl FnOnce() -> T) -> Option<T> {
        if self.setup_secs.len() == 1 {
            self.peak_rss_mb = Some(peak_rss_mb());
        }
        if self.setup_secs.len() == Self::EPOCHS {
            return None;
        }
        let t = Instant::now();
        let state = setup();
        self.setup_secs.push(t.elapsed().as_secs_f64());
        Some(state)
    }

    /// Records one batch's duration.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.batches.record(ns);
        self.round_ns += ns;
    }

    /// Ends a round of `ops` operations and says whether the epoch goes
    /// on.
    pub fn next_round(&mut self, ops: u64) -> bool {
        self.ops += ops;
        self.round_rates
            .push(ops as f64 / (self.round_ns.max(1) as f64 / 1e9));
        self.round_ns = 0;
        let share = self.setup_secs.len() as f64 / Self::EPOCHS as f64;
        self.start.elapsed().as_secs_f64() < self.seconds * share
    }

    /// Emits the end-to-end metrics: throughput, set-up time, peak RSS
    /// and the batch quantiles.
    pub fn finish(mut self, out: &mut Outcome, batch: &str) {
        let whole_run = self.ops as f64 / (self.batches.total_ns() as f64 / 1e9);
        out.metric("ops_per_s", median(&mut self.round_rates), "1/s");
        out.metric("setup_s", median(&mut self.setup_secs), "s");
        let rss = self.peak_rss_mb.unwrap_or_else(peak_rss_mb);
        out.metric("peak_rss_mb", rss, "MB");
        out.metric("batch_us_p50", self.batches.quantile(0.5) / 1e3, "us");
        out.metric("batch_us_p99", self.batches.quantile(0.99) / 1e3, "us");
        out.notes.push(format!(
            "ops_per_s is the median of {} rounds (over the whole run: {whole_run:.1}); \
             setup_s the median of {} set-ups",
            self.round_rates.len(),
            Self::EPOCHS
        ));
        out.notes.push(format!(
            "batch_us_p50/p99 over {} batches of {batch}",
            self.batches.len()
        ));
    }
}

/// Durations as a log-linear histogram: exact below 256 ns, then 256
/// buckets per power of two (under 0.4% wide). Its memory is fixed, so
/// a faster run does not grow the process's peak RSS.
pub struct NsHistogram {
    counts: Vec<u64>,
    n: u64,
    total_ns: u64,
}

impl Default for NsHistogram {
    fn default() -> Self {
        NsHistogram::new()
    }
}

impl NsHistogram {
    const SUB: u64 = 256;

    #[must_use]
    pub fn new() -> NsHistogram {
        NsHistogram {
            counts: vec![0; 64 * Self::SUB as usize],
            n: 0,
            total_ns: 0,
        }
    }

    fn bucket(ns: u64) -> usize {
        if ns < Self::SUB {
            return ns as usize;
        }
        let e = 63 - u64::from(ns.leading_zeros());
        let shift = e - 8;
        ((e - 7) * Self::SUB + ((ns >> shift) & (Self::SUB - 1))) as usize
    }

    /// The lower edge and width of bucket `i`, in ns.
    fn edges(i: usize) -> (f64, f64) {
        let i = i as u64;
        if i < Self::SUB {
            return (i as f64, 1.0);
        }
        let shift = i / Self::SUB - 1;
        let lo = (Self::SUB + i % Self::SUB) << shift;
        (lo as f64, (1u64 << shift) as f64)
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.n += 1;
        self.total_ns += ns;
    }

    #[must_use]
    pub fn len(&self) -> u64 {
        self.n
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Sum of all recorded durations, ns.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.total_ns
    }

    /// The `q`-quantile: linear between the two closest ranks, each
    /// sample placed evenly within its bucket.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.n - 1) as f64;
        let (lo, hi) = (self.nth(rank.floor() as u64), self.nth(rank.ceil() as u64));
        lo + (hi - lo) * rank.fract()
    }

    /// The estimated value of the `k`-th smallest sample.
    fn nth(&self, k: u64) -> f64 {
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if below + c > k {
                let (lo, width) = Self::edges(i);
                return lo + width * ((k - below) as f64 + 0.5) / c as f64;
            }
            below += c;
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut xs), 2.5);
        assert_eq!(quantile(&mut xs, 0.0), 1.0);
        assert_eq!(quantile(&mut xs, 1.0), 4.0);
    }

    #[test]
    fn histogram_quantiles_are_within_a_bucket() {
        let mut b = NsHistogram::new();
        for ns in 1..=100_000u64 {
            b.record(ns * 7);
        }
        assert_eq!(b.len(), 100_000);
        for q in [0.01, 0.5, 0.99] {
            let exact = q * 99_999.0 * 7.0 + 7.0;
            let got = b.quantile(q);
            assert!(
                (got - exact).abs() / exact < 0.005,
                "q{q}: {got} vs {exact}"
            );
        }
        let mut small = NsHistogram::new();
        small.record(5);
        assert!((small.quantile(0.5) - 5.5).abs() < 1e-9);
    }

    #[test]
    fn json_line_has_exactly_the_four_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("ops_per_s", 12.0, "1/s");
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"ops_per_s\": {\"value\": 12.0, \"unit\": \"1/s\"}}}"
        );
        o.check(Err("broken".into()));
        assert!(o.json().starts_with("{\"correct\": false"));
    }
}
