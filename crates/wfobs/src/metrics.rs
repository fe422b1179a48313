//! Deterministic metrics registry: counters, fixed-bucket histograms and
//! per-resource time-series.
//!
//! Everything here is sampled on *event boundaries* — a metric moves only
//! when an [`Event`](crate::event::Event) is emitted, never on wall clock —
//! so two same-seed runs produce byte-identical metric dumps.

use std::collections::BTreeMap;

use crate::text::{push_f64, push_scaled, push_u64};

/// A fixed-bucket histogram. Bucket upper bounds are chosen at
/// construction; values above the last bound land in an overflow bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Inclusive upper bound of each bucket, ascending.
    pub bounds: Vec<u64>,
    /// `bounds.len() + 1` counts; the last is the overflow bucket.
    pub counts: Vec<u64>,
    /// Total of all observed values (for means).
    pub sum: u64,
    /// Number of observations.
    pub n: u64,
}

impl Histogram {
    /// A histogram with the given ascending bucket bounds.
    pub fn new(bounds: &[u64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0,
            n: 0,
        }
    }

    /// Record one value.
    pub fn observe(&mut self, v: u64) {
        let ix = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[ix] += 1;
        self.sum += v;
        self.n += 1;
    }
}

/// One point of a per-resource time series: simulated time and value.
pub type SeriesPoint = (u64, f64);

/// The metrics registry. All maps are `BTreeMap` so iteration (and hence
/// CSV output) is deterministic.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
    series: BTreeMap<String, Vec<SeriesPoint>>,
}

impl Metrics {
    /// Add `by` to a named counter.
    pub fn count(&mut self, name: &'static str, by: u64) {
        *self.counters.entry(name).or_insert(0) += by;
    }

    /// Record a value into a named histogram, creating it with the given
    /// bounds on first use.
    pub fn observe(&mut self, name: &'static str, bounds: &[u64], v: u64) {
        self.histograms
            .entry(name)
            .or_insert_with(|| Histogram::new(bounds))
            .observe(v);
    }

    /// Append a time-series point, skipping exact duplicates of the last
    /// sample (event boundaries often re-sample an unchanged value).
    pub fn sample(&mut self, series: &str, t_nanos: u64, v: f64) {
        let pts = match self.series.get_mut(series) {
            Some(p) => p,
            None => {
                self.series.insert(series.to_owned(), Vec::new());
                self.series.get_mut(series).expect("just inserted")
            }
        };
        if pts.last().is_some_and(|&(lt, lv)| lt == t_nanos && lv == v) {
            return;
        }
        pts.push((t_nanos, v));
    }

    /// Read a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Read a histogram.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Read a time series.
    pub fn series(&self, name: &str) -> Option<&[SeriesPoint]> {
        self.series.get(name).map(Vec::as_slice)
    }

    /// All series with their points, sorted by name.
    pub fn all_series(&self) -> impl Iterator<Item = (&str, &[SeriesPoint])> {
        self.series.iter().map(|(k, v)| (k.as_str(), v.as_slice()))
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> {
        self.histograms.iter().map(|(&k, v)| (k, v))
    }

    /// Render the whole registry as CSV: one section per metric family.
    /// Times are seconds with nanosecond precision.
    pub fn to_csv(&self) -> String {
        let rows: usize = self.histograms.values().map(|h| h.counts.len() + 2).sum();
        let series: usize = self
            .series
            .iter()
            .map(|(name, pts)| pts.len() * (name.len() + 32))
            .sum();
        let mut out = String::with_capacity(64 * (self.counters.len() + rows) + series + 32);
        out.push_str("kind,name,field,value\n");
        for (name, &v) in &self.counters {
            out.push_str("counter,");
            out.push_str(name);
            out.push_str(",value,");
            push_u64(&mut out, v);
            out.push('\n');
        }
        for (name, h) in &self.histograms {
            let mut row = |field: &str, bound: Option<u64>, v: u64| {
                out.push_str("histogram,");
                out.push_str(name);
                out.push(',');
                out.push_str(field);
                if let Some(b) = bound {
                    push_u64(&mut out, b);
                }
                out.push(',');
                push_u64(&mut out, v);
                out.push('\n');
            };
            for (i, &c) in h.counts.iter().enumerate() {
                match h.bounds.get(i) {
                    Some(&b) => row("le=", Some(b), c),
                    None => row("le=+inf", None, c),
                }
            }
            row("sum", None, h.sum);
            row("count", None, h.n);
        }
        for (name, pts) in &self.series {
            for &(t, v) in pts {
                out.push_str("series,");
                out.push_str(name);
                out.push_str(",t=");
                push_scaled(&mut out, t, 9);
                out.push(',');
                push_f64(&mut out, v);
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(&[10, 100]);
        h.observe(5);
        h.observe(10);
        h.observe(50);
        h.observe(1000);
        assert_eq!(h.counts, vec![2, 1, 1]);
        assert_eq!(h.n, 4);
        assert_eq!(h.sum, 1065);
    }

    #[test]
    fn series_dedups_identical_consecutive_points() {
        let mut m = Metrics::default();
        m.sample("q", 10, 1.0);
        m.sample("q", 10, 1.0);
        m.sample("q", 20, 1.0);
        m.sample("q", 20, 2.0);
        assert_eq!(m.series("q").unwrap(), &[(10, 1.0), (20, 1.0), (20, 2.0)]);
    }

    #[test]
    fn empty_series_reads_and_renders_as_absent() {
        let m = Metrics::default();
        assert!(m.series("never_sampled").is_none());
        assert_eq!(m.all_series().count(), 0);
        // CSV carries the header only — no phantom series rows.
        assert_eq!(m.to_csv(), "kind,name,field,value\n");
    }

    #[test]
    fn single_sample_series_round_trips() {
        let mut m = Metrics::default();
        m.sample("lonely", 0, 0.0);
        assert_eq!(m.series("lonely").unwrap(), &[(0, 0.0)]);
        let names: Vec<&str> = m.all_series().map(|(name, _)| name).collect();
        assert_eq!(names, vec!["lonely"]);
        assert!(m.to_csv().contains("series,lonely,t=0.000000000,0\n"));
    }

    #[test]
    fn final_tick_at_run_end_dedups_only_exact_duplicates() {
        // A run whose last metric tick lands exactly on the final event
        // time: the flush-time re-sample of an unchanged value must not
        // double the last point, but a changed value at the same instant
        // must still be recorded.
        let mut m = Metrics::default();
        let end = 5_000_000_000;
        m.sample("q", 1_000_000_000, 3.0);
        m.sample("q", end, 1.0);
        m.sample("q", end, 1.0); // flush re-sample, unchanged → dropped
        assert_eq!(m.series("q").unwrap(), &[(1_000_000_000, 3.0), (end, 1.0)]);
        m.sample("q", end, 0.0); // same instant, new value → kept
        assert_eq!(
            m.series("q").unwrap(),
            &[(1_000_000_000, 3.0), (end, 1.0), (end, 0.0)]
        );
    }

    #[test]
    fn csv_is_deterministic_and_sectioned() {
        let mut m = Metrics::default();
        m.count("b_counter", 2);
        m.count("a_counter", 1);
        m.observe("h", &[1], 3);
        m.sample("s", 1_500_000_000, 4.0);
        let csv = m.to_csv();
        let a = csv.find("counter,a_counter").unwrap();
        let b = csv.find("counter,b_counter").unwrap();
        assert!(a < b, "counters must be sorted");
        assert!(csv.contains("histogram,h,le=+inf,1"));
        assert!(csv.contains("series,s,t=1.500000000,4"));
        assert_eq!(csv, m.to_csv());
    }
}
