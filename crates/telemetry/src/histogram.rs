//! Log₂-bucketed histograms for latency-style distributions.
//!
//! A [`Histogram`] records `u64` samples into power-of-two buckets: bucket
//! 0 holds the value 0, bucket `i` (for `i ≥ 1`) holds values in
//! `[2^(i-1), 2^i - 1]`. This matches how page-walk latencies spread —
//! a PWC-assisted walk costs tens of cycles, a cold four-level walk with
//! DRAM PTE reads costs hundreds — so one log₂ bucket per doubling keeps
//! the whole distribution in ~16 counters with no configuration.
//!
//! Like every observability type in this crate, recording never touches
//! the simulated clock or any performance counter.

use crate::counters::{read_field, Cumulative, Field, FieldError};
use crate::json::{JsonObject, JsonValue};

/// A log₂-bucketed histogram of `u64` samples.
///
/// The bucket vector only grows as large as the biggest sample requires,
/// so an empty histogram allocates nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index for a value: 0 for 0, else `ilog2(v) + 1`.
    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            v.ilog2() as usize + 1
        }
    }

    /// Inclusive `[lo, hi]` value range covered by bucket `i`.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        if i == 0 {
            (0, 0)
        } else {
            let lo = 1u64 << (i - 1);
            let hi = if i >= 64 { u64::MAX } else { (1u64 << i) - 1 };
            (lo, hi)
        }
    }

    /// Record one sample. The running sum saturates rather than wrap, so
    /// pathological values (e.g. `u64::MAX` sentinels) cannot corrupt it.
    pub fn record(&mut self, v: u64) {
        let b = Self::bucket_of(v);
        if b >= self.buckets.len() {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Per-bucket counts, lowest bucket first.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (dst, src) in self.buckets.iter_mut().zip(&other.buckets) {
            *dst += src;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (`q` in `[0, 1]`), or `None` when empty. A log₂ histogram can only
    /// answer to bucket granularity; the bound is conservative (≥ the true
    /// quantile).
    pub fn quantile_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_bounds(i).1);
            }
        }
        Some(Self::bucket_bounds(self.buckets.len().saturating_sub(1)).1)
    }

    /// Serialize as a JSON object: `{"count":…,"sum":…,"buckets":[…]}`.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_u64("count", self.count)
            .field_u64("sum", self.sum)
            .field_raw("buckets", &self.buckets.json());
        o.finish()
    }

    /// Rebuild from a parsed [`JsonValue`] (inverse of [`Self::to_json`]).
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or mistyped field.
    pub fn from_json_value(v: &JsonValue) -> Result<Self, String> {
        Self::from_json(v).map_err(|e| format!("histogram: {e}"))
    }

    /// CSV rendering: `bucket_lo,bucket_hi,count` rows, header included.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("bucket_lo,bucket_hi,count\n");
        for (i, &c) in self.buckets.iter().enumerate() {
            let (lo, hi) = Self::bucket_bounds(i);
            out.push_str(&format!("{lo},{hi},{c}\n"));
        }
        out
    }
}

/// `since` yields the samples recorded in between (trailing empty
/// buckets dropped, so `h.since(&h)` is empty); `accumulate` merges.
impl Cumulative for Histogram {
    fn since(&self, earlier: &Histogram) -> Histogram {
        let mut buckets: Vec<u64> = self
            .buckets
            .iter()
            .enumerate()
            .map(|(i, &b)| b - earlier.buckets.get(i).copied().unwrap_or(0))
            .collect();
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        Histogram {
            buckets,
            count: self.count - earlier.count,
            sum: self.sum - earlier.sum,
        }
    }

    fn accumulate(&mut self, delta: &Histogram) {
        self.merge(delta);
    }
}

impl Field for Histogram {
    fn json(&self) -> String {
        self.to_json()
    }

    fn from_json(v: &JsonValue) -> Result<Self, FieldError> {
        Ok(Histogram {
            buckets: read_field(v, "buckets")?,
            count: read_field(v, "count")?,
            sum: read_field(v, "sum")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_partition_u64() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        for i in 0..=64usize {
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert_eq!(Histogram::bucket_of(lo), i);
            assert_eq!(Histogram::bucket_of(hi), i);
            assert!(lo <= hi);
        }
    }

    #[test]
    fn record_accumulates_count_sum_and_buckets() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 100, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 206);
        assert_eq!(h.buckets()[0], 1); // 0
        assert_eq!(h.buckets()[1], 1); // 1
        assert_eq!(h.buckets()[2], 2); // 2, 3
        assert_eq!(h.buckets()[7], 2); // 100 ∈ [64,127]
        assert!((h.mean() - 206.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn merge_matches_recording_into_one() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for v in [5, 9, 1000] {
            a.record(v);
            whole.record(v);
        }
        for v in [0, 7, 64, 1 << 40] {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn quantile_bound_is_conservative() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile_bound(0.5), None);
        for v in 1..=100u64 {
            h.record(v);
        }
        // p50 of 1..=100 is 50 → bucket [32,63] upper bound 63.
        assert_eq!(h.quantile_bound(0.5), Some(63));
        assert_eq!(h.quantile_bound(1.0), Some(127));
        assert!(h.quantile_bound(0.5).unwrap() >= 50);
    }

    #[test]
    fn json_round_trip_is_byte_identical() {
        let mut h = Histogram::new();
        for v in [0, 3, 17, 900, u64::MAX] {
            h.record(v);
        }
        let text = h.to_json();
        let back = Histogram::from_json_value(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(back, h);
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn empty_histogram_round_trips() {
        let h = Histogram::new();
        let back = Histogram::from_json_value(&JsonValue::parse(&h.to_json()).unwrap()).unwrap();
        assert_eq!(back, h);
        assert_eq!(h.to_csv(), "bucket_lo,bucket_hi,count\n");
    }

    #[test]
    fn csv_lists_every_bucket_up_to_max_sample() {
        let mut h = Histogram::new();
        h.record(9); // bucket 4: [8,15]
        let csv = h.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 6); // header + buckets 0..=4
        assert_eq!(lines[5], "8,15,1");
    }
}
