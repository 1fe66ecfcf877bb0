//! Sample statistics, the per-layer span recorder, and the metric set a run
//! prints.

use std::collections::BTreeMap;
use std::time::Instant;

/// Samples of one quantity (latencies in milliseconds, unless noted).
#[derive(Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        sorted
    }

    /// The median (mean of the two middle samples for an even count).
    pub fn median(&self) -> f64 {
        let sorted = self.sorted();
        let n = sorted.len();
        if n == 0 {
            return 0.0;
        }
        if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        }
    }

    /// The tail latency: the nearest-rank 90th percentile when at least ten
    /// samples lie beyond it, otherwise the highest nearest-rank percentile
    /// that still has ten samples beyond it.  Returns the value and the
    /// percentile actually used.  With fewer than eleven samples the
    /// maximum is returned as percentile 100.
    pub fn tail(&self) -> (f64, f64) {
        let sorted = self.sorted();
        let n = sorted.len();
        if n == 0 {
            return (0.0, 0.0);
        }
        if n < 11 {
            return (sorted[n - 1], 100.0);
        }
        let p90_rank = (9 * n).div_ceil(10);
        if p90_rank <= n - 10 {
            return (sorted[p90_rank - 1], 90.0);
        }
        let rank = n - 10;
        (sorted[rank - 1], 100.0 * rank as f64 / n as f64)
    }
}

/// Milliseconds elapsed since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// The layer times of one traced operation: every call into a layer's
/// public function is timed from outside and accumulated under the layer's
/// metric name.
#[derive(Default)]
pub struct Span {
    layers: BTreeMap<&'static str, f64>,
}

impl Span {
    /// Times `f` and charges its duration to `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        *self.layers.entry(layer).or_insert(0.0) += ms_since(start);
        out
    }

    /// Charges an already measured duration to `layer`.
    pub fn charge(&mut self, layer: &'static str, ms: f64) {
        *self.layers.entry(layer).or_insert(0.0) += ms;
    }

    pub fn get(&self, layer: &str) -> f64 {
        self.layers.get(layer).copied().unwrap_or(0.0)
    }
}

/// The traced operations of one run, by operation kind.  Each traced
/// operation contributes its per-layer times and their sum; the report
/// compares that sum with the untraced latency of the same kind.
#[derive(Default)]
pub struct Trace {
    /// Per kind: the per-operation layer sums.
    sums: BTreeMap<&'static str, Samples>,
    /// Per layer: the time of every traced operation that called it.
    layers: BTreeMap<&'static str, Samples>,
}

impl Trace {
    pub fn add(&mut self, kind: &'static str, span: Span) {
        let mut total = 0.0;
        for (layer, ms) in span.layers {
            self.layers.entry(layer).or_default().push(ms);
            total += ms;
        }
        self.sums.entry(kind).or_default().push(total);
    }

    pub fn ops(&self, kind: &str) -> usize {
        self.sums.get(kind).map_or(0, Samples::len)
    }

    /// Total time charged to `layer` over every traced operation.
    pub fn layer_total(&self, layer: &str) -> f64 {
        self.layers.get(layer).map_or(0.0, Samples::sum)
    }

    /// Records every layer's median time per calling operation as
    /// `<layer>` and, per kind, `<kind>.layers_ms` (median per-operation
    /// layer sum), `<kind>.untraced_ms` (median untraced latency) and
    /// `<kind>.unattributed_ms` (their difference: time no timed layer
    /// call accounts for, such as parallel fan-out and queueing).
    pub fn report(&self, untraced: &BTreeMap<&'static str, Samples>, metrics: &mut Metrics) {
        for (layer, samples) in &self.layers {
            metrics.set(layer, samples.median(), "ms");
        }
        for (kind, sums) in &self.sums {
            let layered = sums.median();
            let untraced = untraced.get(kind).map_or(0.0, Samples::median);
            metrics.set(&format!("{kind}.layers_ms"), layered, "ms");
            metrics.set(&format!("{kind}.untraced_ms"), untraced, "ms");
            metrics.set(&format!("{kind}.unattributed_ms"), untraced - layered, "ms");
        }
    }
}

/// The metrics of one run, by name, with their units.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.insert(name.to_string(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|(value, _)| *value)
    }

    /// The value and the unit it was measured in.
    pub fn get_with_unit(&self, name: &str) -> Option<(f64, &'static str)> {
        self.values.get(name).copied()
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: impl IntoIterator<Item = u32>) -> Samples {
        let mut s = Samples::default();
        for v in values {
            s.push(f64::from(v));
        }
        s
    }

    #[test]
    fn tail_is_p90_when_ten_samples_lie_beyond_it() {
        let s = samples(1..=100);
        assert_eq!(s.tail(), (90.0, 90.0));
        assert_eq!(s.median(), 50.5);
    }

    #[test]
    fn tail_falls_back_to_the_highest_percentile_with_ten_beyond() {
        let s = samples(1..=72);
        let (value, percentile) = s.tail();
        assert_eq!(value, 62.0);
        assert!((percentile - 100.0 * 62.0 / 72.0).abs() < 1e-9);
    }

    #[test]
    fn trace_reports_layer_medians_and_unattributed_time() {
        let mut trace = Trace::default();
        for ms in [2.0, 4.0] {
            let mut span = Span::default();
            span.charge("a_ms", ms);
            span.charge("b_ms", 1.0);
            trace.add("op", span);
        }
        let mut untraced = BTreeMap::new();
        untraced.insert("op", samples([5, 7]));
        let mut metrics = Metrics::default();
        trace.report(&untraced, &mut metrics);
        assert_eq!(metrics.get("a_ms"), Some(3.0));
        assert_eq!(metrics.get("op.layers_ms"), Some(4.0));
        assert_eq!(metrics.get("op.unattributed_ms"), Some(2.0));
    }
}
