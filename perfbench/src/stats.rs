//! Order statistics and the rendering of a benchmark result.

use std::collections::BTreeMap;

/// The median of `values` (mean of the middle two for an even count).
/// Panics on an empty slice: every metric has at least one repetition.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in `[0, 1]`) of an ascending slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Is `name` a valid metric name: a letter or digit first, then at most 63
/// more letters, digits, `_`, `.` or `-`?
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Named metrics with units, kept in name order.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    /// Record `name`. Panics if the name is malformed or already recorded,
    /// which would be a bug in the benchmark itself.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(valid_name(&name), "malformed metric name {name:?}");
        assert!(self.values.insert(name.clone(), (value, unit)).is_none(), "{name} recorded twice");
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|&(v, _)| v)
    }

    /// Metric names, in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.values.keys().map(String::as_str)
    }

    /// Names whose value is not a finite number (and so cannot be
    /// rendered as JSON).
    pub fn non_finite(&self) -> Vec<&str> {
        self.values.iter().filter(|(_, (v, _))| !v.is_finite()).map(|(k, _)| k.as_str()).collect()
    }

    /// The `{"name": {"value": v, "unit": u}, ...}` JSON object. Values are
    /// printed with every digit Rust's shortest round-trip form needs; check
    /// [`Self::non_finite`] first, as JSON has no NaN or infinity.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .values
            .iter()
            .map(|(name, (value, unit))| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The result line the benchmark prints last.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {}}}",
        metrics.to_json()
    )
}
