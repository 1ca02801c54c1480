//! Named metrics and the one-line JSON result the benchmark prints last.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name: letters, digits, `_`, `.` and `-`, starting with a letter or
    /// digit, at most 64 characters.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, e.g. `s`, `Mcyc/s`, `count`.
    pub unit: &'static str,
}

/// An ordered set of metrics.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    items: Vec<Metric>,
}

impl Metrics {
    /// Adds a metric. A name may be used once.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(valid_name(&name), "invalid metric name {name:?}");
        assert!(
            self.items.iter().all(|m| m.name != name),
            "metric {name:?} reported twice"
        );
        self.items.push(Metric { name, value, unit });
    }

    /// The metrics in insertion order.
    pub fn items(&self) -> &[Metric] {
        &self.items
    }

    /// Names of the metrics whose value is not a finite number.
    pub fn non_finite(&self) -> Vec<&str> {
        self.items
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| m.name.as_str())
            .collect()
    }
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// letters, digits, `_`, `.` and `-`, the first a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let first_ok = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The result line: `correct`, `attempted`, `failed` and every metric as
/// `{"value": v, "unit": u}`. Non-finite values print as `null`; the
/// caller marks such a run incorrect.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.items().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if m.value.is_finite() {
            format!("{:?}", m.value)
        } else {
            "null".to_string()
        };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// order statistics. `values` must be non-empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_contract() {
        for ok in [
            "wall_s",
            "dram.ns_per_request",
            "sim.speedup.Attache",
            "9x",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "a:b", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn duplicate_names_are_refused() {
        let mut m = Metrics::default();
        m.push("x", 1.0, "s");
        m.push("x", 2.0, "s");
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.push("wall_s", 1.25, "s");
        m.push("bad", f64::NAN, "s");
        let line = result_json(true, 3, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"bad\": {\"value\": null, \"unit\": \"s\"}}}"
        );
        assert_eq!(m.non_finite(), vec!["bad"]);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&(1..=11).map(f64::from).collect::<Vec<_>>(), 0.9) - 10.0).abs() < 1e-12);
    }
}
