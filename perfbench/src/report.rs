//! What one run prints: a human-readable report line by line, and as
//! the last line of standard output one JSON object with the verdict,
//! the request counts and every metric by name and unit.

use crate::drive::Tally;
use crate::stats::Samples;
use std::fmt::Write as _;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

#[derive(Debug, Default)]
pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    pub mismatches: Vec<String>,
}

impl Report {
    /// Records a metric and prints it with `detail` (e.g. its sample count).
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        detail: &str,
    ) {
        let name = name.into();
        println!("  {name:<34} {value:>14.4} {unit:<7} {detail}");
        self.metrics.push(Metric { name, unit, value });
    }

    /// Records the median of `samples`, printed with its sample count.
    pub fn sample_median(&mut self, name: &str, unit: &'static str, samples: &Samples) {
        let detail = format!("(median, n={})", samples.len());
        self.metric(name, unit, samples.median(), &detail);
    }

    /// Records the median of a metric's values over slices or windows.
    pub fn median(
        &mut self,
        name: &str,
        unit: &'static str,
        values: &[f64],
        over: &str,
        detail: &str,
    ) {
        let detail = format!(
            "(median of {} {over}, range {:.4}..{:.4}, {detail})",
            values.len(),
            crate::stats::quantile(values, 0.0),
            crate::stats::quantile(values, 1.0)
        );
        self.metric(name, unit, crate::stats::quantile(values, 0.5), &detail);
    }

    /// Records a failed correctness check.
    pub fn mismatch(&mut self, what: impl Into<String>) {
        let what = what.into();
        println!("  MISMATCH: {what}");
        self.mismatches.push(what);
    }

    /// Prints one phase's request counts and folds them into the run's.
    pub fn phase(&mut self, phase: &str, tally: Tally) {
        println!(
            "  [{phase}] sent={} ok={} failed={} shed={}",
            tally.sent, tally.ok, tally.failed, tally.shed
        );
        self.tally.add(tally);
    }

    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// The contract line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.tally.sent.max(1),
            self.tally.failed + self.tally.shed,
        )
    }
}

/// A finite number in full precision; JSON has no NaN, so a quantity
/// that could not be measured becomes 0 (and its absence was printed).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// Minimal JSON string escaping for provenance values.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report::default();
        r.phase("x", Tally { sent: 4, ok: 3, failed: 0, shed: 1 });
        r.metric("p50_ms", "ms", 1.25, "");
        let line = r.json();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 1, \"metrics\": \
             {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        r.mismatch("logits differ");
        assert!(r.json().starts_with("{\"correct\": false"));
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\u000a\"");
    }
}
