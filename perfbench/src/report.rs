//! Collects a run's metrics, checks and notes, and prints them: every
//! metric by name with its unit (and sample count) for a reader, then
//! the one-line JSON result as the last line of standard output.

use std::fmt::Write as _;

use crate::probe::Probe;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: Option<usize>,
}

#[derive(Default)]
pub struct Report {
    end_to_end: Vec<Metric>,
    gated: Vec<(&'static str, f64)>,
    layers: Vec<Metric>,
    notes: Vec<String>,
    failures: Vec<String>,
    scale: String,
    attempted: u64,
    divergent: Vec<String>,
}

impl Report {
    /// An end-to-end metric, with the number of samples behind it.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        self.end_to_end.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// The value of one of the end-to-end metrics `BENCHMARK.json`
    /// gates, under its gated name.
    pub fn gate(&mut self, name: &'static str, value: f64) {
        self.gated.push((name, value));
    }

    pub fn gated(&self, name: &str) -> Option<f64> {
        self.gated.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// `setup_s`: the median of the run's set-up times, all of which
    /// are listed in a note.
    pub fn setup(&mut self, times_s: &[f64]) {
        let median = crate::stats::median(times_s);
        self.e2e("setup_s", median, "s", Some(times_s.len()));
        self.gate("setup_s", median);
        let all: Vec<String> = times_s.iter().map(|t| format!("{t:.4}")).collect();
        self.note(format!("set-up times (s): {}", all.join(" ")));
    }

    /// The gated `op_cost`: `cpu_ms` of process CPU time per operation,
    /// over `ops` operations, in units of the probe's median CPU time over
    /// the run. Its two parts are printed with it.
    pub fn op_cost(&mut self, cpu_ms: f64, ops: usize, probe: &Probe) {
        let probe_ms = probe.median_s() * 1e3;
        let cost = cpu_ms / probe_ms;
        self.e2e("cpu_ms_per_op", cpu_ms, "ms", Some(ops));
        self.e2e("probe_ms", probe_ms, "ms", Some(probe.samples()));
        self.e2e("op_cost", cost, "probes", Some(ops));
        self.gate("op_cost", cost);
    }

    /// A per-layer metric from the traced run.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples: None,
        });
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    pub fn scale(&mut self, scale: String) {
        self.scale = scale;
    }

    pub fn scale_text(&self) -> &str {
        &self.scale
    }

    /// Counts one failed operation or wrong output, with its reason.
    pub fn fail(&mut self, reason: String) {
        self.failures.push(reason);
    }

    /// Counts a response that differs from its reference only in the
    /// representative `counts` of tied optimal programs (see
    /// `serve::Match::CountsOnly`).
    pub fn diverged(&mut self, what: String) {
        self.divergent.push(what);
    }

    pub fn divergent(&self) -> usize {
        self.divergent.len()
    }

    pub fn attempted(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Failed operations and wrong outputs over attempted operations.
    pub fn error_rate(&self) -> f64 {
        self.failures.len() as f64 / self.attempted.max(1) as f64
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.attempted > 0
    }

    pub fn layers(&self) -> &[Metric] {
        &self.layers
    }

    /// The human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "scale: {}", self.scale);
        let _ = writeln!(out, "end-to-end:");
        for m in &self.end_to_end {
            let n = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
            let _ = writeln!(out, "  {:<24} {:>14.6} {}{n}", m.name, m.value, m.unit);
        }
        if !self.layers.is_empty() {
            let _ = writeln!(out, "per-layer:");
            for m in &self.layers {
                let _ = writeln!(out, "  {:<34} {:>14.6} {}", m.name, m.value, m.unit);
            }
        }
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        let _ = writeln!(
            out,
            "checks: attempted={} failed={}",
            self.attempted,
            self.failures.len()
        );
        for f in self.failures.iter().take(20) {
            let _ = writeln!(out, "  FAILED: {f}");
        }
        let _ = writeln!(
            out,
            "known defect: {} response(s) differ from their reference only in the representative \
             `counts` of tied optimal programs (not counted as failures)",
            self.divergent.len()
        );
        for d in self.divergent.iter().take(5) {
            let _ = writeln!(out, "  COUNTS DIFFER: {d}");
        }
        out
    }

    /// The result line: `metrics` holds exactly the given (name, value,
    /// unit) triples.
    pub fn json_line(&self, metrics: &[(&str, f64, &str)]) -> String {
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!(r#""{name}":{{"value":{v:?},"unit":"{unit}"}}"#)
            })
            .collect();
        format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.correct(),
            self.attempted.max(1),
            self.failures.len(),
            body.join(",")
        )
    }
}
