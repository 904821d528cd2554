//! Metric names, the run outcome, and the JSON the benchmark prints.

use std::collections::BTreeMap;

/// One metric the benchmark reports: its name and unit.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics (`--trace 0`), emitted by every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("latency_p50_ms", "ms"),
    m("latency_p90_ms", "ms"),
    m("throughput_rps", "1/s"),
    m("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`). A workload whose path does not touch a
/// layer reports 0 for it and lists it under `not_exercised` in its record.
/// Time and count metrics are per operation (a discovery job, a serve
/// request, or an APPEND+MOTIFS pair) unless the unit says otherwise.
pub const PER_LAYER: &[MetricDef] = &[
    m("core.compute_mp.calls", "count/op"),
    m("core.compute_mp.busy_ms", "ms/op"),
    m("mp.stomp.busy_ms", "ms/op"),
    m("core.harvest.busy_ms", "ms/op"),
    m("core.sub_mp.calls", "count/op"),
    m("core.sub_mp.busy_ms", "ms/op"),
    m("core.valmp.busy_ms", "ms/op"),
    m("core.lb.fallback_ratio", "ratio"),
    m("core.lb.valid_row_ratio", "ratio"),
    m("core.lb.refined_rows", "count/op"),
    m("data.profile_ms", "ms"),
    m("serve.protocol.decode_us", "us/op"),
    m("serve.protocol.encode_us", "us/op"),
    m("serve.net.overhead_us", "us/op"),
    m("serve.engine.query_us", "us/op"),
    m("serve.queue.wait_us", "us"),
    m("serve.cache.hit_ratio", "ratio"),
    m("serve.fragment.hit_ratio", "ratio"),
    m("serve.fragment.evictions", "count/op"),
    m("serve.compute.calls", "count/op"),
    m("serve.compute_us", "us"),
    m("serve.fragment.extended", "count"),
    m("serve.planner.parked_states", "count"),
    m("serve.persist.append_us", "us"),
    m("serve.cmd.append_us", "us"),
    m("serve.mode.hit_share", "ratio"),
    m("serve.mode.cold_share", "ratio"),
    m("loadgen.late_ms_p90", "ms"),
    m("trace.latency_p50_ms", "ms"),
    m("trace.overhead_ms", "ms/op"),
    m("trace.untraced_ms", "ms/op"),
];

/// A JSON value, for the record and result lines.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number; non-finite values print as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Compact single-line encoding.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // `{}` prints the shortest string that reads back as the same
            // f64, so every measured digit survives.
            Json::Num(n) if n.is_finite() => out.push_str(&format!("{n}")),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed: a wrong answer, `busy`, a missed deadline,
    /// a refused connection, or any other error reply.
    pub failed: u64,
    /// Failed operations whose output was wrong (a subset of `failed`).
    pub wrong: u64,
    metrics: BTreeMap<&'static str, f64>,
    record: Vec<(String, Json)>,
}

impl Outcome {
    /// Sets a metric. Panics on a name missing from [`END_TO_END`] and
    /// [`PER_LAYER`], which would be a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("unknown metric {name}"));
        self.metrics.insert(def.name, value);
    }

    /// The value of a metric set so far.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Adds a field to the run record.
    pub fn note(&mut self, key: &str, value: impl Into<Json>) {
        self.record.push((key.to_string(), value.into()));
    }

    /// The run record fields so far.
    pub fn record(&self) -> &[(String, Json)] {
        &self.record
    }

    /// Counts one failed operation; `wrong` marks a wrong answer.
    pub fn fail(&mut self, wrong: bool) {
        self.failed += 1;
        if wrong {
            self.wrong += 1;
        }
    }

    /// Whether every checked output was right.
    pub fn correct(&self) -> bool {
        self.wrong == 0
    }

    /// The metrics the result line carries for this kind of run, in list
    /// order. End-to-end metrics must all be set (a missing one is a bug);
    /// per-layer metrics a workload did not exercise report 0.
    pub fn result_metrics(&self, trace: bool) -> Vec<(MetricDef, f64)> {
        let defs = if trace { PER_LAYER } else { END_TO_END };
        defs.iter()
            .map(|d| {
                let v = self.metrics.get(d.name).copied();
                assert!(trace || v.is_some(), "end-to-end metric {} was not measured", d.name);
                (*d, v.unwrap_or(0.0))
            })
            .collect()
    }

    /// Per-layer metrics this run did not set.
    pub fn not_exercised(&self) -> Vec<&'static str> {
        PER_LAYER.iter().filter(|d| !self.metrics.contains_key(d.name)).map(|d| d.name).collect()
    }

    /// The result object printed as the last line.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics = self
            .result_metrics(trace)
            .into_iter()
            .map(|(d, v)| (d.name, Json::obj([("value", Json::Num(v)), ("unit", d.unit.into())])));
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
        .encode()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_limits() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let mut o = Outcome { attempted: 3, ..Outcome::default() };
        for d in END_TO_END {
            o.set(d.name, 1.25);
        }
        let line = o.result_line(false);
        assert!(line.starts_with(r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"#));
        assert!(line.contains(r#""setup_s": {"value": 1.25, "unit": "s"}"#));
    }
}
