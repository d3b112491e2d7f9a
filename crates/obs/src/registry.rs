//! The metrics registry: finished metrics, each with an explicit shape.
//!
//! Every metric is recorded once, finished, from counts its caller
//! already keeps. Its shape is named when it is recorded, never guessed
//! from its slot count: a cluster-wide scalar, one slot per MDS, one slot
//! per proxy, or the latency histogram. Export walks the metrics in
//! recording order, which is fixed by construction: byte-reproducible
//! output.

use crate::{push_json_str, LatencyAgg};

enum Value {
    Scalar(u64),
    /// Per-entity slots under their JSON key (`per_mds` or `per_proxy`).
    Slots(&'static str, Vec<u64>),
    Histogram(Box<LatencyAgg>),
}

/// The per-run metrics registry. See module docs.
#[derive(Default)]
pub struct Registry {
    metrics: Vec<(&'static str, Value)>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Records a cluster-wide scalar counter.
    pub fn scalar(&mut self, name: &'static str, value: u64) {
        self.metrics.push((name, Value::Scalar(value)));
    }

    /// Records a counter with one slot per MDS, in id order.
    pub fn per_mds(&mut self, name: &'static str, values: &[u64]) {
        self.metrics.push((name, Value::Slots("per_mds", values.to_vec())));
    }

    /// Records a counter with one slot per proxy, in id order.
    pub fn per_proxy(&mut self, name: &'static str, values: &[u64]) {
        self.metrics.push((name, Value::Slots("per_proxy", values.to_vec())));
    }

    /// Records a latency histogram.
    pub fn histogram(&mut self, name: &'static str, agg: &LatencyAgg) {
        self.metrics.push((name, Value::Histogram(Box::new(agg.clone()))));
    }

    /// One JSONL line per metric, in recording order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.metrics {
            let kind = if matches!(value, Value::Histogram(_)) { "histogram" } else { "counter" };
            out.push_str(&format!("{{\"type\":\"{kind}\",\"name\":"));
            push_json_str(&mut out, name);
            match value {
                Value::Scalar(v) => out.push_str(&format!(",\"value\":{v}")),
                Value::Slots(key, slots) => push_array(&mut out, key, slots),
                Value::Histogram(h) => {
                    out.push_str(&format!(
                        ",\"count\":{},\"sum\":{},\"max\":{}",
                        h.count, h.sum_us, h.max_us
                    ));
                    push_array(&mut out, "log2_buckets", &h.buckets);
                }
            }
            out.push_str("}\n");
        }
        out
    }
}

/// Appends `,"key":[v,…]` to `out`.
fn push_array(out: &mut String, key: &str, values: &[u64]) {
    out.push_str(&format!(",\"{key}\":["));
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_render_in_recording_order() {
        let mut r = Registry::new();
        r.per_mds("served", &[1, 0, 6]);
        r.scalar("migrations", 9);
        r.per_proxy("proxy_forwarded", &[2, 3]);
        assert_eq!(
            r.to_jsonl(),
            "{\"type\":\"counter\",\"name\":\"served\",\"per_mds\":[1,0,6]}\n\
             {\"type\":\"counter\",\"name\":\"migrations\",\"value\":9}\n\
             {\"type\":\"counter\",\"name\":\"proxy_forwarded\",\"per_proxy\":[2,3]}\n"
        );
    }

    #[test]
    fn one_slot_keeps_its_shape() {
        let mut r = Registry::new();
        r.per_mds("served", &[8091]);
        r.per_proxy("proxy_forwarded", &[4]);
        let out = r.to_jsonl();
        assert!(out.contains("\"name\":\"served\",\"per_mds\":[8091]"), "{out}");
        assert!(out.contains("\"name\":\"proxy_forwarded\",\"per_proxy\":[4]"), "{out}");
    }

    #[test]
    fn histogram_renders_totals_and_every_bucket() {
        let mut agg = LatencyAgg::new();
        for us in [0, 3, 1000] {
            agg.record(us);
        }
        let mut r = Registry::new();
        r.histogram("latency_us", &agg);
        let line = r.to_jsonl();
        assert!(
            line.starts_with(
                "{\"type\":\"histogram\",\"name\":\"latency_us\",\"count\":3,\"sum\":1003,\
                 \"max\":1000,\"log2_buckets\":[1,0,1,0,0,0,0,0,0,0,1,0,"
            ),
            "{line}"
        );
        assert_eq!(line.matches(',').count(), 5 + 39, "all 40 buckets print");
    }
}
