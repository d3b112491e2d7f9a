//! Periodic time-series snapshots.
//!
//! Every sampling tick the cluster captures one row per tracked field:
//! a sim-clock timestamp plus one `u64` per MDS (per-server load, cache
//! occupancy split prefix-vs-target, journal depth, delegation count…).
//! Rows are appended in time order and export in that order, so the
//! series is byte-reproducible. This is the data the balancer figures
//! (per-MDS throughput over time, Figures 5–7) can be rebuilt from
//! without re-running a simulation.

/// A named multi-column (one per MDS) time series set.
#[derive(Clone, Debug)]
pub struct SnapshotSeries {
    fields: Vec<&'static str>,
    n_slots: usize,
    /// `(t_us, values)` with `values.len() == fields.len() * n_slots`,
    /// field-major: all of field 0's slots, then field 1's, …
    rows: Vec<(u64, Vec<u64>)>,
}

impl SnapshotSeries {
    /// A series over `fields`, each with `n_slots` per-MDS columns.
    pub fn new(fields: &[&'static str], n_slots: usize) -> Self {
        assert!(n_slots > 0, "need at least one slot");
        SnapshotSeries { fields: fields.to_vec(), n_slots, rows: Vec::new() }
    }

    /// Field names in export order.
    pub fn fields(&self) -> &[&'static str] {
        &self.fields
    }

    /// Appends one row. `values` must hold `fields × slots` entries,
    /// field-major.
    pub fn push_row(&mut self, t_us: u64, values: Vec<u64>) {
        assert_eq!(values.len(), self.fields.len() * self.n_slots, "row shape mismatch");
        self.rows.push((t_us, values));
    }

    /// Number of rows captured.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no rows were captured.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Every row's time (µs) and its `n_slots` values of `field`, in time
    /// order. Panics on a field the series does not have.
    pub fn field_rows<'a>(&'a self, field: &str) -> impl Iterator<Item = (u64, &'a [u64])> + 'a {
        let f = self
            .fields
            .iter()
            .position(|&name| name == field)
            .unwrap_or_else(|| panic!("no field {field:?}"));
        let (start, n) = (f * self.n_slots, self.n_slots);
        self.rows.iter().map(move |(t, values)| (*t, &values[start..start + n]))
    }

    /// Drops all rows (measurement restart).
    pub fn reset(&mut self) {
        self.rows.clear();
    }

    /// One JSON line per row:
    /// `{"t_us":N,"load":[…],"cache_prefix":[…],…}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (t, values) in &self.rows {
            out.push_str(&format!("{{\"t_us\":{t}"));
            for (f, name) in self.fields.iter().enumerate() {
                out.push_str(",\"");
                out.push_str(name);
                out.push_str("\":[");
                let start = f * self.n_slots;
                for (i, v) in values[start..start + self.n_slots].iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&v.to_string());
                }
                out.push(']');
            }
            out.push_str("}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_keep_shape_and_order() {
        let mut s = SnapshotSeries::new(&["load", "cache"], 2);
        s.push_row(1_000_000, vec![10, 20, 5, 6]);
        s.push_row(2_000_000, vec![11, 21, 7, 8]);
        assert_eq!(s.len(), 2);
        let cache: Vec<_> = s.field_rows("cache").collect();
        assert_eq!(cache, [(1_000_000, &[5, 6][..]), (2_000_000, &[7, 8][..])]);
        assert_eq!(
            s.to_jsonl(),
            "{\"t_us\":1000000,\"load\":[10,20],\"cache\":[5,6]}\n\
             {\"t_us\":2000000,\"load\":[11,21],\"cache\":[7,8]}\n"
        );
    }

    #[test]
    #[should_panic(expected = "row shape mismatch")]
    fn wrong_row_width_panics() {
        let mut s = SnapshotSeries::new(&["load"], 2);
        s.push_row(0, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "no field \"cache\"")]
    fn unknown_field_panics() {
        let s = SnapshotSeries::new(&["load"], 2);
        let _ = s.field_rows("cache");
    }

    #[test]
    fn jsonl_round_shape() {
        let mut s = SnapshotSeries::new(&["load", "journal"], 2);
        s.push_row(500, vec![1, 2, 3, 4]);
        assert_eq!(s.to_jsonl(), "{\"t_us\":500,\"load\":[1,2],\"journal\":[3,4]}\n");
    }

    #[test]
    fn reset_drops_rows() {
        let mut s = SnapshotSeries::new(&["x"], 1);
        s.push_row(1, vec![2]);
        s.reset();
        assert!(s.is_empty());
        assert_eq!(s.to_jsonl(), "");
    }
}
