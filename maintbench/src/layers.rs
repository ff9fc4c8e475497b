//! Per-layer time from the program's own spans.
//!
//! The traced run records the spans the warehouse already opens around
//! each stage of `apply_batch` and sums their durations by layer. The
//! engine spans (`maintain.prepare`, `maintain.commit`) have no children,
//! so their duration is their self time; the scheduler's stage spans are
//! taken whole, and the rest of `warehouse.apply_batch` is reported as
//! `warehouse.other_ms` by the caller.

use std::collections::BTreeMap;

use md_obs::{FieldValue, TraceEvent};

/// Span nanoseconds summed by layer over the traced batches.
#[derive(Debug, Default)]
pub struct SpanTotals {
    /// `batch.coalesce`
    pub coalesce: u64,
    /// `scheduler.fanout`
    pub fanout: u64,
    /// `wal.append`
    pub wal: u64,
    /// `warehouse.commit`
    pub commit: u64,
    /// `maintain.prepare`, by summary.
    pub prepare: BTreeMap<String, u64>,
    /// `maintain.commit`, by summary.
    pub engine_commit: BTreeMap<String, u64>,
}

fn summary_field(e: &TraceEvent) -> String {
    e.fields
        .iter()
        .find_map(|(k, v)| match (k, v) {
            (&"summary", FieldValue::Str(s)) => Some(s.clone()),
            _ => None,
        })
        .unwrap_or_default()
}

impl SpanTotals {
    /// Adds the durations of `events` to their layers.
    pub fn absorb(&mut self, events: &[TraceEvent]) {
        for e in events {
            let d = e.dur_ns;
            match e.name {
                "batch.coalesce" => self.coalesce += d,
                "scheduler.fanout" => self.fanout += d,
                "wal.append" => self.wal += d,
                "warehouse.commit" => self.commit += d,
                "maintain.prepare" => *self.prepare.entry(summary_field(e)).or_default() += d,
                "maintain.commit" => *self.engine_commit.entry(summary_field(e)).or_default() += d,
                _ => {}
            }
        }
    }

    /// Summed prepare time of every summary.
    pub fn prepare_total(&self) -> u64 {
        self.prepare.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorbs_the_warehouse_spans() {
        let obs = md_obs::Obs::new(md_obs::ObsConfig::full());
        {
            let _a = obs.span("warehouse.apply_batch");
            drop(obs.span("batch.coalesce"));
            drop(obs.span("maintain.prepare").field("summary", "v"));
            drop(obs.span("maintain.commit").field("summary", "v"));
            drop(obs.span("something.else"));
        }
        let mut t = SpanTotals::default();
        t.absorb(&obs.tracer().events());
        assert!(t.coalesce > 0 && t.prepare["v"] > 0 && t.engine_commit["v"] > 0);
        assert_eq!(t.fanout + t.wal + t.commit, 0);
    }
}
