//! The `stats` verb: process-wide metrics as protocol JSON.
//!
//! [`metrics_to_json`] serializes a [`cpr_obs::MetricsSnapshot`] with the
//! same hand-rolled [`Json`] writer the rest of the protocol uses, so a
//! stats response round-trips through [`crate::json::parse`] like any
//! other message. The shape is versioned independently of the protocol
//! (`stats_version`) so the metric schema can evolve without a protocol
//! bump:
//!
//! ```text
//! {
//!   "counters": {"solver.queries": 41, ...},
//!   "gauges": {"driver.pool_patches": 7, ...},
//!   "histograms": [
//!     {"name": "solver.solve_nanos", "count": 41, "sum": 901234,
//!      "buckets": [{"le": 4096, "count": 3}, {"le": 16384, "count": 38}]}
//!   ]
//! }
//! ```
//!
//! Buckets are cumulative-free `(le, count)` pairs — each carries only its
//! own samples, and empty buckets are omitted — matching the
//! [`cpr_obs::HistogramSnapshot`] layout. `u64` totals that exceed
//! `i64::MAX` (in practice only the overflow bucket's `le`) are clamped,
//! since the JSON writer carries integers as `i64`.

use cpr_obs::{HistogramSnapshot, MetricsSnapshot};

use crate::json::Json;

/// Version of the stats response shape (independent of
/// [`crate::protocol::PROTOCOL_VERSION`]). Bumped to 2 when the response
/// gained a top-level object for the persistent solver-verdict cache
/// (hit/miss tallies, hit rate, and on-disk store size); to 3 with the epoll
/// serving tier, when job rows gained a `shard` field and the process
/// section the `serve.accept.*`, `serve.shard.*` and `serve.conn.*`
/// metric families; to 4 when the scheduler went to one run queue, which
/// dropped the job rows' `shard` field and the `serve.shard.steals` and
/// `serve.shard.rebalanced` counters, and renamed the queue-depth gauge
/// `serve.queue_depth`; to 5 when the persistent solver-verdict cache was
/// deleted, which dropped its top-level object and its five counters and
/// one gauge from the process section.
pub const STATS_VERSION: i64 = 5;

fn clamp_i64(v: u64) -> i64 {
    i64::try_from(v).unwrap_or(i64::MAX)
}

fn histogram_to_json(h: &HistogramSnapshot) -> Json {
    let buckets = h
        .buckets
        .iter()
        .map(|&(le, count)| {
            Json::obj(vec![
                ("le", Json::Int(clamp_i64(le))),
                ("count", Json::Int(clamp_i64(count))),
            ])
        })
        .collect();
    Json::obj(vec![
        ("name", Json::Str(h.name.clone())),
        ("count", Json::Int(clamp_i64(h.count))),
        ("sum", Json::Int(clamp_i64(h.sum))),
        ("buckets", Json::Arr(buckets)),
    ])
}

/// Serializes a metrics snapshot as the `"process"` section of a `stats`
/// response: counters and gauges as name-keyed objects (sorted by name,
/// as the snapshot already is), histograms as an array of objects.
pub fn metrics_to_json(snap: &MetricsSnapshot) -> Json {
    let counters = snap
        .counters
        .iter()
        .map(|(name, v)| (name.clone(), Json::Int(clamp_i64(*v))))
        .collect();
    let gauges = snap
        .gauges
        .iter()
        .map(|(name, v)| (name.clone(), Json::Int(*v)))
        .collect();
    let histograms = snap.histograms.iter().map(histogram_to_json).collect();
    Json::Obj(vec![
        ("counters".to_owned(), Json::Obj(counters)),
        ("gauges".to_owned(), Json::Obj(gauges)),
        ("histograms".to_owned(), Json::Arr(histograms)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use cpr_obs::MetricsRegistry;

    /// Property test: a snapshot of a registry fed pseudo-random values
    /// survives the serialize → line → parse round trip with every name,
    /// total and bucket intact.
    #[test]
    fn snapshot_round_trips_through_the_protocol_json() {
        let reg = MetricsRegistry::new();
        // Deterministic LCG so the test covers a spread of magnitudes
        // (including values that land in many different buckets) without
        // depending on an external randomness source.
        let mut state: u64 = 0x2545_F491_4F6C_DD1D;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for i in 0..16 {
            let c = reg.counter(&format!("test.counter_{i}"));
            c.add(next());
            let g = reg.gauge(&format!("test.gauge_{i}"));
            g.set(next() as i64 - (1 << 29));
            let h = reg.histogram(&format!("test.hist_{i}"));
            for _ in 0..64 {
                h.record(next() >> (i % 32));
            }
        }

        let snap = reg.snapshot();
        let line = metrics_to_json(&snap).to_line();
        let parsed = json::parse(&line).unwrap();

        let counters = parsed.get("counters").unwrap();
        for (name, v) in &snap.counters {
            assert_eq!(
                counters.get(name).and_then(Json::as_u64),
                Some(*v),
                "{name}"
            );
        }
        let gauges = parsed.get("gauges").unwrap();
        for (name, v) in &snap.gauges {
            assert_eq!(gauges.get(name).and_then(Json::as_i64), Some(*v), "{name}");
        }
        let hists = match parsed.get("histograms").unwrap() {
            Json::Arr(items) => items,
            other => panic!("histograms must be an array, got {other:?}"),
        };
        assert_eq!(hists.len(), snap.histograms.len());
        for (got, want) in hists.iter().zip(&snap.histograms) {
            assert_eq!(
                got.get("name").and_then(Json::as_str),
                Some(want.name.as_str())
            );
            assert_eq!(got.get("count").and_then(Json::as_u64), Some(want.count));
            assert_eq!(got.get("sum").and_then(Json::as_u64), Some(want.sum));
            let buckets = match got.get("buckets").unwrap() {
                Json::Arr(items) => items,
                other => panic!("buckets must be an array, got {other:?}"),
            };
            assert_eq!(buckets.len(), want.buckets.len(), "{}", want.name);
            let mut bucket_total = 0;
            for (b, &(le, count)) in buckets.iter().zip(&want.buckets) {
                assert_eq!(
                    b.get("le").and_then(Json::as_u64),
                    Some(le.min(i64::MAX as u64))
                );
                assert_eq!(b.get("count").and_then(Json::as_u64), Some(count));
                bucket_total += count;
            }
            // The satellite invariant, re-checked on the wire form:
            // bucket counts sum to the sample count.
            assert_eq!(bucket_total, want.count, "{}", want.name);
        }
    }

    #[test]
    fn a_disabled_registry_serializes_as_empty_sections() {
        let snap = MetricsRegistry::disabled().snapshot();
        let line = metrics_to_json(&snap).to_line();
        assert_eq!(line, r#"{"counters":{},"gauges":{},"histograms":[]}"#);
    }
}
