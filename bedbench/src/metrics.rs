//! Every metric the benchmark prints, as `BENCHMARK.json` at the checkout's
//! root lists it — name, unit, which way is better and, for an end-to-end
//! metric, its bound — plus what `BENCHMARK.json` has no place for: the
//! end-to-end metric and workload each per-layer metric should move.

use crate::json::{self, Json};

pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// End-to-end metrics only: the share by which it may get worse.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark prints.
pub struct Benchmark {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Each workload's name and the one line saying why it is there.
    pub workloads: Vec<(String, String)>,
}

impl Benchmark {
    pub fn load(path: &str) -> Result<Benchmark, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Benchmark::parse(&text).map_err(|e| format!("{path}: {e}"))
    }

    fn parse(text: &str) -> Result<Benchmark, String> {
        let doc = json::parse(text)?;
        let list = |key: &str| -> Result<&[Json], String> {
            doc.get(key).and_then(Json::arr).ok_or_else(|| format!("no list '{key}'"))
        };
        let text_of = |item: &Json, key: &str| -> Result<String, String> {
            item.get(key).and_then(Json::str).map(String::from).ok_or_else(|| format!("no '{key}'"))
        };
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(Metric {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        better: text_of(m, "better")?,
                        bound: m.get("bound").and_then(Json::num),
                    })
                })
                .collect()
        };
        let workloads = list("workloads")?
            .iter()
            .map(|w| Ok((text_of(w, "name")?, text_of(w, "why")?)))
            .collect::<Result<_, String>>()?;
        Ok(Benchmark {
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
            workloads,
        })
    }

    pub fn why(&self, workload: &str) -> &str {
        self.workloads.iter().find(|(name, _)| name == workload).map_or("", |(_, why)| why)
    }
}

const READ_P50: &str = "query_p50_ms on serve_read";
const PUBLISH: &str = "setup_s on serve_live, then serve_read";
const DURABLE_INGEST: &str = "ingest_eps on serve_live, then serve_read";
const RECOVER: &str = "recover_s on both workloads";

/// The end-to-end metric and workload each per-layer metric should move.
const MOVES: [(&str, &str); 32] = [
    ("serve.connect_us", READ_P50),
    ("serve.server_ms", READ_P50),
    ("serve.shell_ms", "query_p50_ms and query_p90_ms on serve_read"),
    ("serve.conns_per_req", READ_P50),
    ("loadgen.late_ms", "none: validity check, rises with query_p90_ms"),
    ("query.point_us", READ_P50),
    ("query.bursty_times_us", READ_P50),
    ("query.bursty_events_us", READ_P50),
    ("query.bursty_events_scan_us", READ_P50),
    ("query.series_us", READ_P50),
    ("query.top_k_us", READ_P50),
    ("epoch.view_us", READ_P50),
    ("hierarchy.leaves_per_query", "query_p90_ms on serve_read"),
    ("hierarchy.point_queries_per_query", "query_p90_ms on serve_read"),
    ("hierarchy.hit_ratio", "query_p90_ms on serve_read"),
    ("ingest.ns_per_arrival", "setup_s on serve_live and serve_read; ingest_eps on both"),
    ("epoch.publish_ms", PUBLISH),
    ("epoch.publish_p90_ms", PUBLISH),
    ("epoch.publishes", PUBLISH),
    ("epoch.publish_share", "setup_s on serve_live"),
    ("epoch.read_ratio", "setup_s on serve_live"),
    ("sketch.size_bytes", "rss_peak_mb on both workloads"),
    ("epoch.bank_bytes", "rss_peak_mb on both workloads"),
    ("wal.batch_us", DURABLE_INGEST),
    ("wal.fsyncs", DURABLE_INGEST),
    ("checkpoint.save_ms", DURABLE_INGEST),
    ("checkpoint.count", DURABLE_INGEST),
    ("durable.bytes_per_arrival", DURABLE_INGEST),
    ("recover.replay_ns_per_record", RECOVER),
    ("recover.records", RECOVER),
    ("recover.encode_ms", RECOVER),
    ("trace.overhead_pct", "none: bounds how far the per-layer numbers hold"),
];

pub fn moves(name: &str) -> &'static str {
    MOVES.iter().find(|(metric, _)| *metric == name).map_or("-", |(_, moves)| moves)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_metrics_bounds_and_workloads() {
        let b = Benchmark::parse(
            r#"{"workloads": [{"name": "w", "why": "because"}],
                "end_to_end": [{"name": "a_s", "unit": "s", "better": "lower", "bound": 0.2}],
                "per_layer": [{"name": "serve.server_ms", "unit": "ms", "better": "lower"}]}"#,
        )
        .unwrap();
        assert_eq!(b.end_to_end[0].name, "a_s");
        assert_eq!(b.end_to_end[0].bound, Some(0.2));
        assert_eq!(b.per_layer[0].bound, None);
        assert_eq!(b.why("w"), "because");
        assert_eq!(moves(&b.per_layer[0].name), READ_P50);
        assert!(Benchmark::parse(r#"{"workloads": []}"#).is_err());
    }
}
