//! The traced run: the calls `bed` makes, replayed in process on the same
//! inputs, with a span around each call into a library layer.
//!
//! - serve's drain loop: chunks of 512 arrivals under one lock, then
//!   `EpochPublisher::maybe_publish` at the pinned cadence;
//! - serve's `/query` dispatch: one `DetectorEpochs::view()` and one
//!   `query_reusing` per request, over the drained epochs;
//! - `bed ingest`: `WalSink::ingest_batch` and
//!   `Checkpointer::maybe_checkpoint` per batch, then a final checkpoint;
//! - `bed restore`: `recover()` from the WAL alone, then finalize and
//!   encode.
//!
//! The same replay also runs with the recorder off; the difference in wall
//! time is the tracing overhead.

use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use bed_core::BurstQueries as _;
use bed_core::{
    recover, CheckpointPolicy, Checkpointer, DetectorEpochs, EpochPublisher, EventSink as _,
    QueryRequest, QueryResponse, QueryScratch, SnapshotStore, WalSink,
};
use bed_stream::Codec as _;

use crate::spans::Recorder;
use crate::workload::{self, Input, Spec, PUBLISH_EVERY, SERVE_CHUNK};

/// Span name of each query kind (`workload::KINDS` order).
const QUERY_SPANS: [&str; 6] = [
    "query.point",
    "query.bursty_times",
    "query.bursty_events",
    "query.bursty_events_scan",
    "query.series",
    "query.top_k",
];

fn query_span(request: &QueryRequest) -> &'static str {
    let kind = workload::kind_of(request);
    let i = workload::KINDS.iter().position(|k| *k == kind).expect("every kind is listed");
    QUERY_SPANS[i]
}

/// Exact counts the replay reads from the library, next to the spans.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub publishes: u64,
    pub size_bytes: usize,
    pub bank_bytes: usize,
    /// Over pruned bursty-event queries: queries, leaves probed, point
    /// queries issued, and hits.
    pub pruned_queries: u64,
    pub leaves_probed: u64,
    pub point_queries: u64,
    pub hits: u64,
    pub fsyncs: u64,
    pub checkpoints: u64,
    pub wal_bytes: u64,
    pub snapshot_bytes: u64,
    pub records: u64,
}

pub struct Replay {
    pub recorder: Recorder,
    pub counts: Counts,
    pub wall_s: f64,
}

/// Replays `spec`'s calls on `input`; `requests` are the queries sent.
/// Fails when the library errs or the recovered sketch differs from
/// `oracle_bytes`.
pub fn replay(
    spec: &Spec,
    input: &Input,
    requests: &[QueryRequest],
    work: &Path,
    oracle_bytes: &[u8],
    traced: bool,
) -> Result<Replay, String> {
    let mut rec = Recorder::new(traced);
    let mut counts = Counts::default();
    let started = Instant::now();
    let e = |e: &dyn std::fmt::Display| e.to_string();

    // serve's drain loop
    let det = Mutex::new(input.empty_detector());
    let epochs = DetectorEpochs::new_unpublished(&det.lock().expect("fresh lock"));
    let mut publisher = EpochPublisher::new(CheckpointPolicy { every_arrivals: PUBLISH_EVERY });
    rec.span("drain", None, 0, |rec, root| -> Result<(), String> {
        for (i, chunk) in input.elements.chunks(SERVE_CHUNK).enumerate() {
            rec.span("ingest.chunk", root, i as u64, |rec, id| -> Result<(), String> {
                let mut d = det.lock().expect("single-threaded replay");
                for &(event, ts) in chunk {
                    d.ingest(event, ts).map_err(|x| e(&x))?;
                }
                rec.span_if("epoch.publish", id, i as u64, |_, _| {
                    let fired = publisher.maybe_publish(&d, &epochs);
                    ((), fired)
                });
                Ok(())
            })?;
        }
        let mut d = det.lock().expect("single-threaded replay");
        d.finalize();
        rec.span("epoch.publish", root, u64::MAX, |_, _| epochs.publish(&d));
        Ok(())
    })?;
    let det = det.into_inner().expect("single-threaded replay");
    counts.publishes = publisher.published() + 1;
    counts.size_bytes = det.size_bytes();
    counts.bank_bytes = epochs.bank_bytes();

    // serve's /query dispatch
    for (i, request) in requests.iter().enumerate() {
        let response = rec.span("request", None, i as u64, |rec, id| {
            let view = rec.span("epoch.view", id, i as u64, |_, _| epochs.view());
            let mut scratch = QueryScratch::new();
            rec.span(query_span(request), id, i as u64, |_, _| {
                view.query_reusing(request, &mut scratch)
            })
        });
        if let (
            QueryRequest::BurstyEvents { strategy: bed_core::QueryStrategy::Pruned, .. },
            Ok(QueryResponse::BurstyEvents { hits, stats }),
        ) = (request, &response)
        {
            counts.pruned_queries += 1;
            counts.leaves_probed += stats.leaves_probed as u64;
            counts.point_queries += stats.point_queries as u64;
            counts.hits += hits.len() as u64;
        }
        response.map_err(|x| e(&x))?;
    }
    drop(epochs);

    // bed ingest
    let wal = work.join("traced.wal");
    let snap = work.join("traced.snap");
    let store = SnapshotStore::new(&snap);
    let clear = || {
        let _ = std::fs::remove_file(store.path());
        let _ = std::fs::remove_file(store.prev_path());
    };
    clear();
    let mut sink = WalSink::create(&wal, input.empty_detector()).map_err(|x| e(&x))?;
    let mut ckpt =
        Checkpointer::new(&snap, CheckpointPolicy { every_arrivals: spec.checkpoint_every });
    let batch = spec.checkpoint_every.clamp(1, 4096) as usize;
    rec.span("durable", None, 0, |rec, root| -> Result<(), String> {
        for (i, b) in input.elements.chunks(batch).enumerate() {
            let i = i as u64;
            rec.span("wal.batch", root, i, |_, _| sink.ingest_batch(b)).map_err(|x| e(&x))?;
            rec.span_if("checkpoint.save", root, i, |_, _| {
                let r = ckpt.maybe_checkpoint(&sink);
                let fired = matches!(r, Ok(true));
                (r, fired)
            })
            .map_err(|x| e(&x))?;
        }
        rec.span("checkpoint.save", root, u64::MAX, |_, _| ckpt.checkpoint(&sink))
            .map_err(|x| e(&x))
    })?;
    counts.fsyncs = sink.wal().metrics().histogram("wal.sync.latency_ns").map_or(0, |h| h.count);
    counts.checkpoints = ckpt.checkpoints_taken();
    counts.snapshot_bytes = ckpt.metrics().counter("checkpoint.bytes").unwrap_or(0);
    sink.into_inner().map_err(|x| e(&x))?;
    counts.wal_bytes = std::fs::metadata(&wal).map_err(|x| e(&x))?.len();

    // bed restore, from the WAL alone
    clear();
    let restored = rec.span("recover", None, 0, |rec, root| -> Result<Vec<u8>, String> {
        let outcome =
            rec.span("recover.replay", root, 0, |_, _| recover(&store, Some(wal.as_path())));
        let outcome = outcome.map_err(|x| e(&x))?;
        counts.records = outcome.replayed;
        let mut det = outcome.detector;
        rec.span("recover.finalize", root, 0, |_, _| det.finalize());
        Ok(rec.span("recover.encode", root, 0, |_, _| det.to_bytes()))
    })?;
    let _ = std::fs::remove_file(&wal);
    clear();
    if restored != oracle_bytes {
        return Err("recovered sketch differs from the oracle build".into());
    }
    Ok(Replay { recorder: rec, counts, wall_s: started.elapsed().as_secs_f64() })
}
