//! The end-to-end run: the release `bed` binary driven through its CLI
//! and over its socket, with tracing in the program off.
//!
//! A run first checks that `bed build` writes the oracle's bytes, then goes
//! through rounds on the workload's seeded stream; each round has four
//! phases:
//! 1. `bed ingest` with a WAL and periodic checkpoints (timed spawn to exit);
//! 2. a cold `bed restore` from the WAL alone — the snapshots are deleted
//!    first, so the whole WAL is replayed (timed spawn to exit), and the
//!    restored sketch must equal the oracle byte for byte;
//! 3. `bed serve`: from spawn until an answer shows the whole stream
//!    (set-up), with the workload's live traffic meanwhile, then the
//!    workload's read traffic against the drained server;
//! 4. a second cold `bed restore` of the same WAL. `recover_s` is the
//!    fastest restore of the run, and the fastest of more samples is the
//!    steadier.
//!
//! The machine's speed drifts by several per cent over seconds, so the
//! rounds interleave the phases: each metric's samples spread over the
//! whole run, and its median follows the run's average speed. The number
//! of rounds follows `--seconds`.

use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use bed_core::{AnyDetector, QueryRequest};
use bed_stream::Codec as _;

use crate::json::{self, Json};
use crate::loadgen::{self, Planned, Sent};
use crate::proc::Proc;
use crate::workload::{self, Input, Mix, Rng, Spec, Traffic};

/// Longest any single `bed` process may take before the run fails.
const CHILD_TIMEOUT: Duration = Duration::from_secs(120);
/// Gap between the set-up probes of a round without live traffic.
const PROBE_EVERY: Duration = Duration::from_millis(20);
/// How long the read traffic runs after each drain.
const READ_SECONDS: f64 = 0.7;
/// Mid-stream answers re-checked against a rebuilt prefix oracle.
const MID_CHECKS: usize = 3;
/// Nominal length of one round on a 2-vCPU VM: a run of `s` seconds has
/// `s / ROUND_SECONDS` rounds, rounded, and at least one.
pub const ROUND_SECONDS: f64 = 6.0;

pub fn rounds(seconds: f64) -> usize {
    ((seconds / ROUND_SECONDS).round() as usize).max(1)
}

/// Operations attempted and failed, with the first few failure reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(format!("{what}: {e}"));
            }
        }
    }
}

/// One measured `/query` request.
#[derive(Debug, Clone)]
pub struct Query {
    pub request: QueryRequest,
    pub sent: Sent,
}

#[derive(Debug, Default)]
pub struct E2e {
    pub arrivals: usize,
    pub tally: Tally,
    pub ingest_s: Vec<f64>,
    pub restore_s: Vec<f64>,
    pub setup_s: Vec<f64>,
    pub maxrss_kib: u64,
    /// The latency-measured queries: live traffic, or read traffic when
    /// the workload has no live traffic.
    pub measured: Vec<Query>,
    /// Per round: distinct generations answered, and generations published.
    pub generations: Vec<(usize, u64)>,
    /// The oracle's encoding of the whole stream.
    pub oracle_bytes: Vec<u8>,
}

/// An answer whose check needs the oracle of a stream prefix.
struct Pending {
    request: QueryRequest,
    arrivals: u64,
    body: Json,
}

pub fn run(bed: &Path, work: &Path, spec: &Spec, input: &Input, seed: u64, seconds: f64) -> E2e {
    let n = input.elements.len();
    let mut out = E2e { arrivals: n, ..E2e::default() };
    let tsv = work.join("stream.tsv");
    if let Err(e) = std::fs::write(&tsv, input.tsv()) {
        out.tally.record("write stream", Err(e.to_string()));
        return out;
    }
    let oracle = input.oracle(n);
    out.oracle_bytes = oracle.to_bytes();

    let result = check_build(bed, work, input, &tsv, &mut out);
    out.tally.record("bed build", result);

    let mut pending = Vec::new();
    let durable = Durable::new(work);
    for round in 0..rounds(seconds) {
        let ingested = durable.ingest(bed, spec, input, &tsv, &mut out);
        if ingested {
            durable.restore(bed, &mut out);
        }
        let round_seed = seed.wrapping_mul(1_000_003).wrapping_add(round as u64);
        let result =
            serve_round(bed, spec, input, &tsv, &oracle, round_seed, &mut out, &mut pending);
        out.tally.record("serve round", result);
        if ingested {
            durable.restore(bed, &mut out);
        }
        durable.clear();
    }
    check_prefixes(input, seed, pending, &mut out.tally);
    out
}

fn remove(paths: &[PathBuf]) {
    for p in paths {
        let _ = std::fs::remove_file(p);
    }
}

/// Runs one `bed` command to completion: wall time from spawn to exit.
fn run_bed(bed: &Path, args: &[String], out: &mut E2e) -> Result<f64, String> {
    // Earlier phases' writes and deletions reach the disk before the
    // clock starts, not during the timed run.
    crate::proc::sync();
    let proc = Proc::spawn(Command::new(bed).args(args), false).map_err(|e| e.to_string())?;
    let exited = proc.wait(CHILD_TIMEOUT).map_err(|e| e.to_string())?;
    out.maxrss_kib = out.maxrss_kib.max(exited.maxrss_kib);
    if !exited.success() {
        return Err(format!("bed {} exited with status {}", args[0], exited.status));
    }
    Ok(exited.elapsed.as_secs_f64())
}

/// `bed build` over the stream must write the oracle's bytes, which ties
/// the in-process oracle to the CLI's build path.
fn check_build(
    bed: &Path,
    work: &Path,
    input: &Input,
    tsv: &Path,
    out: &mut E2e,
) -> Result<(), String> {
    let built = work.join("built.bed");
    let s = |p: &Path| p.to_string_lossy().into_owned();
    let mut build = vec!["build".to_string(), "--input".into(), s(tsv), "--out".into(), s(&built)];
    build.extend(input.detector_args());
    run_bed(bed, &build, out)?;
    let bytes = std::fs::read(&built).map_err(|e| e.to_string())?;
    remove(&[built]);
    if bytes == out.oracle_bytes {
        Ok(())
    } else {
        Err("bed build output differs from the oracle build".into())
    }
}

/// The files of the durable phases: `bed ingest` writes the WAL and its
/// snapshots, and `bed restore` replays the WAL into `restored`.
struct Durable {
    wal: PathBuf,
    snap: PathBuf,
    prev: PathBuf,
    restored: PathBuf,
}

impl Durable {
    fn new(work: &Path) -> Durable {
        Durable {
            wal: work.join("stream.wal"),
            snap: work.join("stream.snap"),
            prev: work.join("stream.snap.prev"),
            restored: work.join("restored.bed"),
        }
    }

    /// `bed ingest` from an empty WAL; true when it succeeded.
    fn ingest(&self, bed: &Path, spec: &Spec, input: &Input, tsv: &Path, out: &mut E2e) -> bool {
        let s = |p: &Path| p.to_string_lossy().into_owned();
        let mut ingest =
            vec!["ingest".to_string(), "--input".into(), s(tsv), "--out".into(), s(&self.snap)];
        let every = spec.checkpoint_every.to_string();
        ingest.extend(["--wal".into(), s(&self.wal), "--every".into(), every]);
        ingest.extend(input.detector_args());
        self.clear();
        let result = run_bed(bed, &ingest, out).map(|secs| out.ingest_s.push(secs));
        let ingested = result.is_ok();
        out.tally.record("bed ingest", result);
        ingested
    }

    /// A cold `bed restore` of the ingested WAL, checked against the oracle.
    fn restore(&self, bed: &Path, out: &mut E2e) {
        let s = |p: &Path| p.to_string_lossy().into_owned();
        let restore = [
            "restore",
            "--snapshot",
            &s(&self.snap),
            "--wal",
            &s(&self.wal),
            "--out",
            &s(&self.restored),
        ]
        .map(String::from);
        // Without a snapshot, restore replays the whole WAL.
        remove(&[self.snap.clone(), self.prev.clone(), self.restored.clone()]);
        let result = run_bed(bed, &restore, out).and_then(|secs| {
            out.restore_s.push(secs);
            let bytes = std::fs::read(&self.restored).map_err(|e| e.to_string())?;
            if bytes == out.oracle_bytes {
                Ok(())
            } else {
                Err("restored sketch differs from the oracle build".into())
            }
        });
        out.tally.record("bed restore", result);
    }

    fn clear(&self) {
        remove(&[self.wal.clone(), self.snap.clone(), self.prev.clone(), self.restored.clone()]);
    }
}

/// Epoch order seen by one load worker.
#[derive(Debug, Default, Clone, Copy)]
struct EpochOrder {
    /// The last generation answered on the worker's current connection.
    connection: u64,
    /// The highest generation the worker has been answered.
    highest: u64,
}

impl EpochOrder {
    /// Records an answer's generation: it may not go back on one
    /// connection, and only by one across connections — per-event answers
    /// come from the owning shard, and a publish updates the shards one
    /// after another.
    fn check(&mut self, generation: u64, new_connection: bool) -> Result<(), String> {
        let floor = if new_connection { self.highest.saturating_sub(1) } else { self.connection };
        if generation < floor {
            let on = if new_connection { "a new connection" } else { "one connection" };
            return Err(format!(
                "generation went back from {} to {generation} on {on}",
                self.highest
            ));
        }
        self.connection = generation;
        self.highest = self.highest.max(generation);
        Ok(())
    }
}

/// Checks one answer: transport, status, epoch order per connection, and
/// the payload against the whole-stream oracle (or queues it for a prefix
/// oracle). Returns the answer's epoch.
fn check_sent(
    query: &Query,
    n: usize,
    oracle: &AnyDetector,
    order: &mut [EpochOrder; loadgen::MAX_WORKERS],
    pending: &mut Vec<Pending>,
) -> Result<(u64, u64), String> {
    let (status, body) = query.sent.outcome.as_ref().map_err(|e| e.clone())?;
    if *status != 200 {
        return Err(format!("HTTP {status}: {}", body.trim()));
    }
    let body = json::parse(body)?;
    let (generation, arrivals) = workload::answer_epoch(&body)?;
    order[query.sent.worker].check(generation, query.sent.connect.is_some())?;
    if arrivals == n as u64 {
        let expected = oracle.queries().query(&query.request).map_err(|e| e.to_string())?;
        workload::check_answer(&expected, &body)?;
    } else if arrivals < n as u64 {
        pending.push(Pending { request: query.request, arrivals, body });
    } else {
        return Err(format!("epoch shows {arrivals} arrivals of {n}"));
    }
    Ok((generation, arrivals))
}

/// Sends `requests` open-loop at `rate` from `start`.
fn send(
    addr: SocketAddr,
    requests: &[QueryRequest],
    rate: f64,
    workers: usize,
    start: Instant,
    stop: impl Fn(&Sent) -> bool + Sync,
) -> Vec<Query> {
    let plan: Vec<Planned> = loadgen::fixed_rate(rate, requests.len())
        .zip(requests)
        .map(|(at, r)| Planned { at, path: workload::path(r) })
        .collect();
    let run = loadgen::run(addr, &plan, workers, start, stop);
    run.sent.into_iter().map(|sent| Query { request: requests[sent.index], sent }).collect()
}

/// Polls `/readyz` until the genesis epoch is published.
fn wait_ready(addr: SocketAddr) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut client = crate::http::Client::new(addr, Duration::from_secs(10));
    loop {
        match client.get("/readyz") {
            Ok(ex) if ex.status == 200 => return Ok(()),
            _ if Instant::now() > deadline => return Err("server never became ready".into()),
            _ => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Checks the queued mid-stream answers — a seeded handful of them —
/// against oracles rebuilt from the stream prefix each epoch covered.
fn check_prefixes(input: &Input, seed: u64, mut pending: Vec<Pending>, tally: &mut Tally) {
    let mut rng = Rng::new(seed ^ 0xC0FFEE);
    let mut chosen = Vec::new();
    while chosen.len() < MID_CHECKS && !pending.is_empty() {
        let i = rng.below(pending.len() as u64) as usize;
        chosen.push(pending.swap_remove(i));
    }
    chosen.sort_by_key(|p| p.arrivals);
    let mut det = input.empty_detector();
    let mut done = 0;
    for p in chosen {
        let upto = p.arrivals as usize;
        if let AnyDetector::Sharded(d) = &mut det {
            let _ = d.ingest_batch(&input.elements[done..upto]);
        }
        done = upto;
        let mut prefix = det.clone();
        prefix.finalize();
        let result = prefix
            .queries()
            .query(&p.request)
            .map_err(|e| e.to_string())
            .and_then(|expected| workload::check_answer(&expected, &p.body))
            .map_err(|e| format!("at {upto} arrivals: {e}"));
        tally.record("mid-stream answer", result);
    }
}

fn full_stream(sent: &Sent, n: usize) -> bool {
    let Ok((200, body)) = &sent.outcome else { return false };
    json::parse(body).and_then(|b| workload::answer_epoch(&b)).is_ok_and(|(_, a)| a == n as u64)
}

#[allow(clippy::too_many_arguments)]
fn serve_round(
    bed: &Path,
    spec: &Spec,
    input: &Input,
    tsv: &Path,
    oracle: &AnyDetector,
    seed: u64,
    out: &mut E2e,
    pending: &mut Vec<Pending>,
) -> Result<(), String> {
    let n = input.elements.len();
    let mut args = vec!["serve".to_string(), "--input".into(), tsv.to_string_lossy().into_owned()];
    args.extend(["--addr".into(), "127.0.0.1:0".into()]);
    args.extend(input.detector_args());
    args.extend(workload::serve_args());
    let mut server = Proc::spawn(Command::new(bed).args(&args), true).map_err(|e| e.to_string())?;
    let spawned = server.spawned();
    let line = server.first_line(Duration::from_secs(60))?;
    let addr: SocketAddr = line
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split('/').next())
        .and_then(|a| a.parse().ok())
        .ok_or_else(|| format!("no address in {line:?}"))?;
    wait_ready(addr)?;

    let mut order = [EpochOrder::default(); loadgen::MAX_WORKERS];
    let mut seen = BTreeSet::new();
    let mut check_all = |queries: &[Query], out: &mut E2e| {
        for q in queries {
            let result = check_sent(q, n, oracle, &mut order, pending).map(|(generation, _)| {
                seen.insert(generation);
            });
            out.tally.record("query", result);
        }
    };

    // Drain: live traffic, or one worker probing, until the whole stream
    // shows in an answer.
    let (live, traffic) = match spec.live {
        Some(traffic) => (true, traffic),
        None => (false, Traffic { rate: 1.0 / PROBE_EVERY.as_secs_f64(), mix: Mix::Points }),
    };
    let workers = if live { loadgen::MAX_WORKERS } else { 1 };
    let requests = workload::requests(input, traffic.mix, seed, (traffic.rate * 120.0) as usize);
    let start = Instant::now();
    let drain = send(addr, &requests, traffic.rate, workers, start, |s| full_stream(s, n));
    let visible = drain
        .iter()
        .find(|q| full_stream(&q.sent, n))
        .ok_or("the whole stream never became visible")?;
    out.setup_s.push((start - spawned + visible.sent.done).as_secs_f64());
    check_all(&drain, out);
    if live {
        out.measured.extend(drain);
    }

    if let Some(Traffic { rate, mix }) = spec.read {
        let count = ((rate * READ_SECONDS).round() as usize).max(1);
        let requests = workload::requests(input, mix, seed ^ 0x5EED, count);
        let read = send(addr, &requests, rate, loadgen::MAX_WORKERS, Instant::now(), |_| false);
        check_all(&read, out);
        if !live {
            out.measured.extend(read);
        }
    }

    server.terminate();
    let exited = server.wait(CHILD_TIMEOUT).map_err(|e| e.to_string())?;
    out.maxrss_kib = out.maxrss_kib.max(exited.maxrss_kib);
    let published = seen.last().copied().unwrap_or(0);
    out.generations.push((seen.len(), published));
    if !exited.success() {
        return Err(format!("bed serve exited with status {}", exited.status));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_step_back_by_at_most_one_across_connections() {
        let mut order = EpochOrder::default();
        assert!(order.check(67, true).is_ok());
        // A new connection may answer from a shard one publish behind, and
        // that connection then goes on from there.
        assert!(order.check(66, true).is_ok());
        assert!(order.check(66, false).is_ok());
        assert!(order.check(65, false).is_err());
        assert!(order.check(65, true).is_err());
        assert!(order.check(68, false).is_ok());
        assert!(order.check(67, false).is_err());
    }
}
