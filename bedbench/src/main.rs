//! `bedbench` — end-to-end and per-layer benchmark of `bed`.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path bedbench/Cargo.toml -- \
//!     --workload serve_read --seed 1 --seconds 10 --trace 0
//! ```
//!
//! It builds the release `bed` binary, generates the workload's inputs from
//! the seed, runs the end-to-end phases (see `e2e`), checks every answer,
//! and prints a summary followed by one JSON line: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1` (which adds
//! the in-process traced run, see `traced`). Metric names, units and
//! bounds come from `BENCHMARK.json` in the working directory. `--steady N`
//! runs a workload with N seeds and prints each end-to-end metric's median,
//! quartiles and spread next to its bound. See `bedbench/README.md`.

mod e2e;
mod http;
mod json;
mod loadgen;
mod metrics;
mod proc;
mod spans;
mod stats;
mod traced;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

use crate::e2e::E2e;
use crate::metrics::{Benchmark, Metric};
use crate::stats::Timing;
use crate::workload::{Input, Mix, Spec};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    steady: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, steady: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--steady" => {
                args.steady = Some(value()?.parse().map_err(|e| format!("--steady: {e}"))?)
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if workload::spec(&args.workload).is_none() {
        let names: Vec<_> = workload::SPECS.iter().map(|s| s.name).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    Ok(args)
}

/// Builds the release `bed` binary from the checkout and returns its path.
fn build_bed() -> Result<PathBuf, String> {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"));
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet", "-p", "bed-cli", "--bin", "bed"])
        .env("CARGO_TARGET_DIR", &target)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building bed failed ({status})"));
    }
    let bed = target.join("release").join("bed");
    std::fs::canonicalize(&bed).map_err(|e| format!("{}: {e}", bed.display()))
}

/// Metric values in print order.
type Values = Vec<(&'static str, f64)>;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn end_to_end(e: &E2e) -> Values {
    let latency: Vec<f64> = e.measured.iter().map(|q| ms(q.sent.latency())).collect();
    let t = Timing::of(&latency);
    let med = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    vec![
        ("setup_s", med(&e.setup_s)),
        ("query_p50_ms", t.map_or(0.0, |t| t.p50)),
        ("query_p90_ms", t.map_or(0.0, |t| t.p90)),
        (
            "ingest_eps",
            if e.ingest_s.is_empty() { 0.0 } else { e.arrivals as f64 / med(&e.ingest_s) },
        ),
        // The fastest restore, not the median: a single-threaded restore
        // runs in either a fast or a slow mode set by the host's other
        // load (1.2 s or 2.2 s for the same WAL), and the median of a run
        // flips between the modes from run to run.
        ("recover_s", e.restore_s.iter().copied().reduce(f64::min).unwrap_or(0.0)),
        ("rss_peak_mb", e.maxrss_kib as f64 / 1024.0),
    ]
}

/// Runs both in-process replays and derives the per-layer metrics.
fn per_layer(
    spec: &Spec,
    input: &Input,
    e: &E2e,
    seed: u64,
    work: &Path,
    spans_out: &Path,
) -> Result<Values, String> {
    // The requests the server answered, in order, then a seeded mix of
    // every kind so each query span has samples on every workload.
    let mut requests: Vec<_> = e.measured.iter().map(|q| q.request).collect();
    requests.extend(workload::requests(input, Mix::AllKinds, seed ^ 0x7ACE, 120));
    let untraced = traced::replay(spec, input, &requests, work, &e.oracle_bytes, false)?;
    let run = traced::replay(spec, input, &requests, work, &e.oracle_bytes, true)?;
    run.recorder.write_json_lines(spans_out).map_err(|x| x.to_string())?;
    let rec = &run.recorder;
    let c = &run.counts;
    let n = input.elements.len() as f64;
    let med = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    let us = |name: &str| med(&rec.durations(name)) / 1e3;
    let ms_of = |name: &str| med(&rec.durations(name)) / 1e6;
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let served = || e.measured.iter().enumerate().filter(|(_, q)| q.sent.outcome.is_ok());
    let dispatch: BTreeMap<u64, f64> = rec
        .spans()
        .iter()
        .filter(|s| s.name == "request")
        .map(|s| (s.req, s.duration_ns() as f64 / 1e6))
        .collect();
    let shell: Vec<f64> = served()
        .filter_map(|(i, q)| Some(ms(q.sent.server()) - dispatch.get(&(i as u64))?))
        .collect();
    let late: Vec<f64> = e.measured.iter().map(|q| ms(q.sent.late())).collect();
    let connects: Vec<f64> =
        e.measured.iter().filter_map(|q| q.sent.connect).map(|d| d.as_secs_f64() * 1e6).collect();
    let conns_per_req = per(connects.len() as f64, e.measured.len() as f64);
    let server: Vec<f64> = served().map(|(_, q)| ms(q.sent.server())).collect();

    let publish = rec.durations("epoch.publish");
    let publish_ns: f64 = publish.iter().sum();
    let chunk_ns: f64 = rec.durations("ingest.chunk").iter().sum();
    let final_publish_ns = rec
        .spans()
        .iter()
        .filter(|s| s.name == "epoch.publish" && s.req == u64::MAX)
        .map(|s| s.duration_ns() as f64)
        .sum::<f64>();
    let read_ratio = e
        .generations
        .iter()
        .map(|&(seen, published)| seen as f64 / published.max(1) as f64)
        .sum::<f64>()
        / e.generations.len().max(1) as f64;
    let replay_ns = rec.durations("recover.replay").iter().sum::<f64>();

    Ok(vec![
        ("serve.connect_us", med(&connects)),
        ("serve.server_ms", med(&server)),
        ("serve.shell_ms", med(&shell)),
        ("serve.conns_per_req", conns_per_req),
        ("loadgen.late_ms", stats::percentile(&stats::sorted(&late), 0.9).unwrap_or(0.0)),
        ("query.point_us", us("query.point")),
        ("query.bursty_times_us", us("query.bursty_times")),
        ("query.bursty_events_us", us("query.bursty_events")),
        ("query.bursty_events_scan_us", us("query.bursty_events_scan")),
        ("query.series_us", us("query.series")),
        ("query.top_k_us", us("query.top_k")),
        ("epoch.view_us", us("epoch.view")),
        ("hierarchy.leaves_per_query", per(c.leaves_probed as f64, c.pruned_queries as f64)),
        ("hierarchy.point_queries_per_query", per(c.point_queries as f64, c.pruned_queries as f64)),
        ("hierarchy.hit_ratio", per(c.hits as f64, c.leaves_probed as f64)),
        ("ingest.ns_per_arrival", spans::total_self_ns(rec.spans(), "ingest.chunk") as f64 / n),
        ("epoch.publish_ms", ms_of("epoch.publish")),
        (
            "epoch.publish_p90_ms",
            stats::percentile(&stats::sorted(&publish), 0.9).unwrap_or(0.0) / 1e6,
        ),
        ("epoch.publishes", c.publishes as f64),
        ("epoch.publish_share", per(publish_ns, chunk_ns + final_publish_ns)),
        ("epoch.read_ratio", read_ratio),
        ("sketch.size_bytes", c.size_bytes as f64),
        ("epoch.bank_bytes", c.bank_bytes as f64),
        ("wal.batch_us", us("wal.batch")),
        ("wal.fsyncs", c.fsyncs as f64),
        ("checkpoint.save_ms", ms_of("checkpoint.save")),
        ("checkpoint.count", c.checkpoints as f64),
        ("durable.bytes_per_arrival", (c.wal_bytes + c.snapshot_bytes) as f64 / n),
        ("recover.replay_ns_per_record", per(replay_ns, c.records as f64)),
        ("recover.records", c.records as f64),
        ("recover.encode_ms", ms_of("recover.encode")),
        ("trace.overhead_pct", (run.wall_s - untraced.wall_s) / untraced.wall_s * 100.0),
    ])
}

/// One run of one workload: its tally and metric values.
struct Outcome {
    e2e: E2e,
    values: Values,
}

fn run_once(bed: &Path, spec: &Spec, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let base = PathBuf::from(".bench_work");
    let work = base.join(format!("{}-{seed}-{}", spec.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(err) = std::fs::create_dir_all(&work) {
        let mut e = E2e::default();
        e.tally.record("work dir", Err(err.to_string()));
        return Outcome { values: end_to_end(&e), e2e: e };
    }
    let input = Input::generate(spec.dataset, spec.n, seed);
    let mut e = e2e::run(bed, &work, spec, &input, seed, seconds);
    let values = if trace {
        let spans = base.join(format!("spans-{}-{seed}.jsonl", spec.name));
        match per_layer(spec, &input, &e, seed, &work, &spans) {
            Ok(values) => {
                e.tally.record("traced run", Ok(()));
                eprintln!("spans written to {}", spans.display());
                values
            }
            Err(err) => {
                e.tally.record("traced run", Err(err));
                Vec::new()
            }
        }
    } else {
        end_to_end(&e)
    };
    let _ = std::fs::remove_dir_all(&work);
    Outcome { e2e: e, values }
}

/// Pairs each metric `list` names with its value. A metric without one is
/// an error, unless the run already failed (its value is then printed as 0).
fn select<'a>(list: &'a [Metric], o: &Outcome) -> Result<Vec<(&'a Metric, f64)>, String> {
    list.iter()
        .map(|m| match o.values.iter().find(|(name, _)| *name == m.name) {
            Some(&(_, value)) => Ok((m, value)),
            None if o.e2e.tally.failed > 0 => Ok((m, 0.0)),
            None => Err(format!(
                "BENCHMARK.json names {}, which the benchmark does not measure",
                m.name
            )),
        })
        .collect()
}

fn print_outcome(
    bench: &Benchmark,
    spec: &Spec,
    seed: u64,
    o: &Outcome,
    trace: bool,
) -> Result<(), String> {
    let e = &o.e2e;
    let list = if trace { &bench.per_layer } else { &bench.end_to_end };
    let selected = select(list, o)?;
    println!("workload {} ({})", spec.name, bench.why(spec.name));
    println!(
        "seed {seed}: {} arrivals, {} operations attempted, {} failed",
        e.arrivals, e.tally.attempted, e.tally.failed
    );
    for note in &e.tally.notes {
        println!("  failure: {note}");
    }
    let latency: Vec<f64> = e.measured.iter().map(|q| ms(q.sent.latency())).collect();
    let tail = Timing::of(&latency).map_or(0, |t| t.beyond_p90());
    let each = |v: &[f64]| {
        let v: Vec<String> = v.iter().map(|x| format!("{x:.3}")).collect();
        format!("n={}: {} s", v.len(), v.join(" "))
    };
    let samples = |name: &str| match name {
        "setup_s" => each(&e.setup_s),
        "query_p50_ms" => format!("n={}", latency.len()),
        "query_p90_ms" => format!("n={}, {tail} beyond", latency.len()),
        "ingest_eps" => each(&e.ingest_s),
        "recover_s" => format!("fastest of {}", each(&e.restore_s)),
        _ => "peak over every bed process".into(),
    };
    for &(m, value) in &selected {
        let (name, unit) = (&m.name, format!("{} ({} is better)", m.unit, m.better));
        if trace {
            println!("  {name:<34} {value:>14.4} {unit:<26} -> {}", metrics::moves(name));
        } else {
            println!("  {name:<14} {value:>14.4} {unit:<28} {}", samples(name));
        }
    }
    let body: Vec<String> = selected
        .iter()
        .map(|&(m, value)| {
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        e.tally.failed == 0,
        e.tally.attempted.max(1),
        e.tally.failed,
        body.join(", ")
    );
    Ok(())
}

/// Runs `spec` with seeds `first..first + runs` and prints each
/// end-to-end metric's median, quartiles and spread beside its bound.
fn steady(
    bench: &Benchmark,
    bed: &Path,
    spec: &Spec,
    first: u64,
    runs: usize,
    seconds: f64,
) -> Result<bool, String> {
    let mut series: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut failed = 0;
    for seed in first..first + runs as u64 {
        let o = run_once(bed, spec, seed, seconds, false);
        print_outcome(bench, spec, seed, &o, false)?;
        failed += o.e2e.tally.failed;
        for (name, value) in o.values {
            series.entry(name).or_default().push(value);
        }
    }
    println!("\n{} over {runs} seeds from {first} ({failed} failed operations)", spec.name);
    println!(
        "  {:<14} {:>12} {:>12} {:>12} {:>8} {:>7} {:>9}",
        "metric", "median", "q1", "q3", "spread", "bound", "spread/b"
    );
    let mut steady = true;
    for m in &bench.end_to_end {
        let v = series.get(m.name.as_str()).map_or(&[][..], Vec::as_slice);
        let (q1, q3) = stats::quartiles(v).unwrap_or((f64::NAN, f64::NAN));
        let spread = stats::spread(v).unwrap_or(f64::NAN);
        let bound = m.bound.unwrap_or(f64::NAN);
        let ok = spread <= bound;
        steady &= ok;
        println!(
            "  {:<14} {:>12.4} {:>12.4} {:>12.4} {:>8.4} {:>7.3} {:>9.3}{}",
            m.name,
            stats::median(v).unwrap_or(f64::NAN),
            q1,
            q3,
            spread,
            bound,
            spread / bound,
            if ok { "" } else { "  OVER BOUND" }
        );
    }
    Ok(steady && failed == 0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bedbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bedbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let bench = Benchmark::load("BENCHMARK.json")?;
    let bed = build_bed()?;
    let spec = workload::spec(&args.workload).expect("validated in parse_args");
    if let Some(runs) = args.steady {
        return steady(&bench, &bed, spec, args.seed, runs, args.seconds);
    }
    let o = run_once(&bed, spec, args.seed, args.seconds, args.trace);
    print_outcome(&bench, spec, args.seed, &o, args.trace)?;
    Ok(true)
}
