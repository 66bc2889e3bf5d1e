//! The workloads: seeded inputs, the pinned `bed` flags, the request
//! mixes, and the in-process oracle every answer is checked against.

use std::fmt::Write as _;

use bed_core::{
    AnyDetector, BurstDetector, BurstSpan, EventId, PbeVariant, QueryRequest, QueryResponse,
    QueryStrategy, TimeRange, Timestamp,
};
use bed_workload::{olympics, politics};

use crate::json::Json;

/// Arrivals per epoch publish in `bed serve` (pinned, and the default).
pub const PUBLISH_EVERY: u64 = 8192;
/// Arrivals per locked ingest chunk in `bed serve`'s drain loop.
pub const SERVE_CHUNK: usize = 512;
const SHARDS: usize = 2;
/// Burst span of every query: one day of the generators' second ticks.
const TAU: u64 = 86_400;
const GAMMA: f64 = 8.0;
const EPSILON: f64 = 0.005;
const DELTA: f64 = 0.02;
const HASH_SEED: u64 = 0xBED;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dataset {
    /// US-politics-like stream: K = 1,689, Zipf-skewed popularity.
    Politics,
    /// Olympics-like stream: K = 864, marquee events with large bursts.
    Olympics,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mix {
    /// Every `/query` kind, bursty events both pruned and by exact scan.
    AllKinds,
    /// Point queries only.
    Points,
}

/// Open-loop traffic: requests per second and what they ask.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Traffic {
    pub rate: f64,
    pub mix: Mix,
}

/// One workload. A run has rounds on the workload's own stream, each going
/// through the same phases (see `e2e`): `bed ingest` with a WAL, cold
/// `bed restore`s from the WAL alone, and a spawn of `bed serve`, drained
/// to the full stream while `live` traffic runs and then queried with
/// `read` traffic. Its reason is the workload's `why` in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub dataset: Dataset,
    pub n: u64,
    pub checkpoint_every: u64,
    pub live: Option<Traffic>,
    pub read: Option<Traffic>,
}

pub const SPECS: [Spec; 2] = [
    Spec {
        name: "serve_read",
        dataset: Dataset::Politics,
        n: 300_000,
        checkpoint_every: 65_536,
        live: None,
        read: Some(Traffic { rate: 100.0, mix: Mix::AllKinds }),
    },
    Spec {
        name: "serve_live",
        dataset: Dataset::Olympics,
        n: 450_000,
        checkpoint_every: 16_384,
        live: Some(Traffic { rate: 50.0, mix: Mix::Points }),
        read: None,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// A generated stream.
pub struct Input {
    pub elements: Vec<(EventId, Timestamp)>,
    pub universe: u32,
    pub last_ts: u64,
}

impl Input {
    pub fn generate(dataset: Dataset, n: u64, seed: u64) -> Input {
        let (stream, universe) = match dataset {
            Dataset::Politics => {
                let s = politics::generate(politics::PoliticsConfig {
                    total_elements: n,
                    skew: 1.1,
                    seed,
                });
                (s.stream, s.universe)
            }
            Dataset::Olympics => {
                let s = olympics::generate(olympics::OlympicsConfig { total_elements: n, seed });
                (s.stream, s.universe)
            }
        };
        let elements: Vec<_> = stream.iter().map(|el| (el.event, el.ts)).collect();
        let last_ts = elements.last().map_or(0, |&(_, ts)| ts.ticks());
        Input { elements, universe, last_ts }
    }

    pub fn tsv(&self) -> String {
        let mut text = String::with_capacity(self.elements.len() * 12);
        for &(event, ts) in &self.elements {
            writeln!(text, "{}\t{}", event.0, ts.ticks()).expect("string write");
        }
        text
    }

    /// The arguments that fix the detector, spelled out so no default of
    /// `bed` can change under the benchmark.
    pub fn detector_args(&self) -> Vec<String> {
        [
            "--universe",
            &self.universe.to_string(),
            "--shards",
            &SHARDS.to_string(),
            "--variant",
            "pbe2",
            "--gamma",
            &GAMMA.to_string(),
            "--epsilon",
            &EPSILON.to_string(),
            "--delta",
            &DELTA.to_string(),
            "--seed",
            &HASH_SEED.to_string(),
        ]
        .map(String::from)
        .to_vec()
    }

    /// An empty detector configured exactly as [`Self::detector_args`]
    /// configures `bed`.
    pub fn empty_detector(&self) -> AnyDetector {
        let det = BurstDetector::builder()
            .variant(PbeVariant::pbe2(GAMMA))
            .accuracy(EPSILON, DELTA)
            .hierarchical(true)
            .seed(HASH_SEED)
            .universe(self.universe)
            .shards(SHARDS)
            .build()
            .expect("pinned detector configuration is valid");
        AnyDetector::Sharded(det)
    }

    /// The sketch of the first `prefix` arrivals, finalized, built the way
    /// `bed build` builds it.
    pub fn oracle(&self, prefix: usize) -> AnyDetector {
        let mut det = self.empty_detector();
        if let AnyDetector::Sharded(d) = &mut det {
            d.ingest_batch(&self.elements[..prefix]).expect("generated streams are ordered");
        }
        det.finalize();
        det
    }
}

/// The flags that keep `bed serve`'s own timers and tracing off, so the
/// load generator is the only source of load.
pub fn serve_args() -> Vec<String> {
    [
        "--sample",
        "0",
        "--watch-every-ms",
        "0",
        "--profile-every-ms",
        "0",
        "--publish-every",
        &PUBLISH_EVERY.to_string(),
    ]
    .map(String::from)
    .to_vec()
}

/// SplitMix64: a small seeded generator for the request mixes.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Query kinds as the per-layer metrics name them.
pub const KINDS: [&str; 6] =
    ["point", "bursty_times", "bursty_events", "bursty_events_scan", "series", "top_k"];

pub fn kind_of(request: &QueryRequest) -> &'static str {
    match request {
        QueryRequest::Point { .. } => "point",
        QueryRequest::BurstyTimes { .. } => "bursty_times",
        QueryRequest::BurstyEvents { strategy: QueryStrategy::Pruned, .. } => "bursty_events",
        QueryRequest::BurstyEvents { strategy: QueryStrategy::ExactScan, .. } => {
            "bursty_events_scan"
        }
        QueryRequest::Series { .. } => "series",
        QueryRequest::TopK { .. } => "top_k",
    }
}

/// `count` seeded requests of `mix` over `input`'s universe and time span.
pub fn requests(input: &Input, mix: Mix, seed: u64, count: usize) -> Vec<QueryRequest> {
    let mut rng = Rng::new(seed);
    let tau = BurstSpan::new(TAU).expect("positive span");
    let horizon = Timestamp(input.last_ts);
    (0..count)
        .map(|i| {
            let event = EventId(rng.below(u64::from(input.universe)) as u32);
            let t = Timestamp(rng.below(input.last_ts + 1));
            let kind = match mix {
                Mix::Points => 0,
                Mix::AllKinds => i % KINDS.len(),
            };
            match kind {
                0 => QueryRequest::Point { event, t, tau },
                1 => QueryRequest::BurstyTimes { event, theta: 50.0, tau, horizon },
                2 => QueryRequest::BurstyEvents {
                    t,
                    theta: 50.0,
                    tau,
                    strategy: QueryStrategy::Pruned,
                },
                3 => QueryRequest::BurstyEvents {
                    t,
                    theta: 50.0,
                    tau,
                    strategy: QueryStrategy::ExactScan,
                },
                4 => QueryRequest::Series {
                    event,
                    tau,
                    range: TimeRange { start: Timestamp(0), end: horizon },
                    step: (input.last_ts / 32).max(1),
                },
                _ => QueryRequest::TopK { event, k: 5, tau, horizon },
            }
        })
        .collect()
}

/// The `/query` URL of `request`.
pub fn path(request: &QueryRequest) -> String {
    match *request {
        QueryRequest::Point { event, t, tau } => {
            format!("/query?kind=point&event={}&t={}&tau={}", event.0, t.0, tau.ticks())
        }
        QueryRequest::BurstyTimes { event, theta, tau, horizon } => format!(
            "/query?kind=bursty_times&event={}&theta={theta}&tau={}&horizon={}",
            event.0,
            tau.ticks(),
            horizon.0
        ),
        QueryRequest::BurstyEvents { t, theta, tau, strategy } => {
            let strategy = match strategy {
                QueryStrategy::Pruned => "pruned",
                QueryStrategy::ExactScan => "exact_scan",
            };
            format!(
                "/query?kind=bursty_events&t={}&theta={theta}&tau={}&strategy={strategy}",
                t.0,
                tau.ticks()
            )
        }
        QueryRequest::Series { event, tau, range, step } => format!(
            "/query?kind=series&event={}&tau={}&start={}&end={}&step={step}",
            event.0,
            tau.ticks(),
            range.start.0,
            range.end.0
        ),
        QueryRequest::TopK { event, k, tau, horizon } => format!(
            "/query?kind=top_k&event={}&k={k}&tau={}&horizon={}",
            event.0,
            tau.ticks(),
            horizon.0
        ),
    }
}

/// The epoch an answer came from: `(generation, arrivals)`.
pub fn answer_epoch(body: &Json) -> Result<(u64, u64), String> {
    let epoch = body.get("epoch").ok_or("answer without an epoch")?;
    Ok((epoch.field("generation")? as u64, epoch.field("arrivals")? as u64))
}

/// Checks a parsed `/query` answer against the oracle's response.
pub fn check_answer(expected: &QueryResponse, body: &Json) -> Result<(), String> {
    let same = |key: &str, want: f64| -> Result<(), String> {
        let got = body.get(key).ok_or_else(|| format!("missing '{key}'"))?;
        match got {
            Json::Num(v) if *v == want => Ok(()),
            Json::Null if !want.is_finite() => Ok(()),
            other => Err(format!("'{key}': got {other:?}, oracle {want}")),
        }
    };
    match expected {
        QueryResponse::Point { burstiness, burst_frequency, cumulative, .. } => {
            same("burstiness", *burstiness)?;
            same("burst_frequency", *burst_frequency)?;
            same("cumulative", *cumulative)
        }
        QueryResponse::BurstyEvents { hits, stats } => {
            let got = body.get("hits").and_then(Json::arr).ok_or("missing 'hits'")?;
            let got: Vec<(f64, f64)> = got
                .iter()
                .map(|h| Ok((h.field("event")?, h.field("burstiness")?)))
                .collect::<Result<_, String>>()?;
            let want: Vec<(f64, f64)> =
                hits.iter().map(|h| (f64::from(h.event.0), h.burstiness)).collect();
            if got != want {
                return Err(format!("hits: got {got:?}, oracle {want:?}"));
            }
            let s = body.get("stats").ok_or("missing 'stats'")?;
            let got = (s.field("point_queries")?, s.field("leaves_probed")?);
            let want = (stats.point_queries as f64, stats.leaves_probed as f64);
            if got != want {
                return Err(format!("stats: got {got:?}, oracle {want:?}"));
            }
            Ok(())
        }
        other => {
            let want = other.samples().ok_or("unexpected response kind")?;
            let got = body.get("samples").and_then(Json::arr).ok_or("missing 'samples'")?;
            let got: Vec<(f64, f64)> = got
                .iter()
                .map(|pair| match pair.arr() {
                    Some([Json::Num(t), Json::Num(v)]) => Ok((*t, *v)),
                    _ => Err(format!("bad sample {pair:?}")),
                })
                .collect::<Result<_, String>>()?;
            let want: Vec<(f64, f64)> = want.iter().map(|(t, v)| (t.0 as f64, *v)).collect();
            if got != want {
                return Err(format!("samples differ: {} vs oracle {}", got.len(), want.len()));
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_are_seeded_and_cover_every_kind() {
        let input = Input::generate(Dataset::Olympics, 20_000, 3);
        let a = requests(&input, Mix::AllKinds, 9, 60);
        assert_eq!(a, requests(&input, Mix::AllKinds, 9, 60));
        assert_ne!(a, requests(&input, Mix::AllKinds, 10, 60));
        for kind in KINDS {
            assert!(a.iter().any(|r| kind_of(r) == kind), "{kind}");
        }
        assert!(requests(&input, Mix::Points, 9, 30).iter().all(|r| kind_of(r) == "point"));
    }

    #[test]
    fn the_oracle_answers_every_kind() {
        let input = Input::generate(Dataset::Olympics, 20_000, 3);
        let det = input.oracle(input.elements.len());
        for r in requests(&input, Mix::AllKinds, 1, 12) {
            det.queries().query(&r).unwrap();
        }
    }
}
