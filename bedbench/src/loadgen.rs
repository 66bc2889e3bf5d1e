//! Open-loop load generator.
//!
//! Requests follow a fixed schedule that does not slow down when the
//! server does. At most two workers send them, each with its own
//! [`Client`], so at most two connections are open at once. A request
//! whose due time passes while both workers are busy is sent late, and
//! its latency counts from when it was due: a stall shows in every
//! request it delays, and the lateness itself is reported.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::http::Client;

pub const MAX_WORKERS: usize = 2;

/// One request of the schedule: when it is due (after the run's start)
/// and what to fetch.
#[derive(Debug, Clone)]
pub struct Planned {
    pub at: Duration,
    pub path: String,
}

/// Evenly spaced due times: `count` requests at `rate` per second.
pub fn fixed_rate(rate: f64, count: usize) -> impl Iterator<Item = Duration> {
    (0..count).map(move |i| Duration::from_secs_f64(i as f64 / rate))
}

/// What happened to one planned request. Times are offsets from the
/// run's start.
#[derive(Debug, Clone)]
pub struct Sent {
    pub index: usize,
    pub worker: usize,
    pub scheduled: Duration,
    /// When a worker began sending it.
    pub sent: Duration,
    pub connect: Option<Duration>,
    pub written: Duration,
    pub done: Duration,
    /// Status and body, or the transport error.
    pub outcome: Result<(u16, String), String>,
}

impl Sent {
    /// From the due time to the last byte of the response.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.scheduled)
    }

    /// How late the generator sent it.
    pub fn late(&self) -> Duration {
        self.sent.saturating_sub(self.scheduled)
    }

    /// From the request written to the last response byte.
    pub fn server(&self) -> Duration {
        self.done.saturating_sub(self.written)
    }
}

#[derive(Debug, Default)]
pub struct Run {
    /// In schedule order; requests never sent (after a stop) are absent.
    pub sent: Vec<Sent>,
    pub connects: u64,
}

/// Sends `plan` from `start` with `workers` (at most [`MAX_WORKERS`])
/// workers. After each response, `stop` decides whether the run is over;
/// once it says so no further request is sent.
pub fn run(
    addr: SocketAddr,
    plan: &[Planned],
    workers: usize,
    start: Instant,
    stop: impl Fn(&Sent) -> bool + Sync,
) -> Run {
    let next = AtomicUsize::new(0);
    let stopped = AtomicBool::new(false);
    let out = Mutex::new(Run::default());
    std::thread::scope(|scope| {
        for worker in 0..workers.clamp(1, MAX_WORKERS) {
            let (next, stopped, out, stop) = (&next, &stopped, &out, &stop);
            scope.spawn(move || {
                let mut client = Client::new(addr, Duration::from_secs(10));
                let mut mine = Vec::new();
                while !stopped.load(Ordering::SeqCst) {
                    let index = next.fetch_add(1, Ordering::SeqCst);
                    let Some(planned) = plan.get(index) else { break };
                    let due = start + planned.at;
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                        if stopped.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                    let sent_at = Instant::now();
                    let (connect, written, done, outcome) = match client.get(&planned.path) {
                        Ok(ex) => (ex.connect, ex.written, ex.done, Ok((ex.status, ex.body))),
                        Err(e) => {
                            let now = Instant::now();
                            (None, now, now, Err(e.to_string()))
                        }
                    };
                    let sent = Sent {
                        index,
                        worker,
                        scheduled: planned.at,
                        sent: sent_at - start,
                        connect,
                        written: written - start,
                        done: done - start,
                        outcome,
                    };
                    if stop(&sent) {
                        stopped.store(true, Ordering::SeqCst);
                    }
                    mine.push(sent);
                }
                let mut out = out.lock().expect("a load worker panicked");
                out.sent.extend(mine);
                out.connects += client.connects;
            });
        }
    });
    let mut run = out.into_inner().expect("a load worker panicked");
    run.sent.sort_by_key(|s| s.index);
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead as _, BufReader, Write as _};
    use std::net::TcpListener;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        let s = Sent {
            index: 0,
            worker: 0,
            scheduled: ms(100),
            sent: ms(130),
            connect: None,
            written: ms(131),
            done: ms(140),
            outcome: Ok((200, String::new())),
        };
        assert_eq!(s.late(), ms(30));
        assert_eq!(s.latency(), ms(40));
        assert_eq!(s.server(), ms(9));
        let early = Sent { sent: ms(100), ..s };
        assert_eq!(early.late(), Duration::ZERO);
        assert_eq!(fixed_rate(100.0, 3).collect::<Vec<_>>(), vec![ms(0), ms(10), ms(20)]);
    }

    /// A server that answers each request after `delay`, closing every
    /// connection after its answer.
    fn slow_stub(delay: Duration, requests: usize) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for _ in 0..requests {
                let (stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream);
                let mut line = String::new();
                while reader.read_line(&mut line).unwrap_or(0) > 0 && line != "\r\n" {
                    line.clear();
                }
                std::thread::sleep(delay);
                let _ = reader.get_mut().write_all(
                    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok",
                );
            }
        });
        addr
    }

    #[test]
    fn a_busy_worker_makes_later_requests_late() {
        // One worker, a 40 ms server, requests due every 10 ms: request i
        // cannot start before 40·i ms, so it is at least 30·i ms late, and
        // its latency covers that lateness plus its own 40 ms.
        let addr = slow_stub(ms(40), 4);
        let plan: Vec<Planned> =
            fixed_rate(100.0, 4).map(|at| Planned { at, path: "/q".into() }).collect();
        let run = run(addr, &plan, 1, Instant::now(), |_| false);
        assert_eq!(run.sent.len(), 4);
        assert_eq!(run.connects, 4);
        for (i, s) in run.sent.iter().enumerate() {
            assert_eq!(s.index, i);
            assert!(s.outcome.is_ok(), "{:?}", s.outcome);
            assert!(s.late() >= ms(30 * i as u64), "request {i} late by {:?}", s.late());
            assert!(s.latency() >= s.late() + ms(40), "request {i}");
        }
    }

    #[test]
    fn stop_ends_the_run_and_two_workers_share_the_plan() {
        let addr = slow_stub(ms(1), 3);
        let plan: Vec<Planned> =
            fixed_rate(200.0, 50).map(|at| Planned { at, path: "/q".into() }).collect();
        let run = run(addr, &plan, 2, Instant::now(), |s| s.index >= 2);
        // Requests 0..=2 are answered; at most one more was in flight.
        assert!(run.sent.len() >= 3 && run.sent.len() <= 4, "{}", run.sent.len());
        assert!(run.sent.iter().take(3).all(|s| s.outcome.is_ok()));
    }
}
