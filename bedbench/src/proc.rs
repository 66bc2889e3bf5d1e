//! Child processes: wall time from spawn, peak RSS from `wait4`, and a
//! guard that stops and reaps the child on every exit path.

use std::io::{BufRead as _, BufReader};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    #[link_name = "sync"]
    fn sync_all();
}

/// Flushes every file system's dirty data to disk.
pub fn sync() {
    // SAFETY: `sync` takes no arguments and cannot fail.
    unsafe { sync_all() }
}

const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;

/// How a child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exited {
    /// Raw wait status; 0 means exit code 0.
    pub status: i32,
    /// From spawn to the moment it was reaped.
    pub elapsed: Duration,
    pub maxrss_kib: u64,
}

impl Exited {
    pub fn success(&self) -> bool {
        self.status == 0
    }
}

pub struct Proc {
    child: Child,
    spawned: Instant,
    reaped: bool,
    /// Drains the child's stdout after its first line; ends at EOF.
    reader: Option<JoinHandle<()>>,
}

impl Proc {
    /// Spawns `cmd` with stdin closed and stderr inherited; stdout is
    /// piped when `capture` is set, discarded otherwise.
    pub fn spawn(cmd: &mut Command, capture: bool) -> std::io::Result<Proc> {
        cmd.stdin(Stdio::null());
        cmd.stdout(if capture { Stdio::piped() } else { Stdio::null() });
        let spawned = Instant::now();
        let child = cmd.spawn()?;
        Ok(Proc { child, spawned, reaped: false, reader: None })
    }

    pub fn spawned(&self) -> Instant {
        self.spawned
    }

    /// The first line the child prints, waiting at most `timeout`.
    pub fn first_line(&mut self, timeout: Duration) -> Result<String, String> {
        let stdout: ChildStdout = self.child.stdout.take().ok_or("stdout not captured")?;
        let (tx, rx) = mpsc::channel();
        // The reader ends when the child closes its stdout, which
        // terminating and reaping the child guarantees.
        self.reader = Some(std::thread::spawn(move || {
            let mut line = String::new();
            let mut reader = BufReader::new(stdout);
            let _ = tx.send(reader.read_line(&mut line).map(|_| line));
            // Drain the rest so the child never blocks on a full pipe.
            let _ = std::io::copy(&mut reader, &mut std::io::sink());
        }));
        match rx.recv_timeout(timeout) {
            Ok(Ok(line)) if !line.is_empty() => Ok(line),
            Ok(Ok(_)) => Err("child closed stdout without a line".into()),
            Ok(Err(e)) => Err(e.to_string()),
            Err(_) => Err(format!("no output within {timeout:?}")),
        }
    }

    /// Asks the child to shut down (`SIGTERM`).
    pub fn terminate(&self) {
        // SAFETY: `kill` takes plain integers; the pid is our unreaped
        // child's, so it cannot name an unrelated process.
        unsafe { kill(self.child.id() as i32, SIGTERM) };
    }

    /// Waits for the child to exit, killing it after `timeout`.
    pub fn wait(mut self, timeout: Duration) -> std::io::Result<Exited> {
        let (pid, spawned) = (self.child.id() as i32, self.spawned);
        let (tx, rx) = mpsc::channel();
        let reaper = std::thread::spawn(move || {
            let _ = tx.send(reap(pid).map(|(status, maxrss_kib)| Exited {
                status,
                elapsed: spawned.elapsed(),
                maxrss_kib,
            }));
        });
        let result = match rx.recv_timeout(timeout) {
            Ok(result) => result,
            Err(_) => {
                // SAFETY: as in `terminate`; the reaper thread reaps it.
                unsafe { kill(pid, SIGKILL) };
                let _ = rx.recv();
                Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    format!("child did not exit within {timeout:?}"),
                ))
            }
        };
        self.reaped = reaper.join().is_ok();
        self.join_reader();
        result
    }

    fn join_reader(&mut self) {
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// Blocks until child `pid` exits: its raw wait status and peak RSS.
fn reap(pid: i32) -> std::io::Result<(i32, u64)> {
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: both pointers are to live, writable locals of the types
        // `wait4` fills on 64-bit Linux; the pid is our own child's.
        if unsafe { wait4(pid, &mut status, 0, &mut usage) } == pid {
            return Ok((status, usage.maxrss.max(0) as u64));
        }
        let e = std::io::Error::last_os_error();
        if e.kind() != std::io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if !self.reaped {
            // SAFETY: as in `terminate`; the blocking `wait4` then reaps
            // the killed child so no zombie outlives the benchmark.
            unsafe {
                kill(self.child.id() as i32, SIGKILL);
                wait4(self.child.id() as i32, std::ptr::null_mut(), 0, std::ptr::null_mut());
            }
        }
        self.join_reader();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waits_and_reports_status_and_rss() {
        let p = Proc::spawn(&mut Command::new("true"), false).unwrap();
        let exited = p.wait(Duration::from_secs(10)).unwrap();
        assert!(exited.success());
        assert!(exited.maxrss_kib > 0);

        let p = Proc::spawn(&mut Command::new("false"), false).unwrap();
        assert!(!p.wait(Duration::from_secs(10)).unwrap().success());
    }

    #[test]
    fn terminate_stops_a_running_child() {
        let mut cmd = Command::new("sh");
        cmd.args(["-c", "echo up; exec sleep 30"]);
        let mut p = Proc::spawn(&mut cmd, true).unwrap();
        assert_eq!(p.first_line(Duration::from_secs(10)).unwrap(), "up\n");
        p.terminate();
        let exited = p.wait(Duration::from_secs(10)).unwrap();
        assert!(!exited.success());
        assert!(exited.elapsed < Duration::from_secs(30));
    }
}
