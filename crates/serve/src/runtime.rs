//! Ingest sources and the serve event loop.
//!
//! Three ways to feed a [`Daemon`]:
//!
//! - **File** — read a trace once, apply synchronously, shut down. The
//!   deterministic mode: same file, same config → same counters, which is
//!   what the chaos battery and the CI crash-recovery smoke rely on.
//! - **Tail** — follow a growing file (poll for appended bytes), until a
//!   `!stop` control line or `idle_timeout` with no new data.
//! - **Socket** — accept connections on a unix-domain socket; a pool of
//!   reader threads (sized by the solver thread plumbing, so
//!   `XBAR_THREADS` governs it like everything else) parses connections
//!   and forwards lines over a channel to the single apply loop. Engines
//!   stay single-owner: ingestion parallelism never races tenant state.
//!   Unlike file/tail, a socket does not re-feed the durable prefix
//!   after a restart, so sequence numbering resumes *past* the durable
//!   watermark ([`Daemon::seek_past_durable`]) instead of relying on
//!   re-feed deduplication.
//!
//! A line consisting of `!stop` cleanly shuts the daemon down from any
//! source (drain, snapshot, sync).
//!
//! # Commit points
//!
//! Every runtime calls [`Daemon::commit`] whenever its source goes idle,
//! so light load reaches the OS as soon as the lines stop and heavy load
//! every 256 WAL frames per tenant; no clock is read for it. The tail
//! commits before each 5 ms sleep, the socket when its channel is empty
//! (before it waits on it), and the file at EOF through the shutdown.
//!
//! A socket cannot re-feed what a crash lost, so its clients get an
//! explicit commit point: a line consisting of `!ack` makes the apply
//! loop drain and commit, and the daemon then writes `ack <n>` back on
//! that connection, where `n` counts the lines the connection sent
//! before the `!ack`. All of them are applied and in the OS. Only the
//! socket reader knows `!ack`: in a file or tailed file it is an ordinary
//! (malformed) line, as before, since those sources re-feed instead.

use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::daemon::Daemon;
use crate::ServeError;

/// Where events come from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Source {
    /// Read a trace file once and shut down.
    File(PathBuf),
    /// Follow a growing file until `!stop` or idle timeout.
    Tail(PathBuf),
    /// Accept line streams on a unix-domain socket until `!stop`.
    Socket(PathBuf),
}

/// The control line that cleanly shuts the daemon down.
pub const STOP_LINE: &str = "!stop";

/// The socket control line that commits everything the connection sent
/// before it; the daemon answers it with `ack <n>`.
pub const ACK_LINE: &str = "!ack";

/// What a run did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Raw lines ingested.
    pub lines: u64,
    /// Events applied.
    pub applied: u64,
    /// The run ended on a `!stop` control line (vs EOF / idle timeout).
    pub stopped: bool,
}

fn feed_line(daemon: &mut Daemon, line: &str, report: &mut RunReport) -> Result<bool, ServeError> {
    if line.trim() == STOP_LINE {
        report.stopped = true;
        return Ok(false);
    }
    daemon.ingest_line(line)?;
    report.lines += 1;
    let budget = daemon.pump_budget();
    report.applied += daemon.pump(budget)?;
    Ok(true)
}

/// Run the daemon over `source` until it is exhausted or stopped, then
/// shut down cleanly (drain + snapshot + sync).
pub fn run_source(
    daemon: &mut Daemon,
    source: &Source,
    idle_timeout: Duration,
) -> Result<RunReport, ServeError> {
    let mut report = RunReport::default();
    match source {
        Source::File(path) => {
            let file = std::fs::File::open(path).map_err(|e| ServeError::io(path, &e))?;
            for line in BufReader::new(file).lines() {
                let line = line.map_err(|e| ServeError::io(path, &e))?;
                if !feed_line(daemon, &line, &mut report)? {
                    break;
                }
            }
        }
        Source::Tail(path) => tail_file(daemon, path, idle_timeout, &mut report)?,
        Source::Socket(path) => {
            // A socket never re-feeds the durable prefix after a restart:
            // number fresh events past it, or they would be misread as
            // duplicates of the recovered stream.
            daemon.seek_past_durable();
            serve_socket(daemon, path, idle_timeout, &mut report)?;
        }
    }
    report.applied += daemon.drain()?;
    daemon.shutdown()?;
    Ok(report)
}

/// Follow `path`, applying lines as they are appended. Stops on a `!stop`
/// line or after `idle_timeout` with no growth. Partial trailing lines
/// (a writer mid-append) are left unread until their newline arrives.
fn tail_file(
    daemon: &mut Daemon,
    path: &Path,
    idle_timeout: Duration,
    report: &mut RunReport,
) -> Result<(), ServeError> {
    let mut offset = 0u64;
    let mut buf = String::new();
    let mut last_progress = Instant::now();
    loop {
        let len = std::fs::metadata(path)
            .map(|m| m.len())
            .map_err(|e| ServeError::io(path, &e))?;
        if len > offset {
            let mut file = std::fs::File::open(path).map_err(|e| ServeError::io(path, &e))?;
            file.seek(SeekFrom::Start(offset))
                .map_err(|e| ServeError::io(path, &e))?;
            let mut chunk = String::new();
            file.read_to_string(&mut chunk)
                .map_err(|e| ServeError::io(path, &e))?;
            // The writer may have appended since `len` was read: advance
            // by what was read, or those bytes would be read twice.
            offset += chunk.len() as u64;
            buf.push_str(&chunk);
            last_progress = Instant::now();
            // Apply every complete line; keep any partial tail for the
            // writer's next append.
            while let Some(nl) = buf.find('\n') {
                let line: String = buf.drain(..=nl).collect();
                if !feed_line(daemon, line.trim_end_matches('\n'), report)? {
                    return Ok(());
                }
            }
        } else if last_progress.elapsed() >= idle_timeout {
            return Ok(());
        } else {
            // The source is idle: commit before waiting for more.
            daemon.commit()?;
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// What a socket reader hands the apply loop.
enum Msg {
    /// One protocol line.
    Line(String),
    /// An `!ack`: drain, commit, then signal the reader.
    Ack(mpsc::Sender<()>),
}

/// Apply one socket message; `Ok(false)` on `!stop`.
fn apply_msg(daemon: &mut Daemon, msg: Msg, report: &mut RunReport) -> Result<bool, ServeError> {
    match msg {
        Msg::Line(line) => feed_line(daemon, &line, report),
        Msg::Ack(done) => {
            report.applied += daemon.drain()?;
            daemon.commit()?;
            let _ = done.send(());
            Ok(true)
        }
    }
}

/// Accept unix-socket connections; reader threads parse them into lines
/// and forward over a channel to this (single) apply loop.
fn serve_socket(
    daemon: &mut Daemon,
    path: &Path,
    idle_timeout: Duration,
    report: &mut RunReport,
) -> Result<(), ServeError> {
    use std::os::unix::net::UnixListener;
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path).map_err(|e| ServeError::io(path, &e))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| ServeError::io(path, &e))?;
    let (tx, rx) = mpsc::channel::<Msg>();
    // Reader pool cap from the shared thread plumbing (XBAR_THREADS).
    let max_readers = xbar_core::parallel::effective_threads();
    let mut readers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut last_progress = Instant::now();
    loop {
        readers.retain(|h| !h.is_finished());
        match listener.accept() {
            Ok((stream, _)) if readers.len() < max_readers => {
                let tx = tx.clone();
                readers.push(std::thread::spawn(move || read_connection(stream, &tx)));
            }
            Ok(_) => {
                // Pool full: the connection is dropped (refused); callers
                // retry. Bounded behaviour beats unbounded threads.
                xbar_obs::inc("serve.conn_refused");
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(e) => return Err(ServeError::io(path, &e)),
        }
        // Apply whatever is already buffered, then commit: the channel
        // is empty, so the source is idle.
        let mut msg = rx.try_recv().ok();
        if msg.is_none() {
            daemon.commit()?;
            match rx.recv_timeout(Duration::from_millis(5)) {
                Ok(m) => msg = Some(m),
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if last_progress.elapsed() >= idle_timeout {
                        let _ = std::fs::remove_file(path);
                        return Ok(());
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => unreachable!("tx kept alive above"),
            }
        }
        while let Some(m) = msg {
            last_progress = Instant::now();
            if !apply_msg(daemon, m, report)? {
                let _ = std::fs::remove_file(path);
                return Ok(());
            }
            msg = rx.try_recv().ok();
        }
    }
}

/// Forward one connection's lines to the apply loop until EOF or `!stop`,
/// answering each `!ack` with `ack <n>` once the apply loop has committed
/// the `n` lines sent before it.
fn read_connection(stream: std::os::unix::net::UnixStream, tx: &mpsc::Sender<Msg>) {
    let Ok(mut reply) = stream.try_clone() else {
        return;
    };
    let mut sent = 0u64;
    for line in BufReader::new(stream).lines() {
        let Ok(line) = line else { break };
        if line.trim() == ACK_LINE {
            let (done_tx, done_rx) = mpsc::channel();
            if tx.send(Msg::Ack(done_tx)).is_err()
                || done_rx.recv().is_err()
                || writeln!(reply, "ack {sent}").is_err()
            {
                break;
            }
            continue;
        }
        let stop = line.trim() == STOP_LINE;
        if tx.send(Msg::Line(line)).is_err() || stop {
            break;
        }
        sent += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::DaemonConfig;
    use std::io::Write;
    use xbar_core::{Dims, Model};
    use xbar_traffic::{TrafficClass, Workload};

    fn model() -> Model {
        Model::new(
            Dims::square(4),
            Workload::new().with(TrafficClass::poisson(0.7)),
        )
        .unwrap()
    }

    fn dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("xbar_runtime_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn file_source_applies_everything_and_shuts_down() {
        let d = dir("file");
        let trace = d.join("trace.txt");
        let mut f = std::fs::File::create(&trace).unwrap();
        for i in 0..40 {
            if i % 4 == 3 {
                writeln!(f, "t1 d 0").unwrap();
            } else {
                writeln!(f, "t1 a 0").unwrap();
            }
        }
        drop(f);
        let data = d.join("data");
        let (mut daemon, _) = Daemon::open(&data, &model(), DaemonConfig::default()).unwrap();
        let report = run_source(&mut daemon, &Source::File(trace), Duration::ZERO).unwrap();
        assert_eq!(report.lines, 40);
        assert!(!report.stopped);
        let acc = daemon.accounting();
        assert_eq!(acc.offers, 30);
        assert!(acc.holds());
        // Clean shutdown wrote a snapshot.
        assert!(crate::tenant::Tenant::snapshot_path(&data, "t1").exists());
    }

    #[test]
    fn stop_line_ends_a_file_run_early() {
        let d = dir("stop");
        let trace = d.join("trace.txt");
        std::fs::write(&trace, "t1 a 0\n!stop\nt1 a 0\n").unwrap();
        let (mut daemon, _) =
            Daemon::open(&d.join("data"), &model(), DaemonConfig::default()).unwrap();
        let report = run_source(&mut daemon, &Source::File(trace), Duration::ZERO).unwrap();
        assert!(report.stopped);
        assert_eq!(daemon.accounting().offers, 1, "line after !stop unread");
    }

    #[test]
    fn ack_in_a_file_is_a_malformed_line_that_takes_a_sequence_number() {
        let d = dir("file_ack");
        let trace = d.join("trace.txt");
        std::fs::write(&trace, "t1 a 0\n!ack\nt1 a 0\n").unwrap();
        let (mut daemon, _) =
            Daemon::open(&d.join("data"), &model(), DaemonConfig::default()).unwrap();
        let report = run_source(&mut daemon, &Source::File(trace), Duration::ZERO).unwrap();
        assert_eq!(report.lines, 3);
        assert_eq!(daemon.counters().malformed, 1);
        assert_eq!(daemon.tenant("t1").unwrap().durable_seq(), 3);
    }

    #[test]
    fn tail_source_follows_appends_until_stop() {
        let d = dir("tail");
        let trace = d.join("trace.txt");
        std::fs::write(&trace, "").unwrap();
        let writer_path = trace.clone();
        let writer = std::thread::spawn(move || {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&writer_path)
                .unwrap();
            for i in 0..20 {
                writeln!(f, "t1 a 0 @{i}").unwrap();
                f.flush().unwrap();
                std::thread::sleep(Duration::from_millis(1));
            }
            writeln!(f, "{STOP_LINE}").unwrap();
        });
        let (mut daemon, _) =
            Daemon::open(&d.join("data"), &model(), DaemonConfig::default()).unwrap();
        let report =
            run_source(&mut daemon, &Source::Tail(trace), Duration::from_secs(30)).unwrap();
        writer.join().unwrap();
        assert!(report.stopped);
        assert_eq!(report.lines, 20);
        assert_eq!(daemon.accounting().offers, 20);
    }

    #[test]
    fn socket_restart_does_not_swallow_fresh_events() {
        use std::os::unix::net::UnixStream;
        let d = dir("socket_restart");
        let data = d.join("data");
        let run = |sock: PathBuf, range: std::ops::Range<u32>, data: &PathBuf| {
            let sock_for_client = sock.clone();
            let client = std::thread::spawn(move || {
                let mut stream = loop {
                    match UnixStream::connect(&sock_for_client) {
                        Ok(s) => break s,
                        Err(_) => std::thread::sleep(Duration::from_millis(5)),
                    }
                };
                for i in range {
                    writeln!(stream, "t1 a 0 @{i}").unwrap();
                }
                writeln!(stream, "{STOP_LINE}").unwrap();
            });
            let (mut daemon, _) = Daemon::open(data, &model(), DaemonConfig::default()).unwrap();
            let report =
                run_source(&mut daemon, &Source::Socket(sock), Duration::from_secs(30)).unwrap();
            client.join().unwrap();
            (daemon, report)
        };
        let (daemon, report) = run(d.join("a.sock"), 0..10, &data);
        assert_eq!(report.applied, 10);
        drop(daemon);
        // Restart over the same durable state: a socket only delivers
        // *fresh* events (no re-feed from the top), and every one of them
        // must apply — not be mistaken for a duplicate of seqs 1..10.
        let (daemon, report) = run(d.join("b.sock"), 10..25, &data);
        assert_eq!(report.applied, 15, "every fresh event applied");
        assert_eq!(daemon.counters().duplicates, 0);
        let acc = daemon.accounting();
        assert_eq!(acc.offers, 25, "10 recovered + 15 fresh");
        assert!(acc.holds());
    }

    #[test]
    fn socket_ack_answers_once_every_line_before_it_is_in_the_wal() {
        use std::os::unix::net::UnixStream;
        let d = dir("socket_ack");
        let sock = d.join("xbar.sock");
        let data = d.join("data");
        let sock_for_client = sock.clone();
        let wal = crate::tenant::Tenant::wal_path(&data, "t1");
        let client = std::thread::spawn(move || {
            let mut stream = loop {
                match UnixStream::connect(&sock_for_client) {
                    Ok(s) => break s,
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            };
            for i in 0..300 {
                writeln!(stream, "t1 a 0 @{i}").unwrap();
            }
            writeln!(stream, "{ACK_LINE}").unwrap();
            let mut answer = String::new();
            BufReader::new(stream.try_clone().unwrap())
                .read_line(&mut answer)
                .unwrap();
            // The daemon is still running: the ack alone promises that
            // all 300 records are in the file, before any shutdown.
            let on_disk = crate::wal::recover(&wal).unwrap().records.len();
            writeln!(stream, "{STOP_LINE}").unwrap();
            (answer, on_disk)
        });
        let (mut daemon, _) = Daemon::open(&data, &model(), DaemonConfig::default()).unwrap();
        let report =
            run_source(&mut daemon, &Source::Socket(sock), Duration::from_secs(30)).unwrap();
        let (answer, on_disk) = client.join().unwrap();
        assert_eq!(answer, "ack 300\n");
        assert_eq!(on_disk, 300);
        assert!(report.stopped);
        assert_eq!(report.lines, 300, "the ack is a control line, not an event");
        assert_eq!(daemon.accounting().offers, 300);
    }

    #[test]
    fn socket_source_accepts_streams_until_stop() {
        use std::os::unix::net::UnixStream;
        let d = dir("socket");
        let sock = d.join("xbar.sock");
        let sock_for_client = sock.clone();
        let client = std::thread::spawn(move || {
            // Retry until the listener is up.
            let mut stream = loop {
                match UnixStream::connect(&sock_for_client) {
                    Ok(s) => break s,
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            };
            for i in 0..25 {
                writeln!(stream, "t1 a 0 @{i}").unwrap();
            }
            writeln!(stream, "{STOP_LINE}").unwrap();
        });
        let (mut daemon, _) =
            Daemon::open(&d.join("data"), &model(), DaemonConfig::default()).unwrap();
        let report =
            run_source(&mut daemon, &Source::Socket(sock), Duration::from_secs(30)).unwrap();
        client.join().unwrap();
        assert!(report.stopped);
        assert_eq!(daemon.accounting().offers, 25);
        assert!(daemon.accounting().holds());
    }
}
