//! The serving workloads: an in-process `geacc_server::Server` (one
//! event loop, one worker, WAL with `fsync always`) driven open-loop
//! over one connection by a seeded Poisson request stream.
//!
//! The load generator is one thread that writes each request at its
//! scheduled time regardless of replies and matches replies to
//! requests as they arrive. Every latency is timed from the
//! request's *scheduled* send time, so a stall is charged to every
//! request it delays. Reads carry no id — the daemon answers them
//! inline, in order, and caches identical lines per epoch — while
//! writes and solves carry their stream index as `id`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use geacc_bench::alloc;
use geacc_core::algorithms::bounds::trivial_upper_bound;
use geacc_core::algorithms::Algorithm;
use geacc_core::engine::{solve_on, SolveParams};
use geacc_core::parallel::Threads;
use geacc_core::{
    Arrangement, BudgetMeter, CandidateGraph, DynamicConfig, EventId, IncrementalArranger,
    Instance, Mutation, Side, SolveBudget, SolverPipeline,
};
use geacc_datagen::SyntheticConfig;
use geacc_server::metrics::ServerMetrics;
use geacc_server::poll::{POLLIN, POLLOUT};
use geacc_server::protocol::{self, Request};
use geacc_server::wal::{WalRecord, WalWriter};
use geacc_server::{recovery, FsyncPolicy, Server, ServerConfig, Service};
use serde_json::Value;

use crate::calib::Calibrator;
use crate::ladder::Ladder;
use crate::report::Report;
use crate::rng::SplitMix64;
use crate::stats::{fmt_level, limit_level, median, quantile, Summary};
use crate::sys;
use crate::trace::Tracer;
use crate::RunArgs;

/// Read latency limit at p99 (the CI read gate), microseconds.
pub const READ_LIMIT_US: f64 = 10_000.0;
/// Write latency limit at p99, microseconds.
pub const WRITE_LIMIT_US: f64 = 50_000.0;
/// The generator fell behind its schedule — its run is invalid, not
/// slow — when its median send lag exceeds the first limit (it is
/// several arrivals behind most of the time) or its p99 lag the second
/// (it alone would break every latency limit). Late sends short of that
/// (a descheduled vCPU on a busy host) are not "behind": they are
/// charged to the latencies, which are timed from the schedule.
pub const GEN_LAG_P50_LIMIT_US: f64 = 1_000.0;
pub const GEN_LAG_P99_LIMIT_US: f64 = WRITE_LIMIT_US;
/// Step ratio of the `max_rate_rps` ladder.
pub const LADDER_RATIO: f64 = 1.04;
/// Latency recorded for a failed or refused request: far past every
/// limit, so it counts as missing all of them.
const FAILED_US: f64 = 1e9;
/// A window's client-observed latencies count only if the host stole
/// at most this share of the guest's CPU during it.
pub const STEAL_LIMIT: f64 = 0.05;
/// Set-up rounds behind `setup_s` (median reported).
const SETUP_ROUNDS: usize = 5;
/// Windows of the fixed-rate phase.
const WINDOWS: usize = 5;
/// Server drift ratio (the daemon's default).
const DRIFT_RATIO: f64 = 0.2;

/// Request classes, in the order metrics list them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    QueryUser,
    QueryEvent,
    Mutate,
    Solve,
}

impl Class {
    pub const ALL: [Class; 4] = [
        Class::QueryUser,
        Class::QueryEvent,
        Class::Mutate,
        Class::Solve,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::QueryUser => "query_user",
            Class::QueryEvent => "query_event",
            Class::Mutate => "mutate",
            Class::Solve => "solve",
        }
    }

    fn is_read(self) -> bool {
        matches!(self, Class::QueryUser | Class::QueryEvent)
    }

    fn handle_span(self) -> &'static str {
        match self {
            Class::QueryUser => "service.handle.query_user",
            Class::QueryEvent => "service.handle.query_event",
            Class::Mutate => "service.handle.mutate",
            Class::Solve => "service.handle.solve",
        }
    }
}

/// One serving workload.
pub struct ServeSpec {
    /// Offered rate of the fixed-rate phase, requests per second.
    pub rate: f64,
    /// Fractions of `query_user` and `query_event`; the rest mutate.
    pub query_user: f64,
    pub query_event: f64,
    /// Every `solve_every`-th request is a greedy `solve`.
    pub solve_every: Option<u64>,
    /// The class whose latency is the workload's headline.
    pub headline: Class,
}

impl ServeSpec {
    /// Whether a request of `class` counts toward the headline latency
    /// (for a read headline, every read does).
    fn is_headline(&self, class: Class) -> bool {
        class == self.headline || (self.headline.is_read() && class.is_read())
    }

    /// Read-dominated traffic: inline reads over pinned epochs.
    pub fn read() -> ServeSpec {
        ServeSpec {
            rate: 5_000.0,
            query_user: 0.80,
            query_event: 0.18,
            solve_every: None,
            headline: Class::QueryUser,
        }
    }

    /// Write-heavy traffic: WAL, repair, re-pin and batched solves.
    pub fn write() -> ServeSpec {
        ServeSpec {
            rate: 300.0,
            query_user: 0.40,
            query_event: 0.10,
            solve_every: Some(500),
            headline: Class::Mutate,
        }
    }
}

/// The `index`-th served instance of a run: 100 × 2 000 at the paper's
/// defaults.
fn instance_config(seed: u64, index: usize) -> SyntheticConfig {
    SyntheticConfig {
        num_events: 100,
        num_users: 2_000,
        seed: SplitMix64::derive(seed, 0x5e7e + index as u64).next_u64(),
        ..SyntheticConfig::default()
    }
}

/// One request of a generated stream.
pub struct Req {
    /// Scheduled send time from the phase start, nanoseconds.
    pub at_ns: u64,
    pub class: Class,
    /// The user/event a read asks about.
    pub target: u64,
    pub line: Vec<u8>,
    pub mutation: Option<Mutation>,
}

/// A seeded Poisson stream of `duration` seconds at `rate`. Every
/// request is valid whatever order the daemon applies it in: reads
/// (answered inline, so they can overtake queued writes) only name
/// users of the base instance; mutations, applied in order by the one
/// worker, are valid against the state the stream has built so far —
/// ids in range, `a ≠ b`, capacities ≥ 1.
pub fn stream(spec: &ServeSpec, base: &Instance, rate: f64, duration: f64, seed: u64) -> Vec<Req> {
    let mut rng = SplitMix64::new(seed);
    let nv = base.num_events() as u64;
    let base_users = base.num_users() as u64;
    let mut nu = base_users;
    let dim = base.dim();
    let mean_gap_ns = 1e9 / rate;
    let mut at = 0.0f64;
    let mut out = Vec::with_capacity((rate * duration * 1.1) as usize + 16);
    loop {
        at += rng.exp(mean_gap_ns);
        if at >= duration * 1e9 {
            break;
        }
        let i = out.len() as u64;
        let roll = rng.next_f64();
        let class = match spec.solve_every {
            Some(every) if i % every == every - 1 => Class::Solve,
            _ if roll < spec.query_user => Class::QueryUser,
            _ if roll < spec.query_user + spec.query_event => Class::QueryEvent,
            _ => Class::Mutate,
        };
        let (target, line, mutation) = match class {
            Class::QueryUser => {
                let u = rng.below(base_users);
                (u, format!("{{\"op\":\"query_user\",\"user\":{u}}}\n"), None)
            }
            Class::QueryEvent => {
                let v = rng.below(nv);
                (
                    v,
                    format!("{{\"op\":\"query_event\",\"event\":{v}}}\n"),
                    None,
                )
            }
            Class::Solve => (
                0,
                format!("{{\"op\":\"solve\",\"id\":{i},\"algorithm\":\"greedy\"}}\n"),
                None,
            ),
            Class::Mutate => {
                let mutation = match rng.below(4) {
                    0 => {
                        nu += 1;
                        Mutation::AddUser {
                            attrs: (0..dim).map(|_| rng.next_f64() * 10_000.0).collect(),
                            capacity: rng.between(1, 4) as u32,
                        }
                    }
                    1 => Mutation::SetCapacity {
                        side: Side::User,
                        id: rng.below(nu) as u32,
                        capacity: rng.between(1, 4) as u32,
                    },
                    2 => Mutation::SetCapacity {
                        side: Side::Event,
                        id: rng.below(nv) as u32,
                        capacity: rng.between(1, 50) as u32,
                    },
                    _ => {
                        let a = rng.below(nv);
                        let b = (a + 1 + rng.below(nv - 1)) % nv;
                        Mutation::AddConflict {
                            a: EventId(a as u32),
                            b: EventId(b as u32),
                        }
                    }
                };
                let body = serde_json::to_string(&mutation).expect("mutations serialize");
                (
                    0,
                    format!("{{\"op\":\"mutate\",\"id\":{i},\"mutation\":{body}}}\n"),
                    Some(mutation),
                )
            }
        };
        out.push(Req {
            at_ns: at as u64,
            class,
            target,
            line: line.into_bytes(),
            mutation,
        });
    }
    out
}

// ---------------------------------------------------------------------
// The daemon and its control connection.
// ---------------------------------------------------------------------

/// A running in-process daemon plus the one client connection.
struct Daemon {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
    conn: TcpStream,
    reader: BufReader<TcpStream>,
    wal_dir: PathBuf,
    next_id: u64,
}

impl Daemon {
    fn start(wal_dir: PathBuf) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(&wal_dir);
        std::fs::create_dir_all(&wal_dir)
            .map_err(|e| format!("creating {}: {e}", wal_dir.display()))?;
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            io_threads: 1,
            solve_threads: Threads::single(),
            drift_ratio: DRIFT_RATIO,
            wal_dir: Some(wal_dir.clone()),
            fsync: FsyncPolicy::Always,
            ..ServerConfig::default()
        })
        .map_err(|e| format!("binding the server: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let stop = server.stop_handle();
        let handle = std::thread::spawn(move || {
            let _ = server.run();
        });
        let conn = TcpStream::connect(addr).map_err(|e| format!("connecting: {e}"))?;
        conn.set_nodelay(true).map_err(|e| e.to_string())?;
        conn.set_read_timeout(Some(Duration::from_millis(20)))
            .map_err(|e| e.to_string())?;
        let reader =
            BufReader::with_capacity(1 << 16, conn.try_clone().map_err(|e| e.to_string())?);
        Ok(Daemon {
            stop,
            handle: Some(handle),
            conn,
            reader,
            wal_dir,
            next_id: 1 << 40,
        })
    }

    /// One synchronous control call (`body` is the request object
    /// without `id`); lines that answer anything else — late replies of
    /// an aborted probe — are skipped.
    fn call(&mut self, body: &str) -> Result<Value, String> {
        self.next_id += 1;
        let id = self.next_id;
        let line = format!("{{\"id\":{id},{}\n", &body.trim_start()[1..]);
        (&self.conn)
            .write_all(line.as_bytes())
            .map_err(|e| format!("sending: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut buf = Vec::new();
        loop {
            if Instant::now() > deadline {
                return Err(format!("no reply to {body:.60} within 60 s"));
            }
            match self.reader.read_until(b'\n', &mut buf) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(_) if buf.ends_with(b"\n") => {
                    if reply_id(&buf) == Some(id) {
                        let value: Value = std::str::from_utf8(&buf)
                            .map_err(|e| e.to_string())
                            .and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string()))
                            .map_err(|e| format!("bad reply: {e}"))?;
                        if protocol::get(&value, "ok") != Some(&Value::Bool(true)) {
                            return Err(format!(
                                "{body:.60} failed: {}",
                                String::from_utf8_lossy(&buf)
                            ));
                        }
                        return protocol::get(&value, "data")
                            .cloned()
                            .ok_or("reply without data".into());
                    }
                    buf.clear();
                }
                Ok(_) => {}
                Err(e) if is_timeout(&e) => {}
                Err(e) => return Err(format!("reading: {e}")),
            }
        }
    }

    fn load(&mut self, instance_json: &str) -> Result<(), String> {
        self.call(&format!("{{\"op\":\"load\",\"instance\":{instance_json}}}"))
            .map(|_| ())
    }

    /// Pin the current epoch before a timed phase.
    fn warm_reads(&mut self) -> Result<(), String> {
        self.call("{\"op\":\"query_user\",\"user\":0}")?;
        self.call("{\"op\":\"query_event\",\"event\":0}")
            .map(|_| ())
    }

    fn stats(&mut self) -> Result<ServerCounters, String> {
        let value = self.call("{\"op\":\"stats\"}")?;
        let server = protocol::get(&value, "server").ok_or("stats without server section")?;
        let get = |key: &str| protocol::get_u64(server, key).unwrap_or(0);
        Ok(ServerCounters {
            errors: get("errors"),
            rejected: get("rejected"),
            wal_records: get("wal_records"),
            wal_bytes: get("wal_bytes"),
            pins_built: get("epoch_snapshots_built"),
            pinned_reads: get("epoch_pinned_reads"),
            batches: get("solve_batches"),
            batch_requests: get("solve_batch_requests"),
        })
    }
}

/// Stops the daemon, joins its threads and removes its WAL directory.
impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        let _ = std::fs::remove_dir_all(&self.wal_dir);
    }
}

/// The `stats` counters the per-layer metrics read.
#[derive(Debug, Clone, Copy, Default)]
struct ServerCounters {
    errors: u64,
    rejected: u64,
    wal_records: u64,
    wal_bytes: u64,
    pins_built: u64,
    pinned_reads: u64,
    batches: u64,
    batch_requests: u64,
}

impl ServerCounters {
    fn since(self, before: ServerCounters) -> ServerCounters {
        ServerCounters {
            errors: self.errors - before.errors,
            rejected: self.rejected - before.rejected,
            wal_records: self.wal_records - before.wal_records,
            wal_bytes: self.wal_bytes - before.wal_bytes,
            pins_built: self.pins_built - before.pins_built,
            pinned_reads: self.pinned_reads - before.pinned_reads,
            batches: self.batches - before.batches,
            batch_requests: self.batch_requests - before.batch_requests,
        }
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// The `id` of a reply line: `Some(n)` for `"id":n`, `None` for
/// `"id":null` or a line without one.
fn reply_id(line: &[u8]) -> Option<u64> {
    let key = b"\"id\":";
    let at = line.windows(key.len()).position(|w| w == key)? + key.len();
    let digits = line[at..].iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&line[at..at + digits])
        .ok()?
        .parse()
        .ok()
}

fn reply_ok(line: &[u8]) -> bool {
    line.starts_with(b"{\"ok\":true")
}

/// The `code` of an error reply (`"unparsed"` if it has none).
fn error_code(line: &[u8]) -> String {
    std::str::from_utf8(line)
        .ok()
        .and_then(|text| serde_json::from_str::<Value>(text).ok())
        .and_then(|v| {
            protocol::get(&v, "error")
                .and_then(|e| protocol::get_str(e, "code"))
                .map(String::from)
        })
        .unwrap_or_else(|| "unparsed".into())
}

// ---------------------------------------------------------------------
// The open-loop load generator.
// ---------------------------------------------------------------------

/// What one open-loop phase observed.
struct Phase {
    /// Per request: its class.
    classes: Vec<Class>,
    /// Requests written before the phase ended (all, unless aborted).
    sent: usize,
    /// Per request: latency from its scheduled send, µs; `FAILED_US`
    /// for failed, refused, or unanswered requests.
    lat_us: Vec<f64>,
    ok: Vec<bool>,
    /// Per sent request: how late the generator wrote it, µs, and the
    /// requests in flight once it was written.
    lag_us: Vec<f64>,
    inflight: Vec<u32>,
    /// Most requests in flight at once.
    max_backlog: u32,
    /// The backlog grew through the phase, or sending was aborted.
    growing: bool,
    aborted: bool,
    /// Sampled read replies whose body named the wrong user/event.
    mismatched: usize,
    /// Error codes of the failed replies, with counts.
    errors: std::collections::BTreeMap<String, usize>,
    /// First scheduled send to last reply, seconds.
    span_s: f64,
    /// Nanoseconds from the phase origin: scheduled send, write done,
    /// reply read (for the client spans of a traced run).
    due_ns: Vec<u64>,
    sent_ns: Vec<u64>,
    done_ns: Vec<u64>,
    /// The reply line being read.
    line_buf: Vec<u8>,
}

impl Phase {
    /// Buffers for phases of up to `n` requests.
    fn with_capacity(n: usize) -> Phase {
        Phase {
            classes: Vec::with_capacity(n),
            sent: 0,
            lat_us: Vec::with_capacity(n),
            ok: Vec::with_capacity(n),
            lag_us: Vec::with_capacity(n),
            inflight: Vec::with_capacity(n),
            max_backlog: 0,
            growing: false,
            aborted: false,
            mismatched: 0,
            errors: Default::default(),
            span_s: 0.0,
            due_ns: Vec::with_capacity(n),
            sent_ns: Vec::with_capacity(n),
            done_ns: Vec::with_capacity(n),
            line_buf: Vec::with_capacity(1 << 16),
        }
    }

    /// Empty the series for a phase of `reqs`, keeping their buffers.
    fn reset(&mut self, reqs: &[Req]) {
        let n = reqs.len();
        for v in [&mut self.due_ns, &mut self.sent_ns, &mut self.done_ns] {
            v.clear();
        }
        self.classes.clear();
        self.lat_us.clear();
        self.lag_us.clear();
        self.inflight.clear();
        self.line_buf.clear();
        self.ok.clear();
        self.ok.resize(n, false);
        self.done_ns.resize(n, 0);
        self.errors.clear();
        (self.sent, self.max_backlog, self.mismatched) = (0, 0, 0);
        (self.growing, self.aborted, self.span_s) = (false, false, 0.0);
    }

    /// Derive the per-request latencies and the phase summary from the
    /// raw series `drive` recorded.
    fn finish(&mut self, reqs: &[Req]) {
        self.sent = self.sent_ns.len();
        self.classes.extend(reqs.iter().map(|r| r.class));
        self.due_ns.extend(reqs.iter().map(|r| r.at_ns));
        for i in 0..reqs.len() {
            let done = self.done_ns[i];
            self.lat_us
                .push(if i < self.sent && self.ok[i] && done > 0 {
                    done.saturating_sub(self.due_ns[i]) as f64 / 1e3
                } else {
                    FAILED_US
                });
        }
        self.max_backlog = self.inflight.iter().copied().max().unwrap_or(0);
        self.growing = self.aborted || backlog_growing(&self.inflight);
        let last = self.done_ns.iter().copied().max().unwrap_or(0);
        let first = self.due_ns.first().copied().unwrap_or(0);
        self.span_s = last.saturating_sub(first) as f64 / 1e9;
    }
}

/// Every this-many-th read reply is parsed and checked against the
/// request (the rest are matched by order and `ok` prefix only).
const READ_CHECK_EVERY: usize = 64;

/// Drive `reqs` open-loop over the daemon's connection from one thread
/// (so the client adds a single runnable thread next to the daemon's
/// event loop and worker): it writes each request when due regardless
/// of replies, and between sends waits on the socket, stamping each
/// reply as it arrives. The wait ends slightly before each send and
/// spins the rest, so the send lands on schedule. Sending stops early if more
/// than `abort_backlog` requests are in flight (the probe has already
/// failed); unanswered requests count as failed. The per-request
/// series go into `out`, whose buffers are reserved beforehand so the
/// phase allocates nothing of its own.
fn drive(d: &mut Daemon, reqs: &[Req], abort_backlog: usize, out: &mut Phase) {
    const SPIN: Duration = Duration::from_micros(25);
    let n = reqs.len();
    out.reset(reqs);
    sys::tighten_timer_slack();
    let origin = Instant::now() + Duration::from_millis(5);
    let ns = |t: Instant| t.saturating_duration_since(origin).as_nanos() as u64;
    let due = |i: usize| origin + Duration::from_nanos(reqs[i].at_ns);
    let fd = d.conn.as_raw_fd();
    let mut conn = &d.conn;
    let reader = &mut d.reader;
    let _ = conn.set_nonblocking(true);

    // The request being written, how much of it is out, and when its
    // first byte was tried.
    let (mut next, mut written, mut tried) = (0usize, 0usize, None);
    let (mut got, mut reads_seen) = (0usize, 0usize);
    let mut read_cursor = 0usize;
    let mut closed = false;
    let mut drain_deadline: Option<Instant> = None;
    let buf = &mut out.line_buf;
    loop {
        // Send everything due.
        while next < n && !out.aborted {
            let now = Instant::now();
            if now < due(next) {
                break;
            }
            let first_try = *tried.get_or_insert(now);
            match conn.write(&reqs[next].line[written..]) {
                Ok(k) => written += k,
                Err(e) if is_timeout(&e) => break,
                Err(_) => out.aborted = true,
            }
            if written == reqs[next].line.len() {
                out.sent_ns.push(ns(Instant::now()));
                out.lag_us.push((first_try - due(next)).as_secs_f64() * 1e6);
                (written, tried) = (0, None);
                next += 1;
                let open = next.saturating_sub(got);
                out.inflight.push(open as u32);
                out.aborted |= open > abort_backlog;
            }
        }
        // Read every reply that has arrived.
        while !closed {
            match reader.read_until(b'\n', buf) {
                Ok(0) => closed = true,
                Ok(_) if buf.ends_with(b"\n") => {
                    let at = ns(Instant::now());
                    let index = match reply_id(buf) {
                        Some(id) if (id as usize) < n => Some(id as usize),
                        Some(_) => None, // a stale control reply
                        None => {
                            reads_seen += 1;
                            while read_cursor < n && !reqs[read_cursor].class.is_read() {
                                read_cursor += 1;
                            }
                            read_cursor += 1;
                            (read_cursor <= n).then_some(read_cursor - 1)
                        }
                    };
                    if let Some(i) = index {
                        out.done_ns[i] = at;
                        out.ok[i] = reply_ok(buf);
                        if !out.ok[i] {
                            *out.errors.entry(error_code(buf)).or_insert(0) += 1;
                        }
                        if out.ok[i]
                            && reqs[i].class.is_read()
                            && reads_seen % READ_CHECK_EVERY == 1
                            && !read_matches(buf, &reqs[i])
                        {
                            out.mismatched += 1;
                        }
                        got += 1;
                    }
                    buf.clear();
                }
                Ok(_) => closed = true, // end of stream mid-line
                Err(e) if is_timeout(&e) => break,
                Err(_) => closed = true,
            }
        }
        let sending = next < n && !out.aborted;
        if !sending {
            if got >= next || closed {
                break;
            }
            let deadline =
                *drain_deadline.get_or_insert_with(|| Instant::now() + Duration::from_secs(5));
            if Instant::now() > deadline {
                break;
            }
        }
        // Wait for a reply, for room to write, or for the next send.
        let now = Instant::now();
        let until = if sending && written == 0 {
            due(next)
        } else {
            now + Duration::from_millis(1)
        };
        let events = if sending && written > 0 {
            POLLIN | POLLOUT
        } else {
            POLLIN
        };
        if until > now + SPIN {
            sys::wait_io(fd, events, until - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
    let _ = conn.set_nonblocking(false);
    out.finish(reqs);
}

/// Parse a read reply and check it answers the request it was matched
/// to — which also proves the in-order matching of id-less replies.
fn read_matches(line: &[u8], req: &Req) -> bool {
    let Some(value) = std::str::from_utf8(line)
        .ok()
        .and_then(|text| serde_json::from_str::<Value>(text).ok())
    else {
        return false;
    };
    let key = match req.class {
        Class::QueryUser => "user",
        _ => "event",
    };
    protocol::get(&value, "data").and_then(|data| protocol::get_u64(data, key)) == Some(req.target)
}

/// In flight grew through a phase: the last third's mean backlog
/// exceeds the middle third's by half plus a small floor.
fn backlog_growing(inflight: &[u32]) -> bool {
    let k = inflight.len() / 3;
    if k == 0 {
        return false;
    }
    let mean = |xs: &[u32]| xs.iter().map(|&x| x as f64).sum::<f64>() / xs.len() as f64;
    mean(&inflight[2 * k..]) > 1.5 * mean(&inflight[k..2 * k]) + 8.0
}

impl Phase {
    /// Several windows as one sample (the per-request series are
    /// concatenated; the client-span timestamps are dropped).
    fn pool<'a>(windows: impl Iterator<Item = &'a Phase>) -> Phase {
        let mut out = Phase::with_capacity(0);
        for w in windows {
            out.classes.extend(&w.classes);
            out.sent += w.sent;
            out.lat_us.extend(&w.lat_us);
            out.ok.extend(&w.ok);
            out.lag_us.extend(&w.lag_us);
            out.max_backlog = out.max_backlog.max(w.max_backlog);
            out.growing |= w.growing;
            out.aborted |= w.aborted;
            out.mismatched += w.mismatched;
            for (code, count) in &w.errors {
                *out.errors.entry(code.clone()).or_insert(0) += count;
            }
            out.span_s += w.span_s;
        }
        out
    }

    fn latencies(&self, pick: impl Fn(Class) -> bool) -> Vec<f64> {
        self.classes
            .iter()
            .zip(&self.lat_us)
            .filter(|(&c, _)| pick(c))
            .map(|(_, &l)| l)
            .collect()
    }

    /// Sent requests per second of phase.
    fn achieved_rate(&self) -> f64 {
        self.sent as f64 / self.span_s.max(1e-9)
    }

    fn failed(&self) -> usize {
        self.ok.iter().filter(|&&ok| !ok).count()
    }

    /// The generator's lag at its tail level (p99 when the sample
    /// supports it), µs.
    fn lag_tail_us(&self) -> f64 {
        tail_at(&self.lag_us, 0.99)
    }

    /// `Some(why)` when the generator fell behind its schedule.
    fn generator_behind(&self) -> Option<String> {
        let p50 = median(&self.lag_us).unwrap_or(0.0);
        let tail = self.lag_tail_us();
        (p50 > GEN_LAG_P50_LIMIT_US || tail > GEN_LAG_P99_LIMIT_US)
            .then(|| format!("generator behind (send lag p50 {p50:.0} us, tail {tail:.0} us)"))
    }
}

/// The value at `target` (or the highest rule-supported level below
/// it); `FAILED_US` for a sample too small to judge.
fn tail_at(samples: &[f64], target: f64) -> f64 {
    let Some(q) = limit_level(samples.len(), target) else {
        return if samples.is_empty() { 0.0 } else { FAILED_US };
    };
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, q)
}

/// Why a phase misses the limits, or `None` when it meets them.
fn verdict(phase: &Phase) -> Option<String> {
    let reads = phase.latencies(Class::is_read);
    let writes = phase.latencies(|c| !c.is_read());
    if let Some(why) = phase.generator_behind() {
        return Some(why);
    }
    if phase.growing {
        return Some("backlog growing".into());
    }
    let read_tail = tail_at(&reads, 0.99);
    if read_tail > READ_LIMIT_US {
        return Some(format!("read tail {read_tail:.0} us"));
    }
    let write_tail = tail_at(&writes, 0.99);
    if write_tail > WRITE_LIMIT_US {
        return Some(format!("write tail {write_tail:.0} us"));
    }
    None
}

/// One named timing line: median, sample count, and the highest
/// percentile with ten samples beyond it.
fn describe(label: &str, samples: &[f64], unit_div: f64, unit: &str) -> String {
    match Summary::of(&samples.iter().map(|x| x / unit_div).collect::<Vec<_>>()) {
        Some(s) => format!("{label:<13}{:.4} {unit} ({s})", s.p50),
        None => format!("{label:<13}no samples"),
    }
}

// ---------------------------------------------------------------------
// Correctness: the served state against an independent replay.
// ---------------------------------------------------------------------

/// The served state after a window, as the audit found it.
struct Audited {
    max_sum: f64,
    /// The counting upper bound on the optimum of the live instance.
    upper_bound: f64,
    /// The fingerprint the daemon reports.
    served_fp: u64,
    /// Whether a pure replay of the log reproduces `served_fp`.
    replay_matches: bool,
}

/// Fetch a `snapshot`, replay its mutation log over its base instance
/// in-process, and audit the served arrangement against the replayed
/// live instance.
fn audit(
    d: &mut Daemon,
    report: &mut Report,
    tracer: &mut Tracer,
    tag: &str,
) -> Result<Audited, String> {
    let path = d.wal_dir.join("audit.json");
    d.call(&format!(
        "{{\"op\":\"snapshot\",\"path\":{}}}",
        crate::report::json_str(&path.display().to_string())
    ))?;
    let health = d.call("{\"op\":\"health\"}")?;
    let served_fp =
        protocol::get_u64(&health, "fingerprint").ok_or("health without fingerprint")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading snapshot: {e}"))?;
    let _ = std::fs::remove_file(&path);
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("parsing snapshot: {e}"))?;
    let field = |key: &str| {
        protocol::get(&doc, key)
            .cloned()
            .ok_or(format!("snapshot missing {key}"))
    };
    let base: Instance = serde_json::from_value(field("instance")?).map_err(|e| e.to_string())?;
    let log: Vec<Mutation> = serde_json::from_value(field("log")?).map_err(|e| e.to_string())?;
    let served: Arrangement =
        serde_json::from_value(field("arrangement")?).map_err(|e| e.to_string())?;
    let mut replay = IncrementalArranger::new(
        base,
        DynamicConfig {
            rebuild_drift_ratio: DRIFT_RATIO,
        },
    );
    let mut applied = true;
    for m in log.iter().cloned() {
        applied &= replay.apply(m).is_ok();
    }
    let violations = tracer.leaf("model.validate", 0, None, || {
        served.validate(replay.instance())
    });
    report.check(
        format!("{tag}.snapshot_validates"),
        applied && violations.is_empty(),
        format!(
            "{} logged mutations replayed, {} violation(s)",
            log.len(),
            violations.len()
        ),
    );
    Ok(Audited {
        max_sum: served.max_sum(),
        upper_bound: trivial_upper_bound(replay.instance()),
        served_fp,
        replay_matches: replay.fingerprint() == served_fp,
    })
}

// ---------------------------------------------------------------------
// The workload.
// ---------------------------------------------------------------------

/// The run's instances with their wire encoding, one per window.
type Served = Vec<(Instance, String)>;

/// Generate the run's instances, bind a daemon, load the first and
/// warm-solve it; returns the daemon with the set-up's CPU time (all
/// threads) and wall time, seconds.
fn set_up(
    args: &RunArgs,
    round: usize,
    tracer: &mut Tracer,
) -> Result<(Daemon, Served, f64, f64), String> {
    let (start, cpu0) = (Instant::now(), sys::process_cpu());
    let mut served = Vec::new();
    for index in 0..WINDOWS {
        let inst = tracer.leaf("datagen.generate", round as u64, None, || {
            instance_config(args.seed, index).generate()
        });
        let json = serde_json::to_string(&inst).map_err(|e| e.to_string())?;
        served.push((inst, json));
    }
    let wal_dir = args
        .out_dir
        .join(format!("wal-{}-{round}", std::process::id()));
    let mut d = Daemon::start(wal_dir)?;
    d.load(&served[0].1)?;
    d.call("{\"op\":\"solve\",\"algorithm\":\"greedy\"}")?;
    let cpu = (sys::process_cpu() - cpu0).as_secs_f64();
    Ok((d, served, cpu, start.elapsed().as_secs_f64()))
}

pub fn run(spec: &ServeSpec, args: &RunArgs) -> Result<Report, String> {
    let mut report = Report::default();
    let mut tracer = Tracer::new(args.trace);
    report.provenance(
        "instance",
        "100 x 2000 (d=20, cf=0.25, c_v U[1,50], c_u U[1,4]), one instance per window",
    );
    report.provenance(
        "server",
        "1 event loop, 1 worker, queue depth 64, solve threads 1",
    );
    report.provenance("fsync", "always");
    report.provenance(
        "load",
        "open loop, Poisson arrivals, 1 connection, 1 client thread",
    );
    report.provenance("rate_rps", spec.rate);

    // Set-up, several rounds; the last daemon stays up.
    let (mut setup, mut setup_wall) = (Vec::new(), Vec::new());
    let mut kept = None;
    let mut cal = Calibrator::new();
    for round in 0..SETUP_ROUNDS {
        cal.begin();
        let (d, served, cpu, wall) = set_up(args, round, &mut tracer)?;
        setup.push(cpu * cal.factor());
        setup_wall.push(wall);
        kept = Some((d, served)); // drops the previous round's daemon
    }
    let (mut d, served) = kept.expect("at least one set-up round");
    let (base, base_json) = (&served[0].0, served[0].1.as_str());
    let setup_s = median(&setup).expect("set-up rounds");

    let seconds = args.seconds as f64;
    let fixed_s = if args.trace {
        seconds * 0.3
    } else {
        seconds * 0.7
    };
    let abort = (spec.rate * 0.5) as usize + 1000;

    // The fixed-rate phase: WINDOWS windows, each on its own instance
    // from the set-up state (load + warm solve), so instance growth
    // stays bounded and a run averages over several instances.
    let streams: Vec<Vec<Req>> = served
        .iter()
        .enumerate()
        .map(|(w, (inst, _))| {
            let seed = SplitMix64::derive(args.seed, 1 + w as u64).next_u64();
            stream(spec, inst, spec.rate, fixed_s / WINDOWS as f64, seed)
        })
        .collect();
    // Client buffers come first, so the serving memory measured below
    // is the daemon's alone.
    let mut windows: Vec<Phase> = streams
        .iter()
        .map(|reqs| Phase::with_capacity(reqs.len()))
        .collect();
    let replay_dir = args.out_dir.join(format!("replay-{}", std::process::id()));
    let before = d.stats()?;
    let mut steals = Vec::new();
    let mut cpu_ms = Vec::new();
    let mut peaks_mb = Vec::new();
    let mut max_sums = Vec::new();
    let mut bounds = Vec::new();
    let mut service_head = Vec::new();
    let mut service_raw = Vec::new();
    for (w, reqs) in streams.iter().enumerate() {
        if w > 0 {
            d.load(&served[w].1)?;
            d.call("{\"op\":\"solve\",\"algorithm\":\"greedy\"}")?;
        }
        d.warm_reads()?;
        // Over the socket: the daemon's CPU (the process's, less this
        // client thread's), its heap growth, and the host's steal.
        cal.begin();
        let (started, steal_before) = (Instant::now(), sys::steal_ticks());
        let (process0, client0) = (sys::process_cpu(), sys::thread_cpu());
        let heap = alloc::live_bytes();
        alloc::reset_peak();
        drive(&mut d, reqs, abort, &mut windows[w]);
        let peak_mb = alloc::peak_bytes().saturating_sub(heap) as f64 / 1e6;
        let daemon_cpu =
            (sys::process_cpu() - process0).saturating_sub(sys::thread_cpu() - client0);
        let steal = sys::steal_frac(started, steal_before);
        let drive_speed = cal.factor();
        let audited = audit(&mut d, &mut report, &mut tracer, &format!("window{w}"))?;

        // In-process: the same stream, back to back, through the
        // service layer alone, with the WAL written but not fsynced. The
        // CPU an fsync costs is mostly the guest's exits to the host,
        // which follow the host's load rather than the code: with fsync
        // the mutate p50 rose by about 40 % as host steal went from 1 %
        // to 7 %, without it by about 10 %.
        cal.begin();
        let replay = replay_service(
            &served[w].1,
            reqs,
            &replay_dir,
            FsyncPolicy::Never,
            &mut Tracer::new(false),
        )?;
        let replay_speed = cal.factor();
        let head_cpu = replay
            .cpu_us
            .iter()
            .zip(reqs)
            .filter(|(_, r)| spec.is_headline(r.class))
            .map(|(l, _)| *l);
        service_raw.extend(head_cpu.clone());
        service_head.extend(head_cpu.map(|l| l * replay_speed));
        if spec.solve_every.is_none() {
            report.check(
                format!("window{w}.replay_fingerprint"),
                audited.replay_matches && replay.fingerprint == audited.served_fp,
                "in-process replays of the logged mutations and of the stream reproduce the served fingerprint",
            );
        }

        let head = windows[w].latencies(|c| spec.is_headline(c));
        report.line(format!(
            "window {w}     client p50 {:.1} us, tail {:.1} us; daemon CPU {:.1} us/request; serving heap +{peak_mb:.3} MB; host steal {}",
            median(&head).unwrap_or(FAILED_US),
            tail_at(&head, 0.99),
            daemon_cpu.as_secs_f64() * 1e6 / reqs.len() as f64,
            steal.map_or("unknown".into(), |s| format!("{:.1} %", s * 100.0)),
        ));
        steals.push(steal);
        cpu_ms.push(daemon_cpu.as_secs_f64() * 1e3 / reqs.len() as f64 * drive_speed);
        peaks_mb.push(peak_mb);
        max_sums.push(audited.max_sum);
        bounds.push(audited.upper_bound);
    }
    let counters = d.stats()?.since(before);
    let max_sum = max_sums.iter().sum::<f64>() / max_sums.len() as f64;
    let max_sum_frac = max_sums
        .iter()
        .zip(&bounds)
        .map(|(m, b)| m / b)
        .sum::<f64>()
        / max_sums.len() as f64;
    let fixed = Phase::pool(windows.iter());
    let attempted = fixed.classes.len();
    report.check(
        "fixed.read_replies",
        fixed.mismatched == 0,
        format!(
            "{} sampled read replies named the wrong user/event",
            fixed.mismatched
        ),
    );
    let behind = fixed.generator_behind();
    report.check(
        "fixed.generator_on_schedule",
        behind.is_none() && !fixed.aborted,
        format!(
            "{}; {} of {attempted} sent",
            behind.as_deref().unwrap_or("on schedule"),
            fixed.sent,
        ),
    );
    let failed = fixed.failed();
    report.attempted = attempted as u64;
    report.failed = failed as u64;

    // Client-observed latency says more about the host than about the
    // code in a window where the host took the CPU away, so only
    // windows with little steal count toward it.
    let quiet_windows: Vec<&Phase> = windows
        .iter()
        .zip(&steals)
        .filter(|(_, steal)| steal.unwrap_or(0.0) <= STEAL_LIMIT)
        .map(|(w, _)| w)
        .collect();
    let quiet = Phase::pool(quiet_windows.iter().copied());
    let reads = quiet.latencies(Class::is_read);
    let writes = quiet.latencies(|c| c == Class::Mutate);
    let solves = quiet.latencies(|c| c == Class::Solve);
    report.line(format!(
        "client       {} of {WINDOWS} windows had host steal <= {:.0} % and give the client-observed figures",
        quiet_windows.len(),
        STEAL_LIMIT * 100.0
    ));
    if quiet_windows.is_empty() {
        report.line("client       latency not reported: the host stole more in every window");
    } else {
        report.line(describe("read_p50_us", &reads, 1.0, "us"));
        report.line(describe("write_p50_us", &writes, 1.0, "us"));
        if spec.solve_every.is_some() {
            report.line(describe("solve_p50_ms", &solves, 1e3, "ms"));
        }
        for (label, samples) in [("read_p99_us", &reads), ("write_p99_us", &writes)] {
            let level = limit_level(samples.len(), 0.99)
                .map(fmt_level)
                .unwrap_or_else(|| "-".into());
            report.line(format!(
                "{label:<13}{:.1} us (at p{level})",
                tail_at(samples, 0.99)
            ));
        }
    }
    report.line(format!(
        "generator    lag p50 {:.1} us, tail {:.1} us, max {:.1} us; max backlog {} requests",
        median(&fixed.lag_us).unwrap_or(0.0),
        fixed.lag_tail_us(),
        fixed.lag_us.iter().copied().fold(0.0, f64::max),
        fixed.max_backlog
    ));
    report.line(format!(
        "failed_frac  {} ({failed} of {}; server errors {}, rejected {}; codes {:?})",
        failed as f64 / attempted as f64,
        attempted,
        counters.errors,
        counters.rejected,
        fixed.errors
    ));
    report.line(format!(
        "setup_s      {setup_s:.6} s CPU calibrated, {:.6} s wall (median of {SETUP_ROUNDS} rounds)",
        median(&setup_wall).expect("set-up rounds")
    ));
    report.line(format!(
        "max_sum      {max_sum} (served arrangement after each window, mean; {max_sum_frac:.6} of the counting bound)"
    ));
    let service = Summary::of(&service_head).ok_or("no headline requests")?;
    report.line(format!(
        "service      {} in-process CPU time, us: calibrated {service}; raw {}; reference median {:.2} ms (nominal {:.2} ms)",
        spec.headline.name(),
        Summary::of(&service_raw).ok_or("no headline requests")?,
        median(cal.refs()).expect("reference times") * 1e3,
        crate::calib::NOMINAL_S * 1e3,
    ));

    if args.trace {
        // One stream, long enough for several solves, drives both the
        // traced socket run and the in-process replays.
        let seed = SplitMix64::derive(args.seed, 99).next_u64();
        let reqs = stream(spec, base, spec.rate, seconds * 0.3, seed);
        traced_breakdown(
            spec,
            args,
            &mut d,
            base,
            base_json,
            &reqs,
            &mut report,
            &mut tracer,
        )?;
        drop(d);
        crate::write_spans(&tracer, args);
        return Ok(report);
    }

    // The capacity ladder: rung 0 is a quarter of the fixed rate, the
    // fixed phase itself is the rung at the fixed rate.
    let ladder = Ladder::new(spec.rate / 4.0, LADDER_RATIO, spec.rate * 32.0);
    let fixed_rung = ((4.0f64).ln() / LADDER_RATIO.ln()).round() as usize;
    let probe_s = (seconds * 0.3 / 7.0).max(0.5);
    let fixed_verdict = verdict(&fixed);
    let mut probes: Vec<(usize, f64, Option<String>)> = Vec::new();
    let mut probe_err = None;
    let mut achieved = std::collections::HashMap::new();
    achieved.insert(fixed_rung, fixed.achieved_rate());
    let (ladder_start, ladder_steal) = (Instant::now(), sys::steal_ticks());
    let mut probe = Phase::with_capacity(0);
    let best = ladder.search(fixed_rung, |k| {
        if k == fixed_rung {
            return fixed_verdict.is_none();
        }
        if probe_err.is_some() {
            return false;
        }
        let rate = ladder.rate(k);
        let seed = SplitMix64::derive(args.seed, 100 + k as u64).next_u64();
        let rung_reqs = stream(spec, base, rate, probe_s, seed);
        let outcome = d.load(base_json).and_then(|_| d.warm_reads());
        if let Err(e) = outcome {
            probe_err = Some(e);
            return false;
        }
        drive(&mut d, &rung_reqs, (rate * 0.25) as usize + 500, &mut probe);
        let why = verdict(&probe);
        achieved.insert(k, probe.achieved_rate());
        probes.push((k, rate, why.clone()));
        why.is_none()
    });
    if let Some(e) = probe_err {
        return Err(format!("ladder probe: {e}"));
    }
    let max_rate = if best == 0 {
        ladder.rate(0)
    } else {
        achieved[&best]
    };
    for (k, rate, why) in &probes {
        report.line(format!(
            "ladder       rung {k:>3} {rate:>9.0} req/s: {}",
            why.as_deref().unwrap_or("meets limits")
        ));
    }
    // Like the client latencies its rungs are judged by, the capacity
    // is only reported from a ladder the host left alone.
    let steal = sys::steal_frac(ladder_start, ladder_steal).unwrap_or(0.0);
    if steal <= STEAL_LIMIT {
        report.line(format!(
            "max_rate_rps {max_rate:.1} req/s (rung {best}, offered {:.0}; fixed rate {}; ratio {LADDER_RATIO})",
            ladder.rate(best),
            match &fixed_verdict {
                None => "meets limits".to_string(),
                Some(why) => format!("misses: {why}"),
            }
        ));
    } else {
        report.line(format!(
            "max_rate_rps not reported: the host stole {:.1} % of the guest's CPU during the ladder",
            steal * 100.0
        ));
    }
    drop(d);

    report.metric("setup_s", setup_s, "s");
    report.metric("p50_ms", service.p50 / 1e3, "ms");
    report.metric("tail_ms", tail_at(&service_head, 0.99) / 1e3, "ms");
    // Medians over the windows: one disturbed window cannot set them.
    report.metric("cpu_ms", median(&cpu_ms).expect("windows"), "ms");
    report.metric("max_sum_frac", max_sum_frac, "frac");
    report.metric("peak_mb", median(&peaks_mb).expect("windows"), "MB");
    report.metric(
        "ok_frac",
        (attempted - failed) as f64 / attempted as f64,
        "frac",
    );
    Ok(report)
}

// ---------------------------------------------------------------------
// The traced run: client spans over the socket, then the same stream
// replayed in-process through each layer's public calls.
// ---------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn traced_breakdown(
    spec: &ServeSpec,
    args: &RunArgs,
    d: &mut Daemon,
    base: &Instance,
    base_json: &str,
    reqs: &[Req],
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<(), String> {
    // Socket run with client spans, same stream from the same state.
    d.load(base_json)?;
    d.call("{\"op\":\"solve\",\"algorithm\":\"greedy\"}")?;
    d.warm_reads()?;
    let before = d.stats()?;
    let mut phase = Phase::with_capacity(reqs.len());
    drive(d, reqs, (spec.rate * 0.5) as usize + 1000, &mut phase);
    let counters = d.stats()?.since(before);
    audit(d, report, tracer, "traced")?;
    let origin = Instant::now();
    let at = |ns: u64| origin + Duration::from_nanos(ns);
    let mut client_p50 = std::collections::HashMap::new();
    for class in Class::ALL {
        let lat = phase.latencies(|c| c == class);
        client_p50.insert(class.name(), median(&lat).unwrap_or(0.0));
    }
    for i in 0..phase.sent {
        if phase.done_ns[i] == 0 {
            continue;
        }
        let root = tracer.record(
            "client.request",
            i as u64,
            None,
            at(phase.due_ns[i]),
            at(phase.done_ns[i]),
        );
        let send_start = phase.due_ns[i] + (phase.lag_us[i] * 1e3) as u64;
        tracer.record(
            "client.send",
            i as u64,
            Some(root),
            at(send_start),
            at(phase.sent_ns[i]),
        );
    }

    // In-process replay of the same stream through the service layer,
    // untraced, traced, untraced: the spans' cost is the paired
    // per-request ratio of the traced pass to the mean of the others.
    let replay_dir = args.out_dir.join(format!("replay-{}", std::process::id()));
    let first = replay_service(
        base_json,
        reqs,
        &replay_dir,
        FsyncPolicy::Always,
        &mut Tracer::new(false),
    )?;
    let traced = replay_service(base_json, reqs, &replay_dir, FsyncPolicy::Always, tracer)?;
    let last = replay_service(
        base_json,
        reqs,
        &replay_dir,
        FsyncPolicy::Always,
        &mut Tracer::new(false),
    )?;
    let replay_fp = traced.fingerprint;
    let ratios: Vec<f64> = (0..reqs.len())
        .map(|i| 2.0 * traced.cpu_us[i] / (first.cpu_us[i] + last.cpu_us[i]))
        .collect();
    let overhead = median(&ratios).unwrap_or(1.0) - 1.0;
    if spec.solve_every.is_none() {
        let health = d.call("{\"op\":\"health\"}")?;
        let served = protocol::get_u64(&health, "fingerprint");
        report.check(
            "traced.replay_matches_socket",
            served == Some(replay_fp),
            "the in-process service replay ends in the socket run's fingerprint",
        );
    }

    // The dynamic, WAL and pipeline layers on their own, same stream.
    layer_replays(base, reqs, &args.out_dir, report, tracer)?;

    let self_ns = tracer.self_times_by_name();
    let med = |name: &str| self_ns.get(name).and_then(|v| median(v)).unwrap_or(0.0);
    report.metric("datagen.generate_s", med("datagen.generate") / 1e9, "s");
    report.metric("graph.build_s", med("graph.build") / 1e9, "s");
    report.metric("solver.greedy_s", med("solver.greedy") / 1e9, "s");
    report.metric("model.validate_s", med("model.validate") / 1e9, "s");
    report.metric("protocol.parse_us", med("protocol.parse") / 1e3, "us");
    report.metric("protocol.write_us", med("protocol.write") / 1e3, "us");
    for class in Class::ALL {
        let handle_us = med(class.handle_span()) / 1e3;
        report.metric(
            format!("service.handle_us.{}", class.name()),
            handle_us,
            "us",
        );
        let loop_us = if handle_us > 0.0 {
            client_p50[class.name()] - handle_us
        } else {
            0.0
        };
        report.metric(format!("server.loop_us.{}", class.name()), loop_us, "us");
    }
    let pins = counters.pins_built + counters.pinned_reads;
    report.metric("epoch.pins_built", counters.pins_built as f64, "count");
    report.metric(
        "epoch.pin_reuse_ratio",
        ratio(counters.pinned_reads, pins),
        "frac",
    );
    report.metric("dynamic.apply_us", med("dynamic.apply") / 1e3, "us");
    report.metric(
        "dynamic.epoch_flats_us",
        med("dynamic.epoch_flats") / 1e3,
        "us",
    );
    report.metric("wal.append_us", med("wal.append") / 1e3, "us");
    report.metric("wal.fsync_us", med("wal.fsync") / 1e3, "us");
    report.metric(
        "wal.bytes_per_record",
        ratio(counters.wal_bytes, counters.wal_records),
        "B",
    );
    report.metric("pipeline.run_ms", med("pipeline.run") / 1e6, "ms");
    report.metric("batcher.batches", counters.batches as f64, "count");
    report.metric(
        "batcher.mean_size",
        ratio(counters.batch_requests, counters.batches),
        "count",
    );
    report.metric("server.rejected", counters.rejected as f64, "count");
    report.metric("server.errors", counters.errors as f64, "count");

    report.line(format!(
        "tracing overhead: in-process replay {:.3} s traced vs {:.3} s and {:.3} s untraced; median per-request CPU ratio {:.4}",
        traced.wall_s,
        first.wall_s,
        last.wall_s,
        1.0 + overhead
    ));
    report.metric("trace.overhead_frac", overhead, "frac");
    Ok(())
}

/// `n / d`, or 0 when nothing was counted.
fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// What an in-process replay of a stream observed.
struct Replay {
    /// The service's fingerprint after the last request.
    fingerprint: u64,
    /// Per request: CPU time of parse → handle → write, µs (thread CPU
    /// time, so neither the device's fsync wait nor CPU the host stole
    /// counts).
    cpu_us: Vec<f64>,
    /// The whole stream, seconds.
    wall_s: f64,
}

/// Replay `reqs` back to back through a fresh in-process `Service` (WAL
/// on, with the given fsync policy) loaded with `base_json`, taking the
/// CPU time of each request's parse → handle → write, with spans around
/// the three when `tracer` is on.
fn replay_service(
    base_json: &str,
    reqs: &[Req],
    dir: &Path,
    fsync: FsyncPolicy,
    tracer: &mut Tracer,
) -> Result<Replay, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let replayed = replay_in(base_json, reqs, dir, fsync, tracer);
    let _ = std::fs::remove_dir_all(dir);
    replayed
}

fn replay_in(
    base_json: &str,
    reqs: &[Req],
    dir: &Path,
    fsync: FsyncPolicy,
    tracer: &mut Tracer,
) -> Result<Replay, String> {
    let config = DynamicConfig {
        rebuild_drift_ratio: DRIFT_RATIO,
    };
    let rec = recovery::recover(dir, config).map_err(|e| format!("{e:?}"))?;
    let writer = recovery::open_writer(dir, fsync, &rec).map_err(|e| e.to_string())?;
    let service = Service::new(
        Arc::new(ServerMetrics::default()),
        Arc::new(AtomicBool::new(false)),
        Threads::single(),
        DRIFT_RATIO,
    );
    service.install_recovered(rec, writer, dir.to_path_buf(), fsync, None);
    let far = || Instant::now() + Duration::from_secs(60);
    let control = |line: &str| -> Result<Value, String> {
        let req = protocol::parse_request(line).map_err(|e| e.message)?;
        service.handle(&req, far()).map_err(|e| e.message)
    };
    control(&format!("{{\"op\":\"load\",\"instance\":{base_json}}}"))?;
    control("{\"op\":\"solve\",\"algorithm\":\"greedy\"}")?;
    let mut sink = Vec::with_capacity(1 << 16);
    let mut cpu_us = Vec::with_capacity(reqs.len());
    let started = Instant::now();
    for (i, r) in reqs.iter().enumerate() {
        let req_id = i as u64;
        let cpu0 = sys::thread_cpu();
        let root = tracer.begin("request", req_id, None);
        let text = std::str::from_utf8(&r.line).map_err(|e| e.to_string())?;
        let parsed: Result<Request, _> = tracer.leaf("protocol.parse", req_id, Some(root), || {
            protocol::parse_request(text)
        });
        let request = parsed.map_err(|e| e.message)?;
        let result = tracer.leaf(r.class.handle_span(), req_id, Some(root), || {
            service.handle(&request, far())
        });
        let data =
            result.map_err(|e| format!("replayed {} failed: {}", r.class.name(), e.message))?;
        tracer
            .leaf("protocol.write", req_id, Some(root), || {
                sink.clear();
                protocol::write_response(&mut sink, &protocol::ok_envelope(request.id, data))
            })
            .map_err(|e| e.to_string())?;
        tracer.end(root);
        cpu_us.push((sys::thread_cpu() - cpu0).as_secs_f64() * 1e6);
    }
    let wall_s = started.elapsed().as_secs_f64();
    let health = control("{\"op\":\"health\"}")?;
    let fingerprint =
        protocol::get_u64(&health, "fingerprint").ok_or("health without fingerprint")?;
    Ok(Replay {
        fingerprint,
        cpu_us,
        wall_s,
    })
}

/// The layers under the service, each driven directly with the same
/// stream: the CSR build and greedy kernel on the served instance, the
/// incremental arranger (apply, then the epoch CSR the next read
/// pins), the WAL writer (append and fsync split), and the solve
/// pipeline at each solve point.
fn layer_replays(
    base: &Instance,
    reqs: &[Req],
    out_dir: &Path,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let heap = alloc::live_bytes();
    alloc::reset_peak();
    let graph = tracer.leaf("graph.build", 0, None, || {
        CandidateGraph::build(base, Threads::single())
    });
    let build_bytes = alloc::peak_bytes().saturating_sub(heap) as f64;
    let candidates = graph.num_candidates() as f64;
    report.metric("graph.candidates", candidates, "count");
    report.metric(
        "graph.bytes_per_candidate",
        build_bytes / candidates.max(1.0),
        "B",
    );
    tracer.leaf("solver.greedy", 0, None, || {
        solve_on(
            &graph,
            Algorithm::Greedy,
            &SolveParams::default(),
            &BudgetMeter::unlimited(),
        )
    });
    drop(graph);

    let pipeline = SolverPipeline::new(Algorithm::Greedy, SolveBudget::UNLIMITED)
        .with_threads(Threads::single());
    let mut arranger = IncrementalArranger::new(
        base.clone(),
        DynamicConfig {
            rebuild_drift_ratio: DRIFT_RATIO,
        },
    );
    let warm = arranger.epoch_flats(Threads::single());
    let outcome = tracer.leaf("pipeline.run", 0, None, || {
        pipeline.run_on(&CandidateGraph::from_flats(arranger.instance(), warm))
    });
    arranger
        .adopt(outcome.arrangement)
        .map_err(|v| format!("warm solve rejected: {} violations", v.len()))?;

    let wal_path = out_dir.join(format!("replay-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&wal_path);
    let mut wal =
        WalWriter::open(&wal_path, FsyncPolicy::Never, 0, 0).map_err(|e| e.to_string())?;
    let mut repair_sizes = Vec::new();
    let result = (|| -> Result<(), String> {
        for (i, r) in reqs.iter().enumerate() {
            let req_id = i as u64;
            let next_is_read = reqs.get(i + 1).is_some_and(|n| n.class.is_read());
            match (&r.mutation, r.class) {
                (Some(m), _) => {
                    let record = WalRecord::Mutation {
                        mutation: m.clone(),
                    };
                    tracer
                        .leaf("wal.append", req_id, None, || wal.append(&record))
                        .map_err(|e| e.to_string())?;
                    tracer
                        .leaf("wal.fsync", req_id, None, || wal.sync_now())
                        .map_err(|e| e.to_string())?;
                    let applied =
                        tracer.leaf("dynamic.apply", req_id, None, || arranger.apply(m.clone()));
                    let repair = applied.map_err(|e| format!("replayed mutation failed: {e}"))?;
                    repair_sizes.push(repair.repair_size() as f64);
                    if next_is_read {
                        tracer.leaf("dynamic.epoch_flats", req_id, None, || {
                            arranger.epoch_flats(Threads::single())
                        });
                    }
                }
                (None, Class::Solve) => {
                    let flats = arranger.epoch_flats(Threads::single());
                    let outcome = tracer.leaf("pipeline.run", req_id, None, || {
                        pipeline.run_on(&CandidateGraph::from_flats(arranger.instance(), flats))
                    });
                    arranger
                        .adopt(outcome.arrangement)
                        .map_err(|v| format!("replayed solve rejected: {} violations", v.len()))?;
                }
                _ => {}
            }
        }
        Ok(())
    })();
    drop(wal);
    let _ = std::fs::remove_file(&wal_path);
    result?;
    let mean_repair = repair_sizes.iter().sum::<f64>() / repair_sizes.len().max(1) as f64;
    report.metric("dynamic.repair_size", mean_repair, "count");
    Ok(())
}
