//! `served_mix`: a fresh `scsqd` on a Unix socket, driven in a closed
//! loop by this process over one connection per core (at most two):
//! each connection sends its next statement only after the previous
//! reply. Parse, the session plan cache, per-run `Environment` set-up
//! and wire framing dominate; the simulation behind each statement is
//! small.
//!
//! The statement mix, drawn from the seed, is mostly `run` of prepared
//! small queries, plus repeated ad-hoc texts (plan-cache hits),
//! never-seen texts (compilations), re-`prepare`s and `show catalog`.
//! `create function` is sent only during set-up: functions are global to
//! a daemon and cannot be defined twice.
//!
//! A statement's host time is the CPU time it cost on both sides: the
//! load generator's thread inside `Client::statement`, plus the daemon
//! thread serving the connection.
//!
//! The shares of the mix are this benchmark's choice, not a recording:
//! the repository holds no recorded served traffic. They follow the
//! shape of an interactive client that prepares a few queries and then
//! mostly runs them, with some ad-hoc texts on the side.

use crate::check::{self, expected_frames};
use crate::layers::Layers;
use crate::stats::{median, peak_rss_mb, process_cpu_ns, quantile, thread_cpu_ns, Rng};
use crate::trace::Tracer;
use crate::{Config, Metric, Report};
use scsq_bench::{fig15, fig6, Scale};
use scsq_core::{
    Catalog, Client, Environment, Frame, FrameKind, HardwareSpec, QueryResult, RunOptions,
    ScsqError, Session, SessionHub, SessionReply,
};
use scsq_engine::{run_graph, QueryBuilder, QueryGraph};
use scsq_ql::{parse_program, statement_to_scsql, Statement};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

/// Set-ups per run at least; `setup_s` is their median.
const SETUPS: usize = 15;
/// Passes between two set-ups during the timed loop.
const SETUP_EVERY: usize = 10;
/// Passes every run makes at least; the daemon's peak memory is read
/// after this many, since the plan cache grows with every never-seen
/// text.
const MIN_PASSES: usize = 20;

fn connections() -> usize {
    thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    Setup,
    Run,
    Hit,
    Compile,
    Prepare,
    Show,
}

struct Stmt {
    kind: Kind,
    text: String,
}

/// Elements per `iota` stream of the small queries.
const STREAM: u64 = 250;

/// The run's function and prepared queries, drawn from the seed. The
/// draws stay in narrow ranges, so that every seed asks for about the
/// same work: a take of 90-100% of the stream, and a filter threshold
/// on 3x the stream that keeps 45-55% of it. The seed also orders every
/// block and numbers the never-seen texts.
struct Mix {
    function: String,
    prepared: Vec<String>,
    /// First comparison constant of the never-seen texts.
    fresh_base: u64,
}

impl Mix {
    fn new(seed: u64) -> Mix {
        let mut rng = Rng::new(seed, 11);
        let n = STREAM;
        Mix {
            function: "create function tally(integer k) -> stream as \
                       select extract(b) from sp a, sp b \
                       where b=sp(streamof(count(extract(a))), 'bg', 0) \
                       and a=sp(gen_array(1000,k),'bg',1);"
                .to_string(),
            prepared: vec![
                format!(
                    "select extract(b) from sp a, sp b \
                     where b=sp(streamof(count(extract(a))), 'bg', 0) \
                     and a=sp(gen_array(10000,4),'bg',1);"
                ),
                format!(
                    "select extract(c) from sp a, sp b1, sp c \
                     where c=sp(streamof(sum(extract(b1))), 'bg', 0) \
                     and b1=sp(filter(arith(extract(a), '*', 3), '>', {}), 'bg', 2) \
                     and a=sp(streamof(iota(1, {n})), 'bg', 1);",
                    rng.range(27 * n / 20, 33 * n / 20)
                ),
                format!(
                    "select extract(c) from sp a, sp b1, sp c \
                     where c=sp(streamof(sum(merge({{b1}}))), 'bg', 0) \
                     and b1=sp(streamof(sum(take(extract(a), {}))), 'bg', 2) \
                     and a=sp(streamof(iota(1,{n})),'bg',1);",
                    rng.range(9 * n / 10, n)
                ),
                "tally(4);".to_string(),
                // Paper queries at small scale, so that the served mix
                // also exercises the coalescer (Fig 6: two thirds of the
                // events are skipped) and the TCP path through the I/O
                // nodes (Fig 15 Query 5).
                fig6::query(Scale {
                    array_bytes: 3_000_000,
                    arrays: 4,
                    ..Scale::paper()
                }),
                fig15::query(
                    5,
                    Scale {
                        array_bytes: 100_000,
                        arrays: 4,
                        ..Scale::paper()
                    },
                ),
            ],
            fresh_base: rng.range(STREAM, 1 << 40),
        }
    }

    /// A text no statement of the run has used: the comparison constant
    /// changes the text but not the work, since `cmp` emits one boolean
    /// per element whatever the constant.
    fn fresh(&self, unique: u64) -> String {
        let unique = self.fresh_base + unique;
        format!(
            "select extract(c) from sp a, sp b1, sp c \
             where c=sp(streamof(sum(merge({{b1}}))), 'bg', 0) \
             and b1=sp(streamof(count(cmp(extract(a), '<', {unique}))), 'bg', 2) \
             and a=sp(streamof(iota(1,{STREAM})),'bg',1);"
        )
    }

    fn setup(&self, conn: usize) -> Vec<Stmt> {
        let define = (conn == 0).then(|| self.function.clone());
        define
            .into_iter()
            .chain(
                self.prepared
                    .iter()
                    .enumerate()
                    .map(|(i, q)| format!("prepare q{i} as {q}")),
            )
            .map(|text| Stmt {
                kind: Kind::Setup,
                text,
            })
            .collect()
    }

    /// Block `pass` of connection `conn`: for every prepared query 11
    /// `run`s, 2 repeats of its text and 1 re-`prepare`, plus 10
    /// never-seen texts and 6 `show catalog`s (100 statements), in an
    /// order the seed shuffles. Every block asks for the same work.
    fn block(&self, seed: u64, conn: usize, pass: usize) -> Vec<Stmt> {
        let slot = (pass * 2 + conn) as u64;
        let mut block = Vec::new();
        for (q, text) in self.prepared.iter().enumerate() {
            block.extend((0..11).map(|_| (Kind::Run, format!("run q{q};"))));
            block.extend((0..2).map(|_| (Kind::Hit, text.clone())));
            block.push((Kind::Prepare, format!("prepare q{q} as {text}")));
        }
        block.extend((0..10).map(|i| (Kind::Compile, self.fresh(slot * 10 + i))));
        block.extend((0..6).map(|_| (Kind::Show, "show catalog;".to_string())));
        let mut rng = Rng::new(seed, 1_000 + slot);
        for i in (1..block.len()).rev() {
            block.swap(i, rng.range(0, i as u64) as usize);
        }
        block
            .into_iter()
            .map(|(kind, text)| Stmt { kind, text })
            .collect()
    }
}

/// A daemon: the `scsqd` binary in a child process.
struct Daemon {
    socket: PathBuf,
    pid: u32,
    child: Child,
}

impl Daemon {
    fn spawn(bin: &Path, socket: PathBuf) -> io::Result<Daemon> {
        let _ = std::fs::remove_file(&socket);
        let mut child = Command::new(bin)
            .arg("--unix")
            .arg(&socket)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        BufReader::new(stdout).read_line(&mut line)?;
        let daemon = Daemon {
            socket,
            pid: child.id(),
            child,
        };
        if !line.starts_with("LISTEN ") {
            return Err(io::Error::other(format!(
                "scsqd did not announce LISTEN: {line:?}"
            )));
        }
        Ok(daemon)
    }

    /// Connects, and finds the daemon thread that serves the new
    /// connection.
    fn connect(&self) -> io::Result<Conn> {
        let before = self.tasks()?;
        let client = Client::connect_unix(&self.socket)?;
        let new: Vec<u32> = self
            .tasks()?
            .into_iter()
            .filter(|t| !before.contains(t))
            .collect();
        let [tid] = new[..] else {
            return Err(io::Error::other(format!(
                "expected one new scsqd thread per connection, found {new:?}"
            )));
        };
        Ok(Conn {
            client,
            sent: Vec::new(),
            pid: self.pid,
            tid,
            daemon_cpu: settled_cpu_ns(self.pid, tid)?,
        })
    }

    fn tasks(&self) -> io::Result<Vec<u32>> {
        std::fs::read_dir(format!("/proc/{}/task", self.pid))?
            .map(|e| Ok(e?.file_name().to_string_lossy().parse().unwrap_or(0)))
            .collect()
    }

    /// CPU time the daemon process has used.
    fn cpu_ns(&self) -> u64 {
        process_cpu_ns(self.pid)
    }

    /// Sends `.shutdown` and waits for the daemon to end.
    fn shutdown(mut self) -> io::Result<()> {
        let reply = self.connect()?.client.statement(".shutdown")?;
        if reply.last().map(|f| f.kind) != Some(FrameKind::Ok) {
            return Err(io::Error::other(format!("shutdown refused: {reply:?}")));
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        while self.child.try_wait()?.is_none() {
            if Instant::now() > deadline {
                return Err(io::Error::other("scsqd did not exit after .shutdown"));
            }
            thread::sleep(Duration::from_millis(2));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    /// Kills a daemon that is still running, and waits for it.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// CPU time of daemon thread `tid` once it has blocked again. The kernel
/// brings a thread's counter up to date when the thread stops running,
/// so the counter of a running thread lags; the daemon's connection
/// thread blocks reading the next statement right after each reply.
fn settled_cpu_ns(pid: u32, tid: u32) -> io::Result<u64> {
    let dir = format!("/proc/{pid}/task/{tid}");
    for _ in 0..1_000_000 {
        let stat = std::fs::read_to_string(format!("{dir}/stat"))?;
        let state = stat
            .rsplit(')')
            .next()
            .and_then(|rest| rest.split_whitespace().next());
        if state != Some("R") {
            let schedstat = std::fs::read_to_string(format!("{dir}/schedstat"))?;
            return schedstat
                .split_whitespace()
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| io::Error::other(format!("malformed {dir}/schedstat")));
        }
        thread::yield_now();
    }
    Err(io::Error::other(format!(
        "scsqd thread {tid} never blocked"
    )))
}

/// One statement as the load generator saw it.
struct Sent {
    kind: Kind,
    /// The pass it belongs to; `None` for set-up statements.
    pass: Option<usize>,
    text: String,
    frames: Vec<Frame>,
    cpu_ns: u64,
    wall_ns: u64,
}

/// Statements of one class do the same work: the same text, or any
/// never-seen text.
fn class(s: &Sent) -> (Kind, &str) {
    match s.kind {
        Kind::Compile => (s.kind, ""),
        _ => (s.kind, &s.text),
    }
}

/// A connection to the daemon and everything sent over it.
struct Conn {
    client: Client,
    sent: Vec<Sent>,
    pid: u32,
    /// The daemon thread serving this connection.
    tid: u32,
    /// That thread's CPU time after the previous statement.
    daemon_cpu: u64,
}

impl Conn {
    /// Sends one statement and waits for its reply; with a tracer, a
    /// `wire.statement` span covers the `Client::statement` call.
    fn send(
        &mut self,
        stmt: Stmt,
        pass: Option<usize>,
        tracer: Option<&mut Tracer>,
    ) -> io::Result<()> {
        let id = self.sent.len() as u64;
        let (wall, cpu) = (Instant::now(), thread_cpu_ns());
        let frames = match tracer {
            Some(tr) => tr.time(id, "wire.statement", None, || {
                self.client.statement(&stmt.text)
            }),
            None => self.client.statement(&stmt.text),
        }?;
        let (client_ns, wall_ns) = (thread_cpu_ns() - cpu, wall.elapsed().as_nanos() as u64);
        let now = settled_cpu_ns(self.pid, self.tid)?;
        let server_ns = now - self.daemon_cpu;
        self.daemon_cpu = now;
        self.sent.push(Sent {
            kind: stmt.kind,
            pass,
            text: stmt.text,
            frames,
            cpu_ns: client_ns + server_ns,
            wall_ns,
        });
        Ok(())
    }
}

struct Served {
    daemon: Daemon,
    conns: Vec<Conn>,
}

fn err(e: io::Error) -> ScsqError {
    ScsqError::Runtime(format!("served_mix: {e}"))
}

/// Starts a daemon, connects, and sends the set-up statements. Returns
/// them with the CPU time the set-up cost in both processes.
fn setup(cfg: &Config, mix: &Mix) -> io::Result<(Served, f64)> {
    static DAEMONS: AtomicUsize = AtomicUsize::new(0);
    let cpu = thread_cpu_ns();
    let k = DAEMONS.fetch_add(1, Ordering::Relaxed);
    let socket = cfg
        .out_dir
        .join(format!("scsqd-{}-{k}.sock", std::process::id()));
    let bin = cfg
        .scsqd
        .as_deref()
        .ok_or_else(|| io::Error::other("no scsqd binary given"))?;
    let daemon = Daemon::spawn(bin, socket)?;
    let mut conns = Vec::new();
    for c in 0..connections() {
        let mut conn = daemon.connect()?;
        for stmt in mix.setup(c) {
            conn.send(stmt, None, None)?;
        }
        conns.push(conn);
    }
    let cpu_ns = thread_cpu_ns() - cpu + daemon.cpu_ns();
    Ok((Served { daemon, conns }, cpu_ns as f64 / 1e9))
}

impl Served {
    fn close(self) -> io::Result<Vec<Conn>> {
        let mut conns = self.conns;
        for c in &mut conns {
            c.client.bye()?;
        }
        self.daemon.shutdown()?;
        Ok(conns)
    }
}

/// What an in-process session replies to `text`, statement by statement
/// as the daemon executes it.
fn session_frames(session: &mut Session, text: &str) -> (Vec<Frame>, Option<QueryResult>) {
    let stmts = match parse_program(text) {
        Ok(s) if !s.is_empty() => s,
        Ok(_) => {
            let e = ScsqError::Runtime("program contained no statement".into());
            return (expected_frames(&Err(e)), None);
        }
        Err(e) => {
            let frame = Frame {
                kind: FrameKind::Err,
                payload: e.to_string(),
            };
            return (vec![frame], None);
        }
    };
    let mut frames = Vec::new();
    let mut last = None;
    for stmt in &stmts {
        let reply = session.execute_statement(stmt);
        frames.extend(expected_frames(&reply));
        if let Ok(SessionReply::Result { result, .. }) = reply {
            last = Some(result);
        }
    }
    (frames, last)
}

/// A session on a fresh hub. Connection 0 defines the run's functions
/// itself; the others find them defined, as on the daemon.
fn fresh_session(mix: &Mix, conn: usize) -> Result<Session, ScsqError> {
    let hub = Arc::new(SessionHub::new());
    if conn != 0 {
        hub.session(HardwareSpec::lofar(), RunOptions::default())
            .execute(&mix.function)?;
    }
    Ok(hub.session(HardwareSpec::lofar(), RunOptions::default()))
}

/// One connection's replies checked against an in-process session,
/// with the results of the statements that ran a query.
struct Replay {
    failures: Vec<String>,
    failed: u64,
    results: Vec<Option<QueryResult>>,
    session: Session,
}

/// Replays connection `conn`'s statements on a fresh in-process session
/// and compares every reply; with a tracer, each statement gets a
/// `session.execute` span whose id is `ids + index`.
fn replay(
    mix: &Mix,
    conn: usize,
    sent: &[Sent],
    mut tracer: Option<(&mut Tracer, u64)>,
) -> Result<Replay, ScsqError> {
    let mut session = fresh_session(mix, conn)?;
    let (mut failures, mut failed) = (Vec::new(), 0);
    let mut results = Vec::with_capacity(sent.len());
    for (i, s) in sent.iter().enumerate() {
        let (want, result) = match tracer.as_mut() {
            Some((tr, ids)) => tr.time(*ids + i as u64, "session.execute", None, || {
                session_frames(&mut session, &s.text)
            }),
            None => session_frames(&mut session, &s.text),
        };
        if let Err(e) = check::check_reply(&s.frames, &want) {
            failed += 1;
            if failures.len() < 8 {
                failures.push(format!("`{}`: {e}", s.text));
            }
        }
        results.push(result);
    }
    Ok(Replay {
        failures,
        failed,
        results,
        session,
    })
}

pub fn run(cfg: &Config) -> Result<Report, ScsqError> {
    std::fs::create_dir_all(&cfg.out_dir).map_err(err)?;
    if cfg.trace {
        return run_traced(cfg);
    }
    let mix = Mix::new(cfg.seed);
    // A set-up that is timed and closed again, on a daemon of its own.
    let timed_setup = || -> io::Result<f64> {
        let (served, cpu_s) = setup(cfg, &mix)?;
        served.close()?;
        Ok(cpu_s)
    };
    let (Served { daemon, conns }, first_setup) = setup(cfg, &mix).map_err(err)?;
    let mut times = vec![first_setup];

    // Closed loop: every connection runs its block of the pass, then all
    // meet; the main thread decides whether to go on.
    let n = conns.len();
    let barrier = Arc::new(Barrier::new(n + 1));
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = conns
        .into_iter()
        .enumerate()
        .map(|(c, mut conn)| {
            let (barrier, stop) = (Arc::clone(&barrier), Arc::clone(&stop));
            let mix = Mix::new(cfg.seed);
            let seed = cfg.seed;
            thread::spawn(move || -> io::Result<Conn> {
                // After a failure the thread stops sending but keeps
                // meeting the others, so that the loop still ends.
                let mut failure = None;
                for pass in 0.. {
                    let block = mix.block(seed, c, pass);
                    barrier.wait();
                    if failure.is_none() {
                        failure = block
                            .into_iter()
                            .try_for_each(|s| conn.send(s, Some(pass), None))
                            .err();
                    }
                    barrier.wait();
                    barrier.wait();
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                }
                failure.map_or(Ok(conn), Err)
            })
        })
        .collect();
    let mut pass_wall = Vec::new();
    let mut rss = None;
    let mut setup_failure = None;
    let start = Instant::now();
    loop {
        barrier.wait();
        let t = Instant::now();
        barrier.wait();
        pass_wall.push(t.elapsed().as_secs_f64());
        if pass_wall.len() == MIN_PASSES {
            rss = peak_rss_mb(daemon.pid);
        }
        // While the connections wait, another set-up now and then, so
        // that the set-ups sample the host over the whole run.
        if pass_wall.len() % SETUP_EVERY == 0 {
            match timed_setup() {
                Ok(cpu_s) => times.push(cpu_s),
                Err(e) => setup_failure = Some(e),
            }
        }
        let done = setup_failure.is_some()
            || pass_wall.len() >= MIN_PASSES && start.elapsed().as_secs_f64() >= cfg.seconds;
        stop.store(done, Ordering::SeqCst);
        barrier.wait();
        if done {
            break;
        }
    }
    let conns = workers
        .into_iter()
        .map(|w| w.join().expect("load generator thread panicked"))
        .collect::<io::Result<Vec<Conn>>>()
        .map_err(err)?;
    if let Some(e) = setup_failure {
        return Err(err(e));
    }
    while times.len() < SETUPS {
        times.push(timed_setup().map_err(err)?);
    }
    let conns = Served { daemon, conns }.close().map_err(err)?;

    // Check every reply, one connection per thread.
    let checks: Vec<Result<Replay, ScsqError>> = thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let (mix, sent) = (&mix, &c.sent);
                s.spawn(move || replay(mix, i, sent, None))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let mut failures = Vec::new();
    let (mut attempted, mut failed, mut events) = (0, 0, 0);
    for (conn, check) in conns.iter().zip(checks) {
        let check = check?;
        attempted += conn.sent.len() as u64;
        failed += check.failed;
        failures.extend(check.failures);
        for (s, r) in conn.sent.iter().zip(&check.results) {
            if s.pass.is_some() {
                events += r.as_ref().map_or(0, |r| r.stats().events);
            }
        }
    }
    let timed: Vec<&Sent> = conns
        .iter()
        .flat_map(|c| c.sent.iter().filter(|s| s.pass.is_some()))
        .collect();
    // Each statement is charged the median cost of its class, so that a
    // few statements slowed by the rest of the host do not move the
    // figures. Every pass sends the same classes in the same numbers.
    let passes = pass_wall.len();
    let mut samples: HashMap<(Kind, &str), Vec<f64>> = HashMap::new();
    for s in &timed {
        samples
            .entry(class(s))
            .or_default()
            .push(s.cpu_ns as f64 / 1e6);
    }
    let cost: HashMap<(Kind, &str), f64> = samples.iter().map(|(k, v)| (*k, median(v))).collect();
    let stmt_ms: Vec<f64> = timed.iter().map(|s| cost[&class(s)]).collect();
    let run_ms: Vec<f64> = timed
        .iter()
        .filter(|s| s.kind == Kind::Run)
        .map(|s| cost[&class(s)])
        .collect();
    let pass_cpu_s = stmt_ms.iter().sum::<f64>() / 1e3 / passes as f64;
    let raw =
        |f: fn(&Sent) -> u64| median(&timed.iter().map(|s| f(s) as f64 / 1e6).collect::<Vec<_>>());
    let per_pass = |x: f64| x / passes as f64;
    Ok(Report {
        attempted,
        failed,
        failures,
        metrics: crate::end_to_end(crate::EndToEnd {
            setup_s: median(&times),
            pass_cpu_s,
            run_ms: &run_ms,
            stmt_ms: &stmt_ms,
            peak_rss_mb: rss.unwrap_or(f64::NAN),
        }),
        extras: vec![
            Metric::new(
                "sim_events_per_cpu_s",
                per_pass(events as f64) / pass_cpu_s,
                "1/s",
            ),
            Metric::new(
                "stmts_per_cpu_s",
                per_pass(stmt_ms.len() as f64) / pass_cpu_s,
                "1/s",
            ),
            Metric::new("stmt_cpu_p50_ms", quantile(&stmt_ms, 0.5), "ms"),
            Metric::new("pass_wall_median_s", median(&pass_wall), "s"),
            Metric::new("stmt_cpu_median_ms", raw(|s| s.cpu_ns), "ms"),
            Metric::new("stmt_wall_median_ms", raw(|s| s.wall_ns), "ms"),
        ],
        samples: vec![
            ("setup_s", times.len()),
            ("passes", passes),
            ("statement_classes", cost.len()),
            ("run_statements", run_ms.len()),
            ("statements", stmt_ms.len()),
            ("connections", n),
        ],
        tracer: None,
    })
}

/// The stepwise replay of one connection's statements through the
/// layers' public functions, with a span around each call.
struct Stepwise {
    catalog: Catalog,
    names: HashMap<String, String>,
    graphs: HashMap<String, QueryGraph>,
    spec: HardwareSpec,
    options: RunOptions,
}

impl Stepwise {
    /// A replay for connection `conn`, which finds the run's functions
    /// defined unless it defines them itself.
    fn new(mix: &Mix, conn: usize) -> Result<Stepwise, ScsqError> {
        let mut catalog = Catalog::new();
        if conn != 0 {
            for stmt in parse_program(&mix.function)? {
                if let Statement::CreateFunction(def) = stmt {
                    catalog.define(def)?;
                }
            }
        }
        Ok(Stepwise {
            catalog,
            names: HashMap::new(),
            graphs: HashMap::new(),
            spec: HardwareSpec::lofar(),
            options: RunOptions::default(),
        })
    }

    /// Compiles `stmt` unless its canonical text was compiled before (as
    /// the session hub's plan cache does); returns the text.
    fn compile(
        &mut self,
        tr: &mut Tracer,
        id: u64,
        root: usize,
        stmt: &Statement,
    ) -> Result<String, ScsqError> {
        let key = statement_to_scsql(stmt);
        if !self.graphs.contains_key(&key) {
            let graph = tr.time(id, "engine.build", Some(root), || {
                let mut env = Environment::new(self.spec.clone());
                QueryBuilder::new(
                    &mut env,
                    &self.catalog,
                    self.options.placement,
                    &self.options,
                )
                .build(stmt, &[])
            })?;
            self.graphs.insert(key.clone(), graph);
        }
        Ok(key)
    }

    fn execute(
        &mut self,
        tr: &mut Tracer,
        id: u64,
        root: usize,
        key: &str,
    ) -> Result<QueryResult, ScsqError> {
        let env = tr.time(id, "cluster.env_new", Some(root), || {
            Environment::new(self.spec.clone())
        });
        let graph = &self.graphs[key];
        tr.time(id, "engine.run_graph", Some(root), || {
            run_graph(env, graph, &self.options)
        })
    }

    fn statement(
        &mut self,
        tr: &mut Tracer,
        id: u64,
        text: &str,
    ) -> Result<Option<QueryResult>, ScsqError> {
        let root = tr.open(id, "stmt", None);
        let mut last = None;
        for stmt in tr.time(id, "ql.parse", Some(root), || parse_program(text))? {
            match &stmt {
                Statement::CreateFunction(def) => self.catalog.define(def.clone())?,
                Statement::Prepare { name, body } => {
                    let key = self.compile(tr, id, root, body)?;
                    self.names.insert(name.clone(), key);
                }
                Statement::Run(name) => {
                    let key = self.names[name].clone();
                    last = Some(self.execute(tr, id, root, &key)?);
                }
                Statement::ShowCatalog => {}
                query => {
                    let key = self.compile(tr, id, root, query)?;
                    last = Some(self.execute(tr, id, root, &key)?);
                }
            }
        }
        tr.close(root);
        Ok(last)
    }
}

/// Frames and bytes on the wire for one statement, both directions.
fn wire_cost(s: &Sent) -> (u64, u64) {
    let frame_bytes = |kind: FrameKind, payload: &str| {
        let header = format!("{} {}\n", kind.tag(), payload.len());
        (header.len() + payload.len() + 1) as u64
    };
    let sent = frame_bytes(FrameKind::Stmt, &s.text);
    let received: u64 = s
        .frames
        .iter()
        .map(|f| frame_bytes(f.kind, &f.payload))
        .sum();
    (1 + s.frames.len() as u64, sent + received)
}

/// Span ids of connection `c`: its statement indices, offset per
/// connection.
fn ids(c: usize) -> u64 {
    c as u64 * 1_000_000
}

/// The traced run: wire passes with and without spans around
/// `Client::statement`, an in-process replay with spans around each
/// session statement, and a stepwise replay through `parse_program`,
/// `QueryBuilder::build`, `Environment::new` and `run_graph`.
fn run_traced(cfg: &Config) -> Result<Report, ScsqError> {
    let mix = Mix::new(cfg.seed);
    let origin = Instant::now();
    let mut tr = Tracer::new(origin);
    let (Served { daemon, mut conns }, _) = setup(cfg, &mix).map_err(err)?;
    let n = conns.len();

    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut pass = 0;
    let start = Instant::now();
    while traced.len() < 2 || start.elapsed().as_secs_f64() < cfg.seconds / 2.0 {
        for with_spans in [false, true] {
            let results: Vec<io::Result<(Tracer, u64)>> = thread::scope(|s| {
                let handles: Vec<_> = conns
                    .iter_mut()
                    .enumerate()
                    .map(|(c, conn)| {
                        let block = mix.block(cfg.seed, c, pass);
                        s.spawn(move || {
                            let mut tr = Tracer::new(origin);
                            let first = conn.sent.len();
                            for stmt in block {
                                let tracer = with_spans.then_some(&mut tr);
                                conn.send(stmt, Some(pass), tracer)?;
                            }
                            // Give this connection's spans its id range.
                            tr.offset_ids(ids(c));
                            let cpu = conn.sent[first..].iter().map(|s| s.cpu_ns).sum();
                            Ok((tr, cpu))
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("load generator thread panicked"))
                    .collect()
            });
            let mut cpu_ns = 0;
            for r in results {
                let (t, cpu) = r.map_err(err)?;
                tr.absorb(t);
                cpu_ns += cpu;
            }
            let cpu_s = cpu_ns as f64 / 1e9;
            if with_spans {
                traced.push(cpu_s)
            } else {
                plain.push(cpu_s)
            }
            pass += 1;
        }
    }
    let conns = Served { daemon, conns }.close().map_err(err)?;

    let mut layers = Layers::default();
    let (mut attempted, mut failed, mut failures) = (0, 0, Vec::new());
    for (c, conn) in conns.iter().enumerate() {
        let check = replay(&mix, c, &conn.sent, Some((&mut tr, ids(c))))?;
        attempted += conn.sent.len() as u64;
        failed += check.failed;
        failures.extend(check.failures);

        // Counts over one pass: the set-up and the first block.
        let first = conn
            .sent
            .iter()
            .take_while(|s| s.pass.unwrap_or(0) == 0)
            .count();
        let once = replay(&mix, c, &conn.sent[..first], None)?;
        layers.session_compilations += once.session.hub().compilations();
        layers.session_plan_cache_hits += once.session.hub().plan_cache_hits();
        for r in once.results.iter().flatten() {
            layers.counters.add(r);
        }
        for s in &conn.sent[..first] {
            let (frames, bytes) = wire_cost(s);
            layers.wire_frames += frames;
            layers.wire_bytes += bytes;
            layers.wire_statements += 1;
        }

        // Stepwise, with each statement's result checked against the
        // in-process session's.
        let mut step = Stepwise::new(&mix, c)?;
        for (i, (s, want)) in conn.sent.iter().zip(&check.results).enumerate() {
            let from = tr.spans().len();
            let got = step.statement(&mut tr, ids(c) + i as u64, &s.text)?;
            if i < first {
                layers.counters.run_graph_ns += tr.spans()[from..]
                    .iter()
                    .filter(|s| s.name == "engine.run_graph")
                    .map(|s| s.dur_ns())
                    .sum::<u64>();
            }
            let same = match (&got, want) {
                (Some(g), Some(w)) => g.values() == w.values() && g.finished() == w.finished(),
                (None, None) => true,
                _ => false,
            };
            attempted += 1;
            if !same {
                failed += 1;
                failures.push(format!(
                    "`{}`: stepwise result differs from the session's",
                    s.text
                ));
            }
        }

        // Stage wall time as a share of run wall time, from the profiler.
        if c == 0 {
            let (mut stage_ns, mut call_ns) = (0u64, 0u64);
            for _ in 0..10 {
                for (_, named) in check.session.prepared() {
                    let t = Instant::now();
                    let (_, profile) = named
                        .plan
                        .explain_analyze(check.session.spec(), check.session.options())?;
                    call_ns += t.elapsed().as_nanos() as u64;
                    stage_ns += profile.total_wall_ns();
                }
            }
            layers.chain_wall_share = stage_ns as f64 / call_ns as f64;
        }
    }
    layers.trace_overhead = median(&traced) / median(&plain) - 1.0;
    layers.failed_frac = failed as f64 / attempted as f64;
    Ok(Report {
        attempted,
        failed,
        failures,
        metrics: layers.metrics(&tr),
        extras: Vec::new(),
        samples: vec![
            ("untraced_pass", plain.len()),
            ("traced_pass", traced.len()),
            ("connections", n),
        ],
        tracer: Some(tr),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The `scsqd` binary, built from the repository's sources into the
    /// target directory of this test binary, as `run.py` builds it for
    /// the benchmark.
    fn scsqd() -> PathBuf {
        static BIN: OnceLock<PathBuf> = OnceLock::new();
        BIN.get_or_init(|| {
            let exe = std::env::current_exe().expect("test binary path");
            // <target>/<profile>/deps/<test binary>
            let target = exe.ancestors().nth(3).expect("target directory");
            let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
            let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
            let status = Command::new(cargo)
                .args([
                    "build",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--bin",
                    "scsqd",
                ])
                .arg("--manifest-path")
                .arg(root.join("Cargo.toml"))
                .arg("--target-dir")
                .arg(target)
                .status()
                .expect("cargo runs");
            assert!(status.success(), "cargo build --bin scsqd failed");
            target.join("release").join("scsqd")
        })
        .clone()
    }

    fn config(trace: bool) -> Config {
        Config {
            scsqd: Some(scsqd()),
            ..Config::for_test(trace)
        }
    }

    #[test]
    fn tiny_served_mix_passes_the_check() {
        let report = run(&config(false)).expect("tiny run");
        assert!(report.attempted > 0);
        assert_eq!(report.failed, 0, "{:?}", report.failures);
        let get = |n: &str| report.metrics.iter().find(|m| m.name == n).unwrap().value;
        assert!(get("run_cpu_p50_ms") > 0.0);
    }

    #[test]
    fn a_statement_is_charged_the_cpu_time_of_the_daemon_thread_serving_it() {
        let cfg = config(false);
        std::fs::create_dir_all(&cfg.out_dir).unwrap();
        let socket = cfg
            .out_dir
            .join(format!("scsqd-{}-charged.sock", std::process::id()));
        let daemon = Daemon::spawn(&scsqd(), socket).unwrap();
        assert_ne!(daemon.pid, std::process::id());
        let mut conn = daemon.connect().unwrap();
        assert!(daemon.tasks().unwrap().contains(&conn.tid));
        assert_ne!(
            conn.tid, daemon.pid,
            "the accept loop is not the connection's thread"
        );
        let text = Mix::new(1).prepared[0].clone();
        let (daemon_before, client_before) = (conn.daemon_cpu, thread_cpu_ns());
        conn.send(
            Stmt {
                kind: Kind::Hit,
                text,
            },
            Some(0),
            None,
        )
        .unwrap();
        let client_ns = thread_cpu_ns() - client_before;
        let daemon_ns = conn.daemon_cpu - daemon_before;
        // The daemon compiles and runs the query, so its thread does
        // work the load generator's thread does not see.
        assert!(daemon_ns > 0);
        assert!(conn.sent[0].cpu_ns >= daemon_ns);
        assert!(conn.sent[0].cpu_ns <= daemon_ns + client_ns);
        assert_eq!(conn.sent[0].frames.last().unwrap().kind, FrameKind::Ok);
        Served {
            daemon,
            conns: vec![conn],
        }
        .close()
        .unwrap();
    }

    #[test]
    fn tiny_traced_served_mix_reports_the_session_and_wire_layers() {
        let report = run(&config(true)).expect("tiny run");
        assert_eq!(report.failed, 0, "{:?}", report.failures);
        let get = |n: &str| report.metrics.iter().find(|m| m.name == n).unwrap().value;
        assert!(get("session.compilations") > 0.0);
        assert!(get("session.plan_cache_hits") > 0.0);
        assert!(get("wire.frames_per_stmt") >= 2.0);
        assert!(get("ql.parse_n") > 0.0);
        assert!(get("wire.roundtrip_n") > 0.0);
    }

    #[test]
    fn a_mismatched_served_reply_fails_the_check() {
        let mix = Mix::new(9);
        let mut session = fresh_session(&mix, 1).unwrap();
        let mut sent: Vec<Sent> = mix
            .setup(1)
            .into_iter()
            .chain(mix.block(9, 1, 0))
            .map(|s| {
                let (frames, _) = session_frames(&mut session, &s.text);
                Sent {
                    kind: s.kind,
                    pass: None,
                    text: s.text,
                    frames,
                    cpu_ns: 1,
                    wall_ns: 1,
                }
            })
            .collect();
        assert_eq!(replay(&mix, 1, &sent, None).unwrap().failed, 0);
        let run = sent.iter_mut().find(|s| s.kind == Kind::Run).unwrap();
        run.frames[0].payload.push('0');
        let check = replay(&mix, 1, &sent, None).unwrap();
        assert_eq!(check.failed, 1, "{:?}", check.failures);
    }

    #[test]
    fn blocks_repeat_per_seed_and_never_repeat_a_fresh_text() {
        let mix = &Mix::new(4);
        let texts =
            |c, p| -> Vec<String> { mix.block(4, c, p).into_iter().map(|s| s.text).collect() };
        assert_eq!(texts(0, 0), texts(0, 0));
        let mut fresh: Vec<String> = (0..2)
            .flat_map(|c| (0..3).flat_map(move |p| mix.block(4, c, p)))
            .filter(|s| s.kind == Kind::Compile)
            .map(|s| s.text)
            .collect();
        let total = fresh.len();
        fresh.sort();
        fresh.dedup();
        assert_eq!(fresh.len(), total);
        assert!(total > 0);
    }
}
