//! The three simulation workloads: batch jobs whose simulated results
//! are deterministic, so that only host time varies between runs.
//!
//! * `p2p_sweep` — the Fig 6 query over the paper's 13 buffer sizes ×
//!   single/double buffering, 3 MB × 100 arrays, on seeded jittered
//!   hardware. The coalescer and the transport's buffer cycles do nearly
//!   all the work.
//! * `inbound_tcp` — Fig 15 Queries 1–6 × n = 1..8 back-end generators.
//!   TCP carriers, I/O-node forwarding and multi-source receive
//!   switching dominate; the coalescer runs but gains nothing.
//! * `jittered_pipeline` — element-dense `iota` streams under service
//!   jitter through take→sum, an arith/filter/cmp/count chain, and a
//!   two-SP relay → sum. Jitter stops trains from forming, leaving the
//!   engine's fused, columnar and relay tiers doing the work.
//!
//! Runs execute one at a time on the calling thread.

use crate::check::{self, Expect, Print, ELEMENT_HEADER};
use crate::layers::{Counters, Layers};
use crate::stats::{median, peak_rss_mb, thread_cpu_ns, Rng};
use crate::trace::Tracer;
use crate::{Config, Metric, Report};
use scsq_bench::{buffer_sweep, fig15, fig6, Scale};
use scsq_core::{
    Catalog, ClusterName, Environment, HardwareSpec, NodeId, PreparedQuery, QueryResult,
    RunOptions, Scsq, ScsqError, Value,
};
use scsq_engine::{run_graph, QueryBuilder, QueryGraph};
use scsq_ql::{parse_program, Statement};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    P2pSweep,
    InboundTcp,
    JitteredPipeline,
}

/// Hardware-rate jitter of the paper's repetition protocol.
const HW_JITTER: f64 = 0.02;
/// Service-time jitter of `jittered_pipeline`: enough that no two
/// buffer periods digest equal, so trains never form.
const SERVICE_JITTER: f64 = 0.05;
/// Set-ups per run at least. One set-up follows every pass from the
/// second on, so that the set-ups sample the host over the whole run,
/// as the passes do; like a run, a set-up costs its fastest time.
const SETUPS: usize = 15;

/// Input sizes. The benchmark runs [`Size::full`]; tests shrink it.
#[derive(Debug, Clone)]
pub struct Size {
    pub array_bytes: u64,
    pub arrays: u64,
    /// Jittered hardware specs per run; every figure point runs once on
    /// each (the paper's five repetitions).
    pub reps: usize,
    pub buffers: Vec<u64>,
    pub max_n: u32,
    /// Elements per `iota` stream in `jittered_pipeline`.
    pub stream_len: u64,
    /// Jittered specs per run in `jittered_pipeline`.
    pub pipeline_reps: usize,
}

impl Size {
    pub fn full() -> Size {
        let paper = Scale::paper();
        Size {
            array_bytes: paper.array_bytes,
            arrays: paper.arrays,
            reps: paper.reps as usize,
            buffers: buffer_sweep(),
            max_n: 8,
            stream_len: 20_000,
            pipeline_reps: 40,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Size {
        Size {
            array_bytes: 20_000,
            arrays: 3,
            reps: 2,
            buffers: vec![100, 1_000, 100_000],
            max_n: 2,
            stream_len: 3_000,
            pipeline_reps: 2,
        }
    }
}

struct Query {
    text: String,
    bindings: Vec<(String, Value)>,
}

struct Job {
    query: usize,
    spec: usize,
    point: usize,
    options: RunOptions,
    expect: Expect,
}

/// Everything a seed generates: the program sees only these.
struct Inputs {
    specs: Vec<HardwareSpec>,
    queries: Vec<Query>,
    jobs: Vec<Job>,
}

impl Inputs {
    /// One figure point: the same query and options on every spec.
    fn point(&mut self, query: usize, options: RunOptions, expect: Expect) {
        let point = self.jobs.len() / self.specs.len();
        for spec in 0..self.specs.len() {
            self.jobs.push(Job {
                query,
                spec,
                point,
                options: options.clone(),
                expect: expect.clone(),
            });
        }
    }

    fn query(&mut self, text: String, bindings: Vec<(String, Value)>) -> usize {
        self.queries.push(Query { text, bindings });
        self.queries.len() - 1
    }
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

fn tri(k: u64) -> i64 {
    (k * (k + 1) / 2) as i64
}

fn generate(kind: Kind, seed: u64, size: &Size) -> Inputs {
    let mut rng = Rng::new(seed, kind as u64 + 1);
    let reps = match kind {
        Kind::JitteredPipeline => size.pipeline_reps,
        _ => size.reps,
    };
    let base = HardwareSpec::lofar();
    let mut inputs = Inputs {
        specs: (0..reps)
            .map(|_| base.jittered(rng.next_u64(), HW_JITTER))
            .collect(),
        queries: Vec::new(),
        jobs: Vec::new(),
    };
    let scale = Scale {
        array_bytes: size.array_bytes,
        arrays: size.arrays,
        ..Scale::paper()
    };
    let generated = size.arrays * (size.array_bytes + ELEMENT_HEADER);
    let int = |k: u64| Value::Integer(k as i64);
    match kind {
        Kind::P2pSweep => {
            let q = inputs.query(fig6::query(scale), Vec::new());
            for double in [false, true] {
                for &buffer in &size.buffers {
                    let options = RunOptions {
                        mpi_buffer: buffer,
                        mpi_double: double,
                        ..RunOptions::default()
                    };
                    let expect = Expect {
                        answer: vec![int(size.arrays)],
                        channel_bytes: vec![ELEMENT_HEADER, generated],
                    };
                    inputs.point(q, options, expect);
                }
            }
        }
        Kind::InboundTcp => {
            for number in 1..=6u8 {
                for n in 1..=u64::from(size.max_n) {
                    let q =
                        inputs.query(fig15::query(number, scale), vec![("n".to_string(), int(n))]);
                    // Queries 1-2 merge into one receiver; 3-6 give every
                    // generator its own counting receiver.
                    let counts = if number <= 2 { 2 } else { n + 1 };
                    let mut bytes = vec![generated; n as usize];
                    bytes.extend(std::iter::repeat_n(ELEMENT_HEADER, counts as usize));
                    let expect = Expect {
                        answer: vec![int(n * size.arrays)],
                        channel_bytes: sorted(bytes),
                    };
                    inputs.point(q, RunOptions::default(), expect);
                }
            }
        }
        Kind::JitteredPipeline => {
            let n = size.stream_len;
            // Narrow ranges, so that every seed asks for about the same
            // work: take 90-100% of the stream, and thresholds on 3x that
            // keep 45-55% of it.
            let take = rng.range(9 * n / 10, n);
            let t_chain = rng.range(27 * n / 20, 33 * n / 20);
            let t_relay = rng.range(27 * n / 20, 33 * n / 20);
            let options = RunOptions {
                service_jitter: SERVICE_JITTER,
                ..RunOptions::default()
            };
            let source = format!("a=sp(streamof(iota(1,{n})),'bg',1)");
            let stream = n * ELEMENT_HEADER;

            let q = inputs.query(
                format!(
                    "select extract(c) from sp a, sp b1, sp c \
                     where c=sp(streamof(sum(merge({{b1}}))), 'bg', 0) \
                     and b1=sp(streamof(sum(take(extract(a), {take}))), 'bg', 2) \
                     and {source};"
                ),
                Vec::new(),
            );
            let expect = Expect {
                answer: vec![Value::Integer(tri(take))],
                channel_bytes: sorted(vec![stream, ELEMENT_HEADER, ELEMENT_HEADER]),
            };
            inputs.point(q, options.clone(), expect);

            let kept = n - (t_chain / 3).min(n);
            let q = inputs.query(
                format!(
                    "select extract(c) from sp a, sp b1, sp c \
                     where c=sp(streamof(sum(merge({{b1}}))), 'bg', 0) \
                     and b1=sp(streamof(count(cmp(arith(filter(arith(arith(arith(\
                     extract(a), '*', 3), '+', 1), '-', 1), '>', {t_chain}), '*', 2), \
                     '<', {cap}))), 'bg', 2) \
                     and {source};",
                    cap = 7 * n
                ),
                Vec::new(),
            );
            let expect = Expect {
                answer: vec![int(kept)],
                channel_bytes: sorted(vec![stream, ELEMENT_HEADER, ELEMENT_HEADER]),
            };
            inputs.point(q, options.clone(), expect);

            let below = (t_relay / 3).min(n);
            let q = inputs.query(
                format!(
                    "select extract(c) from sp a, sp b1, sp c \
                     where c=sp(streamof(sum(extract(b1))), 'bg', 0) \
                     and b1=sp(filter(arith(extract(a), '*', 3), '>', {t_relay}), 'bg', 2) \
                     and {source};"
                ),
                Vec::new(),
            );
            let expect = Expect {
                answer: vec![Value::Integer(3 * (tri(n) - tri(below)))],
                channel_bytes: sorted(vec![stream, (n - below) * ELEMENT_HEADER, ELEMENT_HEADER]),
            };
            inputs.point(q, options, expect);
        }
    }
    inputs
}

/// The figure's y value: the paper's bandwidth axis for the sweeps, the
/// simulated completion time for the pipelines.
fn y_of(kind: Kind, r: &QueryResult) -> f64 {
    match kind {
        Kind::P2pSweep => r.bandwidth_into(NodeId::bg(0)) / 1e6,
        Kind::InboundTcp => r.mbps_between(ClusterName::BackEnd, ClusterName::BlueGene),
        Kind::JitteredPipeline => r.total_time().as_secs_f64(),
    }
}

struct Prepared {
    inputs: Inputs,
    plans: Vec<PreparedQuery>,
}

fn bindings(q: &Query) -> Vec<(&str, Value)> {
    q.bindings
        .iter()
        .map(|(k, v)| (k.as_str(), v.clone()))
        .collect()
}

/// Generates the inputs and compiles every query once.
fn setup(kind: Kind, seed: u64, size: &Size) -> Result<Prepared, ScsqError> {
    let inputs = generate(kind, seed, size);
    let mut scsq = Scsq::with_spec(HardwareSpec::lofar());
    let plans = inputs
        .queries
        .iter()
        .map(|q| scsq.prepare_with(&q.text, &bindings(q)))
        .collect::<Result<_, _>>()?;
    Ok(Prepared { inputs, plans })
}

/// Sets up once; returns the inputs with the CPU time it took.
fn timed_setup(kind: Kind, seed: u64, size: &Size) -> Result<(Prepared, f64), ScsqError> {
    let cpu = thread_cpu_ns();
    let prepared = setup(kind, seed, size)?;
    Ok((prepared, (thread_cpu_ns() - cpu) as f64 / 1e9))
}

struct Record {
    job: usize,
    ms: f64,
    ok: bool,
}

/// Every run's verdict. A run must pass the closed-form check and equal
/// the first run of the same inputs; after timing, that first run must
/// equal the reference tier.
struct Runs {
    kind: Kind,
    records: Vec<Record>,
    first: Vec<Option<Print>>,
    failures: Vec<String>,
}

impl Runs {
    fn new(kind: Kind, jobs: usize) -> Runs {
        Runs {
            kind,
            records: Vec::new(),
            first: vec![None; jobs],
            failures: Vec::new(),
        }
    }

    fn note(&mut self, msg: String) {
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }

    fn judge(&mut self, j: usize, job: &Job, result: &Result<QueryResult, ScsqError>, ms: f64) {
        let verdict = result.as_ref().map_err(|e| e.to_string()).and_then(|r| {
            let print = Print::of(r, y_of(self.kind, r));
            check::check_closed_form(&job.expect, &print)?;
            match &self.first[j] {
                Some(first) => check::check_reference(&print, first)
                    .map_err(|e| format!("differs from an earlier run: {e}")),
                None => {
                    self.first[j] = Some(print);
                    Ok(())
                }
            }
        });
        if let Err(e) = &verdict {
            self.note(format!("job {j}: {e}"));
        }
        self.records.push(Record {
            job: j,
            ms,
            ok: verdict.is_ok(),
        });
    }

    fn fail_jobs(&mut self, bad: impl Fn(usize) -> bool) {
        for r in self.records.iter_mut().filter(|r| bad(r.job)) {
            r.ok = false;
        }
    }

    /// Runs every job once on the interpreted per-event reference tier
    /// and compares simulated statistics and figure points.
    fn verify_reference(&mut self, prepared: &Prepared) {
        let inputs = &prepared.inputs;
        let mut reference = Vec::with_capacity(inputs.jobs.len());
        for (j, job) in inputs.jobs.iter().enumerate() {
            let options = RunOptions {
                coalesce: false,
                fuse: false,
                columnar: false,
                ..job.options.clone()
            };
            let r = prepared.plans[job.query].run(&inputs.specs[job.spec], &options);
            let print = match r {
                Ok(r) => Print::of(&r, y_of(self.kind, &r)),
                Err(e) => {
                    self.note(format!("job {j}: reference tier failed: {e}"));
                    self.fail_jobs(|x| x == j);
                    reference.push(None);
                    continue;
                }
            };
            if let Some(Err(e)) = self.first[j]
                .as_ref()
                .map(|first| check::check_reference(first, &print))
            {
                self.note(format!("job {j}: {e}"));
                self.fail_jobs(|x| x == j);
            }
            reference.push(Some(print));
        }
        let points = inputs.jobs.len() / inputs.specs.len();
        for p in 0..points {
            let jobs: Vec<usize> = (0..inputs.jobs.len())
                .filter(|&j| inputs.jobs[j].point == p)
                .collect();
            let ys = |prints: &[Option<Print>]| -> Option<Vec<f64>> {
                jobs.iter()
                    .map(|&j| prints[j].as_ref().map(|p| p.y))
                    .collect()
            };
            if let (Some(got), Some(want)) = (ys(&self.first), ys(&reference)) {
                let verdict =
                    check::check_figure(check::figure_point(&got), check::figure_point(&want));
                if let Err(e) = verdict {
                    self.note(format!("point {p}: {e}"));
                    self.fail_jobs(|x| jobs.contains(&x));
                }
            }
        }
    }

    fn failed(&self) -> u64 {
        self.records.iter().filter(|r| !r.ok).count() as u64
    }
}

/// Host seconds of a pass: CPU time, and wall time for the record.
struct PassTime {
    cpu_s: f64,
    wall_s: f64,
}

/// One untraced pass over every job.
fn pass(prepared: &Prepared, runs: &mut Runs, mut each: impl FnMut(&QueryResult)) -> PassTime {
    let (start, start_cpu) = (Instant::now(), thread_cpu_ns());
    for (j, job) in prepared.inputs.jobs.iter().enumerate() {
        let cpu = thread_cpu_ns();
        let result = prepared.plans[job.query].run(&prepared.inputs.specs[job.spec], &job.options);
        let ms = (thread_cpu_ns() - cpu) as f64 / 1e6;
        runs.judge(j, job, &result, ms);
        if let Ok(r) = &result {
            each(r);
        }
    }
    PassTime {
        cpu_s: (thread_cpu_ns() - start_cpu) as f64 / 1e9,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

pub fn run(kind: Kind, cfg: &Config, size: &Size) -> Result<Report, ScsqError> {
    if cfg.trace {
        return run_traced(kind, cfg, size);
    }
    let (prepared, first_setup) = timed_setup(kind, cfg.seed, size)?;
    let mut setup_times = vec![first_setup];
    let mut runs = Runs::new(kind, prepared.inputs.jobs.len());
    let mut passes = Vec::new();
    let mut events = 0u64;
    let mut rss = f64::NAN;
    let start = Instant::now();
    while passes.len() < 2 || start.elapsed().as_secs_f64() < cfg.seconds {
        passes.push(pass(&prepared, &mut runs, |r| events += r.stats().events));
        // Every pass repeats the same runs, so two passes have reached
        // the peak; read it before set-ups add inputs of their own.
        if passes.len() == 2 {
            rss = peak_rss_mb(std::process::id()).unwrap_or(f64::NAN);
        }
        if passes.len() >= 2 {
            setup_times.push(timed_setup(kind, cfg.seed, size)?.1);
        }
    }
    while setup_times.len() < SETUPS {
        setup_times.push(timed_setup(kind, cfg.seed, size)?.1);
    }
    runs.verify_reference(&prepared);

    // Every pass repeats the same deterministic runs, so a run's fastest
    // pass is its cost without interference from the rest of the host.
    let mut cost = vec![f64::INFINITY; prepared.inputs.jobs.len()];
    for r in &runs.records {
        cost[r.job] = cost[r.job].min(r.ms);
    }
    let pass_cpu_s = cost.iter().sum::<f64>() / 1e3;
    let per_pass = |x: f64| x / passes.len() as f64;
    let median_of = |f: fn(&PassTime) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    Ok(Report {
        attempted: runs.records.len() as u64,
        failed: runs.failed(),
        failures: runs.failures,
        metrics: crate::end_to_end(crate::EndToEnd {
            setup_s: setup_times.iter().copied().fold(f64::INFINITY, f64::min),
            pass_cpu_s,
            run_ms: &cost,
            stmt_ms: &cost,
            peak_rss_mb: rss,
        }),
        extras: vec![
            Metric::new(
                "sim_events_per_cpu_s",
                per_pass(events as f64) / pass_cpu_s,
                "1/s",
            ),
            Metric::new("stmts_per_cpu_s", cost.len() as f64 / pass_cpu_s, "1/s"),
            Metric::new("pass_cpu_median_s", median_of(|p| p.cpu_s), "s"),
            Metric::new("pass_wall_median_s", median_of(|p| p.wall_s), "s"),
        ],
        samples: vec![
            ("setup_s", setup_times.len()),
            ("passes", passes.len()),
            ("runs_per_pass", cost.len()),
        ],
        tracer: None,
    })
}

/// The traced run: the same jobs, driven stepwise through each layer's
/// public functions (`parse_program` → `QueryBuilder::build` →
/// `Environment::new` → `run_graph`) with a span around every call.
/// Untraced passes alternate with traced ones to measure the tracing
/// overhead.
fn run_traced(kind: Kind, cfg: &Config, size: &Size) -> Result<Report, ScsqError> {
    let prepared = setup(kind, cfg.seed, size)?;
    let inputs = &prepared.inputs;
    let mut tr = Tracer::new(Instant::now());
    let catalog = Catalog::new();
    let mut graphs: Vec<QueryGraph> = Vec::new();
    for (i, q) in inputs.queries.iter().enumerate() {
        let id = i as u64;
        let root = tr.open(id, "prepare", None);
        let stmts = tr.time(id, "ql.parse", Some(root), || parse_program(&q.text))?;
        let stmt = stmts
            .iter()
            .rev()
            .find(|s| !matches!(s, Statement::CreateFunction(_)))
            .ok_or_else(|| ScsqError::Runtime("no query statement".into()))?;
        let options = RunOptions::default();
        let graph = tr.time(id, "engine.build", Some(root), || {
            let mut env = Environment::new(HardwareSpec::lofar());
            QueryBuilder::new(&mut env, &catalog, options.placement, &options)
                .build(stmt, &q.bindings)
        })?;
        tr.close(root);
        graphs.push(graph);
    }

    let mut runs = Runs::new(kind, inputs.jobs.len());
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut counters = Counters::default();
    let mut next_id = inputs.queries.len() as u64;
    let start = Instant::now();
    while traced.len() < 2 || start.elapsed().as_secs_f64() < cfg.seconds {
        plain.push(pass(&prepared, &mut runs, |_| {}).cpu_s);
        counters = Counters::default();
        let cpu = thread_cpu_ns();
        for (j, job) in inputs.jobs.iter().enumerate() {
            let id = next_id;
            next_id += 1;
            let root = tr.open(id, "run", None);
            let env = tr.time(id, "cluster.env_new", Some(root), || {
                Environment::new(inputs.specs[job.spec].clone())
            });
            let result = tr.time(id, "engine.run_graph", Some(root), || {
                run_graph(env, &graphs[job.query], &job.options)
            });
            tr.close(root);
            let ms = tr.spans()[root].dur_ns() as f64 / 1e6;
            runs.judge(j, job, &result, ms);
            if let Ok(r) = &result {
                counters.add(r);
                counters.run_graph_ns += tr.spans().last().map_or(0, |s| s.dur_ns());
            }
        }
        traced.push((thread_cpu_ns() - cpu) as f64 / 1e9);
    }

    // Stage wall time as a share of run wall time, from the profiler.
    let (mut stage_ns, mut call_ns) = (0u64, 0u64);
    for (j, job) in inputs.jobs.iter().enumerate() {
        let t = Instant::now();
        let result =
            prepared.plans[job.query].explain_analyze(&inputs.specs[job.spec], &job.options);
        call_ns += t.elapsed().as_nanos() as u64;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if let Ok((_, profile)) = &result {
            stage_ns += profile.total_wall_ns();
        }
        runs.judge(j, job, &result.map(|(r, _)| r), ms);
    }
    runs.verify_reference(&prepared);

    let failed = runs.failed();
    let attempted = runs.records.len() as u64;
    let layers = Layers {
        counters,
        chain_wall_share: stage_ns as f64 / call_ns as f64,
        trace_overhead: median(&traced) / median(&plain) - 1.0,
        failed_frac: failed as f64 / attempted as f64,
        ..Layers::default()
    };
    Ok(Report {
        attempted,
        failed,
        failures: runs.failures,
        metrics: layers.metrics(&tr),
        extras: Vec::new(),
        samples: vec![
            ("untraced_pass", plain.len()),
            ("traced_pass", traced.len()),
        ],
        tracer: Some(tr),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(kind: Kind, trace: bool) -> Report {
        let cfg = Config::for_test(trace);
        let report = run(kind, &cfg, &Size::tiny()).expect("tiny run");
        assert!(report.attempted > 0);
        assert_eq!(report.failed, 0, "{:?}", report.failures);
        report
    }

    #[test]
    fn tiny_p2p_sweep_passes_the_check() {
        tiny(Kind::P2pSweep, false);
    }

    #[test]
    fn tiny_inbound_tcp_passes_the_check() {
        tiny(Kind::InboundTcp, false);
    }

    #[test]
    fn tiny_jittered_pipeline_passes_the_check() {
        tiny(Kind::JitteredPipeline, false);
    }

    #[test]
    fn tiny_traced_run_reports_every_layer() {
        let report = tiny(Kind::JitteredPipeline, true);
        let get = |n: &str| report.metrics.iter().find(|m| m.name == n).unwrap().value;
        assert!(get("engine.run_ms_n") > 0.0);
        assert!(get("engine.columnar_batches") > 0.0);
        assert_eq!(get("sim.events_skipped"), 0.0, "jitter defeats coalescing");
    }

    #[test]
    fn the_same_seed_generates_the_same_inputs() {
        for kind in [Kind::P2pSweep, Kind::InboundTcp, Kind::JitteredPipeline] {
            let (a, b) = (
                generate(kind, 5, &Size::tiny()),
                generate(kind, 5, &Size::tiny()),
            );
            let texts = |i: &Inputs| i.queries.iter().map(|q| q.text.clone()).collect::<Vec<_>>();
            assert_eq!(texts(&a), texts(&b));
            assert_eq!(a.specs, b.specs);
        }
        let texts = |s| {
            generate(Kind::JitteredPipeline, s, &Size::tiny()).queries[1]
                .text
                .clone()
        };
        assert_ne!(texts(1), texts(2), "the seed draws the thresholds");
    }

    #[test]
    fn a_wrong_closed_form_fails_the_run() {
        let prepared = setup(Kind::JitteredPipeline, 3, &Size::tiny()).unwrap();
        let mut runs = Runs::new(Kind::JitteredPipeline, prepared.inputs.jobs.len());
        let job = &prepared.inputs.jobs[0];
        let wrong = Job {
            expect: Expect {
                answer: vec![Value::Integer(-1)],
                ..job.expect.clone()
            },
            options: job.options.clone(),
            ..*job
        };
        let result = prepared.plans[job.query].run(&prepared.inputs.specs[job.spec], &job.options);
        runs.judge(0, &wrong, &result, 1.0);
        assert_eq!(runs.failed(), 1);
    }

    #[test]
    fn a_perturbed_first_run_fails_against_the_reference() {
        let prepared = setup(Kind::P2pSweep, 3, &Size::tiny()).unwrap();
        let mut runs = Runs::new(Kind::P2pSweep, prepared.inputs.jobs.len());
        pass(&prepared, &mut runs, |_| {});
        assert_eq!(runs.failed(), 0);
        let first = runs.first[1].as_mut().unwrap();
        first.finished = scsq_core::SimTime::from_nanos(first.finished.as_nanos() + 1);
        runs.verify_reference(&prepared);
        assert_eq!(runs.failed(), 1, "{:?}", runs.failures);
    }
}
