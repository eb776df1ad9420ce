//! `perfbench` — the SCSQ repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--scsqd <path>] [--commit <id>] [--out <dir>]
//! ```
//!
//! Runs one seeded workload for about `--seconds` of timed work, checks
//! every output against a reference, and prints the metrics as the last
//! line of stdout: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of a separate traced run with `--trace 1`. See
//! `README.md` next to this crate for the workloads and metrics.

mod check;
mod layers;
mod served;
mod sim;
mod stats;
mod trace;

use std::io::Write;
use std::path::PathBuf;

pub const WORKLOADS: [&str; 4] = [
    "p2p_sweep",
    "inbound_tcp",
    "jittered_pipeline",
    "served_mix",
];

pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `scsqd` binary that `served_mix` spawns.
    pub scsqd: Option<PathBuf>,
    /// Where sockets, traces and run records go.
    pub out_dir: PathBuf,
}

#[cfg(test)]
impl Config {
    pub fn for_test(trace: bool) -> Config {
        Config {
            seed: 1,
            seconds: 0.0,
            trace,
            scsqd: None,
            out_dir: PathBuf::from("target/test-out"),
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What every workload measures with tracing off. Host times are CPU
/// times of the threads doing the work (see [`stats::thread_cpu_ns`]).
///
/// Rates per CPU second would be fixed counts divided by `pass_cpu_s`,
/// so they go to the run record rather than being measured twice.
pub struct EndToEnd<'a> {
    pub setup_s: f64,
    pub pass_cpu_s: f64,
    /// Per `PreparedQuery::run` (sim) or per `run` statement (served).
    pub run_ms: &'a [f64],
    /// Per statement: one `PreparedQuery::run` on the sim workloads.
    pub stmt_ms: &'a [f64],
    pub peak_rss_mb: f64,
}

/// The end-to-end metrics, in the order `BENCHMARK.json` lists them.
pub fn end_to_end(e: EndToEnd) -> Vec<Metric> {
    let m = Metric::new;
    vec![
        m("setup_s", e.setup_s, "s"),
        m("pass_cpu_s", e.pass_cpu_s, "s"),
        m("run_cpu_p50_ms", stats::quantile(e.run_ms, 0.5), "ms"),
        m("run_cpu_p90_ms", stats::quantile(e.run_ms, 0.9), "ms"),
        m("stmt_cpu_p99_ms", stats::quantile(e.stmt_ms, 0.99), "ms"),
        m("peak_rss_mb", e.peak_rss_mb, "MB"),
    ]
}

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for stderr.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Measurements kept in the run record only, such as wall times.
    pub extras: Vec<Metric>,
    /// The sample count behind each median or percentile.
    pub samples: Vec<(&'static str, usize)>,
    pub tracer: Option<trace::Tracer>,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--scsqd <path>] [--commit <id>] [--out <dir>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut scsqd = None;
    let mut commit = "unknown".to_string();
    let mut out_dir = PathBuf::from(".bench_build/perfbench-out");
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s >= 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--scsqd" => scsqd = Some(PathBuf::from(value)),
            "--commit" => commit = value,
            "--out" => out_dir = PathBuf::from(value),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    let cfg = Config {
        seed,
        seconds,
        trace,
        scsqd,
        out_dir,
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.out_dir.display());
        std::process::exit(1);
    }
    let result = match workload.as_str() {
        "p2p_sweep" => sim::run(sim::Kind::P2pSweep, &cfg, &sim::Size::full()),
        "inbound_tcp" => sim::run(sim::Kind::InboundTcp, &cfg, &sim::Size::full()),
        "jittered_pipeline" => sim::run(sim::Kind::JitteredPipeline, &cfg, &sim::Size::full()),
        "served_mix" => {
            if cfg.scsqd.is_none() {
                eprintln!("perfbench: served_mix needs --scsqd <path to the scsqd binary>");
                std::process::exit(2);
            }
            served::run(&cfg)
        }
        _ => usage(),
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {workload} failed: {e}");
            std::process::exit(1);
        }
    };
    for f in &report.failures {
        eprintln!("perfbench: check failed: {f}");
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tag = format!("{workload}-seed{seed}-trace{}", u8::from(trace));
    if let Some(tracer) = &report.tracer {
        let path = cfg.out_dir.join(format!("{tag}.spans.jsonl"));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!(
            "perfbench: {} spans -> {}",
            tracer.spans().len(),
            path.display()
        );
    }
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: {} was not measured", m.name);
        std::process::exit(1);
    }
    let json = |metrics: &[Metric]| {
        metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(m.name),
                    m.value,
                    json_str(m.unit)
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
    };
    let metrics = json(&report.metrics);
    let extras = json(&report.extras);
    let samples = report
        .samples
        .iter()
        .map(|(k, n)| format!("{}: {n}", json_str(k)))
        .collect::<Vec<_>>()
        .join(", ");
    let correct = report.failed == 0 && report.attempted > 0;
    let record = format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \
         \"commit\": {}, \"nproc\": {nproc}, \"samples\": {{{samples}}}, \
         \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}, \
         \"extras\": {{{extras}}}}}",
        json_str(&workload),
        json_str(&commit),
        report.attempted,
        report.failed,
    );
    let runs = cfg.out_dir.join("runs.jsonl");
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&runs)
        .and_then(|mut f| writeln!(f, "{record}"));
    if let Err(e) = appended {
        eprintln!("perfbench: cannot append to {}: {e}", runs.display());
        std::process::exit(1);
    }
    println!("run: {record}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.attempted, report.failed
    );
}
