//! Per-layer metrics, taken only from the traced run. Counts are totals
//! over one pass of the workload (one sweep of its grid, or one block of
//! statements on every connection); times are medians or percentiles of
//! the spans the benchmark recorded around its calls into each layer,
//! with the sample count reported next to them. A layer the workload
//! does not use reads 0.

use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::Metric;
use scsq_core::QueryResult;

/// Work counters summed over the runs of one pass.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    /// Events executed, including the ones the coalescer skipped.
    pub events: u64,
    pub skipped: u64,
    pub digests: u64,
    pub jumps: u64,
    pub pending_hwm: u64,
    pub buffers_sent: u64,
    pub bytes: u64,
    pub queue_peak_trains: u64,
    pub elements_lost: u64,
    pub buffers_dropped: u64,
    pub columnar_batches: u64,
    pub columnar_transposes: u64,
    pub jitter_draws: u64,
    pub elements_in: u64,
    pub elements_out: u64,
    /// Wall time inside `run_graph` over the same runs.
    pub run_graph_ns: u64,
}

impl Counters {
    pub fn add(&mut self, r: &QueryResult) {
        let s = r.stats();
        self.events += s.events;
        self.skipped += s.coalesce.events_skipped;
        self.digests += s.coalesce.digests;
        self.jumps += s.coalesce.jumps;
        self.pending_hwm = self.pending_hwm.max(s.events_pending_hwm);
        for c in &s.channels {
            self.buffers_sent += c.buffers_sent;
            self.bytes += c.bytes;
            self.queue_peak_trains = self.queue_peak_trains.max(c.queue_peak_trains);
            self.elements_lost += c.elements_lost;
            self.buffers_dropped += c.buffers_dropped;
        }
        self.columnar_batches += s.columnar_batches;
        self.columnar_transposes += s.columnar_transposes;
        self.jitter_draws += s.jitter_draws;
        for rp in &s.rp_reports {
            self.elements_in += rp.elements_in;
            self.elements_out += rp.elements_out;
        }
    }

    pub fn dispatched(&self) -> u64 {
        self.events - self.skipped
    }
}

/// Everything the traced run measured, per layer.
#[derive(Debug, Default)]
pub struct Layers {
    pub counters: Counters,
    /// Wall time inside `explain_analyze` stage execution ÷ wall time of
    /// the `explain_analyze` calls.
    pub chain_wall_share: f64,
    pub session_compilations: u64,
    pub session_plan_cache_hits: u64,
    pub wire_frames: u64,
    pub wire_bytes: u64,
    pub wire_statements: u64,
    /// Traced ÷ untraced wall time of a pass, minus one.
    pub trace_overhead: f64,
    pub failed_frac: f64,
}

/// Root spans of the stepwise passes, whose wall time the `split.*`
/// shares divide among the layers.
const STEPWISE_ROOTS: [&str; 3] = ["prepare", "run", "stmt"];

fn zero_if_nan(x: f64) -> f64 {
    if x.is_nan() {
        0.0
    } else {
        x
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

impl Layers {
    /// The per-layer metrics, in the order `BENCHMARK.json` lists them.
    pub fn metrics(&self, tracer: &Tracer) -> Vec<Metric> {
        let c = &self.counters;
        let ns = |name: &str| tracer.durations(name);
        let run_graph = ns("engine.run_graph");
        let env_new = ns("cluster.env_new");
        let parse = ns("ql.parse");
        let build = ns("engine.build");
        let execute = ns("session.execute");
        let roundtrip = ns("wire.statement");
        let ms = |v: &[f64], q: f64| zero_if_nan(quantile(v, q)) / 1e6;
        let us = |v: &[f64]| zero_if_nan(median(v)) / 1e3;
        let count = |v: &[f64]| v.len() as f64;

        let self_ns = tracer.self_ns();
        let total: u64 = tracer
            .spans()
            .iter()
            .filter(|s| s.parent.is_none() && STEPWISE_ROOTS.contains(&s.name))
            .map(|s| s.dur_ns())
            .sum();
        let share = |names: &[&str]| {
            let sum: u64 = names.iter().filter_map(|n| self_ns.get(n)).sum();
            ratio(sum as f64, total as f64)
        };
        let hits = self.session_plan_cache_hits as f64;
        let lookups = hits + self.session_compilations as f64;
        let per_stmt = |x: u64| ratio(x as f64, self.wire_statements as f64);

        let m = Metric::new;
        vec![
            m("sim.events_dispatched", c.dispatched() as f64, "count"),
            m("sim.events_skipped", c.skipped as f64, "count"),
            m(
                "sim.skip_share",
                ratio(c.skipped as f64, c.events as f64),
                "ratio",
            ),
            m("sim.digests", c.digests as f64, "count"),
            m("sim.jumps", c.jumps as f64, "count"),
            m(
                "sim.digests_per_jump",
                ratio(c.digests as f64, c.jumps as f64),
                "ratio",
            ),
            m("sim.pending_hwm", c.pending_hwm as f64, "count"),
            m(
                "sim.host_ns_per_event",
                ratio(c.run_graph_ns as f64, c.dispatched() as f64),
                "ns",
            ),
            m("cluster.env_new_us", us(&env_new), "us"),
            m("cluster.env_new_n", count(&env_new), "count"),
            m("transport.buffers_sent", c.buffers_sent as f64, "count"),
            m("transport.bytes", c.bytes as f64, "bytes"),
            m(
                "transport.queue_peak_trains",
                c.queue_peak_trains as f64,
                "count",
            ),
            m("transport.elements_lost", c.elements_lost as f64, "count"),
            m(
                "transport.buffers_dropped",
                c.buffers_dropped as f64,
                "count",
            ),
            m("ql.parse_us", us(&parse), "us"),
            m("ql.parse_n", count(&parse), "count"),
            m("engine.build_us", us(&build), "us"),
            m("engine.build_n", count(&build), "count"),
            m("engine.run_ms_p50", ms(&run_graph, 0.5), "ms"),
            m("engine.run_ms_p90", ms(&run_graph, 0.9), "ms"),
            m("engine.run_ms_n", count(&run_graph), "count"),
            m("engine.chain_wall_share", self.chain_wall_share, "ratio"),
            m(
                "engine.columnar_batches",
                c.columnar_batches as f64,
                "count",
            ),
            m(
                "engine.columnar_transposes",
                c.columnar_transposes as f64,
                "count",
            ),
            m("engine.jitter_draws", c.jitter_draws as f64, "count"),
            m("engine.elements_in", c.elements_in as f64, "count"),
            m("engine.elements_out", c.elements_out as f64, "count"),
            m("session.execute_ms", ms(&execute, 0.5), "ms"),
            m("session.execute_n", count(&execute), "count"),
            m(
                "session.compilations",
                self.session_compilations as f64,
                "count",
            ),
            m("session.plan_cache_hits", hits, "count"),
            m("session.cache_hit_ratio", ratio(hits, lookups), "ratio"),
            m("wire.roundtrip_ms", ms(&roundtrip, 0.5), "ms"),
            m("wire.roundtrip_n", count(&roundtrip), "count"),
            m(
                "wire.overhead_ms",
                if roundtrip.is_empty() {
                    0.0
                } else {
                    ms(&roundtrip, 0.5) - ms(&execute, 0.5)
                },
                "ms",
            ),
            m("wire.frames_per_stmt", per_stmt(self.wire_frames), "count"),
            m("wire.bytes_per_stmt", per_stmt(self.wire_bytes), "bytes"),
            m("split.ql_parse", share(&["ql.parse"]), "ratio"),
            m("split.engine_build", share(&["engine.build"]), "ratio"),
            m(
                "split.cluster_env_new",
                share(&["cluster.env_new"]),
                "ratio",
            ),
            m(
                "split.engine_run_graph",
                share(&["engine.run_graph"]),
                "ratio",
            ),
            m("split.harness", share(&STEPWISE_ROOTS), "ratio"),
            m("trace.overhead", self.trace_overhead, "ratio"),
            m("check.failed_frac", self.failed_frac, "ratio"),
        ]
    }
}
