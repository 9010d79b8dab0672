//! The traced run's per-layer breakdown: busy time, call counts and self
//! time per layer, computed from the span ledger, plus the layer
//! microbenchmarks. See `README.md` for which end-to-end metric each one
//! should move, on which workload.

use crate::micro::{self, median};
use crate::trace::{self, Ledger, Span, CARRY, COMPRESS, ROUND, RUN, RUN_JOB, RUN_ROUND, SAMPLE};
use crate::workloads::{self, phase_slot, Rep, Workload};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

type Metric = (String, f64, &'static str);

const NS: f64 = 1e9;

fn busy_ns(spans: &[Span], name: &str) -> (u64, usize) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(ns, n), s| (ns + s.ns(), n + 1))
}

fn wall_ns(spans: &[Span], names: &[&str], within: &Span) -> u64 {
    trace::union_ns(
        spans
            .iter()
            .filter(|s| names.contains(&s.name))
            .map(|s| (s.start_ns.max(within.start_ns), s.end_ns.min(within.end_ns)))
            .filter(|(a, b)| a < b)
            .collect(),
    )
}

/// The per-layer metrics of one traced repetition, in a fixed order.
fn one(workload: Workload, rep: &Rep, ledger: &Ledger) -> Vec<Metric> {
    let spans = ledger.spans();
    let records = ledger.controllers();
    let run = spans
        .iter()
        .find(|s| s.name == RUN)
        .copied()
        .expect("every traced repetition records its run span");
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();

    // Controller: suggest, self time per phase, counts.
    let mut suggest_ms: Vec<f64> = records
        .iter()
        .filter_map(|r| r.mbo_ns.map(|ns| ns as f64 / 1e6))
        .collect();
    let mut job_ns_of: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.name == RUN_JOB) {
        *job_ns_of.entry(s.parent).or_default() += s.ns();
    }
    let mut self_ms = [0.0f64; 4];
    let mut rounds = [0usize; 4];
    for r in &records {
        let slot = phase_slot(r.phase);
        let span = by_id[&r.span];
        let children = job_ns_of.get(&r.span).copied().unwrap_or(0) + r.mbo_ns.unwrap_or(0);
        self_ms[slot] += span.ns().saturating_sub(children) as f64 / 1e6;
        rounds[slot] += 1;
    }

    // Client stage: how much of the workers' time the controllers used.
    let mut stage: HashMap<u32, (u64, u64, u64)> = HashMap::new();
    for s in spans.iter().filter(|s| s.name == RUN_ROUND) {
        let e = stage.entry(s.round).or_insert((u64::MAX, 0, 0));
        e.0 = e.0.min(s.start_ns);
        e.1 = e.1.max(s.end_ns);
        e.2 += s.ns();
    }
    let stage_ns: u64 = stage.values().map(|(a, b, _)| b - a).sum();
    let stage_busy: u64 = stage.values().map(|(_, _, busy)| busy).sum();
    let idle_share = if stage_ns == 0 {
        0.0
    } else {
        1.0 - stage_busy as f64 / (workloads::workers() as f64 * stage_ns as f64)
    };

    let round_spans: Vec<&Span> = spans.iter().filter(|s| s.name == ROUND).collect();
    let mut round_ms: Vec<f64> = round_spans.iter().map(|s| s.ns() as f64 / 1e6).collect();
    let round_self: u64 = round_spans.iter().map(|s| trace::self_ns(s, &spans)).sum();
    let fleet_self = if workload == Workload::Scale1m {
        trace::self_ns(&run, &spans)
    } else {
        0
    };
    let layers = [RUN_ROUND, CARRY, SAMPLE, COMPRESS];
    let unattributed = run.ns() - wall_ns(&spans, &layers, &run);

    let (job_ns, jobs) = busy_ns(&spans, RUN_JOB);
    let (carry_ns, carries) = busy_ns(&spans, CARRY);
    let (sample_ns, samples) = busy_ns(&spans, SAMPLE);
    let (compress_ns, compresses) = busy_ns(&spans, COMPRESS);
    let c = &rep.counters;
    let suggest_busy = suggest_ms.iter().fold(0.0, |a, b| a + b) / 1e3;
    let suggest_calls = suggest_ms.len() as f64;
    let suggest_max = suggest_ms.iter().copied().fold(0.0, f64::max);
    let m = |name: &str, value: f64, unit: &'static str| (name.to_string(), value, unit);
    vec![
        m("mobo.suggest.busy_s", suggest_busy, "s"),
        m("mobo.suggest.calls", suggest_calls, "count"),
        m("mobo.suggest.ms_p50", median(&mut suggest_ms), "ms"),
        m("mobo.suggest.ms_max", suggest_max, "ms"),
        m("core.self.random_ms", self_ms[1], "ms"),
        m("core.self.pareto_ms", self_ms[2], "ms"),
        m("core.self.exploit_ms", self_ms[3], "ms"),
        m("core.rounds.random", rounds[1] as f64, "count"),
        m("core.rounds.pareto", rounds[2] as f64, "count"),
        m("core.rounds.exploit", rounds[3] as f64, "count"),
        m(
            "core.escalated_jobs",
            records.iter().map(|r| r.escalated_jobs).sum::<u64>() as f64,
            "count",
        ),
        m(
            "core.quarantined",
            records.iter().map(|r| r.quarantined).sum::<u64>() as f64,
            "count",
        ),
        m("fl.run_job.busy_s", job_ns as f64 / NS, "s"),
        m("fl.run_job.jobs", jobs as f64, "count"),
        m(
            "fl.run_job.ns_per_job",
            if jobs == 0 {
                0.0
            } else {
                job_ns as f64 / jobs as f64
            },
            "ns",
        ),
        m("fl.client_stage.idle_share", idle_share, "share"),
        m("fl.final_accuracy", rep.sim.final_accuracy, "share"),
        m("control.carry.busy_s", carry_ns as f64 / NS, "s"),
        m("control.carry.calls", carries as f64, "count"),
        m("control.carry.envelopes", c.wire.sent as f64, "count"),
        m("control.round.wall_ms_p50", median(&mut round_ms), "ms"),
        m("control.round.self_s", round_self as f64 / NS, "s"),
        m("control.sim_time_s", rep.sim.sim_time_s, "s"),
        m("control.journal_events", c.journal_events as f64, "count"),
        m("control.wal_records", c.wal_records as f64, "count"),
        m("control.wal_bytes", c.wal_bytes as f64, "B"),
        m("control.upload_retries", c.upload_retries as f64, "count"),
        m("control.late", c.late as f64, "count"),
        m("control.wire.sent", c.wire.sent as f64, "count"),
        m("control.wire.dropped", c.wire.dropped as f64, "count"),
        m("control.wire.delayed", c.wire.delayed as f64, "count"),
        m("control.wire.duplicated", c.wire.duplicated as f64, "count"),
        m("control.wire.reordered", c.wire.reordered as f64, "count"),
        m(
            "control.wire.partition_held",
            c.wire.partition_held as f64,
            "count",
        ),
        m("fleet.sample.busy_s", sample_ns as f64 / NS, "s"),
        m("fleet.sample.calls", samples as f64, "count"),
        m("fleet.compress.busy_s", compress_ns as f64 / NS, "s"),
        m("fleet.compress.calls", compresses as f64, "count"),
        m("fleet.compress.ratio", c.compress_ratio, "ratio"),
        m("fleet.round.self_s", fleet_self as f64 / NS, "s"),
        m("trace.run_s", run.ns() as f64 / NS, "s"),
        m("trace.unattributed_s", unattributed as f64 / NS, "s"),
    ]
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _, _)| n == name)
        .map_or(0.0, |(_, v, _)| *v)
}

/// Per-layer metrics: the median of each over the traced repetitions,
/// the tracing overhead against the untraced ones, and the layer
/// microbenchmarks. Writes the last repetition's spans to `out_dir` and
/// prints the breakdown to standard error.
pub fn breakdown(
    workload: Workload,
    untraced: &[Rep],
    traced: &[(Rep, Arc<Ledger>)],
    out_dir: &Path,
) -> Vec<Metric> {
    let per_rep: Vec<Vec<Metric>> = traced
        .iter()
        .map(|(rep, ledger)| one(workload, rep, ledger))
        .collect();
    let mut metrics: Vec<Metric> = per_rep[0]
        .iter()
        .enumerate()
        .map(|(i, (name, _, unit))| {
            let mut values: Vec<f64> = per_rep.iter().map(|m| m[i].1).collect();
            (name.clone(), median(&mut values), *unit)
        })
        .collect();
    let untraced_run = median(&mut untraced.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let traced_run = value(&metrics, "trace.run_s");
    metrics.push(("trace.untraced_run_s".into(), untraced_run, "s"));
    metrics.push(("trace.overhead_s".into(), traced_run - untraced_run, "s"));

    let (last, ledger) = traced
        .last()
        .expect("a traced run makes traced repetitions");
    let spans = ledger.spans();
    let path = out_dir.join(format!("spans-{}.jsonl", workload.name()));
    match std::fs::write(&path, trace::spans_jsonl(&spans)) {
        Ok(()) => eprintln!(
            "perfbench: {} spans written to {}",
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }

    for (name, value, unit) in micro::run(last.captured.as_ref(), out_dir) {
        metrics.push((name.to_string(), value, unit));
    }

    report(&metrics, traced.len());
    metrics
}

/// Thread-busy time per layer and the wall-clock split of the traced run.
fn report(metrics: &[Metric], reps: usize) {
    let v = |name: &str| value(metrics, name);
    let core_self =
        (v("core.self.random_ms") + v("core.self.pareto_ms") + v("core.self.exploit_ms")) / 1e3;
    let layers = [
        ("mobo (suggest)", v("mobo.suggest.busy_s")),
        (
            "core (controller self: ILP, guardian, GP update)",
            core_self,
        ),
        (
            "fl.run_job (device simulation + SGD)",
            v("fl.run_job.busy_s"),
        ),
        ("control.carry (transport)", v("control.carry.busy_s")),
        (
            "control (round self: engine, FedAvg, journal, WAL)",
            v("control.round.self_s"),
        ),
        (
            "fleet (sample + compress + round self)",
            v("fleet.sample.busy_s") + v("fleet.compress.busy_s") + v("fleet.round.self_s"),
        ),
    ];
    let total: f64 = layers.iter().map(|(_, s)| s).sum();
    eprintln!("perfbench: thread-busy time per layer (median of {reps} traced reps):");
    for (name, s) in &layers {
        eprintln!(
            "  {name:<52} {s:>9.4} s  {:>5.1}%",
            100.0 * s / total.max(1e-12)
        );
    }
    let dominant = layers
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("none", |(n, _)| n);
    eprintln!("perfbench: dominant layer: {dominant}");
    eprintln!(
        "perfbench: traced run_s {:.4} (untraced {:.4}, tracing overhead {:+.4} s); \
         unattributed (no layer span open) {:.4} s",
        v("trace.run_s"),
        v("trace.untraced_run_s"),
        v("trace.overhead_s"),
        v("trace.unattributed_s"),
    );
}
