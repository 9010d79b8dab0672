//! Layer microbenchmarks for work no public seam on the end-to-end path
//! exposes. Each replays inputs captured from a traced repetition; a
//! workload that never produced such inputs reports `0`.

use crate::workloads::Capture;
use bofl::ObservationStore;
use bofl_control::JournalWal;
use bofl_fleet::shard::UpdateAccumulator;
use bofl_fleet::wire::{decode_frame, encode_frame, Frame, WireMsg};
use bofl_ilp::{solve_profile, ConfigCost};
use bofl_workload::{FlTask, TaskKind, Testbed};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// WAL appends replayed per run: each one is an fsync.
const WAL_APPENDS: usize = 64;
/// Distinct ILP instances replayed per run.
const ILP_CASES: usize = 24;
/// How long each batch-timed microbenchmark samples.
const SAMPLE_FOR: Duration = Duration::from_millis(150);

/// Every microbenchmark as `(metric, value, unit)`; `0` where the
/// repetition captured no inputs for it.
pub fn run(capture: Option<&Capture>, out_dir: &Path) -> [(&'static str, f64, &'static str); 4] {
    let empty = Capture::default();
    let capture = capture.unwrap_or(&empty);
    [
        ("wal.append_fsync_us", wal_append(capture, out_dir), "us"),
        ("wire.encode_decode_us", wire(capture), "us"),
        ("ilp.solve_profile_ms", ilp(capture), "ms"),
        ("aggregate.fold_us", fold(capture), "us"),
    ]
}

pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Median over batches of the per-item time of `op` applied to every
/// input, in nanoseconds.
fn per_item_ns<T>(inputs: &[T], mut op: impl FnMut(&T)) -> f64 {
    if inputs.is_empty() {
        return 0.0;
    }
    let mut batches = Vec::new();
    let start = Instant::now();
    while batches.len() < 5 || start.elapsed() < SAMPLE_FOR {
        let t = Instant::now();
        for input in inputs {
            op(input);
        }
        batches.push(t.elapsed().as_nanos() as f64 / inputs.len() as f64);
    }
    median(&mut batches)
}

/// `JournalWal::append` (write + fsync) of records from the run's WAL.
fn wal_append(capture: &Capture, out_dir: &Path) -> f64 {
    if capture.wal_records.is_empty() {
        return 0.0;
    }
    let path = out_dir.join(format!("micro-{}.wal", std::process::id()));
    let mut wal = JournalWal::create(&path).expect("scratch WAL in the output directory");
    let mut times: Vec<f64> = capture
        .wal_records
        .iter()
        .take(WAL_APPENDS)
        .map(|record| {
            let t = Instant::now();
            wal.append(record).expect("WAL append");
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    drop(wal);
    let _ = std::fs::remove_file(&path);
    median(&mut times)
}

/// `encode_frame` + `decode_frame` of the data frames the run carried.
fn wire(capture: &Capture) -> f64 {
    let frames: Vec<Frame> = capture
        .seams
        .envelopes
        .iter()
        .map(|e| {
            Frame::Data(WireMsg {
                round: e.round as u32,
                client: e.client_id as u32,
                copy: 0,
                t_send_s: e.t_send_s,
            })
        })
        .collect();
    per_item_ns(&frames, |frame| {
        let bytes = encode_frame(black_box(frame));
        let decoded = decode_frame(&bytes).expect("frame round-trips");
        black_box(decoded);
    }) / 1e3
}

/// `solve_profile` on the instances Oracle planned: its client's Pareto
/// set over the full offline profile, the round's jobs and deadline.
fn ilp(capture: &Capture) -> f64 {
    let Some(fleet) = capture.fleet else {
        return 0.0;
    };
    let task = FlTask::preset(TaskKind::Cifar10Vit, Testbed::JetsonAgx);
    // Workers record rounds in completion order; sort for the same cases
    // on every run.
    let mut specs = capture.seams.round_specs.clone();
    specs.sort_by_key(|(client, spec)| (spec.index, *client));
    let mut cases: Vec<(Vec<ConfigCost>, u64, f64)> = Vec::new();
    for &(client, spec) in specs.iter().take(ILP_CASES) {
        let device = fleet.device(client);
        let space = device.config_space().clone();
        let mut store = ObservationStore::new();
        for entry in device.profile_all(&task) {
            store.record(&space, entry.config, entry.cost);
        }
        let costs = store
            .pareto_set()
            .iter()
            .map(|a| ConfigCost {
                latency_s: a.mean_latency_s(),
                energy_j: a.mean_energy_j(),
            })
            .collect();
        // Oracle holds back 1% of the deadline as its safety margin.
        cases.push((costs, spec.jobs as u64, spec.deadline_s * 0.99));
    }
    per_item_ns(&cases, |(costs, jobs, budget)| {
        black_box(solve_profile(black_box(costs), *jobs, *budget).ok());
    }) / 1e6
}

/// `UpdateAccumulator::fold` of the int8-decoded updates the aggregator
/// received, weighted by registry sample counts.
fn fold(capture: &Capture) -> f64 {
    let updates = &capture.seams.decoded_updates;
    let Some(dim) = updates.first().map(Vec::len) else {
        return 0.0;
    };
    if capture.samples.is_empty() {
        return 0.0;
    }
    let inputs: Vec<(&[f64], u64)> = updates
        .iter()
        .zip(capture.samples.iter().cycle())
        .map(|(u, &s)| (u.as_slice(), s as u64))
        .collect();
    let mut acc = UpdateAccumulator::new();
    acc.reset(dim);
    per_item_ns(&inputs, |(update, samples)| {
        acc.fold(black_box(update), *samples);
    }) / 1e3
}
