//! The three workloads. Each repetition builds its system from the seed
//! (set-up), runs it closed-loop — round r+1 starts when round r closes —
//! and checks what it produced.

use crate::trace::TracedTransport;
use crate::trace::{Captured, Ledger, TracedCompressor, TracedController, TracedSampler};
use bofl::baselines::OracleController;
use bofl::task::{PaceController, Phase};
use bofl::{BoflConfig, BoflController};
use bofl_control::{
    ControlPlane, ControlSimulation, ControlSimulationBuilder, EventCause, JournalTail,
    SocketTransport, VirtualTransport, WalRecord, WireStats,
};
use bofl_fl::network::RetryPolicy;
use bofl_fl::server::{AggregationPolicy, FederationConfig, RoundRecord};
use bofl_fleet::compress::{Int8Quantizer, NoCompression};
use bofl_fleet::fault::FaultPlan;
use bofl_fleet::generator::{DeviceKind, FleetSpec};
use bofl_fleet::metrics::FleetRoundStats;
use bofl_fleet::sampler::UniformSampler;
use bofl_fleet::scale::{ScaleConfig, ScaleSimulation};
use bofl_fleet::shard::ShardPlan;
use bofl_workload::{FlTask, TaskKind, Testbed};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// `bofl_fleet`: every client of a mixed AGX/TX2 fleet joins every round.
const BOFL_CLIENTS: usize = 16;
const BOFL_ROUNDS: usize = 24;
/// `oracle_socket_wal`: 16 registered clients, 8 per round (12 invited
/// under the recovery over-selection).
const ORACLE_CLIENTS: usize = 16;
const ORACLE_COHORT: usize = 8;
const ORACLE_ROUNDS: usize = 40;
/// `scale_1m`.
const SCALE_FLEET: usize = 1_000_000;
const SCALE_COHORT: usize = 4_096;
const SCALE_ROUNDS: usize = 60;
const SCALE_SHARDS: usize = 64;
const SCALE_DIM: usize = 64;
/// Set-ups per repetition: set-up is short, so its median needs more
/// samples than the run's.
pub const SETUPS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BoflFleet,
    OracleSocketWal,
    Scale1m,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::BoflFleet,
        Workload::OracleSocketWal,
        Workload::Scale1m,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BoflFleet => "bofl_fleet",
            Workload::OracleSocketWal => "oracle_socket_wal",
            Workload::Scale1m => "scale_1m",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One repetition: set-up, closed-loop run, output checks.
    pub fn rep(self, seed: u64, ledger: Option<&Arc<Ledger>>, out_dir: &Path) -> Rep {
        match self {
            Workload::BoflFleet => bofl_fleet(seed, ledger),
            Workload::OracleSocketWal => oracle_socket_wal(seed, ledger, out_dir),
            Workload::Scale1m => scale_1m(seed, ledger),
        }
    }
}

/// The simulated results of one repetition. A fixed seed must reproduce
/// every field bit for bit, whatever the host speed or tracing.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Simulated {
    pub energy_j: f64,
    /// Virtual time of the last round close (`0` on `scale_1m`, which has
    /// no virtual clock).
    pub sim_time_s: f64,
    /// Final test accuracy (`0` on `scale_1m`, which has no test set).
    pub final_accuracy: f64,
    pub uplink_bytes: u64,
    /// Client-updates selected.
    pub selected: u64,
    /// Selected updates lost to a missed deadline, dropout, upload failure
    /// or transport loss. Late arrivals after the round closed do not count.
    pub failed: u64,
    /// Hash of the full output: the event journal (W1/W2) or the model
    /// and trace hashes (scale).
    pub digest: u64,
}

impl Simulated {
    pub fn bits(&self) -> [u64; 7] {
        [
            self.energy_j.to_bits(),
            self.sim_time_s.to_bits(),
            self.final_accuracy.to_bits(),
            self.uplink_bytes,
            self.selected,
            self.failed,
            self.digest,
        ]
    }

    pub fn from_bits(bits: [u64; 7]) -> Simulated {
        let [energy_j, sim_time_s, final_accuracy, uplink_bytes, selected, failed, digest] = bits;
        Simulated {
            energy_j: f64::from_bits(energy_j),
            sim_time_s: f64::from_bits(sim_time_s),
            final_accuracy: f64::from_bits(final_accuracy),
            uplink_bytes,
            selected,
            failed,
            digest,
        }
    }
}

/// Deterministic per-layer counts of one repetition.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Client-rounds per controller phase: none, random, Pareto, exploit.
    pub phase_rounds: [usize; 4],
    pub deadline_misses: usize,
    pub upload_retries: usize,
    pub late: usize,
    pub journal_events: u64,
    pub wal_records: u64,
    pub wal_bytes: u64,
    pub wire: WireStats,
    pub compress_ratio: f64,
}

#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

fn check(name: &str, ok: bool, detail: String) -> Check {
    Check {
        name: name.to_string(),
        ok,
        detail,
    }
}

/// What one repetition produced.
#[derive(Debug)]
pub struct Rep {
    /// Every set-up of the repetition (it sets up [`SETUPS`] times).
    pub setup_s: Vec<f64>,
    pub run_s: f64,
    pub sim: Simulated,
    pub counters: Counters,
    pub checks: Vec<Check>,
    /// Inputs for the layer microbenchmarks (traced repetitions only).
    pub captured: Option<Capture>,
}

/// Inputs captured from a traced repetition.
#[derive(Debug, Default)]
pub struct Capture {
    pub seams: Captured,
    pub wal_records: Vec<WalRecord>,
    pub fleet: Option<FleetSpec>,
    pub samples: Vec<u32>,
}

pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Builds [`SETUPS`] times, timing each, and keeps the last build.
fn set_up<T>(mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let start = Instant::now();
        built = Some(build());
        times.push(start.elapsed().as_secs_f64());
    }
    (built.expect("SETUPS > 0"), times)
}

fn wrap(
    controller: Box<dyn PaceController>,
    id: usize,
    ledger: &Option<Arc<Ledger>>,
) -> Box<dyn PaceController> {
    match ledger {
        Some(l) => Box::new(TracedController::new(controller, id, Arc::clone(l))),
        None => controller,
    }
}

fn with_seams(
    builder: ControlSimulationBuilder,
    transport: impl bofl_control::Transport + 'static,
    ledger: Option<&Arc<Ledger>>,
) -> ControlSimulationBuilder {
    match ledger {
        Some(l) => builder
            .transport(TracedTransport::new(transport, Arc::clone(l)))
            .compressor(TracedCompressor::new(NoCompression, Arc::clone(l))),
        None => builder.transport(transport).compressor(NoCompression),
    }
}

/// Per-round records kept from each `run_rounds(1)` report.
struct Drive {
    run_s: f64,
    records: Vec<RoundRecord>,
    stats: Vec<FleetRoundStats>,
}

/// Runs `rounds` rounds one `run_rounds(1)` call at a time.
fn drive(sim: &mut ControlSimulation, rounds: usize, ledger: Option<&Arc<Ledger>>) -> Drive {
    let mut records = Vec::with_capacity(rounds);
    let mut stats = Vec::with_capacity(rounds);
    let mut step = |round: usize| {
        let report = match ledger {
            Some(l) => l.round(round, || sim.run_rounds(1)),
            None => sim.run_rounds(1),
        };
        records.extend(report.history.rounds);
        stats.extend_from_slice(report.metrics.rounds());
    };
    let start = Instant::now();
    match ledger {
        Some(l) => l.run(|| (0..rounds).for_each(&mut step)),
        None => (0..rounds).for_each(&mut step),
    }
    let run_s = start.elapsed().as_secs_f64();
    Drive {
        run_s,
        records,
        stats,
    }
}

/// Simulated results and counters shared by the two control-plane
/// workloads.
fn summarize(sim: &ControlSimulation, drive: &Drive) -> (Simulated, Counters, Vec<Check>) {
    let plane = sim.plane();
    let plane = plane.lock().expect("control plane poisoned");
    let journal = plane.journal();
    let late = journal
        .iter()
        .filter(|e| e.cause == EventCause::RoundClosed)
        .count();
    let selected: usize = drive.records.iter().map(|r| r.selected.len()).sum();
    let aggregated: usize = drive.records.iter().map(|r| r.aggregated.len()).sum();
    let mut counters = Counters {
        late,
        journal_events: journal.total_appended(),
        wire: plane.wire_totals(),
        compress_ratio: 1.0,
        ..Counters::default()
    };
    for s in &drive.stats {
        for (total, n) in counters.phase_rounds.iter_mut().zip(s.phase_counts) {
            *total += n;
        }
        counters.deadline_misses += (s.deadline_miss_rate * s.selected as f64).round() as usize;
        counters.upload_retries += s.upload_retries;
    }
    let sim_summary = Simulated {
        energy_j: drive.records.iter().map(|r| r.energy_j).sum(),
        sim_time_s: plane.closes().last().map_or(0.0, |c| c.t_s),
        final_accuracy: drive.records.last().map_or(0.0, |r| r.test_accuracy),
        uplink_bytes: drive.stats.iter().map(|s| s.wire_bytes).sum(),
        selected: selected as u64,
        failed: selected.saturating_sub(aggregated + late) as u64,
        digest: fnv(journal.to_csv().as_bytes()),
    };
    let checks = vec![
        check(
            "every round closed",
            plane.closes().len() == drive.records.len(),
            format!(
                "{} closes for {} rounds",
                plane.closes().len(),
                drive.records.len()
            ),
        ),
        check(
            "every selected update is aggregated, late or failed",
            aggregated + late <= selected,
            format!("{aggregated} aggregated + {late} late of {selected} selected"),
        ),
        check(
            "journal kept every event",
            journal.evicted() == 0,
            format!("{} evicted", journal.evicted()),
        ),
    ];
    (sim_summary, counters, checks)
}

fn bofl_fleet(seed: u64, ledger: Option<&Arc<Ledger>>) -> Rep {
    let (mut sim, setup_s) = set_up(|| {
        let spec = balanced_fleet(BOFL_CLIENTS, seed);
        let config = FederationConfig {
            clients_per_round: BOFL_CLIENTS,
            rounds: BOFL_ROUNDS,
            seed,
            ..FederationConfig::default()
        };
        let l = ledger.cloned();
        let builder = ControlSimulation::builder(spec)
            .federation(config)
            .workers(workers())
            .controller_factory(move |id| {
                wrap(Box::new(BoflController::new(BoflConfig::default())), id, &l)
            });
        with_seams(builder, VirtualTransport, ledger).build()
    });

    let drive = drive(&mut sim, BOFL_ROUNDS, ledger);
    let (simulated, counters, mut checks) = summarize(&sim, &drive);
    let [_, random, pareto, exploit] = counters.phase_rounds;
    checks.push(check(
        "all three BoFL phases reached",
        random > 0 && pareto > 0 && exploit > 0,
        format!("random {random}, pareto {pareto}, exploit {exploit} client-rounds"),
    ));
    let last_exploit = drive.stats.last().map_or(0, |s| s.phase_counts[3]);
    checks.push(check(
        "every client exploits by the last round",
        last_exploit == BOFL_CLIENTS,
        format!("{last_exploit} of {BOFL_CLIENTS} clients exploit in the last round"),
    ));
    checks.push(check(
        "no deadline missed",
        counters.deadline_misses == 0,
        format!("{} misses", counters.deadline_misses),
    ));
    checks.push(check(
        "no update lost without faults",
        simulated.failed == 0,
        format!("{} of {} lost", simulated.failed, simulated.selected),
    ));
    Rep {
        setup_s,
        run_s: drive.run_s,
        sim: simulated,
        counters,
        checks,
        // No microbenchmark replays this workload's inputs.
        captured: None,
    }
}

fn oracle_socket_wal(seed: u64, ledger: Option<&Arc<Ledger>>, out_dir: &Path) -> Rep {
    let wal = out_dir.join(format!("oracle-{seed}-{}.wal", std::process::id()));
    let spec = balanced_fleet(ORACLE_CLIENTS, seed);
    let (mut sim, setup_s) = set_up(|| {
        let config = FederationConfig {
            clients_per_round: ORACLE_COHORT,
            rounds: ORACLE_ROUNDS,
            aggregation: AggregationPolicy::recovery(),
            seed,
            ..FederationConfig::default()
        };
        let faults = FaultPlan::new(seed ^ 0xFA17)
            .with_stragglers(0.2, (1.5, 3.0))
            .with_upload_failures(0.1)
            .with_churn(0.05, 2);
        let l = ledger.cloned();
        // Oracle profiles its client's whole configuration space here,
        // inside set-up, for the task every client of the federation trains.
        let builder = ControlSimulation::builder(spec)
            .federation(config)
            .workers(workers())
            .faults(faults)
            .retry(RetryPolicy::recovery())
            .wal(&wal)
            .controller_factory(move |id| {
                let task = FlTask::preset(TaskKind::Cifar10Vit, Testbed::JetsonAgx);
                let profile = spec.device(id).profile_all(&task);
                wrap(Box::new(OracleController::new(profile)), id, &l)
            });
        with_seams(builder, SocketTransport::in_process(workers()), ledger).build()
    });

    let drive = drive(&mut sim, ORACLE_ROUNDS, ledger);
    let (simulated, mut counters, mut checks) = summarize(&sim, &drive);
    let [none, random, pareto, exploit] = counters.phase_rounds;
    let absent: usize = drive.stats.iter().map(|s| s.dropouts).sum();
    checks.push(check(
        "every client-round in Exploitation",
        random == 0 && pareto == 0 && exploit > 0 && none <= absent,
        format!("exploit {exploit}, random {random}, pareto {pareto}, unrun {none}"),
    ));
    checks.push(check(
        "faults were injected and survived",
        simulated.failed > 0 && simulated.failed < simulated.selected,
        format!("{} of {} lost", simulated.failed, simulated.selected),
    ));

    let resumed = {
        let live = sim.plane();
        let live = live.lock().expect("control plane poisoned");
        match ControlPlane::resume(&wal, ORACLE_CLIENTS) {
            Ok((plane, report)) => {
                let same = plane.states() == live.states()
                    && plane.closes() == live.closes()
                    && report.next_round == ORACLE_ROUNDS;
                (same, format!("resumed at round {}", report.next_round))
            }
            Err(e) => (false, format!("resume failed: {e}")),
        }
    };
    checks.push(check(
        "WAL resume reproduces the live states",
        resumed.0,
        resumed.1,
    ));
    let records = JournalTail::open(&wal)
        .and_then(|mut tail| tail.drain().map_err(std::io::Error::other))
        .unwrap_or_default();
    counters.wal_records = records.len() as u64;
    counters.wal_bytes = std::fs::metadata(&wal).map_or(0, |m| m.len());
    checks.push(check(
        "WAL holds every journalled event and close",
        counters.wal_records == counters.journal_events + ORACLE_ROUNDS as u64,
        format!(
            "{} records for {} events",
            counters.wal_records, counters.journal_events
        ),
    ));
    drop(sim);
    let _ = std::fs::remove_file(&wal);
    Rep {
        setup_s,
        run_s: drive.run_s,
        sim: simulated,
        counters,
        checks,
        captured: ledger.map(|l| Capture {
            seams: l.take_captured(),
            wal_records: records,
            fleet: Some(spec),
            samples: Vec::new(),
        }),
    }
}

fn scale_1m(seed: u64, ledger: Option<&Arc<Ledger>>) -> Rep {
    let (mut sim, setup_s) = set_up(|| {
        let config = ScaleConfig {
            fleet_size: SCALE_FLEET,
            cohort: SCALE_COHORT,
            rounds: SCALE_ROUNDS,
            dim: SCALE_DIM,
            seed,
            shard_plan: ShardPlan::with_shards(SCALE_SHARDS),
            workers: workers(),
            ..ScaleConfig::default()
        };
        let faults = FaultPlan::new(seed ^ 0xFA17)
            .with_dropout(0.02)
            .with_stragglers(0.08, (1.2, 3.0))
            .with_upload_failures(0.03)
            .with_churn(0.01, 3);
        let builder = ScaleSimulation::builder(config).faults(faults);
        match ledger {
            Some(l) => builder
                .sampler(TracedSampler::new(UniformSampler, Arc::clone(l)))
                .compressor(TracedCompressor::new(Int8Quantizer, Arc::clone(l))),
            None => builder.sampler(UniformSampler).compressor(Int8Quantizer),
        }
        .build()
    });

    let start = Instant::now();
    let report = match ledger {
        Some(l) => l.run(|| sim.run()),
        None => sim.run(),
    };
    let run_s = start.elapsed().as_secs_f64();

    let selected: u64 = report.trace.iter().map(|r| r.selected as u64).sum();
    let aggregated: u64 = report.trace.iter().map(|r| r.aggregated as u64).sum();
    let simulated = Simulated {
        energy_j: report.total_energy_j(),
        sim_time_s: 0.0,
        final_accuracy: 0.0,
        uplink_bytes: report.wire_bytes(),
        selected,
        failed: selected - aggregated,
        digest: report.model_hash() ^ report.trace_hash().rotate_left(1),
    };
    let counters = Counters {
        compress_ratio: report.compression_ratio(),
        ..Counters::default()
    };
    let checks = vec![
        check(
            "every round ran a full cohort",
            report.trace.len() == SCALE_ROUNDS
                && report
                    .trace
                    .iter()
                    .all(|r| r.selected as usize == SCALE_COHORT),
            format!("{} rounds", report.trace.len()),
        ),
        check(
            "int8 uplink shrank the wire",
            report.wire_bytes() > 0 && report.wire_bytes() < report.raw_bytes(),
            format!("ratio {:.3}", report.compression_ratio()),
        ),
        check(
            "model moved and stayed finite",
            report.final_model.iter().all(|v| v.is_finite()),
            format!("model hash {:016x}", report.model_hash()),
        ),
    ];
    let captured = ledger.map(|l| Capture {
        seams: l.take_captured(),
        samples: sim.clients().iter().take(256).map(|c| c.samples).collect(),
        ..Capture::default()
    });
    Rep {
        setup_s,
        run_s,
        sim: simulated,
        counters,
        checks,
        captured,
    }
}

/// The first mixed fleet in `seed`'s stream with exactly half its
/// clients on AGX boards. A plain mixed fleet of a few clients draws its
/// AGX share at random, and that share moves energy and controller work
/// far more than anything else the seed decides.
fn balanced_fleet(clients: usize, seed: u64) -> FleetSpec {
    (0u64..)
        .map(|i| FleetSpec::mixed(clients, seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i))
        .find(|spec| {
            let agx = spec
                .profiles()
                .iter()
                .filter(|p| p.kind == DeviceKind::JetsonAgx)
                .count();
            agx == clients / 2
        })
        .expect("some seed in the stream balances the fleet")
}

/// FNV-1a.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The phase index used by [`Counters::phase_rounds`].
pub fn phase_slot(phase: Option<Phase>) -> usize {
    match phase {
        None => 0,
        Some(Phase::RandomExploration) => 1,
        Some(Phase::ParetoConstruction) => 2,
        Some(Phase::Exploitation) => 3,
    }
}
