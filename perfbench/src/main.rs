//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <bofl_fleet|oracle_socket_wal|scale_1m> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Repeats the workload, each repetition a fresh set-up and a whole
//! closed-loop run, until `--seconds` are spent, and prints medians. With
//! `--trace 0` it prints the end-to-end metrics: each repetition runs in
//! a child process of its own, the repetitions cycle through
//! [`SUBSEEDS`] inputs drawn from the seed, and times are scaled to a
//! nominal host speed (see `calib.rs`). With `--trace 1` it alternates
//! untraced and traced repetitions in-process and prints the per-layer
//! breakdown. The last line of standard output is one JSON object; the
//! human-readable report goes to standard error. See `README.md`.

mod calib;
mod child;
mod layers;
mod micro;
mod trace;
mod workloads;

use child::Record;
use micro::median;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Ledger;
use workloads::{Check, Rep, Simulated, Workload};

/// Inputs an end-to-end run cycles through: `seed·SUBSEEDS + i` for
/// `i < SUBSEEDS`. One input's peak memory and run time say as much
/// about the seed as about the program (a hard branch-and-bound ILP
/// doubles `oracle_socket_wal`'s peak on about one seed in twenty); the
/// medians over four say more about the program.
const SUBSEEDS: u64 = 4;
/// Fewest passes over the inputs an end-to-end run makes, so that every
/// input runs at least twice and the bit-identity check has a pair.
const MIN_CYCLES: usize = 2;
/// Fewest repetitions a traced run makes, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// Hard stop well inside the 180 s a run may take.
const MAX_RUN: Duration = Duration::from_secs(150);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Run one repetition and print it for the parent (see `child.rs`).
    one_rep: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(&name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload `{name}` (one of {})", names.join(", "))
    })?;
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let seed = number("--seed")?;
    if argv.iter().any(|a| a == child::FLAG) {
        return Ok(Args {
            workload,
            seed,
            seconds: 0,
            trace: false,
            one_rep: true,
        });
    }
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        one_rep: false,
    })
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Core count and CPU model, for the report.
fn host_fingerprint() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!("{cores} cores, {model}")
}

/// The JSON metrics object: `"name": {"value": v, "unit": "u"}`.
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                // `+ 0.0` turns an empty sum's -0.0 into 0.0.
                let value = if value.is_finite() { value + 0.0 } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Whether one repetition passed: its own checks, and bit-identical
/// simulated results to `reference`, the first repetition at its seed.
fn judge(label: &str, checks: &[Check], sim: &Simulated, reference: &Simulated) -> bool {
    let mut ok = true;
    for c in checks.iter().filter(|c| !c.ok) {
        ok = false;
        eprintln!(
            "perfbench: {label}: check failed: {} ({})",
            c.name, c.detail
        );
    }
    if sim.bits() != reference.bits() {
        ok = false;
        eprintln!(
            "perfbench: {label}: simulated results differ from the first: {sim:?} vs {reference:?}"
        );
    }
    ok
}

/// The last line of standard output, and the exit code that goes with it.
fn finish(attempted: usize, failed: u64, metrics: &Metrics) -> ExitCode {
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    if args.one_rep {
        let rep = args.workload.rep(args.seed, None, &out_dir);
        let Some(peak) = peak_rss_mb() else {
            eprintln!("perfbench: cannot read peak RSS from /proc/self/status");
            return ExitCode::from(1);
        };
        child::emit(&rep, peak);
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "perfbench: workload {}, seed {}, {} s, trace {}, {} workers; host: {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workloads::workers(),
        host_fingerprint()
    );
    if args.trace {
        traced_run(&args, &out_dir)
    } else {
        end_to_end(&args)
    }
}

/// Whether to stop after `passes` (their durations, seconds): once the
/// minimum is done, never start one that the typical pass says would end
/// past the budget.
fn spent(started: Instant, budget: Duration, passes: &[f64], min: usize) -> bool {
    let typical = Duration::from_secs_f64(median(&mut passes.to_vec()));
    let elapsed = started.elapsed();
    let done = passes.len() >= min && elapsed + typical > budget;
    done || elapsed + typical > MAX_RUN
}

/// `--trace 0`: the end-to-end metrics, from child-process repetitions
/// cycling through the seed's inputs, with a host-speed reading before
/// the first and after every repetition.
fn end_to_end(args: &Args) -> ExitCode {
    let seeds: Vec<u64> = (0..SUBSEEDS)
        .map(|i| args.seed.wrapping_mul(SUBSEEDS).wrapping_add(i))
        .collect();
    let workers = workloads::workers();
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut records: Vec<Record> = Vec::new();
    let mut lost = 0usize;
    let mut passes: Vec<f64> = Vec::new();
    // The first reading of a process runs slow; it only warms up.
    calib::read(workers);
    let mut readings = vec![calib::read(workers)];
    loop {
        let t = Instant::now();
        for &seed in &seeds {
            match child::run(args.workload, seed) {
                Ok(record) => records.push(record),
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    lost += 1;
                }
            }
            readings.push(calib::read(workers));
        }
        passes.push(t.elapsed().as_secs_f64());
        if spent(started, budget, &passes, MIN_CYCLES) {
            break;
        }
    }

    // Each input's first repetition is its reference.
    let mut references: Vec<&Record> = Vec::new();
    let mut failed = lost as u64;
    for (i, r) in records.iter().enumerate() {
        let reference = match references.iter().find(|f| f.seed == r.seed) {
            Some(f) => f,
            None => {
                references.push(r);
                r
            }
        };
        let label = format!("rep {i} (seed {})", r.seed);
        failed += u64::from(!judge(&label, &r.checks, &r.sim, &reference.sim));
    }
    if references.len() < seeds.len() {
        eprintln!("perfbench: some inputs never completed a repetition; no result");
        return ExitCode::from(1);
    }
    for f in &references {
        for c in &f.checks {
            eprintln!(
                "perfbench: seed {}: check `{}`: {} ({})",
                f.seed, c.name, c.ok, c.detail
            );
        }
    }

    let setup: Vec<f64> = records.iter().flat_map(|r| r.setup_s.clone()).collect();
    let run: Vec<f64> = records.iter().map(|r| r.run_s).collect();
    // Run time: each input's median over its repetitions, averaged over
    // the inputs. Inputs differ in run time by up to 15%; the mean of
    // their medians averages that out, where one median over all
    // repetitions would follow whichever inputs sit in the middle.
    let run_per_input: Vec<f64> = references
        .iter()
        .map(|f| {
            let mut own: Vec<f64> = records
                .iter()
                .filter(|r| r.seed == f.seed)
                .map(|r| r.run_s)
                .collect();
            median(&mut own)
        })
        .collect();
    let run_mean = run_per_input.iter().sum::<f64>() / run_per_input.len() as f64;
    let mut rss: Vec<f64> = records.iter().map(|r| r.peak_rss_mb).collect();
    let kernel_s = median(&mut readings.clone());
    let scale = calib::NOMINAL_S / kernel_s;
    eprintln!("perfbench: wall setup_s per set-up {setup:.4?}");
    eprintln!("perfbench: wall run_s per rep {run:.4?}, per input {run_per_input:.4?}");
    eprintln!("perfbench: peak_rss_mb per rep {rss:.2?}");
    eprintln!(
        "perfbench: reference kernel {:.2?} ms, median {:.3} ms: times scale by {scale:.4}",
        readings.iter().map(|r| r * 1e3).collect::<Vec<_>>(),
        kernel_s * 1e3
    );
    let total = |f: fn(&Simulated) -> f64| references.iter().map(|r| f(&r.sim)).sum::<f64>();
    let per_input = SUBSEEDS as f64;
    let end_to_end = [
        ("setup_s", median(&mut setup.clone()) * scale, "s", "lower"),
        ("run_s", run_mean * scale, "s", "lower"),
        ("peak_rss_mb", median(&mut rss), "MB", "lower"),
        (
            "energy_kj",
            total(|s| s.energy_j) / per_input / 1e3,
            "kJ",
            "lower",
        ),
        (
            "uplink_mb",
            total(|s| s.uplink_bytes as f64) / per_input / 1e6,
            "MB",
            "lower",
        ),
        (
            "delivered_share",
            1.0 - total(|s| s.failed as f64) / total(|s| s.selected as f64).max(1.0),
            "share",
            "higher",
        ),
    ];
    let mut metrics = Metrics(Vec::new());
    for (name, value, unit, better) in end_to_end {
        eprintln!("perfbench: {name} = {value} {unit} ({better} is better)");
        metrics.push(name, value, unit);
    }
    for f in &references {
        let s = f.sim;
        eprintln!(
            "perfbench: seed {}: sim_time_s {} final_accuracy {} selected {} failed {} digest {:016x}",
            f.seed, s.sim_time_s, s.final_accuracy, s.selected, s.failed, s.digest
        );
    }
    finish(records.len() + lost, failed, &metrics)
}

/// `--trace 1`: the per-layer breakdown, from untraced and traced
/// repetitions alternating in this process, all at the first input of
/// the seed.
fn traced_run(args: &Args, out_dir: &Path) -> ExitCode {
    let seed = args.seed.wrapping_mul(SUBSEEDS);
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced: Vec<(Rep, Arc<Ledger>)> = Vec::new();
    let mut passes: Vec<f64> = Vec::new();
    loop {
        let t = Instant::now();
        untraced.push(args.workload.rep(seed, None, out_dir));
        let ledger = Ledger::new();
        let rep = args.workload.rep(seed, Some(&ledger), out_dir);
        traced.push((rep, ledger));
        passes.push(t.elapsed().as_secs_f64());
        if spent(started, budget, &passes, MIN_REPS) {
            break;
        }
    }

    let reference = untraced[0].sim;
    let all: Vec<&Rep> = untraced
        .iter()
        .chain(traced.iter().map(|(r, _)| r))
        .collect();
    let mut failed = 0u64;
    for (i, rep) in all.iter().enumerate() {
        failed += u64::from(!judge(
            &format!("rep {i}"),
            &rep.checks,
            &rep.sim,
            &reference,
        ));
    }
    for c in &untraced[0].checks {
        eprintln!("perfbench: check `{}`: {} ({})", c.name, c.ok, c.detail);
    }
    let mut metrics = Metrics(Vec::new());
    for (name, value, unit) in layers::breakdown(args.workload, &untraced, &traced, out_dir) {
        metrics.push(&name, value, unit);
    }
    finish(all.len(), failed, &metrics)
}
