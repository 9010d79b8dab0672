//! One end-to-end repetition in a process of its own.
//!
//! Every untraced repetition of an end-to-end run happens in a fresh
//! child process. The child's peak resident set is then that repetition's
//! alone: in one long-lived process, glibc's per-thread arenas and its
//! cache of exited threads' stacks keep 10–15 MB of earlier repetitions
//! resident, by an amount that depends on how their threads interleaved.
//! The child prints one line per fact of its repetition; the parent
//! parses them.

use crate::workloads::{Check, Rep, Simulated, Workload};
use std::process::{Command, Stdio};

/// The argument that makes the program a child: run one repetition,
/// print it, exit.
pub const FLAG: &str = "--one-rep";

/// One repetition, as its child reported it.
#[derive(Debug)]
pub struct Record {
    pub seed: u64,
    pub setup_s: Vec<f64>,
    pub run_s: f64,
    pub peak_rss_mb: f64,
    pub sim: Simulated,
    pub checks: Vec<Check>,
}

/// The child's side: prints `rep` and the process's peak resident set.
/// `{:?}` prints every float so that parsing it back gives the same bits.
pub fn emit(rep: &Rep, peak_rss_mb: f64) {
    for s in &rep.setup_s {
        println!("setup {s:?}");
    }
    println!("run {:?}", rep.run_s);
    println!("peak {peak_rss_mb:?}");
    let bits: Vec<String> = rep.sim.bits().iter().map(u64::to_string).collect();
    println!("sim {}", bits.join(" "));
    for c in &rep.checks {
        println!(
            "check {}\t{}\t{}",
            u8::from(c.ok),
            c.name,
            c.detail.replace(['\t', '\n'], " ")
        );
    }
}

/// The parent's side: runs one repetition of `workload` at `seed` in a
/// child process and waits for it to end.
pub fn run(workload: Workload, seed: u64) -> Result<Record, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            workload.name(),
            "--seed",
            &seed.to_string(),
            FLAG,
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a repetition: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "repetition at seed {seed} exited with {}",
            out.status
        ));
    }
    parse(seed, &String::from_utf8_lossy(&out.stdout))
        .map_err(|e| format!("repetition at seed {seed}: {e}"))
}

fn parse(seed: u64, text: &str) -> Result<Record, String> {
    let float = |s: &str| s.parse::<f64>().map_err(|e| format!("`{s}`: {e}"));
    let mut setup_s = Vec::new();
    let (mut run, mut peak, mut sim) = (None, None, None);
    let mut checks = Vec::new();
    for line in text.lines() {
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        match key {
            "setup" => setup_s.push(float(rest)?),
            "run" => run = Some(float(rest)?),
            "peak" => peak = Some(float(rest)?),
            "sim" => {
                let bits: Vec<u64> = rest
                    .split(' ')
                    .map(|b| b.parse().map_err(|e| format!("`{b}`: {e}")))
                    .collect::<Result<_, String>>()?;
                let bits: [u64; 7] = bits.try_into().map_err(|_| "sim needs 7 fields")?;
                sim = Some(Simulated::from_bits(bits));
            }
            "check" => {
                let mut fields = rest.splitn(3, '\t');
                let (ok, name, detail) = (fields.next(), fields.next(), fields.next());
                let (Some(ok), Some(name)) = (ok, name) else {
                    return Err(format!("bad check `{rest}`"));
                };
                checks.push(Check {
                    name: name.to_string(),
                    ok: ok == "1",
                    detail: detail.unwrap_or("").to_string(),
                });
            }
            _ => return Err(format!("unexpected line `{line}`")),
        }
    }
    Ok(Record {
        seed,
        setup_s,
        run_s: run.ok_or("no run line")?,
        peak_rss_mb: peak.ok_or("no peak line")?,
        sim: sim.ok_or("no sim line")?,
        checks,
    })
}
