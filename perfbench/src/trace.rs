//! The span ledger and the timing decorators the traced run installs at
//! the public seams: `PaceController::run_round`, `JobExecutor::run_job`,
//! `Transport::carry`, `ClientSampler::sample` and `Compressor::compress`.
//! Round spans come from the workload loop, one per
//! `ControlSimulation::run_rounds(1)` call.
//!
//! Spans are kept in memory and written out when the benchmark ends. A
//! span's parent is the innermost open span on the same thread; a span
//! opened on a worker thread with no open span hangs off the round in
//! progress.

use bofl::task::{ControllerRoundStats, PaceController, Phase};
use bofl::{JobExecutor, RoundSpec};
use bofl_control::{Carried, Envelope, Transport};
use bofl_device::{ConfigSpace, DvfsConfig, JobCost};
use bofl_fleet::compress::{CompressedUpdate, Compressor};
use bofl_fleet::sampler::{ClientSampler, ClientStat};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub const ROUND: &str = "control.round";
pub const RUN_ROUND: &str = "core.run_round";
pub const RUN_JOB: &str = "fl.run_job";
pub const CARRY: &str = "control.carry";
pub const SAMPLE: &str = "fleet.sample";
pub const COMPRESS: &str = "fleet.compress";
pub const RUN: &str = "run";

/// How many captured inputs each microbenchmark keeps.
const CAPTURE_LIMIT: usize = 256;

/// One timed call: nanoseconds since the ledger's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// `0` for a root span.
    pub parent: u64,
    pub name: &'static str,
    pub round: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What a `run_round` call returned, keyed by its span.
#[derive(Debug, Clone, Copy)]
pub struct ControllerRecord {
    pub span: u64,
    pub phase: Option<Phase>,
    pub mbo_ns: Option<u64>,
    pub escalated_jobs: u64,
    pub quarantined: u64,
}

/// Inputs seen at the seams, replayed by the layer microbenchmarks.
#[derive(Debug, Default)]
pub struct Captured {
    /// `(client, round spec)` of the first rounds each controller ran.
    pub round_specs: Vec<(usize, RoundSpec)>,
    pub envelopes: Vec<Envelope>,
    /// Updates as the aggregator receives them (compressed, then decoded).
    pub decoded_updates: Vec<Vec<f64>>,
}

/// In-memory span store shared by every decorator of one traced run.
#[derive(Debug)]
pub struct Ledger {
    epoch: Instant,
    next_id: AtomicU64,
    round_span: AtomicU64,
    round: AtomicU64,
    spans: Mutex<Vec<Span>>,
    controllers: Mutex<Vec<ControllerRecord>>,
    captured: Mutex<Captured>,
}

thread_local! {
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

/// An open span; [`Ledger::close`] records it.
pub struct Open {
    id: u64,
    parent: u64,
    restore: u64,
    name: &'static str,
    round: u32,
    start_ns: u64,
}

impl Ledger {
    pub fn new() -> Arc<Ledger> {
        Arc::new(Ledger {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            round_span: AtomicU64::new(0),
            round: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            controllers: Mutex::new(Vec::new()),
            captured: Mutex::new(Captured::default()),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&self, name: &'static str) -> Open {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let restore = CURRENT.with(Cell::get);
        let parent = if restore != 0 {
            restore
        } else {
            self.round_span.load(Ordering::Acquire)
        };
        CURRENT.with(|c| c.set(id));
        Open {
            id,
            parent,
            restore,
            name,
            round: self.round.load(Ordering::Acquire) as u32,
            start_ns: self.now_ns(),
        }
    }

    pub fn close(&self, open: Open) -> u64 {
        let end_ns = self.now_ns();
        CURRENT.with(|c| c.set(open.restore));
        self.spans.lock().expect("span ledger poisoned").push(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            round: open.round,
            start_ns: open.start_ns,
            end_ns,
        });
        open.id
    }

    /// Times `f` as the whole run: spans opened on worker threads outside
    /// any round become its children.
    pub fn run<T>(&self, f: impl FnOnce() -> T) -> T {
        let span = self.open(RUN);
        self.round_span.store(span.id, Ordering::Release);
        let out = f();
        self.round_span.store(0, Ordering::Release);
        self.close(span);
        out
    }

    /// Times `f` as round `round`: spans opened on worker threads while
    /// it runs become its children.
    pub fn round<T>(&self, round: usize, f: impl FnOnce() -> T) -> T {
        self.round.store(round as u64, Ordering::Release);
        let span = self.open(ROUND);
        self.round_span.store(span.id, Ordering::Release);
        let out = f();
        self.round_span.store(span.parent, Ordering::Release);
        self.close(span);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span ledger poisoned").clone()
    }

    pub fn controllers(&self) -> Vec<ControllerRecord> {
        self.controllers
            .lock()
            .expect("controller records poisoned")
            .clone()
    }

    pub fn take_captured(&self) -> Captured {
        std::mem::take(&mut *self.captured.lock().expect("capture poisoned"))
    }

    fn capture(&self, f: impl FnOnce(&mut Captured)) {
        f(&mut self.captured.lock().expect("capture poisoned"));
    }
}

/// Times `run_round` and every `run_job` inside it.
pub struct TracedController {
    inner: Box<dyn PaceController>,
    client: usize,
    ledger: Arc<Ledger>,
}

impl TracedController {
    pub fn new(inner: Box<dyn PaceController>, client: usize, ledger: Arc<Ledger>) -> Self {
        TracedController {
            inner,
            client,
            ledger,
        }
    }
}

impl PaceController for TracedController {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn run_round(&mut self, spec: &RoundSpec, exec: &mut dyn JobExecutor) -> ControllerRoundStats {
        let ledger = &*self.ledger;
        let span = ledger.open(RUN_ROUND);
        let stats = self.inner.run_round(
            spec,
            &mut TracedExecutor {
                inner: exec,
                ledger,
            },
        );
        let id = ledger.close(span);
        ledger
            .controllers
            .lock()
            .expect("controller records poisoned")
            .push(ControllerRecord {
                span: id,
                phase: stats.phase,
                mbo_ns: stats.mbo_duration.map(|d| d.as_nanos() as u64),
                escalated_jobs: stats.escalated_jobs,
                quarantined: stats.quarantined,
            });
        ledger.capture(|c| {
            if c.round_specs.len() < CAPTURE_LIMIT {
                c.round_specs.push((self.client, *spec));
            }
        });
        stats
    }
}

struct TracedExecutor<'a> {
    inner: &'a mut dyn JobExecutor,
    ledger: &'a Ledger,
}

impl JobExecutor for TracedExecutor<'_> {
    fn config_space(&self) -> &ConfigSpace {
        self.inner.config_space()
    }

    fn run_job(&mut self, x: DvfsConfig) -> JobCost {
        let span = self.ledger.open(RUN_JOB);
        let cost = self.inner.run_job(x);
        self.ledger.close(span);
        cost
    }

    fn elapsed_s(&self) -> f64 {
        self.inner.elapsed_s()
    }
}

/// Times `Transport::carry`.
pub struct TracedTransport {
    inner: Box<dyn Transport>,
    ledger: Arc<Ledger>,
}

impl TracedTransport {
    pub fn new(inner: impl Transport + 'static, ledger: Arc<Ledger>) -> Self {
        TracedTransport {
            inner: Box::new(inner),
            ledger,
        }
    }
}

impl Transport for TracedTransport {
    fn label(&self) -> &str {
        self.inner.label()
    }

    fn carry(&mut self, round: usize, t0_s: f64, messages: &[Envelope]) -> Carried {
        let span = self.ledger.open(CARRY);
        let carried = self.inner.carry(round, t0_s, messages);
        self.ledger.close(span);
        self.ledger.capture(|c| {
            let room = CAPTURE_LIMIT.saturating_sub(c.envelopes.len());
            c.envelopes.extend(messages.iter().take(room));
        });
        carried
    }

    fn clone_box(&self) -> Box<dyn Transport> {
        Box::new(TracedTransport {
            inner: self.inner.clone_box(),
            ledger: Arc::clone(&self.ledger),
        })
    }
}

/// Times `ClientSampler::sample`.
pub struct TracedSampler {
    inner: Box<dyn ClientSampler>,
    ledger: Arc<Ledger>,
}

impl TracedSampler {
    pub fn new(inner: impl ClientSampler + 'static, ledger: Arc<Ledger>) -> Self {
        TracedSampler {
            inner: Box::new(inner),
            ledger,
        }
    }
}

impl ClientSampler for TracedSampler {
    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn sample(
        &self,
        fleet: &[ClientStat],
        cohort: usize,
        round: usize,
        seed: u64,
        out: &mut Vec<u32>,
    ) {
        let span = self.ledger.open(SAMPLE);
        self.inner.sample(fleet, cohort, round, seed, out);
        self.ledger.close(span);
    }

    fn clone_box(&self) -> Box<dyn ClientSampler> {
        Box::new(TracedSampler {
            inner: self.inner.clone_box(),
            ledger: Arc::clone(&self.ledger),
        })
    }
}

/// Times `Compressor::compress`.
#[derive(Debug)]
pub struct TracedCompressor {
    inner: Box<dyn Compressor>,
    ledger: Arc<Ledger>,
}

impl TracedCompressor {
    pub fn new(inner: impl Compressor + 'static, ledger: Arc<Ledger>) -> Self {
        TracedCompressor {
            inner: Box::new(inner),
            ledger,
        }
    }
}

impl Compressor for TracedCompressor {
    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn compress(
        &self,
        update: &[f64],
        seed: u64,
        residual: Option<&mut Vec<f64>>,
        out: &mut CompressedUpdate,
    ) {
        let span = self.ledger.open(COMPRESS);
        self.inner.compress(update, seed, residual, out);
        self.ledger.close(span);
        self.ledger.capture(|c| {
            if c.decoded_updates.len() < CAPTURE_LIMIT {
                let mut decoded = Vec::new();
                out.decode_into(&mut decoded);
                c.decoded_updates.push(decoded);
            }
        });
    }

    fn clone_box(&self) -> Box<dyn Compressor> {
        Box::new(TracedCompressor {
            inner: self.inner.clone_box(),
            ledger: Arc::clone(&self.ledger),
        })
    }
}

/// Total length of the union of `intervals` (unsorted, may overlap).
pub fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in intervals {
        match current {
            Some((s, e)) if start <= e => current = Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// A span's duration minus the part of it its direct children cover.
pub fn self_ns(span: &Span, spans: &[Span]) -> u64 {
    let children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == span.id)
        .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
        .filter(|(s, e)| s < e)
        .collect();
    span.ns() - union_ns(children)
}

/// Spans as JSON lines: `{"id":..,"parent":..,"name":..,"round":..,"start_ns":..,"end_ns":..}`.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"round\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
            s.id, s.parent, s.name, s.round, s.start_ns, s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_gaps() {
        assert_eq!(union_ns(vec![]), 0);
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_ns(vec![(20, 25), (0, 10), (2, 3)]), 15);
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let ledger = Ledger::new();
        ledger.round(3, || {
            let outer = ledger.open(RUN_ROUND);
            let inner = ledger.open(RUN_JOB);
            ledger.close(inner);
            ledger.close(outer);
            std::thread::scope(|s| {
                s.spawn(|| ledger.close(ledger.open(CARRY)));
            });
        });
        let spans = ledger.spans();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).copied().unwrap();
        let round = by_name(ROUND);
        assert_eq!(round.parent, 0);
        assert_eq!(by_name(RUN_ROUND).parent, round.id);
        assert_eq!(by_name(RUN_JOB).parent, by_name(RUN_ROUND).id);
        assert_eq!(
            by_name(CARRY).parent,
            round.id,
            "worker spans hang off the round"
        );
        assert!(spans.iter().all(|s| s.round == 3));
        assert!(self_ns(&round, &spans) <= round.ns());
    }
}
