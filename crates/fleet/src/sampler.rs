//! Pluggable client-sampling policies for fleets far larger than the
//! per-round cohort.
//!
//! At fleet scale the server never runs *everyone*: each round it picks a
//! cohort of a few thousand out of a registered population of up to
//! millions. The literature (PAPERS.md: "Cost-Effective Federated
//! Learning Design"; "Scheduling Algorithms for FL with Minimal Energy
//! Consumption") shows the sampling distribution is a first-order lever
//! on both convergence and energy — so it is a seam here, not a policy
//! baked into the server.
//!
//! Every sampler is a pure function of `(seed, round, fleet stats)`: the
//! same inputs yield the same cohort on any thread, any worker count, any
//! machine running the same binary. Weighted policies use the
//! Efraimidis–Spirakis one-pass reservoir scheme (smallest `-ln(u)/w`
//! keys win), which gives exact weighted sampling *without replacement*
//! — no shuffling of a million-entry vector.
//!
//! All built-in samplers share one threshold select: a single pass over
//! the fleet keeps only keys below the cohort-th smallest seen so far,
//! and a linear-time `select_nth_unstable` cuts the buffer back to the
//! cohort whenever it doubles. Each cut is paid for by the cohort pushes
//! before it, so the pass is O(fleet) — one key and one integer compare
//! per client — and for keys in random order only about
//! `cohort · ln(fleet / cohort)` clients are pushed at all. A final
//! O(cohort · log cohort) sort puts the winners in id order.
//!
//! Because a built-in sampler's cohort is the cohort smallest of a
//! per-client key, selection decomposes: the winners of any split of the
//! fleet into blocks, sampled again as one fleet, are the fleet's own
//! cohort. [`crate::scale::ScaleSimulation`] uses that to select one
//! registry block per worker.

use crate::fault::stream_seed;
use crate::generator::DeviceKind;

/// Salt distinguishing the sampler's draw stream from fault/chaos draws.
const SAMPLER_SALT: u64 = 0x005A_3917_C040_57A7;

/// The compact per-client record a scale fleet keeps in RAM — a few
/// dozen bytes per client instead of a live `FlClient`, which is what
/// makes a million-client registry a ~24 MB table rather than gigabytes
/// of model replicas.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientStat {
    /// Client id (dense, `0..fleet_size`).
    pub id: u32,
    /// Local dataset size — the FedAvg aggregation weight.
    pub samples: u32,
    /// Estimated full-round energy at `x_max`, joules (device-class
    /// baseline with unit-level spread).
    pub energy_j_est: f32,
    /// Most recently reported local training loss.
    pub last_loss: f32,
    /// Round this client last participated in (`u32::MAX` = never).
    pub last_selected: u32,
    /// The board class this client runs on.
    pub kind: DeviceKind,
}

impl ClientStat {
    /// Rounds since this client last participated, as of `round`
    /// (`round + 1` when it never has — maximally stale).
    pub fn staleness(&self, round: usize) -> u32 {
        if self.last_selected == u32::MAX {
            round as u32 + 1
        } else {
            (round as u32).saturating_sub(self.last_selected)
        }
    }
}

/// Chooses each round's cohort out of the registered fleet.
///
/// Contract: `sample` must be a pure function of its arguments, must
/// return at most `cohort` *distinct* ids, and must leave `out` sorted
/// ascending (the canonical cohort order every downstream consumer —
/// shard planner, trace, journal — assumes).
///
/// It must also be *decomposable*: for any split of `fleet` into
/// contiguous blocks, sampling the union (in id order) of every block's
/// sampled `ClientStat`s must return exactly `sample(fleet)`. A sampler
/// that returns the `cohort` smallest of a per-client key that is pure in
/// `(seed, round, the client's ClientStat)`, ties broken by id, has this
/// property: every global winner also wins its own block. All built-in
/// samplers are of that form, and [`crate::scale::ScaleSimulation`]
/// relies on it to select one block per worker and then merge.
pub trait ClientSampler: Send + Sync {
    /// Short policy name for traces and artifacts.
    fn label(&self) -> &'static str;

    /// Fills `out` with the round's cohort, sorted ascending by id.
    fn sample(
        &self,
        fleet: &[ClientStat],
        cohort: usize,
        round: usize,
        seed: u64,
        out: &mut Vec<u32>,
    );

    /// Boxed clone, so engines holding a sampler stay cloneable.
    fn clone_box(&self) -> Box<dyn ClientSampler>;
}

impl Clone for Box<dyn ClientSampler> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Uniform sampling without replacement: every client equally likely.
/// The scale analogue of the vanilla FedAvg server (and the paper's
/// assumption).
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformSampler;

/// Energy-aware sampling (AutoFL-style, paper §2.1): client weight is
/// `energy_est^-alpha`, so efficient devices participate more often but
/// expensive ones still appear (statistical coverage of non-IID data).
#[derive(Debug, Clone, Copy)]
pub struct EnergyAwareSampler {
    /// Preference strength (`0` = uniform; `1` = inverse-energy;
    /// larger = greedier).
    pub alpha: f64,
}

impl Default for EnergyAwareSampler {
    fn default() -> Self {
        EnergyAwareSampler { alpha: 1.0 }
    }
}

/// Loss- and staleness-weighted sampling ("pick the clients the model
/// has learned least from, and the ones it hasn't seen lately"):
/// weight is `(last_loss + ε)^loss_exp · (1 + staleness)^staleness_exp`.
#[derive(Debug, Clone, Copy)]
pub struct LossStalenessSampler {
    /// Exponent on the client's last reported loss.
    pub loss_exp: f64,
    /// Exponent on rounds-since-last-participation.
    pub staleness_exp: f64,
}

impl Default for LossStalenessSampler {
    fn default() -> Self {
        LossStalenessSampler {
            loss_exp: 1.0,
            staleness_exp: 0.5,
        }
    }
}

/// A uniform draw in `(0, 1]`, pure in `(seed, round, id)`. The open
/// lower bound keeps `ln` finite for the weighted keys.
fn unit_draw(seed: u64, round: usize, id: u32) -> f64 {
    let mut h = stream_seed(seed, round, id as usize, SAMPLER_SALT);
    // splitmix64 finalizer: turns the XOR mix into well-distributed bits.
    h = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    (((h >> 11) as f64) + 1.0) / (1u64 << 53) as f64
}

/// Maps a key to an integer whose order is `f64::total_cmp`'s order
/// (the same bit transform the standard library uses): `-NaN < -inf <
/// ... < -0.0 < +0.0 < ... < +inf < +NaN`.
fn total_order_bits(key: f64) -> i64 {
    let bits = key.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Shared smallest-`cohort`-keys select: the winners by `(key, id)`,
/// keys in `f64::total_cmp` order, written to `out` sorted by id.
///
/// One pass pushes an entry only while it is below `limit`, the
/// cohort-th smallest entry kept so far. When the buffer reaches twice
/// the cohort, `select_nth_unstable` cuts it back to the cohort and
/// tightens the limit. Ids are unique, so `(key, id)` is a strict total
/// order, and an entry is dropped only when `cohort` entries already seen
/// are strictly smaller: the result is exact.
fn smallest_k(
    fleet: &[ClientStat],
    cohort: usize,
    out: &mut Vec<u32>,
    mut key: impl FnMut(&ClientStat) -> f64,
) {
    out.clear();
    let k = cohort.min(fleet.len());
    if k == 0 {
        return;
    }
    let mut kept: Vec<(i64, u32)> = Vec::with_capacity(2 * k);
    let mut limit: Option<(i64, u32)> = None;
    for stat in fleet {
        let entry = (total_order_bits(key(stat)), stat.id);
        if limit.is_some_and(|limit| entry >= limit) {
            continue;
        }
        kept.push(entry);
        if kept.len() == 2 * k {
            kept.select_nth_unstable(k - 1);
            kept.truncate(k);
            limit = Some(kept[k - 1]);
        }
    }
    if kept.len() > k {
        kept.select_nth_unstable(k - 1);
    }
    out.extend(kept[..k].iter().map(|&(_, id)| id));
    out.sort_unstable();
}

impl ClientSampler for UniformSampler {
    fn label(&self) -> &'static str {
        "uniform"
    }

    fn sample(
        &self,
        fleet: &[ClientStat],
        cohort: usize,
        round: usize,
        seed: u64,
        out: &mut Vec<u32>,
    ) {
        smallest_k(fleet, cohort, out, |s| unit_draw(seed, round, s.id));
    }

    fn clone_box(&self) -> Box<dyn ClientSampler> {
        Box::new(*self)
    }
}

impl ClientSampler for EnergyAwareSampler {
    fn label(&self) -> &'static str {
        "energy_aware"
    }

    fn sample(
        &self,
        fleet: &[ClientStat],
        cohort: usize,
        round: usize,
        seed: u64,
        out: &mut Vec<u32>,
    ) {
        let alpha = self.alpha;
        smallest_k(fleet, cohort, out, |s| {
            let u = unit_draw(seed, round, s.id);
            let energy = (s.energy_j_est as f64).max(1e-6);
            // Efraimidis–Spirakis key for weight energy^-alpha.
            -u.ln() * energy.powf(alpha)
        });
    }

    fn clone_box(&self) -> Box<dyn ClientSampler> {
        Box::new(*self)
    }
}

impl ClientSampler for LossStalenessSampler {
    fn label(&self) -> &'static str {
        "loss_staleness"
    }

    fn sample(
        &self,
        fleet: &[ClientStat],
        cohort: usize,
        round: usize,
        seed: u64,
        out: &mut Vec<u32>,
    ) {
        smallest_k(fleet, cohort, out, |s| {
            let u = unit_draw(seed, round, s.id);
            let loss = (s.last_loss as f64 + 0.05).max(1e-6);
            let fresh = 1.0 + s.staleness(round) as f64;
            let w = loss.powf(self.loss_exp) * fresh.powf(self.staleness_exp);
            -u.ln() / w
        });
    }

    fn clone_box(&self) -> Box<dyn ClientSampler> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BinaryHeap;

    /// A max-heap entry ordered by `(key, id)`; the heap keeps the
    /// cohort's *smallest* keys by evicting its largest root.
    struct HeapKey(f64, u32);

    impl PartialEq for HeapKey {
        fn eq(&self, other: &Self) -> bool {
            self.0.total_cmp(&other.0).is_eq() && self.1 == other.1
        }
    }
    impl Eq for HeapKey {}
    impl PartialOrd for HeapKey {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for HeapKey {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
        }
    }

    /// The bounded-heap select `smallest_k` replaced, kept as the
    /// differential reference.
    fn heap_smallest_k(
        fleet: &[ClientStat],
        cohort: usize,
        out: &mut Vec<u32>,
        mut key: impl FnMut(&ClientStat) -> f64,
    ) {
        out.clear();
        if cohort == 0 || fleet.is_empty() {
            return;
        }
        let k = cohort.min(fleet.len());
        let mut heap: BinaryHeap<HeapKey> = BinaryHeap::with_capacity(k + 1);
        for stat in fleet {
            let entry = HeapKey(key(stat), stat.id);
            if heap.len() < k {
                heap.push(entry);
            } else if entry < *heap.peek().expect("heap is non-empty at capacity") {
                heap.pop();
                heap.push(entry);
            }
        }
        out.extend(heap.into_iter().map(|HeapKey(_, id)| id));
        out.sort_unstable();
    }

    /// Keys that stress the order: signed zeros, NaNs of both signs and
    /// two payloads, infinities, subnormals and repeats.
    const SPECIAL_KEYS: [f64; 10] = [
        0.0,
        -0.0,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1.0,
        -1.0,
        f64::MIN_POSITIVE / 2.0,
        f64::from_bits(0x7FF8_0000_0000_0001),
    ];

    /// A fleet listing `order`'s ids in that order; `keys[id]` is the key.
    fn keyed_fleet(order: &[u32]) -> Vec<ClientStat> {
        order
            .iter()
            .map(|&id| ClientStat {
                id,
                samples: 1,
                energy_j_est: 1.0,
                last_loss: 1.0,
                last_selected: u32::MAX,
                kind: DeviceKind::JetsonTx2,
            })
            .collect()
    }

    /// `smallest_k` and the heap reference pick the same ids.
    fn agree(keys: &[f64], order: &[u32], cohort: usize) -> Result<(), String> {
        let fleet = keyed_fleet(order);
        let (mut fast, mut slow) = (vec![u32::MAX], Vec::new());
        smallest_k(&fleet, cohort, &mut fast, |s| keys[s.id as usize]);
        heap_smallest_k(&fleet, cohort, &mut slow, |s| keys[s.id as usize]);
        if fast == slow {
            Ok(())
        } else {
            Err(format!(
                "cohort {cohort} of {}: {fast:?} vs {slow:?}",
                order.len()
            ))
        }
    }

    #[test]
    fn total_order_bits_matches_total_cmp() {
        for &a in &SPECIAL_KEYS {
            for &b in &SPECIAL_KEYS {
                assert_eq!(
                    total_order_bits(a).cmp(&total_order_bits(b)),
                    a.total_cmp(&b),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn threshold_select_matches_heap_at_every_cohort_and_cut() {
        // Fleet sizes around the 2·cohort cut, cohorts at every edge.
        for n in 0..=40usize {
            let ids: Vec<u32> = (0..n as u32).collect();
            let reversed: Vec<u32> = ids.iter().rev().copied().collect();
            let keys: Vec<f64> = (0..n)
                .map(|i| SPECIAL_KEYS[(i * 7) % SPECIAL_KEYS.len()])
                .collect();
            let descending: Vec<f64> = (0..n).map(|i| -(i as f64)).collect();
            let ties: Vec<f64> = (0..n).map(|i| (i % 3) as f64).collect();
            for cohort in [
                0,
                1,
                2,
                3,
                n / 3,
                n / 2,
                n.saturating_sub(1),
                n,
                n + 1,
                2 * n + 5,
            ] {
                for order in [&ids, &reversed] {
                    agree(&keys, order, cohort).unwrap();
                    agree(&descending, order, cohort).unwrap();
                    agree(&ties, order, cohort).unwrap();
                }
            }
        }
    }

    #[test]
    fn signed_zeros_and_nans_sort_like_total_cmp() {
        // -NaN < -0.0 < +0.0 < +NaN, ids breaking the +0.0 tie.
        let keys = [f64::NAN, 0.0, -0.0, -f64::NAN, 0.0];
        let order = [0u32, 1, 2, 3, 4];
        let fleet = keyed_fleet(&order);
        let mut out = Vec::new();
        for (cohort, want) in [
            (1, vec![3]),
            (2, vec![2, 3]),
            (3, vec![1, 2, 3]),
            (4, vec![1, 2, 3, 4]),
            (5, vec![0, 1, 2, 3, 4]),
        ] {
            smallest_k(&fleet, cohort, &mut out, |s| keys[s.id as usize]);
            assert_eq!(out, want, "cohort {cohort}");
            agree(&keys, &order, cohort).unwrap();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Tie-heavy keys (two or three distinct values, or the special
        /// pool) over sparse, shuffled ids: ties break by id exactly as
        /// the heap breaks them.
        #[test]
        fn threshold_select_matches_heap_reference(
            picks in prop::collection::vec(0usize..SPECIAL_KEYS.len(), 0..300),
            distinct_pick in 0usize..3,
            stride in 1u32..5,
            shuffle_seed in 0u64..u64::MAX,
            cohort_pick in 0usize..12,
        ) {
            let n = picks.len();
            let distinct = [2, 3, SPECIAL_KEYS.len()][distinct_pick];
            let mut order: Vec<u32> = (0..n as u32).map(|i| i * stride).collect();
            // Fisher–Yates driven by the drawn seed.
            let mut h = shuffle_seed;
            for i in (1..n).rev() {
                h = h.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                order.swap(i, (h >> 33) as usize % (i + 1));
            }
            let mut keys = vec![0.0; order.iter().max().map_or(0, |&m| m as usize + 1)];
            for (&id, &pick) in order.iter().zip(&picks) {
                keys[id as usize] = SPECIAL_KEYS[pick % distinct];
            }
            let cohort = match cohort_pick {
                0 => 0,
                1 => 1,
                2 => n.saturating_sub(1),
                3 => n,
                4 => n + 3,
                5 => n / 2,
                6 => n.div_ceil(2),
                _ => cohort_pick * 4,
            };
            prop_assert_eq!(agree(&keys, &order, cohort), Ok(()));
        }
    }

    fn fleet(n: usize) -> Vec<ClientStat> {
        (0..n)
            .map(|id| ClientStat {
                id: id as u32,
                samples: 100,
                energy_j_est: if id % 2 == 0 { 50.0 } else { 200.0 },
                last_loss: if id < n / 2 { 0.2 } else { 2.0 },
                last_selected: u32::MAX,
                kind: DeviceKind::JetsonAgx,
            })
            .collect()
    }

    fn assert_cohort_shape(out: &[u32], cohort: usize, fleet_len: usize) {
        assert_eq!(out.len(), cohort.min(fleet_len));
        assert!(out.windows(2).all(|w| w[0] < w[1]), "sorted + distinct");
        assert!(out.iter().all(|&id| (id as usize) < fleet_len));
    }

    #[test]
    fn samplers_are_deterministic_and_canonical() {
        let fleet = fleet(500);
        let samplers: Vec<Box<dyn ClientSampler>> = vec![
            Box::new(UniformSampler),
            Box::new(EnergyAwareSampler::default()),
            Box::new(LossStalenessSampler::default()),
        ];
        for s in &samplers {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            s.sample(&fleet, 64, 3, 42, &mut a);
            s.sample(&fleet, 64, 3, 42, &mut b);
            assert_eq!(a, b, "{} must be pure", s.label());
            assert_cohort_shape(&a, 64, fleet.len());
            s.sample(&fleet, 64, 4, 42, &mut b);
            assert_ne!(a, b, "{} must vary by round", s.label());
        }
    }

    #[test]
    fn uniform_covers_the_fleet_over_rounds() {
        let fleet = fleet(200);
        let mut seen = [false; 200];
        let mut out = Vec::new();
        for round in 0..40 {
            UniformSampler.sample(&fleet, 20, round, 7, &mut out);
            for &id in &out {
                seen[id as usize] = true;
            }
        }
        let covered = seen.iter().filter(|&&s| s).count();
        assert!(
            covered > 180,
            "uniform should touch most clients: {covered}"
        );
    }

    #[test]
    fn energy_aware_prefers_cheap_clients() {
        let fleet = fleet(1000);
        let mut out = Vec::new();
        let mut cheap = 0usize;
        let mut total = 0usize;
        for round in 0..20 {
            EnergyAwareSampler { alpha: 2.0 }.sample(&fleet, 50, round, 9, &mut out);
            cheap += out.iter().filter(|&&id| id % 2 == 0).count();
            total += out.len();
        }
        assert!(
            cheap as f64 > total as f64 * 0.75,
            "cheap devices should dominate: {cheap}/{total}"
        );
    }

    #[test]
    fn loss_weighted_prefers_high_loss_clients() {
        let fleet = fleet(1000);
        let mut out = Vec::new();
        let mut lossy = 0usize;
        let mut total = 0usize;
        for round in 0..20 {
            LossStalenessSampler {
                loss_exp: 2.0,
                staleness_exp: 0.0,
            }
            .sample(&fleet, 50, round, 11, &mut out);
            lossy += out.iter().filter(|&&id| id >= 500).count();
            total += out.len();
        }
        assert!(
            lossy as f64 > total as f64 * 0.75,
            "high-loss clients should dominate: {lossy}/{total}"
        );
    }

    #[test]
    fn staleness_pressure_recalls_neglected_clients() {
        let mut fleet = fleet(100);
        // Everyone participated recently except client 7.
        for s in fleet.iter_mut() {
            s.last_selected = 99;
            s.last_loss = 1.0;
        }
        fleet[7].last_selected = 0;
        let sampler = LossStalenessSampler {
            loss_exp: 0.0,
            staleness_exp: 4.0,
        };
        let mut out = Vec::new();
        let mut hits = 0;
        for round in 100..120 {
            sampler.sample(&fleet, 10, round, 13, &mut out);
            hits += usize::from(out.contains(&7));
        }
        assert!(
            hits >= 18,
            "stale client should almost always be recalled: {hits}/20"
        );
    }

    #[test]
    fn cohort_larger_than_fleet_returns_everyone() {
        let fleet = fleet(8);
        let mut out = Vec::new();
        UniformSampler.sample(&fleet, 100, 0, 1, &mut out);
        assert_eq!(out, (0..8).collect::<Vec<u32>>());
    }
}
