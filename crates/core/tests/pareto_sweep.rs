//! Differential test of `ObservationStore::pareto_set`: the sort-and-sweep
//! must keep exactly the configurations the quadratic all-pairs scan
//! keeps, in the same first-observation order. Costs come from a small
//! pool so equal energies, equal latencies and identical cost pairs at
//! distinct configurations are common, not lucky.

use bofl::{AggregatedObservation, ObservationStore};
use bofl_device::{ConfigIndex, ConfigSpace, Device, DvfsConfig, FreqTable, JobCost};
use bofl_workload::{FlTask, TaskKind, Testbed};
use proptest::prelude::*;

#[path = "../src/pareto_reference.rs"]
mod pareto_reference;

use pareto_reference::pareto_set_quadratic;

/// The AGX grid of the paper's Table 1: 2100 configurations.
fn agx_space() -> ConfigSpace {
    ConfigSpace::new(
        FreqTable::linspace_mhz(420, 2265, 25),
        FreqTable::linspace_mhz(114, 1377, 14),
        FreqTable::linspace_mhz(204, 2133, 6),
    )
}

/// Cost values the generator draws from: few enough to force ties, plus
/// the signed zeros the sweep must group as equal.
const POOL: [f64; 6] = [0.0, -0.0, 0.5, 1.0, 1.5, 2.0];

/// One observed configuration: where its samples land in the grid, and
/// one or two (energy, latency) samples, so some means are averages.
type Entry = (usize, Vec<(usize, usize)>);

fn entry() -> impl Strategy<Value = Entry> {
    (
        0..agx_space().len(),
        prop::collection::vec((0..POOL.len(), 0..POOL.len()), 1..3),
    )
}

fn store_from(space: &ConfigSpace, entries: &[Entry]) -> ObservationStore {
    let mut store = ObservationStore::new();
    for (index, samples) in entries {
        let x = space.get(ConfigIndex(*index)).expect("index in range");
        for &(e, l) in samples {
            store.record(
                space,
                x,
                JobCost {
                    latency_s: POOL[l],
                    energy_j: POOL[e],
                },
            );
        }
    }
    store
}

fn configs(set: &[&AggregatedObservation]) -> Vec<DvfsConfig> {
    set.iter().map(|a| a.config).collect()
}

fn assert_sweep_matches_scan(store: &ObservationStore) {
    assert_eq!(
        configs(&store.pareto_set()),
        configs(&pareto_set_quadratic(store))
    );
}

proptest! {
    #[test]
    fn sweep_matches_the_quadratic_scan(entries in prop::collection::vec(entry(), 0..48)) {
        let space = agx_space();
        let store = store_from(&space, &entries);
        prop_assert_eq!(
            configs(&store.pareto_set()),
            configs(&pareto_set_quadratic(&store))
        );
    }
}

#[test]
fn sweep_matches_the_scan_on_tiny_stores() {
    let space = agx_space();
    assert!(store_from(&space, &[]).pareto_set().is_empty());
    for a in 0..POOL.len() {
        for b in 0..POOL.len() {
            assert_sweep_matches_scan(&store_from(&space, &[(7, vec![(a, b)])]));
            for c in 0..POOL.len() {
                for d in 0..POOL.len() {
                    // Two configurations: the loops give every pair of
                    // costs in both observation orders.
                    assert_sweep_matches_scan(&store_from(
                        &space,
                        &[(7, vec![(a, b)]), (3, vec![(c, d)])],
                    ));
                }
            }
        }
    }
}

#[test]
fn sweep_matches_the_scan_on_an_oracle_sized_store() {
    // Every grid point observed once, as Oracle's profile does, in a
    // scrambled order, with costs from the tie-heavy pool.
    let space = agx_space();
    let n = space.len();
    let entries: Vec<Entry> = (0..n)
        .map(|i| {
            let index = (i * 1031) % n;
            (
                index,
                vec![((i * 7) % POOL.len(), (i * 11 + i / 5) % POOL.len())],
            )
        })
        .collect();
    let store = store_from(&space, &entries);
    assert_eq!(store.len(), n);
    assert_sweep_matches_scan(&store);

    // The same grid with near-distinct costs along a convex front, where
    // most points are dominated and the survivors are a thin staircase.
    let mut front = ObservationStore::new();
    for i in 0..n {
        let index = (i * 1031) % n;
        let x = space.get(ConfigIndex(index)).unwrap();
        let t = (i % 97) as f64 / 97.0;
        front.record(
            &space,
            x,
            JobCost {
                latency_s: 1.0 + t + (i % 13) as f64 * 0.01,
                energy_j: 1.0 / (1.0 + t) + (i % 7) as f64 * 0.01,
            },
        );
    }
    let kept = front.pareto_set();
    assert!(!kept.is_empty() && kept.len() < n / 4);
    assert_sweep_matches_scan(&front);

    // The store Oracle plans over: the AGX's full noise-free profile.
    let device = Device::jetson_agx();
    let task = FlTask::preset(TaskKind::Cifar10Vit, Testbed::JetsonAgx);
    let mut oracle = ObservationStore::new();
    for p in device.profile_all(&task) {
        oracle.record(device.config_space(), p.config, p.cost);
    }
    assert_eq!(oracle.len(), n);
    assert_sweep_matches_scan(&oracle);
}
