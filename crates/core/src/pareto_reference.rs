//! The quadratic all-pairs dominance scan that
//! `ObservationStore::pareto_set` replaced with a sort and sweep. It is
//! the reference the sweep is tested against, and only tests compile it:
//! the store's unit tests and the differential proptest under `tests/`
//! both mount this file under their crate root, so it names the store's
//! types through `super`.

/// Every observed aggregate that no other aggregate's mean cost
/// dominates, in first-observation order. O(N²).
pub fn pareto_set_quadratic(store: &super::ObservationStore) -> Vec<&super::AggregatedObservation> {
    let all: Vec<_> = store.iter().collect();
    all.iter()
        .filter(|a| {
            !all.iter()
                .any(|b| b.config != a.config && b.mean_cost().dominates(&a.mean_cost()))
        })
        .copied()
        .collect()
}
