//! The keyed front — [`Keyed`], [`Ordering`] and the slots orderings keep
//! their per-pair state in — under the path it has always had here. It is
//! defined in [`camp_core::keyed`], where CAMP's own ordering lives; this
//! crate adds eight more (`lru`, `gds` and `gdsf`, `lfu`, `gd_wheel`, and
//! the ghost-keeping `arc`, `two_q` and `lru_k`).

pub use camp_core::keyed::*;

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use camp_core::rng::Rng64;
    use camp_core::{Camp, InsertOutcome, Precision};

    use super::{Keyed, Ordering};
    use crate::gds::WithPrecision;
    use crate::{
        AccessOutcome, Arc, CacheRequest, EvictionMode, EvictionPolicy, GdWheel, Gds, Gdsf, Lfu,
        Lru, LruK, LruKCache, TwoQ, TwoQCache,
    };

    /// `STAT policy:<i>:*` lines and `camp_policy_*` samples are rendered
    /// from these names in this order: they are published vocabulary.
    #[test]
    fn names_and_gauge_order_are_the_published_ones() {
        const BASE: [&str; 3] = ["items", "used_bytes", "capacity_bytes"];
        const CAMP: [&str; 5] = [
            "queue_count",
            "heap_visits",
            "heap_updates",
            "l_value",
            "ratio_multiplier",
        ];
        let published: [(&str, &str, &[&str]); 7] = [
            ("lru", "lru", &["queue_count"]),
            ("gds", "gds", &["heap_visits", "heap_updates", "l_value"]),
            ("gdsf", "gdsf", &["heap_visits", "heap_updates", "l_value"]),
            ("lfu", "lfu", &["heap_visits"]),
            ("gd-wheel", "gd-wheel", &["l_value"]),
            ("camp", "camp(p=5)", &CAMP),
            ("camp:inf", "camp(p=∞)", &CAMP),
        ];
        for (mode, name, extra) in published {
            let mut policy = mode.parse::<EvictionMode>().unwrap().build::<u64>(1 << 10);
            assert_eq!(policy.name(), name);
            // Three cost classes at one size: CAMP keeps three queues.
            for key in 0..12u64 {
                policy.reference(
                    CacheRequest::new(key, 64, 1 + key % 3 * 500),
                    &mut Vec::new(),
                );
            }
            let stats = policy.policy_stats();
            let names: Vec<&str> = stats.gauges.iter().map(|g| g.name).collect();
            let unlabelled = [&BASE[..], extra].concat();
            assert_eq!(names[..unlabelled.len()], unlabelled, "{mode}");
            // Then, for CAMP only, one `queue_len` per queue, sorted by ratio.
            let ratios: Vec<u64> = stats.gauges[unlabelled.len()..]
                .iter()
                .map(|g| match (g.name, &g.label) {
                    ("queue_len", Some(("ratio", ratio))) => ratio.parse().unwrap(),
                    other => panic!("{mode}: unexpected gauge {other:?}"),
                })
                .collect();
            assert_eq!(ratios.len(), if extra.len() == CAMP.len() { 3 } else { 0 });
            assert!(ratios.windows(2).all(|w| w[0] < w[1]), "{mode}: {ratios:?}");
        }
        let rounded: Gds = Gds::with_precision(1 << 10, Precision::Bits(5));
        assert_eq!(rounded.name(), "gds(p=5)");
    }

    /// What the front promises whatever the ordering, checked from outside
    /// against a model of the resident set: one slot per mapped key and the
    /// reverse, each under the size it was stored with, and the byte budget
    /// equal to their sum.
    fn check_front<O: Ordering<u64>>(cache: &Keyed<u64, O>, model: &HashMap<u64, u64>) {
        assert_eq!(cache.len(), model.len());
        assert_eq!(cache.iter().count(), model.len());
        for (key, (), slot) in cache.iter() {
            assert_eq!(model.get(key), Some(&slot.size), "slot of key {key}");
        }
        assert!(model.keys().all(|key| cache.contains(key)));
        assert_eq!(cache.used_bytes(), model.values().sum::<u64>());
        assert!(cache.used_bytes() <= cache.capacity());
    }

    /// 10 000 seeded steps of every way into the front, the model kept from
    /// the outcomes it reports, the invariants checked after each.
    fn front_holds_under_a_mix<O: Ordering<u64>>(mut cache: Keyed<u64, O>) {
        let name = cache.name();
        let mut rng = Rng64::seed_from_u64(0xF407);
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut evicted = Vec::new();
        let mut pairs = Vec::new();
        for _ in 0..10_000 {
            let key = rng.range_u64(0, 96);
            let (size, cost) = (rng.range_u64(1, 80), rng.range_u64(0, 5_000));
            match rng.range_u64(0, 10) {
                0..=3 => {
                    evicted.clear();
                    let outcome = cache.reference(CacheRequest::new(key, size, cost), &mut evicted);
                    assert_eq!(outcome == AccessOutcome::Hit, model.contains_key(&key));
                    assert!(outcome == AccessOutcome::MissInserted || evicted.is_empty());
                    for gone in &evicted {
                        assert!(
                            model.remove(gone).is_some(),
                            "{name}: evicted absent {gone}"
                        );
                    }
                    if outcome == AccessOutcome::MissInserted {
                        model.insert(key, size);
                    }
                }
                4 => assert_eq!(cache.touch(&key), model.contains_key(&key)),
                5 => {
                    let victim = cache.evict_next();
                    assert_eq!(victim.is_some(), !model.is_empty());
                    if let Some(victim) = victim {
                        assert!(model.remove(&victim).is_some(), "{name}: victim {victim}");
                    }
                }
                6 => assert_eq!(cache.remove(&key).is_some(), model.remove(&key).is_some()),
                _ => {
                    pairs.clear();
                    let was_resident = model.contains_key(&key);
                    let outcome = cache.insert_with_evictions(key, (), size, cost, &mut pairs);
                    assert_eq!(outcome == InsertOutcome::Updated, was_resident, "{name}");
                    model.remove(&key);
                    for (gone, ()) in &pairs {
                        assert!(
                            model.remove(gone).is_some(),
                            "{name}: evicted absent {gone}"
                        );
                    }
                    model.insert(key, size);
                }
            }
            check_front(&cache, &model);
        }
        assert!(
            cache.used_bytes() > cache.capacity() / 2,
            "{name}: the mix fills the cache"
        );
    }

    #[test]
    fn front_invariants_hold_for_every_ordering() {
        const CAPACITY: u64 = 1_500;
        front_holds_under_a_mix(Lru::new(CAPACITY));
        front_holds_under_a_mix(Gds::new(CAPACITY));
        front_holds_under_a_mix(Gdsf::new(CAPACITY));
        front_holds_under_a_mix(Lfu::new(CAPACITY));
        front_holds_under_a_mix(GdWheel::new(CAPACITY));
        front_holds_under_a_mix(Camp::new(CAPACITY, Precision::Bits(5)));
        front_holds_under_a_mix(Arc::new(CAPACITY));
        front_holds_under_a_mix(TwoQ::new(CAPACITY));
        front_holds_under_a_mix(LruK::new(CAPACITY, 2));
    }
}
