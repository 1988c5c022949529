//! Properties every eviction policy must satisfy, checked generically, plus
//! comparative properties between CAMP and the algorithms it approximates.

use camp_core::rng::Rng64;
use camp_core::{Camp, Precision};
use camp_policies::{
    AccessOutcome, Admission, AdmissionRule, Arc, CacheRequest, EvictionPolicy, GdWheel, Gds, Gdsf,
    Lfu, Lru, LruK, PoolSplit, PooledLru, TwoQ,
};

fn all_policies(capacity: u64) -> Vec<Box<dyn EvictionPolicy>> {
    vec![
        Box::new(Camp::<u64, ()>::new(capacity, Precision::Bits(5))),
        Box::new(Camp::<u64, ()>::new(capacity, Precision::Bits(1))),
        Box::new(Camp::<u64, ()>::new(capacity, Precision::Infinite)),
        Box::new(Lru::new(capacity)),
        Box::new(Gds::new(capacity)),
        Box::new(PooledLru::new(
            capacity,
            &[1, 100, 10_000],
            PoolSplit::ProportionalToLowerBound,
        )),
        Box::new(PooledLru::new(capacity, &[1, 100], PoolSplit::Uniform)),
        Box::new(LruK::new(capacity, 2)),
        Box::new(TwoQ::new(capacity)),
        Box::new(Arc::new(capacity)),
        Box::new(GdWheel::new(capacity)),
        Box::new(Gdsf::new(capacity)),
        Box::new(Lfu::new(capacity)),
        Box::new(Admission::new(
            Lru::new(capacity),
            AdmissionRule::SecondMiss { window: 32 },
        )),
    ]
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Reference(u64),
    Remove(u64),
    Touch(u64),
    EvictNext,
}

fn random_ops(rng: &mut Rng64) -> Vec<Op> {
    let len = rng.range_usize(0, 400);
    (0..len)
        .map(|_| {
            let key = rng.range_u64(0, 48);
            match rng.range_u64(0, 20) {
                0 | 1 => Op::Remove(key),
                2 | 3 => Op::Touch(key),
                4 => Op::EvictNext,
                _ => Op::Reference(key),
            }
        })
        .collect()
}

/// Per the paper, a key's size and cost are fixed for the whole trace:
/// derive both from the key so repeated references are consistent.
fn request_for(key: u64) -> CacheRequest {
    let size = 1 + (key * 13) % 40;
    let cost = [1u64, 100, 10_000][(key % 3) as usize];
    CacheRequest::new(key, size, cost)
}

/// Universal contract: byte budget respected, membership consistent with
/// reported outcomes, removals final. Seeded random exploration over every
/// policy (our stand-in for property-based testing, which would need an
/// external crate).
#[test]
fn every_policy_honours_the_contract() {
    for seed in 0..64u64 {
        let mut rng = Rng64::seed_from_u64(seed);
        let ops = random_ops(&mut rng);
        let capacity = rng.range_u64(50, 400);
        for policy in &mut all_policies(capacity) {
            let mut resident: std::collections::HashMap<u64, u64> = Default::default();
            let mut evicted = Vec::new();
            for op in &ops {
                match *op {
                    Op::Reference(key) => {
                        let req = request_for(key);
                        let size = req.size;
                        evicted.clear();
                        let had = resident.contains_key(&key);
                        let out = policy.reference(req, &mut evicted);
                        for k in &evicted {
                            assert!(
                                resident.remove(k).is_some(),
                                "{} (seed {seed}): evicted non-resident {k}",
                                policy.name()
                            );
                        }
                        match out {
                            AccessOutcome::Hit => {
                                assert!(had, "{}: hit on absent key", policy.name());
                                assert!(resident.contains_key(&key));
                            }
                            AccessOutcome::MissInserted => {
                                assert!(!had, "{}: miss on resident key", policy.name());
                                resident.insert(key, size);
                                assert!(
                                    policy.contains(&key),
                                    "{}: inserted key not resident",
                                    policy.name()
                                );
                            }
                            AccessOutcome::MissBypassed => {
                                assert!(!had);
                                assert!(!policy.contains(&key));
                            }
                        }
                    }
                    Op::Remove(key) => {
                        evicted.clear();
                        let removed = policy.remove(&key);
                        assert_eq!(
                            removed,
                            resident.remove(&key).is_some(),
                            "{} (seed {seed}): remove disagrees with model",
                            policy.name()
                        );
                        assert!(!policy.contains(&key));
                    }
                    Op::Touch(key) => {
                        // touch must report residency and never change it.
                        let touched = policy.touch(&key);
                        assert_eq!(
                            touched,
                            resident.contains_key(&key),
                            "{} (seed {seed}): touch disagrees with model",
                            policy.name()
                        );
                    }
                    Op::EvictNext => {
                        // The victim was resident and is gone.
                        match policy.evict_next() {
                            Some(v) => assert!(
                                resident.remove(&v).is_some() && !policy.contains(&v),
                                "{} (seed {seed}): evicted non-resident {v}",
                                policy.name()
                            ),
                            None => assert!(resident.is_empty(), "{}", policy.name()),
                        }
                    }
                }
                assert!(
                    policy.used_bytes() <= capacity,
                    "{} (seed {seed}): over capacity",
                    policy.name()
                );
                assert_eq!(
                    policy.len(),
                    resident.len(),
                    "{} (seed {seed}): len mismatch",
                    policy.name()
                );
                let used: u64 = resident.values().sum();
                assert_eq!(
                    policy.used_bytes(),
                    used,
                    "{} (seed {seed}): used bytes mismatch",
                    policy.name()
                );
            }
        }
    }
}

/// Drives a policy over a synthetic skewed workload and returns
/// (miss_count, missed_cost, total_cost) over non-cold requests.
fn run_workload(policy: &mut dyn EvictionPolicy, requests: &[(u64, u64, u64)]) -> (u64, u64, u64) {
    let mut seen = std::collections::HashSet::new();
    let mut evicted = Vec::new();
    let (mut misses, mut missed_cost, mut total_cost) = (0u64, 0u64, 0u64);
    for &(key, size, cost) in requests {
        evicted.clear();
        let out = policy.reference(CacheRequest::new(key, size, cost), &mut evicted);
        if seen.insert(key) {
            continue; // cold request: not counted, as in the paper
        }
        total_cost += cost;
        if out.is_miss() {
            misses += 1;
            missed_cost += cost;
        }
    }
    (misses, missed_cost, total_cost)
}

fn skewed_requests(seed: u64, n: usize, keys: u64) -> Vec<(u64, u64, u64)> {
    // Deterministic xorshift; 70% of requests to 20% of keys.
    let mut state = seed.max(1);
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|_| {
            let hot = rng() % 10 < 7;
            let key = if hot {
                rng() % (keys / 5).max(1)
            } else {
                (keys / 5) + rng() % (4 * keys / 5).max(1)
            };
            let size = 10 + key % 50;
            let cost = [1u64, 100, 10_000][(key % 3) as usize];
            (key, size, cost)
        })
        .collect()
}

#[test]
fn camp_tracks_gds_cost_miss_closely() {
    // Proposition 3 in practice: CAMP's incurred cost should be within a
    // small factor of GDS's on a skewed workload, at any precision — and at
    // high precision they should be nearly identical.
    let requests = skewed_requests(42, 60_000, 500);
    let total_size: u64 = {
        let mut seen = std::collections::HashMap::new();
        for &(k, s, _) in &requests {
            seen.insert(k, s);
        }
        seen.values().sum()
    };
    let capacity = total_size / 4;

    let mut gds = Gds::new(capacity);
    let (_, gds_cost, total) = run_workload(&mut gds, &requests);
    assert!(total > 0);

    for precision in [Precision::Bits(1), Precision::Bits(5), Precision::Infinite] {
        let mut camp: Camp<u64, ()> = Camp::new(capacity, precision);
        let (_, camp_cost, _) = run_workload(&mut camp, &requests);
        let ratio = camp_cost as f64 / gds_cost.max(1) as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "camp({precision:?}) vs gds cost ratio {ratio}: {camp_cost} vs {gds_cost}"
        );
    }
}

#[test]
fn camp_beats_lru_on_skewed_costs() {
    // The paper's headline claim (Figure 5c): with widely varying costs,
    // CAMP's cost-miss ratio beats LRU's.
    let requests = skewed_requests(7, 80_000, 400);
    let total_size: u64 = {
        let mut seen = std::collections::HashMap::new();
        for &(k, s, _) in &requests {
            seen.insert(k, s);
        }
        seen.values().sum()
    };
    for denom in [2u64, 4, 10] {
        let capacity = total_size / denom;
        let mut camp: Camp<u64, ()> = Camp::new(capacity, Precision::Bits(5));
        let mut lru = Lru::new(capacity);
        let (_, camp_cost, _) = run_workload(&mut camp, &requests);
        let (_, lru_cost, _) = run_workload(&mut lru, &requests);
        assert!(
            camp_cost <= lru_cost,
            "cache=1/{denom}: camp missed cost {camp_cost} > lru {lru_cost}"
        );
    }
}

#[test]
fn min_lower_bounds_online_policies_on_uniform_traces() {
    use camp_policies::BeladyMin;
    // Uniform size & cost: MIN's miss count is a true lower bound.
    let requests: Vec<(u64, u64, u64)> = skewed_requests(99, 30_000, 200)
        .into_iter()
        .map(|(k, _, _)| (k, 10, 1))
        .collect();
    let keys: Vec<u64> = requests.iter().map(|r| r.0).collect();
    let capacity = 10 * 50; // half the key space

    let mut min = BeladyMin::from_keys(capacity, &keys);
    let (min_misses, _, _) = run_workload(&mut min, &requests);

    let online: Vec<Box<dyn EvictionPolicy>> = vec![
        Box::new(Camp::<u64, ()>::new(capacity, Precision::Bits(5))),
        Box::new(Lru::new(capacity)),
        Box::new(Gds::new(capacity)),
        Box::new(TwoQ::new(capacity)),
        Box::new(Arc::new(capacity)),
        Box::new(LruK::new(capacity, 2)),
        Box::new(GdWheel::new(capacity)),
        Box::new(Gdsf::new(capacity)),
        Box::new(Lfu::new(capacity)),
    ];
    for mut policy in online {
        let (misses, _, _) = run_workload(policy.as_mut(), &requests);
        assert!(
            min_misses <= misses,
            "{}: {misses} misses beat MIN's {min_misses}",
            policy.name()
        );
    }
}

#[test]
fn camp_equals_lru_when_costs_and_sizes_are_uniform() {
    // Degenerate workload: one queue, CAMP must produce byte-identical
    // decisions to LRU at every step.
    let requests: Vec<(u64, u64, u64)> = skewed_requests(3, 20_000, 100)
        .into_iter()
        .map(|(k, _, _)| (k, 16, 7))
        .collect();
    let capacity = 16 * 30;
    let mut camp: Camp<u64, ()> = Camp::new(capacity, Precision::Bits(5));
    let mut lru = Lru::new(capacity);
    let mut ev_camp = Vec::new();
    let mut ev_lru = Vec::new();
    for &(key, size, cost) in &requests {
        ev_camp.clear();
        ev_lru.clear();
        let a = camp.reference(CacheRequest::new(key, size, cost), &mut ev_camp);
        let b = lru.reference(CacheRequest::new(key, size, cost), &mut ev_lru);
        assert_eq!(a, b, "outcome diverged on key {key}");
        assert_eq!(ev_camp, ev_lru, "evictions diverged on key {key}");
    }
}

#[test]
fn camp_precision_has_negligible_quality_impact() {
    // Figure 5a's finding: the cost-miss ratio barely moves with precision.
    let requests = skewed_requests(1234, 60_000, 500);
    let total_size: u64 = {
        let mut seen = std::collections::HashMap::new();
        for &(k, s, _) in &requests {
            seen.insert(k, s);
        }
        seen.values().sum()
    };
    let capacity = total_size / 4;
    let mut costs = Vec::new();
    for p in [1u8, 2, 4, 6, 8, 10] {
        let mut camp: Camp<u64, ()> = Camp::new(capacity, Precision::Bits(p));
        let (_, cost, _) = run_workload(&mut camp, &requests);
        costs.push(cost);
    }
    let max = *costs.iter().max().unwrap() as f64;
    let min = *costs.iter().min().unwrap() as f64;
    assert!(
        max / min.max(1.0) < 1.25,
        "precision sweep varied cost-miss by more than 25%: {costs:?}"
    );
}
