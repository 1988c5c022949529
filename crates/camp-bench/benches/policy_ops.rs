//! Per-operation throughput of the eviction policies.
//!
//! The paper's efficiency claim — "CAMP is as fast as LRU" while GDS pays
//! `O(log n)` heap maintenance per hit — measured directly: each case
//! drives one policy through a pre-generated skewed request stream. Every
//! policy is built through the same [`EvictionMode`] spec layer the
//! simulator and the KVS server use.

use camp_bench::micro::Group;
use camp_core::{Camp, Precision};
use camp_policies::{CacheRequest, EvictionMode, EvictionPolicy, Gds, Lru};
use camp_workload::BgConfig;

fn requests() -> Vec<CacheRequest> {
    BgConfig::paper_scaled(50_000, 200_000, 7)
        .generate()
        .iter()
        .map(|r| CacheRequest::new(r.key, r.size, r.cost))
        .collect()
}

fn drive(policy: &mut dyn EvictionPolicy, requests: &[CacheRequest]) -> u64 {
    let mut evicted = Vec::new();
    let mut hits = 0u64;
    for req in requests {
        evicted.clear();
        if !policy.reference(*req, &mut evicted).is_miss() {
            hits += 1;
        }
    }
    hits
}

fn main() {
    let requests = requests();
    let unique: u64 = {
        let mut seen = std::collections::HashMap::new();
        for r in &requests {
            seen.insert(r.key, r.size);
        }
        seen.values().sum()
    };
    let capacity = unique / 4;

    let group = Group::new("policy_ops", requests.len() as u64, 10);
    for name in EvictionMode::all_names() {
        let mode: EvictionMode = name.parse().expect("documented name parses");
        group.case(name, || {
            let mut policy = mode.build::<u64>(capacity);
            drive(&mut *policy, &requests)
        });
    }
    // CAMP precision ablation beyond the spec defaults.
    group.case("camp:1", || {
        let mut policy = Camp::<u64, ()>::new(capacity, Precision::Bits(1));
        drive(&mut policy, &requests)
    });
    group.case("camp:inf", || {
        let mut policy = Camp::<u64, ()>::new(capacity, Precision::Infinite);
        drive(&mut policy, &requests)
    });

    // What the key type costs: the same stream through the same CAMP, keyed
    // by the `u64` the server's fingerprint gives it versus by owned key
    // bytes (one clone per reference, as a byte-keyed store must make).
    let group = Group::new("policy", requests.len() as u64, 10);
    let mode: EvictionMode = "camp:5".parse().expect("policy name");
    group.case("camp_reference_u64", || {
        let mut policy = mode.build::<u64>(capacity);
        drive(&mut *policy, &requests)
    });
    let byte_keys: Vec<Box<[u8]>> = requests
        .iter()
        .map(|r| r.key.to_string().into_bytes().into_boxed_slice())
        .collect();
    group.case("camp_reference_bytes", || {
        let mut policy = mode.build::<Box<[u8]>>(capacity);
        let mut evicted = Vec::new();
        let mut hits = 0u64;
        for (req, key) in requests.iter().zip(&byte_keys) {
            evicted.clear();
            let req = CacheRequest::new(key.clone(), req.size, req.cost);
            if !policy.reference(req, &mut evicted).is_miss() {
                hits += 1;
            }
        }
        hits
    });

    // The hit path in isolation: everything resident, no evictions — the
    // regime where CAMP's "no heap update unless the head changes" shines.
    let group = Group::new("hit_path", requests.len() as u64, 10);
    let mut camp = Camp::<u64, ()>::new(u64::MAX, Precision::Bits(5));
    drive(&mut camp, &requests); // warm: everything resident
    group.case("camp-p5", || drive(&mut camp, &requests));
    let mut lru = Lru::new(u64::MAX);
    drive(&mut lru, &requests);
    group.case("lru", || drive(&mut lru, &requests));
    let mut gds = Gds::new(u64::MAX);
    drive(&mut gds, &requests);
    group.case("gds", || drive(&mut gds, &requests));
}
