//! Slab allocator benchmarks: allocate/free churn and the store's full
//! set/get path (the §4 server's per-request work, minus the network).

use camp_bench::micro::Group;
use camp_core::Precision;
use camp_kvs::slab::{SlabAllocator, SlabConfig};
use camp_kvs::store::{EvictionMode, Store, StoreConfig};

fn main() {
    let group = Group::new("slab", 10_000, 20);
    group.case("alloc_free_churn", || {
        let mut slabs = SlabAllocator::new(SlabConfig::small(1 << 20, 16));
        let mut live = Vec::new();
        let mut state = 99u64;
        for _ in 0..10_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let size = 64 + (state % 2048) as u32;
            if live.len() > 4_000 {
                let idx = (state % live.len() as u64) as usize;
                slabs.free(live.swap_remove(idx));
            }
            if let Ok(chunk) = slabs.allocate(size) {
                live.push(chunk);
            }
        }
        live.len()
    });

    let group = Group::new("store_set_get", 20_000, 10);
    for (label, eviction) in [
        ("lru", EvictionMode::Lru),
        ("camp-p5", EvictionMode::Camp(Precision::Bits(5))),
        ("gds", EvictionMode::Gds),
        ("2q", EvictionMode::TwoQ),
    ] {
        group.case(label, || {
            let mut store = Store::new(StoreConfig {
                slab: SlabConfig::small(1 << 20, 8),
                eviction: eviction.clone(),
            });
            let mut state = 5u64;
            let value = vec![0xABu8; 400];
            let mut hits = 0u64;
            for _ in 0..20_000 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let key = format!("key-{}", state % 30_000);
                match store.get_with(key.as_bytes(), |_| ()) {
                    Some(_) => hits += 1,
                    None => {
                        let cost = [1u64, 100, 10_000][(state % 3) as usize];
                        store
                            .set(key.as_bytes(), &value, 0, 0, cost)
                            .expect("store set");
                    }
                }
            }
            hits
        });
    }
}
