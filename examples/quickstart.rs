//! Quickstart: using a CAMP cache directly.
//!
//! Run with `cargo run --example quickstart`.

use camp::core::{Camp, Precision};

fn main() {
    // A 4 KiB cache with the paper's default precision (5 significant bits
    // of the cost-to-size ratio).
    let mut cache: Camp<String, Vec<u8>> = Camp::new(4096, Precision::Bits(5));

    // insert(key, value, size_in_bytes, cost). Costs are whatever unit your
    // application measures recomputation in (the paper uses RDBMS query
    // latency); sizes are bytes.
    cache.insert("user:1".into(), b"alice's profile".to_vec(), 1024, 3);
    cache.insert("user:2".into(), b"bob's profile".to_vec(), 1024, 3);
    cache.insert(
        "ads:model".into(),
        b"ML-derived ad targeting model".to_vec(),
        2048,
        50_000,
    );

    // Hits refresh both recency and priority.
    if let Some(profile) = cache.get("user:1") {
        println!("hit : user:1 -> {} bytes", profile.len());
    }

    // CAMP maintains one LRU queue per rounded cost-to-size ratio:
    println!("queues now: {}", cache.queue_count());
    for queue in cache.queue_census() {
        println!(
            "  ratio {:>8} : {} pair(s), head priority {}",
            queue.ratio, queue.len, queue.head_h
        );
    }

    // Fill the cache with cheap pairs; the expensive ad model survives
    // because evictions take the globally lowest H = L + cost/size.
    for i in 3..40 {
        cache.insert(format!("user:{i}"), vec![0u8; 16], 1024, 3);
    }
    println!(
        "after churn: ad model resident? {}  (used {} / {} bytes in {} pairs)",
        cache.contains("ads:model"),
        cache.used_bytes(),
        cache.capacity(),
        cache.len(),
    );

    // The next eviction victim is always inspectable:
    if let Some(victim) = cache.victim() {
        println!("next victim would be: {victim}");
    }

    println!(
        "internals: L = {}, heap ops = {}, heap node visits = {}",
        cache.l_value(),
        cache.heap_update_ops(),
        cache.heap_node_visits()
    );
}
