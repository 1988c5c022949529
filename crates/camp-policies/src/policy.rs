//! The common interface every eviction policy in this workspace implements,
//! under the path it has always had here.
//!
//! [`EvictionPolicy`] and its vocabulary are defined in
//! [`camp_core::policy`], beside the keyed front that implements them for
//! CAMP and the five baseline orderings; this module re-exports them, and
//! keeps the tests that drive every [`crate::EvictionMode`] through the
//! trait.

pub use camp_core::policy::*;

#[cfg(test)]
mod tests {
    use super::*;
    use camp_core::{Camp, Precision};

    #[test]
    fn camp_implements_the_trait() {
        let mut camp: Camp<u64, ()> = Camp::new(100, Precision::Bits(5));
        let mut evicted = Vec::new();
        assert_eq!(
            camp.reference(CacheRequest::new(1, 60, 10), &mut evicted),
            AccessOutcome::MissInserted
        );
        assert_eq!(
            camp.reference(CacheRequest::new(1, 60, 10), &mut evicted),
            AccessOutcome::Hit
        );
        assert_eq!(
            camp.reference(CacheRequest::new(2, 60, 10), &mut evicted),
            AccessOutcome::MissInserted
        );
        assert_eq!(evicted, vec![1]);
        assert_eq!(
            camp.reference(CacheRequest::new(3, 101, 10), &mut evicted),
            AccessOutcome::MissBypassed
        );
        assert!(EvictionPolicy::remove(&mut camp, &2));
        assert!(!EvictionPolicy::remove(&mut camp, &2));
        assert_eq!(EvictionPolicy::len(&camp), 0);
        assert!(EvictionPolicy::name(&camp).starts_with("camp"));
    }

    #[test]
    fn camp_over_byte_keys_implements_the_trait() {
        let mut camp: Camp<Box<[u8]>, ()> = Camp::new(100, Precision::Bits(5));
        let key: Box<[u8]> = Box::from(&b"user:1"[..]);
        let mut evicted: Vec<Box<[u8]>> = Vec::new();
        assert_eq!(
            camp.reference(CacheRequest::new(key.clone(), 60, 10), &mut evicted),
            AccessOutcome::MissInserted
        );
        assert!(EvictionPolicy::contains(&camp, &key));
        assert!(EvictionPolicy::touch(&mut camp, &key));
        assert_eq!(camp.evict_next(), Some(key.clone()));
        assert!(!EvictionPolicy::remove(&mut camp, &key));
        assert!(EvictionPolicy::is_empty(&camp));
    }

    #[test]
    fn touch_and_victim_follow_recency() {
        let mut camp: Camp<u64, ()> = Camp::new(1000, Precision::Bits(5));
        let mut evicted = Vec::new();
        camp.reference(CacheRequest::new(1, 10, 5), &mut evicted);
        camp.reference(CacheRequest::new(2, 10, 5), &mut evicted);
        // Same queue (same ratio); 1 is the LRU victim until touched.
        assert_eq!(camp.victim(), Some(&1));
        assert!(EvictionPolicy::touch(&mut camp, &1));
        assert_eq!(camp.victim(), Some(&2));
        assert!(!EvictionPolicy::touch(&mut camp, &99));
    }

    #[test]
    fn every_policy_reports_universal_gauges() {
        use crate::spec::EvictionMode;
        for name in EvictionMode::all_names() {
            let mode: EvictionMode = name.parse().unwrap();
            let mut policy: Box<dyn EvictionPolicy> = mode.build(1 << 16);
            let mut evicted = Vec::new();
            for key in 0..20u64 {
                policy.reference(CacheRequest::new(key, 256, 1 + key % 5), &mut evicted);
                policy.reference(CacheRequest::new(key, 256, 1 + key % 5), &mut evicted);
            }
            let stats = policy.policy_stats();
            assert!(stats.get("items").unwrap() > 0, "{name}");
            assert!(stats.get("used_bytes").unwrap() > 0, "{name}");
            assert_eq!(stats.get("capacity_bytes"), Some(1 << 16), "{name}");
            assert_eq!(stats.get("missing"), None);
        }
    }

    #[test]
    fn camp_stats_expose_policy_internals() {
        let mut camp: Camp<u64, ()> = Camp::new(10_000, Precision::Bits(5));
        let mut evicted = Vec::new();
        for key in 0..30u64 {
            // Three distinct cost/size ratios -> three queues.
            camp.reference(
                CacheRequest::new(key, 100, 1 + (key % 3) * 400),
                &mut evicted,
            );
        }
        let stats = EvictionPolicy::<u64>::policy_stats(&camp);
        assert_eq!(stats.get("queue_count"), Some(3));
        assert!(stats.get("l_value").is_some());
        assert!(stats.get("ratio_multiplier").unwrap() >= 1);
        assert!(stats.get("heap_visits").unwrap() > 0);
        let queue_lens: Vec<&PolicyGauge> = stats
            .gauges
            .iter()
            .filter(|g| g.name == "queue_len")
            .collect();
        assert_eq!(queue_lens.len(), 3, "one labelled gauge per queue");
        assert!(queue_lens
            .iter()
            .all(|g| { matches!(&g.label, Some(("ratio", value)) if !value.is_empty()) }));
        assert_eq!(
            queue_lens.iter().map(|g| g.value).sum::<u64>(),
            stats.get("items").unwrap(),
            "queue lengths must sum to the resident count"
        );
    }

    #[test]
    fn outcome_helpers() {
        assert!(!AccessOutcome::Hit.is_miss());
        assert!(AccessOutcome::MissInserted.is_miss());
        assert!(AccessOutcome::MissBypassed.is_miss());
    }

    #[derive(Debug, Default)]
    struct CountingSink {
        admits: std::sync::atomic::AtomicU64,
        evicts: std::sync::atomic::AtomicU64,
    }

    impl TraceSink for CountingSink {
        fn record(&self, event: &PolicyEvent) {
            use std::sync::atomic::Ordering;
            assert!(event.size > 0, "trace events carry the entry size");
            match event.kind {
                PolicyEventKind::Admit => self.admits.fetch_add(1, Ordering::Relaxed),
                PolicyEventKind::Evict => self.evicts.fetch_add(1, Ordering::Relaxed),
            };
        }
    }

    #[derive(Debug, Default)]
    struct Collecting(std::sync::Mutex<Vec<PolicyEvent>>);

    impl Collecting {
        /// Everything recorded since the last call.
        fn take(&self) -> Vec<PolicyEvent> {
            std::mem::take(
                &mut self
                    .0
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
            )
        }
    }

    impl TraceSink for Collecting {
        fn record(&self, event: &PolicyEvent) {
            self.0
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(*event);
        }
    }

    /// For the six front orderings, making room with `evict_next` and then
    /// admitting with `reference` is the step `reference` takes alone: at
    /// one capacity, one stream gives the same evicted keys and the same
    /// trace events, field for field (`L` included).
    #[test]
    fn evict_next_until_it_fits_then_reference_is_reference_alone() {
        use crate::spec::EvictionMode;
        use camp_core::rng::Rng64;
        const CAPACITY: u64 = 4_000;
        for name in ["lru", "camp", "camp:inf", "gds", "gdsf", "lfu", "gd-wheel"] {
            let mode: EvictionMode = name.parse().unwrap();
            let (mut alone, mut stepped) = (mode.build(CAPACITY), mode.build(CAPACITY));
            let alone_sink = std::sync::Arc::new(Collecting::default());
            let stepped_sink = std::sync::Arc::new(Collecting::default());
            alone.set_trace_sink(Some(alone_sink.clone()));
            stepped.set_trace_sink(Some(stepped_sink.clone()));
            let mut rng = Rng64::seed_from_u64(0xE71C);
            let (mut by_reference, mut by_step) = (Vec::new(), Vec::new());
            let mut evictions = 0;
            for _ in 0..20_000 {
                let key = rng.range_u64(0, 300);
                let cost = [1, 30, 900, 25_000][(key % 4) as usize];
                let req = CacheRequest::new(key, 1 + key % 60, cost);
                by_reference.clear();
                by_step.clear();
                let outcome = alone.reference(req, &mut by_reference);
                if !stepped.contains(&key) {
                    while stepped.used_bytes() + req.size > CAPACITY {
                        by_step.push(stepped.evict_next().expect("bytes resident"));
                    }
                }
                assert_eq!(stepped.reference(req, &mut by_step), outcome, "{name}");
                assert_eq!(by_step, by_reference, "{name}");
                assert_eq!(stepped_sink.take(), alone_sink.take(), "{name}");
                evictions += by_reference.len();
            }
            assert!(evictions > 1_000, "{name}: {evictions} evictions");
        }
    }

    #[test]
    fn every_policy_emits_trace_events() {
        use std::sync::atomic::Ordering;

        use crate::spec::EvictionMode;
        for name in EvictionMode::all_names() {
            let mode: EvictionMode = name.parse().unwrap();
            let mut policy: Box<dyn EvictionPolicy> = mode.build(4 << 10);
            let sink = std::sync::Arc::new(CountingSink::default());
            policy.set_trace_sink(Some(sink.clone()));
            let mut evicted = Vec::new();
            // Churn well past capacity: 64 keys x 256 bytes = 4x the budget.
            for key in 0..64u64 {
                policy.reference(CacheRequest::new(key, 256, 1 + key % 7), &mut evicted);
                policy.reference(CacheRequest::new(key, 256, 1 + key % 7), &mut evicted);
            }
            let admits = sink.admits.load(Ordering::Relaxed);
            assert!(admits > 0, "{name}: no admissions traced");
            assert_eq!(
                sink.evicts.load(Ordering::Relaxed),
                evicted.len() as u64,
                "{name}: one Evict event per reference-driven eviction"
            );
            // Store-pressure eviction: `evict_next` reports what it takes.
            let before = sink.evicts.load(Ordering::Relaxed);
            let victim = policy.evict_next().expect("resident keys remain");
            assert!(!policy.contains(&victim), "{name}");
            assert_eq!(
                sink.evicts.load(Ordering::Relaxed),
                before + 1,
                "{name}: evict_next() must report to the sink"
            );
            // Explicit delete stays out of the eviction telemetry.
            if let Some(resident) = (0..64u64).find(|key| policy.contains(key)) {
                let before = sink.evicts.load(Ordering::Relaxed);
                assert!(policy.remove(&resident), "{name}");
                assert_eq!(
                    sink.evicts.load(Ordering::Relaxed),
                    before,
                    "{name}: remove() must not emit"
                );
            }
            // Detaching the sink stops emission.
            policy.set_trace_sink(None);
            let before = sink.admits.load(Ordering::Relaxed);
            policy.reference(CacheRequest::new(1_000, 256, 3), &mut evicted);
            policy.reference(CacheRequest::new(1_000, 256, 3), &mut evicted);
            assert_eq!(sink.admits.load(Ordering::Relaxed), before, "{name}");
        }
    }
}
