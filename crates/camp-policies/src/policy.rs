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
        assert_eq!(EvictionPolicy::victim(&camp), Some(key.clone()));
        assert!(EvictionPolicy::remove(&mut camp, &key));
        assert!(EvictionPolicy::is_empty(&camp));
    }

    #[test]
    fn touch_and_victim_follow_recency() {
        let mut camp: Camp<u64, ()> = Camp::new(1000, Precision::Bits(5));
        let mut evicted = Vec::new();
        camp.reference(CacheRequest::new(1, 10, 5), &mut evicted);
        camp.reference(CacheRequest::new(2, 10, 5), &mut evicted);
        // Same queue (same ratio); 1 is the LRU victim until touched.
        assert_eq!(EvictionPolicy::victim(&camp), Some(1));
        assert!(EvictionPolicy::touch(&mut camp, &1));
        assert_eq!(EvictionPolicy::victim(&camp), Some(2));
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

    /// Whether `evict` is the trait default or a policy's own single-lookup
    /// override, the sink sees exactly the event `eviction_event` describes
    /// and the key is gone afterwards.
    #[test]
    fn evict_reports_exactly_the_eviction_event() {
        use crate::spec::EvictionMode;

        #[derive(Debug, Default)]
        struct Collecting(std::sync::Mutex<Vec<PolicyEvent>>);
        impl Collecting {
            fn events(&self) -> std::sync::MutexGuard<'_, Vec<PolicyEvent>> {
                self.0
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
            }
        }
        impl TraceSink for Collecting {
            fn record(&self, event: &PolicyEvent) {
                self.events().push(*event);
            }
        }

        for name in EvictionMode::all_names() {
            let mode: EvictionMode = name.parse().unwrap();
            let mut policy: Box<dyn EvictionPolicy> = mode.build(1 << 16);
            let mut evicted = Vec::new();
            for key in 0..40u64 {
                policy.reference(CacheRequest::new(key, 200, 1 + key % 9 * 50), &mut evicted);
                policy.touch(&(key / 2));
            }
            let sink = std::sync::Arc::new(Collecting::default());
            policy.set_trace_sink(Some(sink.clone()));
            for _ in 0..5 {
                let victim = policy.victim().expect("resident keys remain");
                let expected = policy.eviction_event(&victim);
                let (len, used) = (policy.len(), policy.used_bytes());
                assert!(policy.evict(&victim), "{name}");
                assert_eq!(sink.events().pop(), expected, "{name}");
                assert!(!policy.contains(&victim), "{name}");
                assert_eq!(policy.len(), len - 1, "{name}");
                assert!(policy.used_bytes() < used, "{name}");
                assert!(!policy.evict(&victim), "{name}: absent key");
                assert!(sink.events().is_empty(), "{name}");
            }
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
            assert!(policy.trace_sink().is_some(), "{name}");
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
            // Store-pressure eviction: `evict` reports before removing.
            if let Some(victim) = policy.victim() {
                let before = sink.evicts.load(Ordering::Relaxed);
                assert!(policy.evict(&victim), "{name}");
                assert_eq!(
                    sink.evicts.load(Ordering::Relaxed),
                    before + 1,
                    "{name}: evict() must report to the sink"
                );
            }
            // Explicit delete stays out of the eviction telemetry.
            if let Some(victim) = policy.victim() {
                let before = sink.evicts.load(Ordering::Relaxed);
                assert!(policy.remove(&victim), "{name}");
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
