//! # camp-core — the CAMP eviction policy
//!
//! A from-scratch implementation of **CAMP** (*Cost Adaptive Multi-queue
//! eviction Policy*), the cache replacement algorithm of Ghandeharizadeh,
//! Irani, Lam and Yap (ACM/IFIP/USENIX Middleware 2014). CAMP approximates
//! the Greedy Dual Size algorithm while processing hits and misses as
//! cheaply as LRU:
//!
//! * every key-value pair's **cost-to-size ratio** is integerized (using an
//!   adaptively maintained multiplier) and rounded to `p` significant bits
//!   ([`rounding`]);
//! * pairs sharing a rounded ratio live in one **LRU queue**, an intrusive
//!   doubly-linked list over a generational arena ([`arena`], [`lru_list`]),
//!   inside which entries are automatically ordered by priority;
//! * an **8-ary implicit heap** over the queue *heads* ([`heap`]) yields the
//!   global eviction candidate in `O(log #queues)` — and is only updated when
//!   a head actually changes.
//!
//! The central type is [`Camp`]: that structure, an [`keyed::Ordering`],
//! inside the [`Keyed`] front — the cache body (`camp-policies` reuses it
//! for eight baselines) behind the [`policy::EvictionPolicy`] trait. It is
//! single-threaded by design; the paper's §4.1 scaling recipe
//! (hash-partitioned, independently locked shards) lives in
//! `camp-kvs::ShardedStore`, the one the server runs.
//!
//! ## Quick start
//!
//! ```
//! use camp_core::{Camp, Precision};
//!
//! // A 1 KiB cache with the paper's default precision (5 bits).
//! let mut cache: Camp<&str, Vec<u8>> = Camp::new(1024, Precision::Bits(5));
//!
//! // insert(key, value, size_in_bytes, cost)
//! cache.insert("user:42", b"profile".to_vec(), 512, 3);
//! cache.insert("ads:7", b"model".to_vec(), 256, 9_000);
//!
//! if let Some(profile) = cache.get("user:42") {
//!     assert_eq!(profile, b"profile");
//! }
//!
//! // CAMP keeps one LRU queue per rounded cost-to-size ratio:
//! assert_eq!(cache.queue_count(), 2);
//! ```
//!
//! ## Guarantees
//!
//! With precision `p`, CAMP is `(1 + ε)·k`-competitive for `ε = 2^(-p+1)`,
//! where `k` is GDS's competitive ratio (paper Proposition 3). The global
//! term `L` is non-decreasing, and `L ≤ H(p) ≤ L + ratio(p)` for every
//! resident pair (Proposition 1) — both properties are enforced by debug
//! assertions and exercised by this crate's property tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arena;
pub mod camp;
pub mod hash;
pub mod heap;
pub mod keyed;
pub mod lru_list;
pub mod metrics;
pub mod policy;
pub mod rng;
pub mod rounding;
pub mod trace;

pub use crate::camp::{Camp, CampBuilder, EntryMeta, QueueInfo};
pub use crate::keyed::{InsertOutcome, Keyed};
pub use crate::rounding::Precision;
pub use crate::trace::{key_hash, PolicyEvent, PolicyEventKind};
