//! # camp-policies — eviction policies around CAMP
//!
//! Every replacement algorithm the CAMP paper evaluates against or surveys
//! ([`Lru`], [`Gds`], [`Gdsf`], [`Lfu`] and [`GdWheel`] as orderings on the
//! [`Keyed`] front CAMP itself runs on):
//!
//! * [`Lru`] — the size-aware LRU baseline (§3);
//! * [`Gds`] — exact Greedy Dual Size, the algorithm CAMP approximates (§2);
//! * [`PooledLru`] — the human-partitioned multi-pool baseline (§3, ref 18);
//! * [`LruK`], [`TwoQ`], [`Arc`] — the recency/frequency adaptive policies
//!   from the related-work discussion (§5);
//! * [`GdWheel`] — the other GDS approximation the paper compares itself to
//!   in prose (§5, ref 14);
//! * [`Gdsf`] (the Squid proxy's frequency-aware GDS variant) and [`Lfu`]
//!   — extension baselines beyond the paper's own set;
//! * [`BeladyMin`] — a clairvoyant offline reference bound;
//! * [`admission`] — admission-control wrappers (the paper's future work,
//!   §6).
//!
//! CAMP, the [`EvictionPolicy`] trait and the front live in [`camp_core`]
//! (re-exported here as [`policy`] and [`keyed`]), so all policies are
//! drop-in interchangeable in the simulator, benchmarks, and the KVS server.
//!
//! Every policy is generic over its key type ([`CacheKey`]): the simulator
//! drives them with `u64` trace keys, the KVS server with `u64`
//! fingerprints of its wire keys — no glue layer (owned byte keys such as
//! `Box<[u8]>` work too). All but [`BeladyMin`] also hold any value per
//! key: `()` in the simulator, each item's slab chunk in the server.
//!
//! ```
//! use camp_core::{Camp, Precision};
//! use camp_policies::{CacheRequest, EvictionPolicy, Gds, Lru};
//!
//! let mut policies: Vec<Box<dyn EvictionPolicy>> = vec![
//!     Box::new(Camp::<u64, ()>::new(1 << 16, Precision::Bits(5))),
//!     Box::new(Lru::new(1 << 16)),
//!     Box::new(Gds::new(1 << 16)),
//! ];
//! let mut evicted = Vec::new();
//! for policy in &mut policies {
//!     policy.reference(CacheRequest::new(7, 128, 10), &mut evicted);
//!     assert!(policy.contains(&7));
//! }
//! ```
//!
//! Policies can also be resolved by name through [`EvictionMode`], the
//! configuration surface shared by the `camp-sim` CLI and `camp-kvsd`:
//!
//! ```
//! use camp_policies::{EvictionMode, EvictionPolicy};
//!
//! let mode: EvictionMode = "camp:5".parse().unwrap();
//! let policy: Box<dyn EvictionPolicy<Box<[u8]>>> = mode.build(1 << 20);
//! assert_eq!(policy.name(), "camp(p=5)");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admission;
pub mod arc;
pub mod gd_wheel;
pub mod gds;
pub mod keyed;
pub mod lfu;
pub mod lru;
pub mod lru_k;
pub mod offline;
pub mod policy;
pub mod pooled_lru;
pub mod profiler;
pub mod spec;
pub mod two_q;

mod util;

pub use crate::admission::{Admission, AdmissionRule};
pub use crate::arc::Arc;
pub use crate::gd_wheel::GdWheel;
pub use crate::gds::{Gds, Gdsf};
pub use crate::keyed::Keyed;
pub use crate::lfu::Lfu;
pub use crate::lru::Lru;
pub use crate::lru_k::LruK;
pub use crate::offline::BeladyMin;
pub use crate::policy::{
    key_hash, AccessOutcome, CacheKey, CacheRequest, EvictionPolicy, PolicyEvent, PolicyEventKind,
    PolicyGauge, PolicyStats, SharedTraceSink, TraceSink,
};
pub use crate::pooled_lru::{PoolSplit, PooledLru};
pub use crate::profiler::{ShadowEstimate, ShadowProfiler};
pub use crate::spec::EvictionMode;
pub use crate::two_q::TwoQ;
