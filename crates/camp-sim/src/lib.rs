//! # camp-sim — the trace-driven KVS simulator of the CAMP paper's §3
//!
//! Drives any [`camp_policies::EvictionPolicy`] through a
//! [`camp_workload::Trace`], reproducing the paper's measurement protocol:
//!
//! * cold (first-touch) requests are excluded from all rates;
//! * the *miss rate* and the *cost-miss ratio* (the primary metric) are
//!   reported per run ([`metrics`]);
//! * cache occupancy per source trace can be sampled over time for the
//!   evolving-access-pattern experiments ([`simulator::OccupancyConfig`],
//!   Figures 6c/6d);
//! * sweeps over the paper's *cache size ratio* axis ([`sweep`]), one
//!   thread per ratio;
//! * windowed metric timelines for adaptation dynamics ([`timeline`]);
//! * a two-level memory+SSD hierarchy, the paper's future-work §6
//!   ([`hierarchy`]).
//!
//! ## Quick start
//!
//! ```
//! use camp_core::{Camp, Precision};
//! use camp_sim::simulate;
//! use camp_workload::BgConfig;
//!
//! let trace = BgConfig::paper_scaled(1_000, 20_000, 42).generate();
//! let capacity = trace.stats().unique_bytes / 4;
//! let mut camp: Camp<u64, ()> = Camp::new(capacity, Precision::Bits(5));
//! let report = simulate(&mut camp, &trace);
//! println!(
//!     "camp: miss-rate {:.3}, cost-miss {:.3}",
//!     report.metrics.miss_rate(),
//!     report.metrics.cost_miss_ratio(),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod hierarchy;
pub mod metrics;
pub mod simulator;
pub mod sweep;
pub mod timeline;

pub use crate::metrics::SimMetrics;
pub use crate::simulator::{
    simulate, OccupancyConfig, OccupancySample, OccupancySeries, SimReport, Simulation,
};
pub use crate::sweep::{capacity_for_ratio, sweep_ratios_parallel, SweepPoint, DEFAULT_RATIOS};
pub use crate::timeline::{windowed_metrics, WindowPoint};
