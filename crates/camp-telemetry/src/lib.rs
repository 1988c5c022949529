//! # camp-telemetry — observability primitives for the CAMP workspace
//!
//! The paper's evaluation is built on instrumentation: Figure 4 counts heap
//! node visits and §4 measures server throughput. This crate provides the
//! shared, zero-dependency substrate those measurements (and every future
//! performance claim) stand on:
//!
//! * [`histogram`] — lock-free, log-bucketed (power-of-2 major buckets,
//!   16 sub-buckets each, HDR-style) latency histograms with p50/p90/p99/p999
//!   readout and cross-shard merge. Recording is a handful of relaxed atomic
//!   adds — safe to call from every connection thread with no mutex.
//! * [`logger`] — a leveled, structured (key=value line format) logger
//!   behind a global atomic level, replacing ad-hoc prints.
//! * [`expose`] — a Prometheus-style text exposition builder, so the
//!   simulator's metrics and the live server's `--metrics-addr` endpoint
//!   report through one vocabulary.
//! * [`trace`] — the flight recorder: wait-free ring buffers retaining the
//!   most recent request spans (with a slow-request log) and eviction
//!   decisions, snapshotable at any time without pausing writers.
//!
//! ## Quick start
//!
//! ```
//! use camp_telemetry::{Exposition, Histogram, MetricKind};
//!
//! let h = Histogram::new();
//! for us in [120u64, 450, 90, 3000] {
//!     h.record(us);
//! }
//! let snap = h.snapshot();
//! assert!(snap.quantile(0.5) >= 120);
//!
//! let mut exp = Exposition::new();
//! exp.family("camp_get_latency_us", "get latency (microseconds)", MetricKind::Summary);
//! exp.summary("camp_get_latency_us", &[], &snap);
//! assert!(exp.render().contains("camp_get_latency_us_count 4"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod expose;
pub mod histogram;
pub mod logger;
pub mod trace;

pub use crate::expose::{Exposition, MetricKind};
pub use crate::histogram::{Histogram, HistogramSnapshot, LocalHistogram};
pub use crate::logger::{set_level, LogLevel};
pub use crate::trace::{
    duration_micros, EvictionTrace, FlightRecorder, RequestSpan, TraceRecord, TraceRing,
};
