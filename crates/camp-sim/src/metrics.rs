//! The paper's two key metrics: miss rate and cost-miss ratio, over
//! non-cold requests (§3). [`SimMetrics`] is defined in `camp-core`, beside
//! the `AccessOutcome` it counts, so the server's trace replay counts them
//! as the simulator does.

pub use camp_core::metrics::SimMetrics;
