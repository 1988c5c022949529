//! Trace replay against a live server — the paper's §4 experiment driver.
//!
//! "We developed an application that implements the request generator of
//! Section 3 by reading a trace file and issuing requests to the KVS."
//! [`replay_trace`] does exactly that over the text protocol: `iqget` each
//! key; on a miss, `iqset` the pair with a value of the traced size and the
//! traced cost as the hint. It counts the simulator's own [`SimMetrics`]
//! (cost-miss ratio, miss rate, cold-request exclusion) and the wall-clock
//! run time that Figure 9b plots.

use std::collections::HashSet;
use std::io;
use std::time::{Duration, Instant};

use camp_core::metrics::SimMetrics;
use camp_core::policy::AccessOutcome;
use camp_workload::Trace;

use crate::client::Client;

/// Results of one replay run.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct ReplayReport {
    /// The paper's metrics, counted as the simulator counts them: each
    /// request a hit, an inserted miss, or — when the server rejected the
    /// `iqset` (object too large / out of memory) — a bypassed one.
    pub metrics: SimMetrics,
    /// End-to-end wall-clock time of the replay (Figure 9b's metric).
    pub wall_time: Duration,
}

/// How much of each traced size is protocol/item overhead versus value
/// payload. The replay shrinks values accordingly so that the *stored*
/// footprint matches the traced size as closely as the chunked allocator
/// allows.
const VALUE_OVERHEAD: u64 = 64;

/// Replays `trace` through `client` using `iqget`/`iqset` with cost hints.
///
/// # Errors
///
/// Returns the first I/O error encountered.
pub fn replay_trace(client: &mut Client, trace: &Trace) -> io::Result<ReplayReport> {
    let mut seen = HashSet::new();
    let mut metrics = SimMetrics::default();
    let mut key_buf = Vec::with_capacity(24);
    let mut value_buf: Vec<u8> = Vec::new();
    let started = Instant::now();
    for record in trace {
        key_buf.clear();
        key_buf.extend_from_slice(b"k");
        key_buf.extend_from_slice(record.key.to_string().as_bytes());

        let outcome = if client.iqget(&key_buf)?.is_some() {
            AccessOutcome::Hit
        } else {
            let value_len = record.size.saturating_sub(VALUE_OVERHEAD).max(1) as usize;
            if value_buf.len() < value_len {
                value_buf.resize(value_len, 0xCA);
            }
            if client.iqset(&key_buf, &value_buf[..value_len], 0, 0, Some(record.cost))? {
                AccessOutcome::MissInserted
            } else {
                AccessOutcome::MissBypassed
            }
        };
        metrics.record(seen.insert(record.key), outcome, record.cost);
    }
    Ok(ReplayReport {
        metrics,
        wall_time: started.elapsed(),
    })
}
