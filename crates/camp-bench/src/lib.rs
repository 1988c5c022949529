//! # camp-bench — the experiment harness regenerating the CAMP paper's
//! tables and figures
//!
//! Every table and figure of the paper's evaluation maps to an experiment
//! id (see [`EXPERIMENTS`]); the `repro` binary runs them:
//!
//! ```text
//! cargo run --release -p camp-bench --bin repro -- fig5c
//! cargo run --release -p camp-bench --bin repro -- all --scale small
//! cargo run --release -p camp-bench --bin repro -- fig9a --scale paper --out results/
//! ```
//!
//! Criterion micro-benchmarks live in `benches/` (policy operation
//! throughput, heap arity ablation, rounding, slab allocation).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod micro;
pub mod plot;
pub mod scale;
pub mod table;

use std::path::Path;

pub use crate::scale::Scale;
pub use crate::table::Table;

/// One experiment of [`EXPERIMENTS`].
#[derive(Debug)]
pub struct Experiment {
    /// The ids that run it: the first names it, the rest are aliases —
    /// one per table it prints that is not named by the first. Any of
    /// them prints all of its tables.
    pub ids: &'static [&'static str],
    /// A one-line description.
    pub about: &'static str,
    /// Builds its tables; `None` for `custom`, which needs a user trace.
    run: Option<fn(Scale) -> experiments::Tables>,
}

const fn experiment(
    ids: &'static [&'static str],
    about: &'static str,
    run: fn(Scale) -> experiments::Tables,
) -> Experiment {
    Experiment {
        ids,
        about,
        run: Some(run),
    }
}

/// Every experiment, in the order `all` runs them. Tables drawn from the
/// same simulations are one experiment, so `all` runs each sweep once.
pub const EXPERIMENTS: &[Experiment] = &[
    experiment(
        &["table1"],
        "Table 1: regular vs CAMP rounding at precision 4",
        |_| experiments::table1(),
    ),
    experiment(
        &["fig4"],
        "Fig 4: heap nodes visited, GDS vs CAMP, vs cache size",
        experiments::fig4,
    ),
    experiment(
        &["fig5a", "fig5b", "fig8c"],
        "Figs 5a/5b/8c: cost-miss ratio (5a) and LRU queues (5b, 8c) vs precision",
        experiments::precision_sweep,
    ),
    experiment(
        &["fig5c", "fig5d"],
        "Figs 5c/5d: cost-miss ratio and miss rate vs cache size \
         (CAMP/LRU/Pooled/GDS)",
        experiments::fig5cd,
    ),
    experiment(
        &["fig6a", "fig6b"],
        "Figs 6a/6b: cost-miss ratio and miss rate vs cache size, evolving patterns",
        experiments::fig6ab,
    ),
    experiment(
        &["fig6c"],
        "Fig 6c: TF1 cache occupancy over time, ratio 0.25",
        experiments::fig6c,
    ),
    experiment(
        &["fig6d"],
        "Fig 6d: TF1 cache occupancy over time, ratio 0.75",
        experiments::fig6d,
    ),
    experiment(
        &["fig7"],
        "Fig 7: miss rate vs cache size, variable sizes / constant cost",
        experiments::fig7,
    ),
    experiment(
        &["fig8a", "fig8b"],
        "Figs 8a/8b: cost-miss ratio and miss rate vs cache size, \
         equi-size / variable costs",
        experiments::fig8ab,
    ),
    experiment(
        &["fig9", "fig9a", "fig9b", "fig9c"],
        "Figs 9a-9c: live-server replay (cost-miss, run time, miss rate)",
        experiments::fig9,
    ),
    experiment(
        &["ablation-tiebreak"],
        "CAMP(inf) vs exact GDS: residual approximation error",
        experiments::ablation_tiebreak,
    ),
    experiment(
        &["ablation-multiplier"],
        "adaptive vs fixed integerization multiplier",
        experiments::ablation_multiplier,
    ),
    experiment(
        &["ablation-pooling"],
        "the three Pooled-LRU memory splits side by side",
        experiments::ablation_pooling,
    ),
    experiment(
        &["extension-policies"],
        "LRU-K / 2Q / ARC / GD-Wheel / GDSF / LFU / admission vs CAMP",
        experiments::extension_policies,
    ),
    experiment(
        &["extension-hierarchy"],
        "two-level memory+SSD hierarchy (paper s6)",
        experiments::extension_hierarchy,
    ),
    experiment(
        &["extension-timeline"],
        "windowed cost-miss timeline over the evolving workload",
        experiments::extension_timeline,
    ),
    experiment(
        &["extension-drift"],
        "gradually rotating hot sets: CAMP vs LRU/GDSF/LFU",
        experiments::extension_drift,
    ),
    Experiment {
        ids: &["custom"],
        about: "CAMP/LRU/Pooled/GDS comparison on a user trace (--trace FILE)",
        run: None,
    },
];

/// One `--list` line per experiment: its ids, then its description.
#[must_use]
pub fn experiment_list() -> String {
    EXPERIMENTS
        .iter()
        .map(|e| format!("    {:<26} {}\n", e.ids.join(" "), e.about))
        .collect()
}

/// Runs one experiment (or `all`), returning the rendered report.
///
/// # Errors
///
/// Returns a message for unknown ids or CSV write failures.
pub fn run_experiment(id: &str, scale: Scale, out_dir: Option<&Path>) -> Result<String, String> {
    run_experiment_with_trace(id, scale, out_dir, None)
}

/// Like [`run_experiment`], with an optional user trace for the `custom`
/// experiment.
///
/// # Errors
///
/// Returns a message for unknown ids, a missing/unreadable trace, or CSV
/// write failures.
pub fn run_experiment_with_trace(
    id: &str,
    scale: Scale,
    out_dir: Option<&Path>,
    trace_path: Option<&Path>,
) -> Result<String, String> {
    run_experiment_full(id, scale, out_dir, trace_path, false)
}

/// The full entry point: optional user trace and optional ASCII charts
/// under each table.
///
/// # Errors
///
/// Returns a message for unknown ids, a missing/unreadable trace, or CSV
/// write failures.
pub fn run_experiment_full(
    id: &str,
    scale: Scale,
    out_dir: Option<&Path>,
    trace_path: Option<&Path>,
    plot: bool,
) -> Result<String, String> {
    if id == "all" {
        // Each experiment once; `custom` needs a user trace.
        let mut out = String::new();
        for run in EXPERIMENTS.iter().filter_map(|e| e.run) {
            out.push_str(&render(run(scale), scale, out_dir, plot)?);
            out.push('\n');
        }
        return Ok(out);
    }
    let Some(experiment) = EXPERIMENTS.iter().find(|e| e.ids.contains(&id)) else {
        return Err(format!(
            "unknown experiment `{id}`; known ids:\n{}",
            experiment_list()
        ));
    };
    let tables = match experiment.run {
        Some(run) => run(scale),
        None => {
            let Some(path) = trace_path else {
                return Err("the custom experiment requires --trace FILE".into());
            };
            let trace = camp_workload::Trace::load(path)
                .map_err(|e| format!("loading {}: {e}", path.display()))?;
            if trace.is_empty() {
                return Err("the supplied trace is empty".into());
            }
            experiments::custom(&trace)
        }
    };
    render(tables, scale, out_dir, plot)
}

/// Prints each table (with its chart under `plot`) and saves its CSV
/// under `out_dir`.
fn render(
    tables: experiments::Tables,
    scale: Scale,
    out_dir: Option<&Path>,
    plot: bool,
) -> Result<String, String> {
    let mut out = String::new();
    for (name, table) in tables {
        out.push_str(&format!("== {name} (scale: {scale}) ==\n"));
        out.push_str(&table.render());
        // Table 1 is categorical bit patterns and the landmark tables are
        // textual: charts would be meaningless for them.
        let plottable = name != "table1" && !name.ends_with("-landmarks");
        if plot && plottable {
            if let Some(chart) = plot::chart_for_table(&table, 64, 16) {
                out.push('\n');
                out.push_str(&chart);
            }
        }
        if let Some(dir) = out_dir {
            let path = table
                .save_csv(dir, &name)
                .map_err(|e| format!("saving {name}.csv: {e}"))?;
            out.push_str(&format!("[csv: {}]\n", path.display()));
        }
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_experiment_lists_ids() {
        let err = run_experiment("nope", Scale::Small, None).unwrap_err();
        assert!(err.contains("fig5c"));
        assert!(err.contains("unknown experiment"));
    }

    #[test]
    fn table1_renders_the_paper_rows() {
        let out = run_experiment("table1", Scale::Small, None).unwrap();
        assert!(out.contains("101100000"), "{out}");
        assert!(out.contains("000000111"), "{out}");
    }

    #[test]
    fn every_id_names_one_experiment() {
        let mut ids: Vec<&str> = EXPERIMENTS.iter().flat_map(|e| e.ids.to_vec()).collect();
        let count = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), count, "an id names two experiments");
        assert!(!ids.contains(&"all"));
        // Every table keeps an id of its own name.
        for table in [
            "table1", "fig4", "fig5a", "fig5b", "fig5c", "fig5d", "fig6a", "fig6b", "fig6c",
            "fig6d", "fig7", "fig8a", "fig8b", "fig8c", "fig9a", "fig9b", "fig9c",
        ] {
            assert!(ids.contains(&table), "no experiment id {table}");
        }
    }
}
