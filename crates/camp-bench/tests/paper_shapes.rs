//! The paper's shapes as assertions, not this repo's bytes: Figure 4's
//! heap work and the CAMP(∞) ≡ GDS equivalence, checked at every ratio
//! of their experiments on the small-scale three-tier trace, the one
//! `experiments/small` is drawn from. (On smaller traces GDS's visits per
//! CAMP visit can dip between the smallest ratios, where both policies'
//! heap work is noisy.)

use std::sync::OnceLock;

use camp_bench::experiments::{ablation_tiebreak_on, fig4_on, Tables};
use camp_bench::{Scale, Table};
use camp_workload::Trace;

/// The small-scale three-tier trace, generated once for both tests.
fn small_trace() -> &'static Trace {
    static TRACE: OnceLock<Trace> = OnceLock::new();
    TRACE.get_or_init(|| Scale::Small.three_tier_trace())
}

/// The one table `tables` holds, named `name`.
fn only<'a>(tables: &'a Tables, name: &str) -> &'a Table {
    assert_eq!(tables.len(), 1);
    assert_eq!(tables[0].0, name);
    &tables[0].1
}

/// Column `header` of `row`, parsed.
fn cell(table: &Table, row: &[String], header: &str) -> f64 {
    let at = table
        .headers()
        .iter()
        .position(|h| h == header)
        .unwrap_or_else(|| panic!("no column {header}"));
    row[at].parse().expect("a number")
}

/// Figure 4: CAMP(p=5) visits fewer heap nodes and makes fewer heap
/// updates than GDS at every cache size, and GDS's visits per CAMP visit
/// never fall as the cache grows.
#[test]
fn camp_does_less_heap_work_than_gds_at_every_ratio() {
    let tables = fig4_on(small_trace());
    let table = only(&tables, "fig4");
    assert!(table.rows().len() >= 5);
    let mut last_ratio = 0.0;
    for row in table.rows() {
        let at = &row[0];
        let (gds, camp) = (
            cell(table, row, "gds-visits"),
            cell(table, row, "camp-visits"),
        );
        assert!(camp < gds, "ratio {at}: CAMP visits {camp}, GDS {gds}");
        let (gds_ops, camp_ops) = (
            cell(table, row, "gds-heap-ops"),
            cell(table, row, "camp-heap-ops"),
        );
        assert!(
            camp_ops < gds_ops,
            "ratio {at}: CAMP updates {camp_ops}, GDS {gds_ops}"
        );
        let ratio = gds / camp.max(1.0);
        assert!(
            ratio >= last_ratio,
            "ratio {at}: gds/camp fell to {ratio} from {last_ratio}"
        );
        last_ratio = ratio;
    }
}

/// Without rounding CAMP is GDS but for its tie-breaks: its cost-miss
/// ratio is within 0.001 of GDS's at every cache size.
#[test]
fn camp_at_infinite_precision_matches_gds() {
    let tables = ablation_tiebreak_on(small_trace());
    let table = only(&tables, "ablation-tiebreak");
    assert!(table.rows().len() >= 5);
    for row in table.rows() {
        let (camp, gds) = (cell(table, row, "camp(p=inf)"), cell(table, row, "gds"));
        assert!(
            (camp - gds).abs() <= 0.001,
            "ratio {}: CAMP(inf) {camp}, GDS {gds}",
            row[0]
        );
    }
}
