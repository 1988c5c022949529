//! One regeneration function per experiment — a table or figure of the
//! paper, or the figures drawn from the same simulations — plus the
//! ablations called out in DESIGN.md. Every sweep over cache-size ratios
//! goes through [`sweep_ratios_parallel`].
//!
//! Every function returns named [`Table`]s; the `repro` binary prints them
//! and optionally saves CSVs. Experiments are deterministic given the
//! harness seed and the [`Scale`].

use camp_core::rounding::{round_regular, round_to_significant_bits};
use camp_core::{Camp, Precision};
use camp_policies::{EvictionPolicy, Gds, Lru, PoolSplit, PooledLru};
use camp_sim::{
    capacity_for_ratio, simulate, sweep_ratios_parallel, OccupancyConfig, SimReport, Simulation,
    SweepPoint, DEFAULT_RATIOS,
};
use camp_workload::{BgConfig, Trace};

use crate::scale::{Scale, HARNESS_SEED};
use crate::table::{f, Table};

/// What an experiment returns: its tables, each under the name its CSV
/// is saved as.
pub type Tables = Vec<(String, Table)>;

/// The precision grid of Figures 5a/5b/8c (∞ is appended separately).
pub const PRECISION_GRID: [u8; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];

/// The cost tiers of the three-tier trace, as pool boundaries.
const TIERS: [u64; 3] = [1, 100, 10_000];

/// The capacity basis of most figures: the trace's unique bytes.
fn unique_bytes(trace: &Trace) -> u64 {
    trace.stats().unique_bytes
}

/// The capacity basis of the §3.1 evolving experiments: the paper's ratios
/// there are relative to a *single* trace file's unique bytes (only one
/// TF's working set is ever live; "cost-miss ratio and miss rate similar
/// to those observed in the previous section" only holds on that basis).
fn tf_bytes(trace: &Trace) -> u64 {
    let mut sizes: std::collections::HashMap<u64, u64> = Default::default();
    for r in trace.iter().filter(|r| r.trace_id == 0) {
        sizes.insert(r.key, r.size);
    }
    sizes.values().sum()
}

fn camp_at(capacity: u64, precision: Precision) -> Box<dyn EvictionPolicy> {
    Box::new(Camp::<u64, ()>::new(capacity, precision))
}

/// Pooled-LRU with memory split proportional to the total *request* cost
/// per pool — the stronger of the paper's two Figure 5 splits, computed in
/// advance from the whole trace exactly as the paper allows ("to give
/// Pooled LRU the greatest advantage").
fn pooled_cost_proportional(trace: &Trace, capacity: u64) -> Box<dyn EvictionPolicy> {
    let mut weights = [0.0f64; 3];
    for r in trace {
        let pool = TIERS.partition_point(|&b| b <= r.cost).saturating_sub(1);
        weights[pool] += r.cost as f64;
    }
    Box::new(PooledLru::new(
        capacity,
        &TIERS,
        PoolSplit::Weighted(weights.to_vec()),
    ))
}

fn cost_miss(report: &SimReport) -> String {
    f(report.metrics.cost_miss_ratio())
}

fn miss_rate(report: &SimReport) -> String {
    f(report.metrics.miss_rate())
}

fn queues(report: &SimReport) -> String {
    report.queue_count.unwrap_or(0).to_string()
}

/// One row per sweep point: its ratio, then `cell` of each policy's
/// report.
fn ratio_table(header: &[&str], points: &[SweepPoint], cell: fn(&SimReport) -> String) -> Table {
    let mut table = Table::new(header.to_vec());
    for point in points {
        let mut row = vec![format!("{:.2}", point.ratio)];
        row.extend(point.reports.iter().map(cell));
        table.row(row);
    }
    table
}

// ---------------------------------------------------------------- table 1

/// Table 1: regular vs CAMP rounding at binary precision 4, on the paper's
/// four example bit patterns.
#[must_use]
pub fn table1() -> Tables {
    let examples: [u64; 4] = [0b101101011, 0b001010011, 0b000001010, 0b000000111];
    let mut table = Table::new(vec!["x (binary)", "regular rounding", "CAMP's rounding"]);
    for x in examples {
        table.row(vec![
            format!("{x:09b}"),
            format!("{:09b}", round_regular(x, 4)),
            format!("{:09b}", round_to_significant_bits(x, 4)),
        ]);
    }
    vec![("table1".into(), table)]
}

// ------------------------------------------------------------------ fig 4

/// Figure 4: heap nodes visited by GDS vs CAMP as a function of the cache
/// size ratio, on the three-tier-cost trace.
#[must_use]
pub fn fig4(scale: Scale) -> Tables {
    fig4_on(&scale.three_tier_trace())
}

/// [`fig4`] on `trace`.
#[must_use]
pub fn fig4_on(trace: &Trace) -> Tables {
    let points = sweep_ratios_parallel(trace, unique_bytes(trace), &DEFAULT_RATIOS, |cap| {
        vec![Box::new(Gds::new(cap)), camp_at(cap, Precision::Bits(5))]
    });
    let mut table = Table::new(vec![
        "cache-ratio",
        "gds-visits",
        "camp-visits",
        "gds/camp",
        "gds-heap-ops",
        "camp-heap-ops",
    ]);
    for point in &points {
        let [gds, camp] = &point.reports[..] else {
            unreachable!("two policies per point")
        };
        let gv = gds.heap_node_visits.unwrap_or(0);
        let cv = camp.heap_node_visits.unwrap_or(0);
        table.row(vec![
            format!("{:.2}", point.ratio),
            gv.to_string(),
            cv.to_string(),
            f(gv as f64 / cv.max(1) as f64),
            gds.heap_update_ops.unwrap_or(0).to_string(),
            camp.heap_update_ops.unwrap_or(0).to_string(),
        ]);
    }
    vec![("fig4".into(), table)]
}

// -------------------------------------------------------- fig 5a/5b/8c

/// Figures 5a, 5b and 8c: CAMP across the precision grid and ∞ (the
/// unrounded, GDS-equivalent configuration). 5a is the cost-miss ratio
/// and 5b the number of non-empty LRU queues, at three cache sizes of the
/// three-tier trace; 8c is the queue count at ratio 0.25 on that trace
/// and on the equi-sized continuous-cost trace — its first column is 5b's
/// middle one, so the sweep that draws 5b draws it too.
#[must_use]
pub fn precision_sweep(scale: Scale) -> Tables {
    let precisions: Vec<Precision> = PRECISION_GRID
        .iter()
        .map(|&p| Precision::Bits(p))
        .chain([Precision::Infinite])
        .collect();
    let camps = |cap| -> Vec<Box<dyn EvictionPolicy>> {
        precisions.iter().map(|&p| camp_at(cap, p)).collect()
    };
    let sweep = |trace: Trace, ratios: &[f64]| {
        sweep_ratios_parallel(&trace, unique_bytes(&trace), ratios, camps)
    };
    let three_tier = sweep(scale.three_tier_trace(), &[0.1, 0.25, 0.5]);
    let equi = sweep(scale.equi_size_trace(), &[0.25]);
    // One row per precision, one column per sweep point.
    let by_precision =
        |header: &[&str], columns: &[&SweepPoint], cell: fn(&SimReport) -> String| {
            let mut table = Table::new(header.to_vec());
            for (i, precision) in precisions.iter().enumerate() {
                let mut row = vec![precision.to_string()];
                row.extend(columns.iter().map(|point| cell(&point.reports[i])));
                table.row(row);
            }
            table
        };
    let columns: Vec<&SweepPoint> = three_tier.iter().collect();
    vec![
        (
            "fig5a".into(),
            by_precision(
                &[
                    "precision",
                    "cost-miss@0.10",
                    "cost-miss@0.25",
                    "cost-miss@0.50",
                ],
                &columns,
                cost_miss,
            ),
        ),
        (
            "fig5b".into(),
            by_precision(
                &["precision", "queues@0.10", "queues@0.25", "queues@0.50"],
                &columns,
                queues,
            ),
        ),
        (
            "fig8c".into(),
            by_precision(
                &["precision", "queues(3-tier)", "queues(equi-size)"],
                &[&three_tier[1], &equi[0]],
                queues,
            ),
        ),
    ]
}

// ------------------------------------------------------------- fig 5c/5d

/// Figures 5c and 5d: cost-miss ratio and miss rate vs cache size ratio
/// on the same runs (CAMP p=5, LRU, both Pooled-LRU splits, GDS for
/// reference).
#[must_use]
pub fn fig5cd(scale: Scale) -> Tables {
    let trace = scale.three_tier_trace();
    let points = sweep_ratios_parallel(&trace, unique_bytes(&trace), &DEFAULT_RATIOS, |cap| {
        vec![
            camp_at(cap, Precision::Bits(5)),
            Box::new(Lru::new(cap)),
            pooled_cost_proportional(&trace, cap),
            Box::new(PooledLru::new(cap, &TIERS, PoolSplit::Uniform)),
            Box::new(Gds::new(cap)),
        ]
    });
    let header = [
        "cache-ratio",
        "camp(p=5)",
        "lru",
        "pooled-cost",
        "pooled-uniform",
        "gds",
    ];
    vec![
        ("fig5c".into(), ratio_table(&header, &points, cost_miss)),
        ("fig5d".into(), ratio_table(&header, &points, miss_rate)),
    ]
}

// ------------------------------------------------------------- fig 6a/6b

/// Figures 6a and 6b: cost-miss ratio and miss rate vs cache size under
/// evolving access patterns (ten back-to-back disjoint trace files).
#[must_use]
pub fn fig6ab(scale: Scale) -> Tables {
    let trace = scale.evolving_trace();
    let ratios = [0.05, 0.1, 0.25, 0.5, 0.75, 1.0];
    let points = sweep_ratios_parallel(&trace, tf_bytes(&trace), &ratios, |cap| {
        vec![
            camp_at(cap, Precision::Bits(5)),
            Box::new(Lru::new(cap)),
            pooled_cost_proportional(&trace, cap),
        ]
    });
    let header = ["cache-ratio", "camp(p=5)", "lru", "pooled-cost"];
    vec![
        ("fig6a".into(), ratio_table(&header, &points, cost_miss)),
        ("fig6b".into(), ratio_table(&header, &points, miss_rate)),
    ]
}

// ------------------------------------------------------------- fig 6c/6d

fn occupancy_at(scale: Scale, ratio: f64, name: &str) -> Tables {
    let trace = scale.evolving_trace();
    let tf_len = scale.evolving_requests();
    let cap = capacity_for_ratio(tf_bytes(&trace), ratio);
    let sample_every = (trace.len() / 200).max(1);
    let config = OccupancyConfig {
        sample_every,
        tracked_trace: 0,
    };

    let mut series = Vec::new();
    let mut landmarks = Table::new(vec!["policy", "tf1-fully-evicted-after"]);
    let policies: Vec<(&str, Box<dyn EvictionPolicy>)> = vec![
        ("camp(p=5)", camp_at(cap, Precision::Bits(5))),
        ("lru", Box::new(Lru::new(cap))),
        ("pooled-cost", pooled_cost_proportional(&trace, cap)),
    ];
    for (label, mut policy) in policies {
        let report = Simulation::new(&trace)
            .track_occupancy(config)
            .run(policy.as_mut());
        let occupancy = report.occupancy.expect("occupancy requested");
        let residual = occupancy
            .samples
            .last()
            .map_or(0.0, |s| s.fraction_of_capacity);
        landmarks.row(vec![
            label.to_owned(),
            match occupancy.fully_evicted_at {
                // The paper reports the count of requests after TF2 began.
                Some(at) if at >= tf_len => format!("{} requests into TF2+", at - tf_len),
                Some(at) => format!("during TF1 (request {at})"),
                None => format!("never ({:.2}% of cache at end)", residual * 100.0),
            },
        ]);
        series.push((label, occupancy));
    }

    let mut table = Table::new(vec![
        "requests-after-tf2-start",
        "camp(p=5)",
        "lru",
        "pooled-cost",
    ]);
    let samples = series[0].1.samples.len();
    for i in 0..samples {
        let index = series[0].1.samples[i].request_index as i64 - tf_len as i64;
        let mut row = vec![index.to_string()];
        for (_, occupancy) in &series {
            row.push(f(occupancy.samples[i].fraction_of_capacity));
        }
        table.row(row);
    }
    vec![
        (name.to_owned(), table),
        (format!("{name}-landmarks"), landmarks),
    ]
}

/// Figure 6c: fraction of the cache occupied by TF1 pairs over time, cache
/// size ratio 0.25.
#[must_use]
pub fn fig6c(scale: Scale) -> Tables {
    occupancy_at(scale, 0.25, "fig6c")
}

/// Figure 6d: the same at cache size ratio 0.75.
#[must_use]
pub fn fig6d(scale: Scale) -> Tables {
    occupancy_at(scale, 0.75, "fig6d")
}

// ------------------------------------------------------------------ fig 7

/// Figure 7: miss rate vs cache size with variable-size pairs and constant
/// cost (cost-miss ratio equals miss rate here, as the paper notes).
#[must_use]
pub fn fig7(scale: Scale) -> Tables {
    let trace = scale.variable_size_trace();
    let points = sweep_ratios_parallel(&trace, unique_bytes(&trace), &DEFAULT_RATIOS, |cap| {
        vec![
            camp_at(cap, Precision::Bits(5)),
            Box::new(Lru::new(cap)),
            Box::new(Gds::new(cap)),
        ]
    });
    let header = ["cache-ratio", "camp(p=5)", "lru", "gds"];
    vec![("fig7".into(), ratio_table(&header, &points, miss_rate))]
}

// ------------------------------------------------------------- fig 8a/8b

/// Figures 8a and 8b: cost-miss ratio and miss rate vs cache size on the
/// equi-sized, variable-cost trace, from the same runs.
#[must_use]
pub fn fig8ab(scale: Scale) -> Tables {
    let trace = scale.equi_size_trace();
    let points = sweep_ratios_parallel(&trace, unique_bytes(&trace), &DEFAULT_RATIOS, |cap| {
        // The paper's Figure 8 pooling: ranges [1,100), [100,10K), [10K,∞),
        // memory proportional to the lowest cost in each range.
        vec![
            camp_at(cap, Precision::Bits(5)),
            Box::new(Lru::new(cap)),
            Box::new(PooledLru::new(
                cap,
                &TIERS,
                PoolSplit::ProportionalToLowerBound,
            )),
        ]
    });
    let header = ["cache-ratio", "camp(p=5)", "lru", "pooled-range"];
    vec![
        ("fig8a".into(), ratio_table(&header, &points, cost_miss)),
        ("fig8b".into(), ratio_table(&header, &points, miss_rate)),
    ]
}

// ------------------------------------------------------------------ fig 9

/// Figures 9a/9b/9c: the live-server experiment. Replays the three-tier
/// trace against the Twemcache-like server over TCP, once with LRU and
/// once with CAMP, across cache size ratios. Beside the server's cost-miss
/// ratios (9a) and miss rates (9c) stand the simulator's, on the same
/// trace with the bytes the server's policy is given (its slabs), so the
/// gap the slab geometry makes is on the table.
#[must_use]
pub fn fig9(scale: Scale) -> Tables {
    use camp_kvs::client::Client;
    use camp_kvs::replay::replay_trace;
    use camp_kvs::server::Server;
    use camp_kvs::slab::SlabConfig;
    use camp_kvs::store::{EvictionMode, StoreConfig};

    let trace = BgConfig::paper_scaled(
        scale.server_members(),
        scale.server_requests(),
        HARNESS_SEED,
    )
    .generate();
    let unique = trace.stats().unique_bytes;

    let server = ["cache-ratio", "lru", "camp(p=5)"];
    let mut cost_table = Table::new([&server[..], &["sim-lru", "sim-camp(p=5)"]].concat());
    let mut time_table = Table::new(server.to_vec());
    let mut miss_table = cost_table.clone();

    for ratio in [0.01, 0.05, 0.1, 0.25, 0.5] {
        let memory = ((unique as f64 * ratio) as u64).max(64 * 1024);
        // Fixed 64 KiB slabs, `memory / 64 KiB` of them (at least one): on
        // the small-scale trace 1 slab at ratio 0.01 up to 31 at 0.50, for
        // 29 size classes, so most classes get no slab of their own and most
        // sets take a random slab eviction. Choosing the geometry by rule is
        // ROADMAP item 16.
        let slab_size: u32 = 64 * 1024;
        let slab = SlabConfig::small(
            slab_size,
            u32::try_from(memory / u64::from(slab_size))
                .unwrap_or(1)
                .max(1),
        );
        let mut cost_row = vec![format!("{ratio:.2}")];
        let mut time_row = cost_row.clone();
        let mut miss_row = cost_row.clone();
        for eviction in [EvictionMode::Lru, EvictionMode::Camp(Precision::Bits(5))] {
            let server = Server::start("127.0.0.1:0", StoreConfig { slab, eviction })
                .expect("bind figure-9 server");
            let mut client = Client::connect(server.local_addr()).expect("connect figure-9 client");
            let report = replay_trace(&mut client, &trace).expect("replay trace");
            let _ = client.quit();
            server.shutdown();
            cost_row.push(f(report.metrics.cost_miss_ratio()));
            time_row.push(format!("{:.2}s", report.wall_time.as_secs_f64()));
            miss_row.push(f(report.metrics.miss_rate()));
        }
        let budget = u64::from(slab.slab_size) * u64::from(slab.max_slabs);
        let sim: [Box<dyn EvictionPolicy>; 2] = [
            Box::new(Lru::new(budget)),
            camp_at(budget, Precision::Bits(5)),
        ];
        for mut policy in sim {
            let report = simulate(policy.as_mut(), &trace);
            cost_row.push(f(report.metrics.cost_miss_ratio()));
            miss_row.push(f(report.metrics.miss_rate()));
        }
        cost_table.row(cost_row);
        time_table.row(time_row);
        miss_table.row(miss_row);
    }
    vec![
        ("fig9a".into(), cost_table),
        ("fig9b".into(), time_table),
        ("fig9c".into(), miss_table),
    ]
}

// -------------------------------------------------------------- ablations

/// Ablation: CAMP's LRU tie-breaking and heap-root `L` vs exact GDS
/// (arbitrary tie-breaks, `min over M\{p}` on hits), with rounding
/// disabled in both — the residual approximation error of the queue
/// structure itself.
#[must_use]
pub fn ablation_tiebreak(scale: Scale) -> Tables {
    ablation_tiebreak_on(&scale.three_tier_trace())
}

/// [`ablation_tiebreak`] on `trace`.
#[must_use]
pub fn ablation_tiebreak_on(trace: &Trace) -> Tables {
    let ratios = [0.05, 0.1, 0.25, 0.5, 0.75];
    let points = sweep_ratios_parallel(trace, unique_bytes(trace), &ratios, |cap| {
        vec![camp_at(cap, Precision::Infinite), Box::new(Gds::new(cap))]
    });
    let mut table = Table::new(vec!["cache-ratio", "camp(p=inf)", "gds", "relative-delta"]);
    for point in &points {
        let camp_cost = point.reports[0].metrics.cost_miss_ratio();
        let gds_cost = point.reports[1].metrics.cost_miss_ratio();
        let delta = if gds_cost > 0.0 {
            (camp_cost - gds_cost) / gds_cost
        } else {
            0.0
        };
        table.row(vec![
            format!("{:.2}", point.ratio),
            f(camp_cost),
            f(gds_cost),
            format!("{delta:+.4}"),
        ]);
    }
    vec![("ablation-tiebreak".into(), table)]
}

/// Ablation: the adaptive integerization multiplier vs fixed multipliers
/// (1 = ratios collapse below one; cache-size = the paper's anti-pattern).
#[must_use]
pub fn ablation_multiplier(scale: Scale) -> Tables {
    let trace = scale.variable_size_trace();
    let cap = capacity_for_ratio(unique_bytes(&trace), 0.25);
    let mut table = Table::new(vec!["multiplier", "cost-miss", "miss-rate", "queues"]);
    let configs: Vec<(String, Box<dyn EvictionPolicy>)> = vec![
        (
            "adaptive (paper)".into(),
            Box::new(
                Camp::<u64, ()>::builder(cap)
                    .precision(Precision::Bits(5))
                    .build(),
            ),
        ),
        (
            "fixed=1".into(),
            Box::new(
                Camp::<u64, ()>::builder(cap)
                    .precision(Precision::Bits(5))
                    .fixed_multiplier(1)
                    .build(),
            ),
        ),
        (
            format!("fixed=cache-size ({cap})"),
            Box::new(
                Camp::<u64, ()>::builder(cap)
                    .precision(Precision::Bits(5))
                    .fixed_multiplier(cap)
                    .build(),
            ),
        ),
    ];
    for (label, mut policy) in configs {
        let report = simulate(policy.as_mut(), &trace);
        table.row(vec![
            label,
            f(report.metrics.cost_miss_ratio()),
            f(report.metrics.miss_rate()),
            report.queue_count.unwrap_or(0).to_string(),
        ]);
    }
    vec![("ablation-multiplier".into(), table)]
}

/// Ablation: the three Pooled-LRU memory splits of the paper, side by side.
#[must_use]
pub fn ablation_pooling(scale: Scale) -> Tables {
    let trace = scale.three_tier_trace();
    let ratios = [0.05, 0.25, 0.5, 0.75];
    let points = sweep_ratios_parallel(&trace, unique_bytes(&trace), &ratios, |cap| {
        vec![
            Box::new(PooledLru::new(cap, &TIERS, PoolSplit::Uniform)),
            pooled_cost_proportional(&trace, cap),
            Box::new(PooledLru::new(
                cap,
                &TIERS,
                PoolSplit::ProportionalToLowerBound,
            )),
        ]
    });
    let mut table = Table::new(vec![
        "cache-ratio",
        "uniform/cost-miss",
        "cost-prop/cost-miss",
        "lower-bound/cost-miss",
        "uniform/miss",
        "cost-prop/miss",
        "lower-bound/miss",
    ]);
    for point in &points {
        let mut row = vec![format!("{:.2}", point.ratio)];
        row.extend(point.reports.iter().map(cost_miss));
        row.extend(point.reports.iter().map(miss_rate));
        table.row(row);
    }
    vec![("ablation-pooling".into(), table)]
}

/// Extension experiment: related-work policies (LRU-K, 2Q, ARC, GD-Wheel)
/// and admission control next to CAMP on the headline trace.
#[must_use]
pub fn extension_policies(scale: Scale) -> Tables {
    use camp_policies::{
        Admission, AdmissionRule, Arc, GdWheel, Gdsf, Lfu, LruK, LruKCache, TwoQ, TwoQCache,
    };
    let trace = scale.three_tier_trace();
    let points = sweep_ratios_parallel(&trace, unique_bytes(&trace), &[0.1, 0.25, 0.5], |cap| {
        vec![
            camp_at(cap, Precision::Bits(5)),
            Box::new(LruK::new(cap, 2)),
            Box::new(TwoQ::new(cap)),
            Box::new(Arc::new(cap)),
            Box::new(GdWheel::new(cap)),
            Box::new(Gdsf::new(cap)),
            Box::new(Lfu::new(cap)),
            Box::new(Admission::new(
                Camp::<u64, ()>::new(cap, Precision::Bits(5)),
                AdmissionRule::SecondMiss { window: 65_536 },
            )),
        ]
    });
    let mut table = Table::new(vec!["cache-ratio", "policy", "cost-miss", "miss-rate"]);
    for point in &points {
        for report in &point.reports {
            table.row(vec![
                format!("{:.2}", point.ratio),
                report.policy.clone(),
                cost_miss(report),
                miss_rate(report),
            ]);
        }
    }
    vec![("extension-policies".into(), table)]
}

/// Extension experiment: the §6 two-level (memory + SSD-model) hierarchy.
#[must_use]
pub fn extension_hierarchy(scale: Scale) -> Tables {
    use camp_sim::hierarchy::{simulate_hierarchy, TwoLevelCache};
    let trace = scale.three_tier_trace();
    let unique = trace.stats().unique_bytes;
    let mut table = Table::new(vec![
        "l1-ratio",
        "l2-ratio",
        "flat-cost-miss",
        "hier-incurred-cost",
        "l2-hit-share",
    ]);
    for (l1_ratio, l2_ratio) in [(0.05, 0.25), (0.1, 0.5), (0.25, 1.0)] {
        let l1 = ((unique as f64 * l1_ratio) as u64).max(1);
        let l2 = ((unique as f64 * l2_ratio) as u64).max(1);
        let mut flat = Camp::<u64, ()>::new(l1, Precision::Bits(5));
        let flat_report = simulate(&mut flat, &trace);
        let mut hier = TwoLevelCache::new(
            Box::new(Camp::<u64, ()>::new(l1, Precision::Bits(5))),
            Box::new(Camp::<u64, ()>::new(l2, Precision::Bits(5))),
            50,
        );
        let metrics = simulate_hierarchy(&mut hier, &trace);
        let counted = metrics.base.hits + metrics.base.misses;
        table.row(vec![
            format!("{l1_ratio:.2}"),
            format!("{l2_ratio:.2}"),
            f(flat_report.metrics.cost_miss_ratio()),
            f(metrics.incurred_cost_ratio()),
            f(metrics.l2_hits as f64 / counted.max(1) as f64),
        ]);
    }
    vec![("extension-hierarchy".into(), table)]
}

/// Extension experiment: windowed cost-miss timeline across the evolving
/// workload — the §3.1 adaptation dynamics as rates instead of occupancy.
#[must_use]
pub fn extension_timeline(scale: Scale) -> Tables {
    use camp_sim::timeline::windowed_metrics;

    let trace = scale.evolving_trace();
    let cap = capacity_for_ratio(tf_bytes(&trace), 0.25);
    let window = (trace.len() / 40).max(1);

    let mut series: Vec<(&str, Vec<camp_sim::timeline::WindowPoint>)> = Vec::new();
    let mut camp = Camp::<u64, ()>::new(cap, Precision::Bits(5));
    series.push(("camp(p=5)", windowed_metrics(&mut camp, &trace, window)));
    let mut lru = Lru::new(cap);
    series.push(("lru", windowed_metrics(&mut lru, &trace, window)));
    let mut pooled = pooled_cost_proportional(&trace, cap);
    series.push((
        "pooled-cost",
        windowed_metrics(pooled.as_mut(), &trace, window),
    ));

    let mut table = Table::new(vec![
        "window-start",
        "camp/cost-miss",
        "lru/cost-miss",
        "pooled/cost-miss",
    ]);
    let windows = series[0].1.len();
    for i in 0..windows {
        let mut row = vec![series[0].1[i].start.to_string()];
        for (_, points) in &series {
            row.push(f(points[i].metrics.cost_miss_ratio()));
        }
        table.row(row);
    }
    vec![("extension-timeline".into(), table)]
}

/// Custom-trace experiment: the Figure 5c/5d comparison on a user-supplied
/// trace file (`repro custom --trace FILE`). Pools are derived from the
/// trace's own distinct cost values when there are at most 8, else from
/// logarithmic cost ranges.
#[must_use]
pub fn custom(trace: &Trace) -> Tables {
    // Pool boundaries: the distinct costs if few, else log-spaced ranges.
    let mut costs: Vec<u64> = trace.iter().map(|r| r.cost.max(1)).collect();
    costs.sort_unstable();
    costs.dedup();
    let boundaries: Vec<u64> = if costs.len() <= 8 {
        costs
    } else {
        let lo = costs.first().copied().unwrap_or(1).max(1);
        let hi = costs.last().copied().unwrap_or(1);
        let steps = 4u32;
        (0..steps)
            .map(|i| {
                let t = f64::from(i) / f64::from(steps);
                ((lo as f64) * (hi as f64 / lo as f64).powf(t)) as u64
            })
            .collect::<std::collections::BTreeSet<u64>>()
            .into_iter()
            .collect()
    };
    let ratios = [0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0];
    let points = sweep_ratios_parallel(trace, unique_bytes(trace), &ratios, |cap| {
        vec![
            camp_at(cap, Precision::Bits(5)),
            Box::new(Lru::new(cap)),
            Box::new(PooledLru::new(
                cap,
                &boundaries,
                PoolSplit::ProportionalToLowerBound,
            )),
            Box::new(Gds::new(cap)),
        ]
    });
    let header = ["cache-ratio", "camp(p=5)", "lru", "pooled", "gds"];
    vec![
        (
            "custom-cost-miss".into(),
            ratio_table(&header, &points, cost_miss),
        ),
        (
            "custom-miss-rate".into(),
            ratio_table(&header, &points, miss_rate),
        ),
    ]
}

/// Extension experiment: gradually drifting hot sets (the smooth
/// counterpart to §3.1's abrupt shifts). CAMP must keep beating LRU on
/// cost while the working set rotates under it.
#[must_use]
pub fn extension_drift(scale: Scale) -> Tables {
    use camp_policies::{Gdsf, Lfu};
    use camp_workload::DriftConfig;

    let trace =
        DriftConfig::paper_scaled(scale.members() / 2, scale.requests(), HARNESS_SEED).generate();
    let ratios = [0.05, 0.1, 0.25, 0.5];
    let points = sweep_ratios_parallel(&trace, unique_bytes(&trace), &ratios, |cap| {
        vec![
            camp_at(cap, Precision::Bits(5)),
            Box::new(Lru::new(cap)),
            Box::new(Gdsf::new(cap)),
            Box::new(Lfu::new(cap)),
        ]
    });
    let header = ["cache-ratio", "camp(p=5)", "lru", "gdsf", "lfu"];
    vec![(
        "extension-drift".into(),
        ratio_table(&header, &points, cost_miss),
    )]
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_workload::TraceRecord;

    #[test]
    fn custom_experiment_handles_arbitrary_traces() {
        // Tiny synthetic trace: 4 keys, 2 costs, enough rereferences for
        // non-trivial rates.
        let trace: Trace = (0..200u64)
            .map(|i| {
                let key = i % 4;
                TraceRecord::new(key, 50 + key * 10, [1u64, 500][(key % 2) as usize])
            })
            .collect();
        let tables = custom(&trace);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].0, "custom-cost-miss");
        assert_eq!(tables[0].1.len(), 7); // one row per ratio
        let rendered = tables[0].1.render();
        assert!(rendered.contains("camp(p=5)"));
    }

    #[test]
    fn custom_pools_log_ranges_for_many_costs() {
        // >8 distinct costs: pool boundaries come from log-spaced ranges
        // and the experiment must still run.
        let trace: Trace = (0..300u64)
            .map(|i| {
                let key = i % 30;
                TraceRecord::new(key, 100, 1 + key * key * 13)
            })
            .collect();
        let tables = custom(&trace);
        assert_eq!(tables[0].1.len(), 7);
    }

    #[test]
    fn table1_is_cheap_and_exact() {
        let tables = table1();
        let csv = tables[0].1.to_csv();
        assert!(csv.contains("000001010,000000000,000001010"));
    }
}
