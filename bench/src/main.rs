//! `campbench` — the repo's benchmark.
//!
//! ```text
//! campbench --workload NAME --seed N --seconds S --trace 0|1   (pipeline form)
//! campbench run [--all | NAME] [--seed N] [--quick]
//! campbench ledger NAME [--seed N]
//! campbench agree [--seed N]
//! ```
//!
//! Every run spawns the real `camp-kvsd`, drives it over loopback from a
//! seeded generator, verifies every reply and prints each metric by name
//! and unit. See `bench/README.md` for the definitions.

#![forbid(unsafe_code)]

mod ledger;
mod proc;
mod spec;
mod speed;
mod stats;
mod wire;

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use proc::{Control, Server, Stats, Usage};
use spec::{Kind, Spec, SPECS};
use wire::{Client, Phase, Until};

/// Set-ups per untraced run; `setup_s` is their median. At least
/// `SETUP_REPS`, and more of a cheap one (up to `SETUP_REPS_MAX` within
/// `SETUP_BUDGET`) because a 40 ms set-up is mostly spawn jitter.
const SETUP_REPS: usize = 3;
const SETUP_REPS_MAX: usize = 15;
const SETUP_BUDGET: Duration = Duration::from_secs(4);

/// Phases run in slices this long; a metric is reduced across them.
const SLICE: Duration = Duration::from_secs(1);

/// Requests the traced run replays through each layer in process.
const LEDGER_REQUESTS: usize = 2_000_000;

/// Where logs, journals and span files go, relative to the checkout.
const OUT_DIR: &str = "bench/out";

/// The seed `bench/run.sh` uses; `--seed 7` is held out for later claims.
const DEFAULT_SEED: u64 = 42;

/// What a user of the server would see. `BENCHMARK.json` lists these
/// with their bounds; the `--trace 0` result line carries exactly them.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_s", "ops/s"),
    ("server_cpu_ns_per_op", "ns"),
    ("lat_p50_us", "us"),
    ("hit_ratio", "ratio"),
    ("cost_hit_ratio", "ratio"),
    ("rss_mb", "MB"),
];

/// End-to-end numbers the pipeline's relative bounds cannot hold —
/// `lat_p99_us` because its run-to-run spread here is several times the
/// largest bound allowed, the others because they are zero or undefined
/// on some workload — reported with the layers as `client.<name>`.
const DEMOTED: [(&str, &str); 7] = [
    ("client.lat_p99_us", "us"),
    ("client.miss_ratio", "ratio"),
    ("client.cost_miss_ratio", "ratio"),
    ("client.error_frac", "ratio"),
    ("client.write_p99_us", "us"),
    ("client.recovery_mb_s", "MB/s"),
    ("client.write_amp", "ratio"),
];

/// Single layers, by module name. The `--trace 1` result line carries
/// these and [`DEMOTED`].
const PER_LAYER: [(&str, &str); 46] = [
    ("protocol.parse_ns_per_cmd", "ns"),
    ("resp.serialize_ns_per_hit", "ns"),
    ("policy.hit_ns", "ns"),
    ("policy.miss_ns", "ns"),
    ("policy.evictions_per_insert", "ratio"),
    ("policy.heap_updates_per_kop", "1/kop"),
    ("policy.heap_visits_per_kop", "1/kop"),
    ("policy.queue_count", "count"),
    ("store.get_hit_ns", "ns"),
    ("store.get_miss_ns", "ns"),
    ("store.set_ns", "ns"),
    ("store.evictions_per_set", "ratio"),
    ("store.mem_util", "ratio"),
    ("slab.reassignments", "count"),
    ("shard.dispatch_ns", "ns"),
    ("server.cpu_ns_per_op", "ns"),
    ("server.handler_get_p99_us", "us"),
    ("server.handler_set_p99_us", "us"),
    ("net.residual_ns_per_op", "ns"),
    ("net.ops_per_wakeup", "ratio"),
    ("net.events_per_wakeup", "ratio"),
    ("net.flush_segments_p50", "count"),
    ("net.ctxsw_per_kop", "1/kop"),
    ("net.sys_cpu_share", "ratio"),
    ("persist.append_self_ns", "ns"),
    ("persist.device_sync_us_p50", "us"),
    ("persist.device_sync_us_p99", "us"),
    ("persist.fsyncs_per_set", "ratio"),
    ("persist.bytes_per_record", "bytes"),
    ("persist.snapshots", "count"),
    ("persist.recover_ns_per_record", "ns"),
    ("telemetry.histogram_record_ns", "ns"),
    ("telemetry.span_record_ns", "ns"),
    ("telemetry.spans_per_op", "ratio"),
    ("sim.cost_miss_ratio", "ratio"),
    ("sim.miss_ratio", "ratio"),
    ("sim.ns_per_req", "ns"),
    ("client.gen_ns_per_req", "ns"),
    ("client.cpu_ns_per_op", "ns"),
    ("client.send_lag_p90_us", "us"),
    ("client.send_lag_p99_us", "us"),
    ("client.backlog_max", "count"),
    ("client.host_slowdown", "ratio"),
    ("client.disk_slowdown", "ratio"),
    ("ledger.sum_ns_per_op", "ns"),
    ("ledger.span_overhead_ns", "ns"),
];

/// Everything one run measured.
#[derive(Debug, Default)]
struct Outcome {
    values: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    /// Why the run is not `correct`, beyond failed operations.
    problems: Vec<String>,
    /// Validity notes that do not fail the run.
    warnings: Vec<String>,
    pinned: bool,
    /// The scaled end-to-end numbers as they were measured.
    raw: [(&'static str, f64); 4],
    /// Read-latency samples behind `lat_*`, and the open-loop slices
    /// they span: (kept, run).
    samples: usize,
    slices: (usize, usize),
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// The pipeline's result line.
    fn json(&self, names: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = names
            .iter()
            .map(|&(name, unit)| {
                let value = self.get(name);
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// What one open-loop slice measured.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OpenSlice {
    reads: usize,
    lat_p50_us: f64,
    lat_p99_us: f64,
    write_p99_us: f64,
    send_lag_p90_us: f64,
    send_lag_p99_us: f64,
    /// Most commands outstanding at once, and those still outstanding
    /// when the schedule ended.
    backlog_max: f64,
    backlog_end: f64,
}

impl OpenSlice {
    /// Whether the slice measured latency at `rate`: the generator issued
    /// nine requests in ten sooner after they fell due than a median read
    /// takes, and the server ended the slice with under a twentieth of
    /// its arrivals outstanding (under an overload the backlog grows for
    /// as long as the slice lasts; a stall it recovered from, be it a
    /// compaction or the host's, belongs to the latencies).
    fn valid(&self, rate: u64) -> bool {
        self.send_lag_p90_us < self.lat_p50_us
            && self.backlog_end <= rate as f64 * SLICE.as_secs_f64() / 20.0
    }
}

/// A warmed server with its clients attached.
struct Rig {
    server: Server,
    client: Client,
    control: Control,
    data_dir: Option<PathBuf>,
    warm: Phase,
}

/// Spawn → ready → generator built → cache warm. Returns how long that
/// took: what a later change could shift work into.
fn set_up(spec: &Spec, seed: u64, out: &Path) -> io::Result<(Rig, Duration)> {
    let started = Instant::now();
    let data_dir = spec
        .durable()
        .then(|| out.join(format!("{}.data", spec.name)));
    if let Some(dir) = &data_dir {
        // A fresh journal each time; only a run killed half-way leaves one.
        let _ = fs::remove_dir_all(dir);
        fs::create_dir_all(dir)?;
    }
    let server = Server::spawn(spec, out, data_dir.as_deref())?;
    let mut client = Client::connect(server.addr, spec, seed)?;
    let control = Control::connect(server.addr)?;
    let warm = match spec.kind {
        Kind::Bg { .. } => client.closed_loop(Until::Requests(spec.warm_requests))?,
        Kind::Uniform { .. } => client.prefill()?,
    };
    let rig = Rig {
        server,
        client,
        control,
        data_dir,
        warm,
    };
    Ok((rig, started.elapsed()))
}

/// One run of `spec`: set-up, a closed-loop phase, an open-loop phase,
/// for durable-set the kill/restart/read-back, and — traced runs only —
/// the in-process ledger.
fn measure(spec: &Spec, seed: u64, seconds: u64, trace: bool) -> io::Result<Outcome> {
    let out = PathBuf::from(OUT_DIR);
    fs::create_dir_all(&out)?;
    let mut outcome = Outcome::default();
    let slices = (seconds / 2) as usize;

    // The yardstick (see `speed`) reads before and after every set-up and
    // between the slices, never during either.
    let probe = spec
        .durable()
        .then(|| out.join(format!("{}.probe", spec.name)));
    let mut speedometer = speed::Speedometer::spawn(proc::server_pinned(), probe.as_deref())?;
    let slowdown = |(kernel_ns, sync_ns): (f64, f64)| -> f64 {
        let host = kernel_ns / speed::NOMINAL_NS;
        if spec.durable() {
            (host * sync_ns / speed::NOMINAL_SYNC_NS).sqrt()
        } else {
            host
        }
    };

    let (mut setups, mut setups_raw) = (Vec::new(), Vec::new());
    let setting_up = Instant::now();
    let mut before = slowdown(speedometer.sample()?);
    let mut rig = loop {
        let (rig, took) = set_up(spec, seed, &out)?;
        let after = slowdown(speedometer.sample()?);
        setups_raw.push(took.as_secs_f64());
        setups.push(took.as_secs_f64() / ((before + after) / 2.0));
        before = after;
        outcome.attempted += rig.warm.attempted;
        outcome.failed += rig.warm.failed;
        let enough = setups.len() >= SETUP_REPS
            && (setups.len() >= SETUP_REPS_MAX || setting_up.elapsed() >= SETUP_BUDGET);
        if trace || enough {
            break rig;
        }
    };
    outcome.pinned = rig.server.pinned && proc::client_pinned();
    let setup_s = stats::median(&mut setups);

    // The phases run as alternating 1 s slices, closed then open, so that
    // each metric samples the whole run and a disturbed stretch of a few
    // seconds cannot land on one phase alone. The server's counters are
    // read just outside the closed slices, never during; its CPU time
    // likewise, from /proc.
    rig.control.stats_reset()?;
    let mut scrapes: Vec<(Stats, Stats)> = Vec::new();
    let mut usages: Vec<(Usage, Usage)> = Vec::new();
    let mut closed = Phase::default();
    // Attempts and failures of every phase; `closed` alone feeds ratios.
    let mut phases = Phase::default();
    let (mut ops_s, mut cpu_ns_per_op) = (Vec::new(), Vec::new());
    let mut open: Vec<OpenSlice> = Vec::new();
    let (mut paces, mut sync_paces) = (Vec::new(), Vec::new());
    let mut pace = |speedometer: &mut speed::Speedometer| -> io::Result<()> {
        let (kernel_ns, sync_ns) = speedometer.sample()?;
        paces.push(kernel_ns);
        sync_paces.push(sync_ns);
        Ok(())
    };
    for index in 0..slices {
        let stats_before = rig.control.stats_detail()?;
        let usage_before = rig.server.usage()?;
        let cpu_before = rig.server.cpu_ns()?;
        let slice = rig.client.closed_loop(Until::Elapsed(SLICE))?;
        let cpu = (rig.server.cpu_ns()? - cpu_before) as f64;
        usages.push((usage_before, rig.server.usage()?));
        scrapes.push((stats_before, rig.control.stats_detail()?));
        ops_s.push(slice.completed_in_time as f64 / slice.elapsed.as_secs_f64());
        cpu_ns_per_op.push(cpu / slice.completed.max(1) as f64);
        closed.absorb_counts(&slice);
        pace(&mut speedometer)?;

        // The traced run keeps half the open slices, for the generator's
        // own numbers, and spends the time saved in the ledger.
        if trace && index % 2 == 1 {
            continue;
        }
        let mut slice = rig.client.open_loop(SLICE, spec.rate)?;
        let us = |samples: &mut [u64], q: f64| stats::slice_quantile(samples, q) / 1e3;
        open.push(OpenSlice {
            reads: slice.read_latency.len(),
            lat_p50_us: us(&mut slice.read_latency, 0.5),
            lat_p99_us: us(&mut slice.read_latency, 0.99),
            write_p99_us: us(&mut slice.write_latency, 0.99),
            send_lag_p90_us: us(&mut slice.send_lag, 0.9),
            send_lag_p99_us: us(&mut slice.send_lag, 0.99),
            backlog_max: slice.backlog_max as f64,
            backlog_end: slice.backlog_end as f64,
        });
        phases.absorb_counts(&slice);
        pace(&mut speedometer)?;
    }
    drop(speedometer);
    if let Some(probe) = &probe {
        fs::remove_file(probe)?;
    }
    let usage_end = rig.server.usage()?;
    let stats_end = rig.control.stats_detail()?;
    let stats_after = &scrapes.last().expect("at least one slice").1;
    phases.absorb_counts(&closed);

    // A slice whose generator fell behind, or whose server did, says
    // nothing about latency at this rate: the open-loop numbers come from
    // the others. Only a run without one valid slice still reports them
    // all, and fails.
    let valid: Vec<&OpenSlice> = open.iter().filter(|s| s.valid(spec.rate)).collect();
    if valid.is_empty() {
        outcome.problems.push(format!(
            "no open-loop slice kept its schedule at {} requests/s",
            spec.rate
        ));
    }
    let kept: Vec<&OpenSlice> = if valid.is_empty() {
        open.iter().collect()
    } else {
        valid
    };
    outcome.slices = (kept.len(), open.len());
    outcome.samples = kept.iter().map(|s| s.reads).sum();
    let across = |of: fn(&OpenSlice) -> f64| -> f64 {
        stats::median(&mut kept.iter().map(|s| of(s)).collect::<Vec<f64>>())
    };

    // Each number is the median across its slices. The time-based
    // end-to-end ones are then scaled to the nominal pace of what the
    // workload's commands wait on: the server's core, and where every set
    // is synced to a journal, in equal parts the disk. A set-up was scaled
    // by the readings around it. Layer numbers stay as measured.
    let ops = closed.completed.max(1) as f64;
    let (kernel_ns, sync_ns) = (stats::median(&mut paces), stats::median(&mut sync_paces));
    let pace = slowdown((kernel_ns, sync_ns));
    let server_cpu_ns_per_op = stats::median(&mut cpu_ns_per_op);
    let lat_p50_us = across(|s| s.lat_p50_us);
    outcome.raw = [
        ("setup_s", stats::median(&mut setups_raw)),
        ("ops_s", stats::median(&mut ops_s)),
        ("server_cpu_ns_per_op", server_cpu_ns_per_op),
        ("lat_p50_us", lat_p50_us),
    ];
    let v = &mut outcome.values;
    v.insert("client.host_slowdown", kernel_ns / speed::NOMINAL_NS);
    v.insert(
        "client.disk_slowdown",
        if spec.durable() {
            sync_ns / speed::NOMINAL_SYNC_NS
        } else {
            0.0
        },
    );
    v.insert("setup_s", setup_s);
    v.insert("ops_s", outcome.raw[1].1 * pace);
    v.insert("server_cpu_ns_per_op", server_cpu_ns_per_op / pace);
    v.insert("server.cpu_ns_per_op", server_cpu_ns_per_op);
    v.insert("lat_p50_us", lat_p50_us / pace);
    v.insert("hit_ratio", 1.0 - closed.miss_ratio());
    v.insert("cost_hit_ratio", 1.0 - closed.cost_miss_ratio());
    v.insert("client.miss_ratio", closed.miss_ratio());
    v.insert("client.cost_miss_ratio", closed.cost_miss_ratio());
    v.insert("rss_mb", usage_end.peak_rss_kb as f64 / 1024.0);
    v.insert("client.lat_p99_us", across(|s| s.lat_p99_us));
    v.insert("client.write_p99_us", across(|s| s.write_p99_us));
    v.insert("client.send_lag_p90_us", across(|s| s.send_lag_p90_us));
    let send_lag_p99_us = across(|s| s.send_lag_p99_us);
    v.insert("client.send_lag_p99_us", send_lag_p99_us);
    v.insert("client.backlog_max", across(|s| s.backlog_max));
    v.insert("client.cpu_ns_per_op", closed.busy.as_nanos() as f64 / ops);

    // Live layer counters, summed over the closed slices.
    let delta = |name: &str| -> f64 {
        scrapes
            .iter()
            .map(|(before, after)| after.num(name) - before.num(name))
            .sum()
    };
    let field_delta = |name: &str, field: &str| -> f64 {
        scrapes
            .iter()
            .map(|(before, after)| after.field(name, field) - before.field(name, field))
            .sum()
    };
    let usage_delta = |of: fn(&Usage) -> u64| -> f64 {
        usages
            .iter()
            .map(|(before, after)| (of(after) - of(before)) as f64)
            .sum()
    };
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let sets = delta("cmd_set");
    let wakeups = field_delta("reactor:worker0", "wakeups");
    let p99 = |a: &str, b: &str| stats_after.num(a).max(stats_after.num(b));
    v.insert(
        "policy.heap_updates_per_kop",
        per(delta("policy:0:heap_updates"), ops) * 1e3,
    );
    v.insert(
        "policy.heap_visits_per_kop",
        per(delta("policy:0:heap_visits"), ops) * 1e3,
    );
    v.insert(
        "policy.queue_count",
        stats_after.num("policy:0:queue_count"),
    );
    v.insert(
        "store.evictions_per_set",
        per(delta("evictions") + delta("slab_evictions"), sets),
    );
    v.insert(
        "store.mem_util",
        stats_after.num("bytes") / (spec.memory_mb << 20) as f64,
    );
    v.insert("slab.reassignments", delta("slab_reassignments"));
    v.insert(
        "server.handler_get_p99_us",
        p99("latency:get:p99_us", "latency:iqget:p99_us"),
    );
    v.insert(
        "server.handler_set_p99_us",
        p99("latency:set:p99_us", "latency:iqset:p99_us"),
    );
    v.insert("net.ops_per_wakeup", per(ops, wakeups));
    v.insert(
        "net.events_per_wakeup",
        per(field_delta("reactor:worker0", "events"), wakeups),
    );
    v.insert(
        "net.flush_segments_p50",
        stats_after.num("reactor:flush_segments:p50"),
    );
    v.insert(
        "net.ctxsw_per_kop",
        per(usage_delta(|u| u.ctx_switches), ops) * 1e3,
    );
    v.insert(
        "net.sys_cpu_share",
        per(
            usage_delta(|u| u.stime_ticks),
            usage_delta(|u| u.utime_ticks + u.stime_ticks),
        ),
    );
    v.insert("persist.fsyncs_per_set", per(delta("persist:fsyncs"), sets));
    v.insert(
        "persist.bytes_per_record",
        per(delta("persist:bytes"), delta("persist:records")),
    );
    v.insert("persist.snapshots", stats_end.num("persist:snapshots"));
    v.insert(
        "telemetry.spans_per_op",
        per(delta("trace:spans_recorded"), ops),
    );
    v.insert(
        "client.write_amp",
        per(delta("persist:bytes"), closed.write_payload_bytes as f64),
    );

    // durable-set: SIGKILL, restart on the same directory, and every
    // acknowledged write must read back.
    let Rig {
        server,
        mut client,
        control,
        data_dir,
        ..
    } = rig;
    drop(control);
    let mut recovered_journal = None;
    if let Some(dir) = &data_dir {
        server.kill();
        let journal_bytes = proc::dir_bytes(dir)?;
        let server = Server::spawn(spec, &out, Some(dir))?;
        v.insert(
            "client.recovery_mb_s",
            journal_bytes as f64 / 1e6 / server.ready_after.as_secs_f64(),
        );
        let read_back = client.read_back(server.addr)?;
        phases.absorb_counts(&read_back);
        server.kill();
        recovered_journal = Some(dir.as_path());
    } else {
        server.kill();
    }
    drop(client);

    outcome.attempted += phases.attempted;
    outcome.failed += phases.failed;
    if let Some(error) = phases.first_error {
        outcome.problems.push(error);
    }
    let v = &mut outcome.values;
    v.insert(
        "client.error_frac",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
    );
    // A 99th percentile of send lag that reaches the median latency
    // leaves `lat_p50_us` alone but not `client.lat_p99_us`.
    if send_lag_p99_us >= lat_p50_us {
        outcome.warnings.push(format!(
            "send lag p99 {send_lag_p99_us:.1} us >= lat_p50 {lat_p50_us:.1} us: client.lat_p99_us is the generator's"
        ));
    }

    if trace {
        let ledger = ledger::run(
            spec,
            seed,
            LEDGER_REQUESTS,
            &out,
            recovered_journal,
            stats_after.num("bytes") as u64,
        )?;
        fs::write(
            out.join(format!("{}.spans.jsonl", spec.name)),
            ledger.spans_jsonl(),
        )?;
        outcome.values.extend(ledger.metrics);
        let v = &mut outcome.values;
        let residual = server_cpu_ns_per_op - v["ledger.sum_ns_per_op"];
        v.insert("net.residual_ns_per_op", residual);
        // Reconciliation: the layers cannot cost more than the whole.
        if residual < -0.05 * server_cpu_ns_per_op {
            outcome.problems.push(format!(
                "ledger does not reconcile: layers sum to {:.0} ns/op, server CPU is {server_cpu_ns_per_op:.0}",
                v["ledger.sum_ns_per_op"]
            ));
        }
        let (server_cmr, sim_cmr) = (v["client.cost_miss_ratio"], v["sim.cost_miss_ratio"]);
        if matches!(spec.kind, Kind::Bg { .. }) && (server_cmr - sim_cmr).abs() > 0.05 {
            outcome.problems.push(format!(
                "server cost-miss ratio {server_cmr:.4} vs simulator {sim_cmr:.4}"
            ));
        }
    }
    if let Some(dir) = &data_dir {
        fs::remove_dir_all(dir)?;
    }
    Ok(outcome)
}

fn print_table(title: &str, names: &[(&str, &str)], columns: &[(&str, Outcome)]) {
    println!("\n{title}");
    print!("{:<32} {:<7}", "metric", "unit");
    for (name, _) in columns {
        print!(" {name:>14}");
    }
    println!();
    for &(metric, unit) in names {
        print!("{metric:<32} {unit:<7}");
        for (_, outcome) in columns {
            match outcome.values.get(metric) {
                Some(value) => print!(" {value:>14.4}"),
                None => print!(" {:>14}", "-"),
            }
        }
        println!();
    }
}

fn report_notes(spec: &Spec, outcome: &Outcome) {
    for problem in &outcome.problems {
        eprintln!("{}: FAILED: {problem}", spec.name);
    }
    for warning in &outcome.warnings {
        eprintln!("{}: warning: {warning}", spec.name);
    }
}

/// `run`: every metric of the chosen workloads from one command.
fn run(specs: &[&'static Spec], seed: u64, seconds: u64) -> io::Result<bool> {
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for spec in specs {
        eprintln!("{}: untraced run (seed {seed}, {seconds} s)", spec.name);
        let outcome = measure(spec, seed, seconds, false)?;
        report_notes(spec, &outcome);
        eprintln!("{}: traced run", spec.name);
        let layers = measure(spec, seed, seconds, true)?;
        report_notes(spec, &layers);
        untraced.push((spec.name, outcome));
        traced.push((spec.name, layers));
    }
    let pinned = untraced.iter().all(|(_, o)| o.pinned);
    println!("nproc: {}  pinned: {pinned}  seed: {seed}", proc::nproc());
    print_table(
        "end to end (untraced run; medians over 1 s slices, times at the nominal pace)",
        &[&END_TO_END[..], &DEMOTED[..]].concat(),
        &untraced,
    );
    for (name, outcome) in &untraced {
        let as_measured: Vec<String> = outcome
            .raw
            .iter()
            .map(|(metric, value)| format!("{metric} {value:.4}"))
            .collect();
        println!(
            "{name}: as measured: {}; lat_* from {} reads over {} of {} open slices; attempted {} failed {}",
            as_measured.join(", "),
            outcome.samples,
            outcome.slices.0,
            outcome.slices.1,
            outcome.attempted,
            outcome.failed
        );
    }
    print_table("per layer (traced run)", &PER_LAYER, &traced);

    let mut ok = untraced.iter().chain(&traced).all(|(_, o)| o.correct());
    // Fig 9a: at equal memory CAMP must beat LRU on the paper's metric.
    let cmr = |name: &str| {
        untraced
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, o)| o.get("client.cost_miss_ratio"))
    };
    if let (Some(camp), Some(lru)) = (cmr("bg-evict-camp"), cmr("bg-evict-lru")) {
        if camp >= lru {
            eprintln!("FAILED: cost-miss ratio camp {camp:.4} >= lru {lru:.4} (Fig 9a ordering)");
            ok = false;
        }
    }
    Ok(ok)
}

/// `agree`: the full untraced set twice on one build; every end-to-end
/// metric must repeat within its bound.
fn agree(seed: u64, seconds: u64, bounds: &BTreeMap<String, f64>) -> io::Result<bool> {
    let mut sets = Vec::new();
    for round in 1..=2 {
        let mut set = Vec::new();
        for spec in &SPECS {
            eprintln!("agree: set {round}, {}", spec.name);
            let outcome = measure(spec, seed, seconds, false)?;
            report_notes(spec, &outcome);
            set.push(outcome);
        }
        sets.push(set);
    }
    let mut ok = true;
    println!(
        "{:<16} {:<22} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "first", "second", "gap", "bound"
    );
    for (index, spec) in SPECS.iter().enumerate() {
        let (first, second) = (&sets[0][index], &sets[1][index]);
        ok &= first.correct() && second.correct();
        for (metric, _) in END_TO_END {
            let (a, b) = (first.get(metric), second.get(metric));
            let gap = (a - b).abs() / a.abs().max(f64::MIN_POSITIVE);
            let bound = bounds.get(metric).copied().unwrap_or(0.0);
            let verdict = if gap <= bound { "" } else { "  OVER" };
            ok &= gap <= bound;
            println!(
                "{:<16} {metric:<22} {a:>14.4} {b:>14.4} {gap:>8.4} {bound:>7.2}{verdict}",
                spec.name
            );
        }
        for metric in ["client.miss_ratio", "client.cost_miss_ratio"] {
            let (a, b) = (first.get(metric), second.get(metric));
            let verdict = if (a - b).abs() <= 0.01 { "" } else { "  OVER" };
            ok &= (a - b).abs() <= 0.01;
            println!(
                "{:<16} {metric:<22} {a:>14.4} {b:>14.4} {:>8.4} {:>7}{verdict}",
                spec.name,
                (a - b).abs(),
                "0.01abs"
            );
        }
    }
    Ok(ok)
}

/// The `bound` of each end-to-end metric in `BENCHMARK.json`, found
/// without a JSON parser: each metric is one `{"name": ..., "bound": N}`
/// object on one line.
fn read_bounds(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter_map(|line| {
            let name = line.split("\"name\": \"").nth(1)?.split('"').next()?;
            let bound = line.split("\"bound\": ").nth(1)?;
            let bound = bound.trim_end_matches([' ', ',', '}']).parse().ok()?;
            Some((name.to_owned(), bound))
        })
        .collect()
}

struct Args {
    command: String,
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    quick: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: String::new(),
        workload: None,
        all: false,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{what} requires a value"))
                .cloned()
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => args.seed = value("--seed")?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                let seconds: u64 = value("--seconds")?.parse().map_err(|_| "bad --seconds")?;
                if !(2..=120).contains(&seconds) {
                    return Err("--seconds must be 2..=120".to_owned());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            "--all" => args.all = true,
            "--quick" => args.quick = true,
            "run" | "ledger" | "agree" if args.command.is_empty() => args.command = arg.clone(),
            name if !name.starts_with('-') && args.workload.is_none() => {
                args.workload = Some(name.to_owned());
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(args)
}

fn usage() -> &'static str {
    "usage: campbench --workload NAME --seed N --seconds S --trace 0|1\n\
     \x20      campbench run [--all | NAME] [--seed N] [--quick]\n\
     \x20      campbench ledger NAME [--seed N]\n\
     \x20      campbench agree [--seed N]\n\
     workloads: bg-evict-camp bg-evict-lru hot-get-p1 durable-set"
}

fn main_inner(argv: &[String]) -> Result<bool, String> {
    let args = parse_args(argv)?;
    let benchmark_json = fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repo root): {e}"))?;
    let run_seconds = benchmark_json
        .split("\"run_seconds\": ")
        .nth(1)
        .and_then(|rest| rest.split([',', '\n']).next())
        .and_then(|n| n.trim().parse::<u64>().ok())
        .ok_or("BENCHMARK.json has no run_seconds")?;
    let seconds = if args.quick {
        4
    } else {
        args.seconds.unwrap_or(run_seconds)
    };
    let named = || -> Result<&'static Spec, String> {
        let name = args.workload.as_deref().ok_or("no workload named")?;
        spec::find(name).ok_or_else(|| format!("unknown workload `{name}`"))
    };
    let io_err = |e: io::Error| format!("run failed: {e}");
    match args.command.as_str() {
        // The pipeline's form: one workload, one result line.
        "" => {
            let spec = named()?;
            let outcome = measure(spec, args.seed, seconds, args.trace).map_err(io_err)?;
            report_notes(spec, &outcome);
            let line = if args.trace {
                outcome.json(&[&PER_LAYER[..], &DEMOTED[..]].concat())
            } else {
                outcome.json(&END_TO_END)
            };
            println!("{line}");
            Ok(true)
        }
        "run" => {
            let specs: Vec<&'static Spec> = if args.all || args.workload.is_none() {
                SPECS.iter().collect()
            } else {
                vec![named()?]
            };
            run(&specs, args.seed, seconds).map_err(io_err)
        }
        "ledger" => {
            let spec = named()?;
            let outcome = measure(spec, args.seed, seconds, true).map_err(io_err)?;
            report_notes(spec, &outcome);
            let correct = outcome.correct();
            print_table(
                "per layer (traced run)",
                &[&PER_LAYER[..], &DEMOTED[..]].concat(),
                &[(spec.name, outcome)],
            );
            println!("spans: {OUT_DIR}/{}.spans.jsonl", spec.name);
            Ok(correct)
        }
        "agree" => agree(args.seed, seconds, &read_bounds(&benchmark_json)).map_err(io_err),
        _ => unreachable!("parse_args admits three commands"),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("speedometer") {
        // The helper `speed::Speedometer` spawns; not a user command.
        return match speed::helper_main(argv.get(1).map(Path::new)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(_) => ExitCode::FAILURE,
        };
    }
    if argv.is_empty() || argv.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    }
    match main_inner(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("campbench: {message}\n{}", usage());
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn benchmark_json_lists_what_the_binary_prints() {
        for (name, unit) in END_TO_END {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
            assert!(BENCHMARK_JSON.contains(&entry), "{entry}");
        }
        for (name, unit) in PER_LAYER.iter().chain(&DEMOTED) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
            assert!(BENCHMARK_JSON.contains(&entry), "{entry}");
        }
        for spec in &SPECS {
            assert!(BENCHMARK_JSON.contains(&format!("{{\"name\": \"{}\", \"why\": ", spec.name)));
        }
        let metrics = BENCHMARK_JSON.matches("\"better\": ").count();
        assert_eq!(metrics, END_TO_END.len() + PER_LAYER.len() + DEMOTED.len());
    }

    #[test]
    fn bounds_are_read_per_metric() {
        let bounds = read_bounds(BENCHMARK_JSON);
        assert_eq!(bounds.len(), END_TO_END.len());
        assert!(bounds.values().all(|&b| b > 0.0 && b <= 0.25));
        assert!(bounds["setup_s"] >= bounds["ops_s"]);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut outcome = Outcome::default();
        outcome.values.insert("ops_s", 1234.5);
        outcome.values.insert("setup_s", f64::NAN);
        let line = outcome.json(&[("ops_s", "ops/s"), ("setup_s", "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"ops_s\": {\"value\": 1234.5, \"unit\": \"ops/s\"}, \
             \"setup_s\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
        outcome.failed = 2;
        assert!(outcome.json(&[]).starts_with("{\"correct\": false"));
    }

    #[test]
    fn a_late_generator_or_a_lasting_backlog_voids_a_slice() {
        let kept = OpenSlice {
            reads: 12_000,
            lat_p50_us: 35.0,
            lat_p99_us: 900.0,
            write_p99_us: 300.0,
            send_lag_p90_us: 0.3,
            // A stalled vCPU: the tail is the host's, the median stands,
            // and the backlog it left was gone by the end.
            send_lag_p99_us: 400.0,
            backlog_max: 900.0,
            backlog_end: 600.0,
        };
        assert!(kept.valid(12_000));
        let late = OpenSlice {
            send_lag_p90_us: 35.0,
            ..kept
        };
        assert!(!late.valid(12_000));
        let behind = OpenSlice {
            backlog_end: 601.0,
            ..kept
        };
        assert!(!behind.valid(12_000));
        // Forty outstanding are a tenth of a second of durable-set's rate.
        assert!(!OpenSlice {
            backlog_end: 40.0,
            ..kept
        }
        .valid(400));
    }

    #[test]
    fn pipeline_arguments_parse() {
        let argv: Vec<String> = "--workload hot-get-p1 --seed 9 --seconds 20 --trace 1"
            .split(' ')
            .map(str::to_owned)
            .collect();
        let args = parse_args(&argv).unwrap();
        assert_eq!(args.workload.as_deref(), Some("hot-get-p1"));
        assert_eq!((args.seed, args.seconds, args.trace), (9, Some(20), true));
        assert!(args.command.is_empty());
        let argv: Vec<String> = ["run", "--all", "--quick"].map(str::to_owned).to_vec();
        let args = parse_args(&argv).unwrap();
        assert!(args.all && args.quick && args.command == "run");
        assert!(parse_args(&["--trace".to_owned(), "2".to_owned()]).is_err());
        assert!(parse_args(&["--bogus".to_owned()]).is_err());
    }
}
