//! The server child process and what can be read about it from outside:
//! its log, `/proc/<pid>` and the `stats detail` command.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::spec::Spec;

/// How long a spawned server may take to log `camp_kvsd_ready`.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// Number of CPUs of the machine. Not `available_parallelism`: that
/// counts this process's affinity mask, which `bench/run.sh` has already
/// narrowed to one core.
pub fn nproc() -> usize {
    fs::read_to_string("/proc/cpuinfo")
        .map(|text| text.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
        .max(1)
}

/// Whether this process was started on the last core alone (as
/// `bench/run.sh` does with `taskset`), leaving core 0 to the server.
pub fn client_pinned() -> bool {
    let cores = nproc();
    cores >= 2
        && fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|text| status_field(&text, "Cpus_allowed_list").map(str::to_owned))
            .is_some_and(|list| list == (cores - 1).to_string())
}

/// Whether the server gets core 0 to itself: a second core for the
/// client, and a `taskset` that works.
pub fn server_pinned() -> bool {
    nproc() >= 2 && taskset_works()
}

fn taskset_works() -> bool {
    Command::new("taskset")
        .args(["-c", "0", "true"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|status| status.success())
}

/// Where `camp-kvsd` was built: next to this executable.
pub fn kvsd_path() -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let path = exe.with_file_name("camp-kvsd");
    if path.is_file() {
        Ok(path)
    } else {
        Err(io::Error::other(format!(
            "{} not found: build it with bench/run.sh",
            path.display()
        )))
    }
}

/// A running `camp-kvsd`. Dropping it kills and reaps the child.
#[derive(Debug)]
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    /// Whether the server runs alone on core 0.
    pub pinned: bool,
    /// Spawn to `camp_kvsd_ready`.
    pub ready_after: Duration,
}

impl Server {
    /// Spawns the real daemon for `spec` (`--workers 1 --shards 1`,
    /// ephemeral port) and waits for its ready line. `data_dir` turns on
    /// `--fsync always` durability there.
    pub fn spawn(spec: &Spec, out_dir: &Path, data_dir: Option<&Path>) -> io::Result<Server> {
        let kvsd = kvsd_path()?;
        let log_path = out_dir.join(format!("{}.kvsd.log", spec.name));
        let log = fs::File::create(&log_path)?;
        let pinned = server_pinned();
        let mut command = if pinned {
            let mut command = Command::new("taskset");
            command.args(["-c", "0"]).arg(&kvsd);
            command
        } else {
            Command::new(&kvsd)
        };
        command
            .args(["--listen", "127.0.0.1:0", "--workers", "1", "--shards", "1"])
            .args(["--policy", spec.policy])
            .args(["--memory-mb", &spec.memory_mb.to_string()])
            .args(["--slab-kb", &spec.slab_kb.to_string()]);
        if let (Some(dir), Some(segment_bytes)) = (data_dir, spec.segment_bytes) {
            command
                .arg("--data-dir")
                .arg(dir)
                .args(["--fsync", "always"])
                .args(["--segment-bytes", &segment_bytes.to_string()]);
        }
        let started = Instant::now();
        let child = command
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()?;
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            pinned,
            ready_after: Duration::ZERO,
        };
        // The log is a file, not a pipe, so the daemon can never block on
        // a reader; poll it for the ready line.
        loop {
            let text = fs::read_to_string(&log_path)?;
            if let Some(addr) = ready_addr(&text) {
                server.addr = addr;
                server.ready_after = started.elapsed();
                return Ok(server);
            }
            if let Some(status) = server.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "camp-kvsd exited before ready ({status}): {text}"
                )));
            }
            if started.elapsed() > READY_TIMEOUT {
                return Err(io::Error::other("camp-kvsd not ready in time"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGKILL, then reap.
    pub fn kill(mut self) {
        self.kill_and_reap();
    }

    fn kill_and_reap(&mut self) {
        // Both fail only when the child is already gone and reaped.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// On-CPU nanoseconds of all the server's threads so far
    /// (`/proc/<pid>/task/*/schedstat`): finer than the clock ticks of
    /// `stat`, and reading it costs the server nothing.
    pub fn cpu_ns(&self) -> io::Result<u64> {
        let mut total = 0;
        for task in fs::read_dir(format!("/proc/{}/task", self.pid()))? {
            let text = fs::read_to_string(task?.path().join("schedstat"))?;
            total += text
                .split_whitespace()
                .next()
                .and_then(|ns| ns.parse::<u64>().ok())
                .ok_or_else(|| io::Error::other("unparsable schedstat"))?;
        }
        Ok(total)
    }

    /// CPU time, context switches and peak memory so far.
    pub fn usage(&self) -> io::Result<Usage> {
        let pid = self.pid();
        let stat = fs::read_to_string(format!("/proc/{pid}/stat"))?;
        let (utime_ticks, stime_ticks) =
            parse_stat_cpu(&stat).ok_or_else(|| io::Error::other("unparsable /proc stat"))?;
        let status = fs::read_to_string(format!("/proc/{pid}/status"))?;
        let mut ctx_switches = 0;
        // Context switches are per task; the reactor worker is not the
        // main thread.
        for task in fs::read_dir(format!("/proc/{pid}/task"))? {
            let text = fs::read_to_string(task?.path().join("status"))?;
            for field in ["voluntary_ctxt_switches", "nonvoluntary_ctxt_switches"] {
                ctx_switches += status_field(&text, field)
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0);
            }
        }
        Ok(Usage {
            utime_ticks,
            stime_ticks,
            ctx_switches,
            peak_rss_kb: status_field(&status, "VmHWM")
                .and_then(|v| v.trim_end_matches(" kB").parse().ok())
                .unwrap_or(0),
        })
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill_and_reap();
    }
}

/// One reading of `/proc/<pid>`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Usage {
    pub utime_ticks: u64,
    pub stime_ticks: u64,
    pub ctx_switches: u64,
    pub peak_rss_kb: u64,
}

/// The address in the daemon's `event=camp_kvsd_ready addr=...` line.
pub fn ready_addr(log: &str) -> Option<SocketAddr> {
    log.lines()
        .find(|line| line.contains("event=camp_kvsd_ready"))?
        .split_whitespace()
        .find_map(|token| token.strip_prefix("addr="))?
        .parse()
        .ok()
}

/// `(utime, stime)` in clock ticks from `/proc/<pid>/stat`. The command
/// name may itself contain spaces and parentheses, so fields are counted
/// from the last `)`.
pub fn parse_stat_cpu(stat: &str) -> Option<(u64, u64)> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state); utime and stime are 14, 15.
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime = fields.next()?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// The value of `name:` in a `/proc/<pid>/status` text.
pub fn status_field<'a>(status: &'a str, name: &str) -> Option<&'a str> {
    status.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        (key == name).then(|| value.trim())
    })
}

/// A parsed `stats detail` reply.
#[derive(Debug, Clone, Default)]
pub struct Stats(BTreeMap<String, String>);

impl Stats {
    /// Keeps the `STAT <name> <value...>` lines of a stats reply.
    pub fn parse(reply: &str) -> Stats {
        Stats(
            reply
                .lines()
                .filter_map(|line| line.trim_end().strip_prefix("STAT "))
                .filter_map(|rest| rest.split_once(' '))
                .map(|(name, value)| (name.to_owned(), value.to_owned()))
                .collect(),
        )
    }

    /// A numeric stat; 0 when absent (e.g. `persist:*` without a data
    /// dir, heap counters under LRU).
    pub fn num(&self, name: &str) -> f64 {
        self.0.get(name).and_then(|v| v.parse().ok()).unwrap_or(0.0)
    }

    /// `field=<n>` inside a compound stat such as `reactor:worker0`.
    pub fn field(&self, name: &str, field: &str) -> f64 {
        self.0
            .get(name)
            .and_then(|value| {
                value
                    .split_whitespace()
                    .find_map(|token| token.strip_prefix(field)?.strip_prefix('='))
            })
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    }
}

/// The idle control connection: `stats` commands only, and only between
/// phases.
#[derive(Debug)]
pub struct Control {
    stream: TcpStream,
}

impl Control {
    pub fn connect(addr: SocketAddr) -> io::Result<Control> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Control { stream })
    }

    fn round_trip(&mut self, command: &str, terminator: &str) -> io::Result<String> {
        self.stream.write_all(command.as_bytes())?;
        let mut reply = Vec::new();
        let mut chunk = [0u8; 16 * 1024];
        while !reply.ends_with(terminator.as_bytes()) {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            reply.extend_from_slice(&chunk[..n]);
        }
        String::from_utf8(reply).map_err(io::Error::other)
    }

    pub fn stats_detail(&mut self) -> io::Result<Stats> {
        Ok(Stats::parse(
            &self.round_trip("stats detail\r\n", "END\r\n")?,
        ))
    }

    /// Zeroes the server's counters and latency histograms.
    pub fn stats_reset(&mut self) -> io::Result<()> {
        self.round_trip("stats reset\r\n", "RESET\r\n").map(drop)
    }
}

/// Total bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ready_line_yields_the_bound_address() {
        let log = "mono_ms=0 ts=1 level=info event=persist_recovered segments=0\n\
                   mono_ms=1 ts=1 level=info event=server_started addr=127.0.0.1:1 shards=1\n\
                   mono_ms=1 ts=1 level=info event=camp_kvsd_ready addr=127.0.0.1:38035 memory_mb=8\n";
        assert_eq!(
            ready_addr(log),
            Some(SocketAddr::from(([127, 0, 0, 1], 38035)))
        );
        assert_eq!(ready_addr("event=server_started addr=127.0.0.1:1"), None);
    }

    #[test]
    fn stat_cpu_survives_hostile_command_names() {
        let stat = "1234 (camp) kvsd) x) S 1 1234 1234 0 -1 4194560 500 0 0 0 \
                    731 269 0 0 20 0 3 0 100 1000000 250 18446744073709551615";
        assert_eq!(parse_stat_cpu(stat), Some((731, 269)));
        assert_eq!(parse_stat_cpu("1 (x) S 1"), None);
        assert_eq!(parse_stat_cpu("garbage"), None);
    }

    #[test]
    fn status_fields_are_found_by_exact_name() {
        let status = "Name:\tcamp-kvsd\nVmHWM:\t   41234 kB\nCpus_allowed_list:\t1\n\
                      voluntary_ctxt_switches:\t17\nnonvoluntary_ctxt_switches:\t4\n";
        assert_eq!(status_field(status, "VmHWM"), Some("41234 kB"));
        assert_eq!(status_field(status, "Cpus_allowed_list"), Some("1"));
        assert_eq!(status_field(status, "voluntary_ctxt_switches"), Some("17"));
        assert_eq!(status_field(status, "ctxt_switches"), None);
    }

    #[test]
    fn stats_detail_parses_plain_and_compound_values() {
        let stats = Stats::parse(
            "STAT policy camp(p=5)\r\nSTAT evictions 1234\r\n\
             STAT latency:get:p99_us 17\r\n\
             STAT reactor:worker0 live=1 wakeups=300 timer_fires=0 accepts=1 events=450\r\n\
             STAT trace:slow_threshold_us disabled\r\nEND\r\n",
        );
        assert_eq!(stats.num("evictions"), 1234.0);
        assert_eq!(stats.num("latency:get:p99_us"), 17.0);
        assert_eq!(stats.field("reactor:worker0", "wakeups"), 300.0);
        assert_eq!(stats.field("reactor:worker0", "events"), 450.0);
        assert_eq!(stats.field("reactor:worker0", "missing"), 0.0);
        assert_eq!(stats.num("persist:fsyncs"), 0.0);
        assert_eq!(stats.num("trace:slow_threshold_us"), 0.0);
    }
}
