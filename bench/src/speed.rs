//! A yardstick for how fast the host is letting the server's core run.
//!
//! Memory-bound code on a vCPU of this sandbox changes speed by tens of
//! percent for seconds to minutes at a time, each core on its own (a
//! cache-resident loop and an arithmetic one stay within 2 %), and the
//! server follows: ten runs of one build read `ops_s` 245k to 516k. As
//! measured, every time-based metric spreads wider than the largest
//! bound the pipeline allows. A helper process, pinned to the server's
//! core, therefore times a fixed memory-walking kernel around the
//! set-ups and between the slices of a run, never during either, and
//! each time-based end-to-end number is scaled by one factor: the median
//! kernel time beside it over [`NOMINAL_NS`]. The virtual disk drifts too (a bare append+fsync loop
//! reads 2 000 to 3 500 syncs a second within one minute), so for the
//! durable workload the helper also times a few synced appends, against
//! [`NOMINAL_SYNC_NS`]. The two ratios are reported as
//! `client.host_slowdown` and `client.disk_slowdown`.

use std::fs::OpenOptions;
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// The unit the kernel's time is expressed in: what one pass took on the
/// box that introduced the benchmark. It fixes the scale of the reported
/// numbers and nothing else: a comparison of two runs divides it out.
pub const NOMINAL_NS: f64 = 6_000_000.0;

/// Likewise for one probe of [`SYNCS`] synced appends.
pub const NOMINAL_SYNC_NS: f64 = 6_400_000.0;

/// Appends per disk probe, each the size of a durable-set journal record.
const SYNCS: usize = 16;
const RECORD: [u8; 560] = [0xCA; 560];

const TABLE_WORDS: usize = 4 << 20;
const STEPS: usize = 500_000;

/// One pass: random read-modify-writes over a 32 MiB table, mostly cache
/// misses, like the store's index and slab accesses.
fn pass(table: &mut [u64], state: &mut u64) -> u64 {
    let mut sum = 0u64;
    for _ in 0..STEPS {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        let index = (*state as usize) % table.len();
        sum = sum.wrapping_add(table[index]);
        table[index] = sum;
    }
    sum
}

/// The helper's main loop (`campbench speedometer [PROBE_FILE]`): for
/// each line on stdin, run two passes and print the nanoseconds the
/// second took (the first brings the core out of whatever idle state the
/// gap left it in), then the nanoseconds [`SYNCS`] synced appends to
/// `PROBE_FILE` took (0 without one).
pub fn helper_main(probe: Option<&Path>) -> io::Result<()> {
    let mut probe = probe
        .map(|path| OpenOptions::new().create(true).append(true).open(path))
        .transpose()?;
    let mut table: Vec<u64> = (0..TABLE_WORDS as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let mut state = 88_172_645_463_325_252u64;
    let mut out = io::stdout();
    for line in io::stdin().lines() {
        line?;
        std::hint::black_box(pass(&mut table, &mut state));
        let started = Instant::now();
        std::hint::black_box(pass(&mut table, &mut state));
        let kernel_ns = started.elapsed().as_nanos();
        let started = Instant::now();
        if let Some(file) = probe.as_mut() {
            for _ in 0..SYNCS {
                file.write_all(&RECORD)?;
                file.sync_data()?;
            }
            file.set_len(0)?;
        }
        writeln!(out, "{kernel_ns} {}", started.elapsed().as_nanos())?;
        out.flush()?;
    }
    Ok(())
}

/// The helper process. Dropping it kills and reaps the child.
#[derive(Debug)]
pub struct Speedometer {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Speedometer {
    /// Starts the helper, on core 0 beside the server when `pinned`.
    /// With `probe`, it also times synced appends to that file.
    pub fn spawn(pinned: bool, probe: Option<&Path>) -> io::Result<Speedometer> {
        let exe = std::env::current_exe()?;
        let mut command = if pinned {
            let mut command = Command::new("taskset");
            command.args(["-c", "0"]).arg(exe);
            command
        } else {
            Command::new(exe)
        };
        let mut child = command
            .arg("speedometer")
            .args(probe)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let pipes = child.stdin.take().zip(child.stdout.take());
        let Some((stdin, stdout)) = pipes else {
            // Unreachable with both pipes requested; reap rather than leak.
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other("speedometer pipes missing"));
        };
        Ok(Speedometer {
            child,
            stdin,
            stdout: BufReader::new(stdout),
        })
    }

    /// Nanoseconds one kernel pass, and one disk probe (0 without a probe
    /// file), take right now.
    pub fn sample(&mut self) -> io::Result<(f64, f64)> {
        let line = self.round_trip()?;
        let mut fields = line.split_whitespace().map(str::parse::<f64>);
        match (fields.next(), fields.next()) {
            (Some(Ok(kernel_ns)), Some(Ok(sync_ns))) => Ok((kernel_ns, sync_ns)),
            _ => Err(io::Error::other(format!("speedometer said {line:?}"))),
        }
    }

    fn round_trip(&mut self) -> io::Result<String> {
        self.stdin.write_all(b"\n")?;
        self.stdin.flush()?;
        let mut line = String::new();
        self.stdout.read_line(&mut line)?;
        Ok(line)
    }
}

impl Drop for Speedometer {
    fn drop(&mut self) {
        // Both fail only when the child is already gone and reaped.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_is_deterministic_and_touches_the_table() {
        let run = || {
            let mut table: Vec<u64> = (0..1024u64).collect();
            let mut state = 7u64;
            let sum = pass(&mut table, &mut state);
            (sum, state, table)
        };
        let (sum, state, table) = run();
        assert_eq!((sum, state, table.clone()), run());
        assert_ne!(table, (0..1024u64).collect::<Vec<_>>());
        assert_ne!(state, 7);
    }
}
