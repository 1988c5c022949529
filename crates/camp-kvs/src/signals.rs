//! Minimal, dependency-free POSIX signal handling for the daemon's
//! graceful-drain lifecycle.
//!
//! `camp-kvsd` must react to `SIGTERM`/`SIGINT` by draining connections
//! instead of dying mid-request, but the repo builds offline with no
//! external crates (`signal_hook`, `libc`, ...). This module implements
//! the classic *self-pipe trick* directly against the C runtime that
//! `std` already links: a one-byte pipe write from an async-signal-safe
//! handler wakes a blocked [`SignalWatcher::wait`] instantly.
//!
//! The handler body is restricted to async-signal-safe work: two atomic
//! stores and one `write(2)` on the pipe's write end. Everything else
//! (logging, draining, joining threads) happens on the thread that called
//! [`SignalWatcher::wait`].
//!
//! This is one of the three modules in the crate allowed to use `unsafe`
//! (the crate root names them): it only declares and calls four libc
//! entry points (`signal`, `pipe`, `write`, `read`) that `std` itself
//! links on every supported platform.
#![allow(unsafe_code)]

use std::io;
use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};

/// `SIGINT` — interactive interrupt (Ctrl-C).
const SIGINT: i32 = 2;
/// `SIGTERM` — polite termination request (what `kill` sends by default).
const SIGTERM: i32 = 15;
/// glibc's `SIG_ERR` return from `signal(2)`.
const SIG_ERR: usize = usize::MAX;

/// Write end of the self-pipe (−1 until [`SignalWatcher::install`] runs).
static WRITE_FD: AtomicI32 = AtomicI32::new(-1);
/// Latched as soon as any handled signal arrives.
static NOTIFIED: AtomicBool = AtomicBool::new(false);
/// The last signal number delivered (0 = none yet).
static LAST_SIGNAL: AtomicI32 = AtomicI32::new(0);
/// Guards against double installation (the pipe and dispositions are
/// process-global).
static INSTALLED: AtomicBool = AtomicBool::new(false);

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
    fn pipe(fds: *mut i32) -> i32;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
}

/// The signal handler: async-signal-safe only (atomic stores + `write`).
extern "C" fn on_signal(signum: i32) {
    // ordering: SeqCst(x3) — async-signal context: simplest-possible
    // reasoning beats micro-optimizing a once-per-process-lifetime path.
    LAST_SIGNAL.store(signum, Ordering::SeqCst);
    NOTIFIED.store(true, Ordering::SeqCst);
    let fd = WRITE_FD.load(Ordering::SeqCst);
    if fd >= 0 {
        let byte = [signum as u8];
        // A full pipe (64 KiB of pending signals) would block here, which
        // cannot happen: the watcher drains one byte per delivery.
        unsafe {
            let _ = write(fd, byte.as_ptr(), 1);
        }
    }
}

/// A shutdown-triggering signal the watcher resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Signal {
    /// `SIGTERM`.
    Term,
    /// `SIGINT`.
    Int,
}

impl std::fmt::Display for Signal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Signal::Term => "SIGTERM",
            Signal::Int => "SIGINT",
        })
    }
}

/// Whether a handled signal has arrived since installation. Safe to poll
/// from any thread; latches true.
#[must_use]
pub fn notified() -> bool {
    // ordering: SeqCst — pairs with the handler's store; see `on_signal`.
    NOTIFIED.load(Ordering::SeqCst)
}

/// The installed `SIGTERM`/`SIGINT` watcher; blocks on the self-pipe's
/// read end until a signal arrives.
///
/// # Examples
///
/// ```no_run
/// use camp_kvs::signals::SignalWatcher;
///
/// let watcher = SignalWatcher::install()?;
/// let signal = watcher.wait(); // blocks until SIGTERM or SIGINT
/// eprintln!("caught {signal}, draining...");
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct SignalWatcher {
    read_fd: i32,
}

impl SignalWatcher {
    /// Creates the self-pipe and installs handlers for `SIGTERM` and
    /// `SIGINT`. May be called once per process.
    ///
    /// # Errors
    ///
    /// Returns an error if already installed, or if the pipe or either
    /// handler cannot be set up.
    pub fn install() -> io::Result<SignalWatcher> {
        // ordering: SeqCst — install/uninstall is once-per-process; the
        // swap is the mutual exclusion and must not reorder with the
        // pipe/handler setup below.
        if INSTALLED.swap(true, Ordering::SeqCst) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "signal watcher already installed",
            ));
        }
        let mut fds = [-1i32; 2];
        if unsafe { pipe(fds.as_mut_ptr()) } != 0 {
            // ordering: SeqCst — see the swap above.
            INSTALLED.store(false, Ordering::SeqCst);
            return Err(io::Error::last_os_error());
        }
        // ordering: SeqCst — publishes the fd to the handler; see `on_signal`.
        WRITE_FD.store(fds[1], Ordering::SeqCst);
        for signum in [SIGTERM, SIGINT] {
            if unsafe { signal(signum, on_signal as *const () as usize) } == SIG_ERR {
                return Err(io::Error::last_os_error());
            }
        }
        Ok(SignalWatcher { read_fd: fds[0] })
    }

    /// Blocks until a handled signal arrives and returns it. Spurious
    /// wakeups (`EINTR`) are retried internally.
    pub fn wait(&self) -> Signal {
        let mut buf = [0u8; 1];
        loop {
            let n = unsafe { read(self.read_fd, buf.as_mut_ptr(), 1) };
            if n == 1 {
                return match i32::from(buf[0]) {
                    SIGINT => Signal::Int,
                    _ => Signal::Term,
                };
            }
            if n == 0 {
                // Write end closed (cannot happen while the statics hold
                // it); fall back to the latched signal number.
                // ordering: SeqCst — pairs with the handler's store.
                return match LAST_SIGNAL.load(Ordering::SeqCst) {
                    SIGINT => Signal::Int,
                    _ => Signal::Term,
                };
            }
            // n < 0: EINTR or similar — retry.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    extern "C" {
        fn raise(signum: i32) -> i32;
    }

    #[test]
    fn install_catch_and_wait() {
        let watcher = SignalWatcher::install().expect("install watcher");
        assert!(!notified());
        // Raising SIGTERM with the handler installed must not kill the
        // test process; the byte lands in the self-pipe.
        assert_eq!(unsafe { raise(SIGTERM) }, 0);
        assert_eq!(watcher.wait(), Signal::Term);
        assert!(notified());
        // A second signal is resolved independently.
        assert_eq!(unsafe { raise(SIGINT) }, 0);
        assert_eq!(watcher.wait(), Signal::Int);
        // Double installation is rejected (the disposition is global).
        assert!(SignalWatcher::install().is_err());
    }
}
