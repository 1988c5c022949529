//! A minimal, dependency-free `epoll(7)` + socket syscall wrapper: the
//! readiness and accept engine under the reactor.
//!
//! The repo builds offline with no external crates (no `libc`, no `mio`),
//! so this module declares the kernel entry points it needs —
//! `epoll_create1`, `epoll_ctl`, `epoll_wait`, `close`, plus the listener
//! family `socket`/`setsockopt`/`bind`/`listen`/`getsockname`/`accept4` —
//! directly against the C runtime that `std` already links, exactly the
//! way [`crate::signals`] declares its self-pipe syscalls. Everything
//! above this file (the reactor, the connection state machine, the timer
//! heap) is safe code: worker wake-ups ride on `std`'s `UnixStream`
//! pairs, and flushes on `std`'s `TcpStream::write`.
//!
//! This is one of exactly two modules in the workspace allowed to use
//! `unsafe` (the other is `signals.rs`); camp-lint's
//! `unsafe-outside-signals` rule enforces the allowlist path-exactly.
//!
//! The wrappers are deliberately thin: an [`Epoll`] owns the epoll file
//! descriptor, `add`/`modify`/`delete` manage interest, and [`Epoll::wait`]
//! fills a caller-owned event slice. Level-triggered semantics only — the
//! reactor drains sockets to `EAGAIN` on every readiness event, so
//! edge-triggered mode would buy nothing and cost correctness headroom.
//! A [`ReusePortListener`] is a nonblocking `SO_REUSEPORT` listening
//! socket: binding one per worker lets the kernel spread incoming
//! connections across workers with no accept thread, no handoff mutex,
//! and no wake-up write on the accept path.
#![allow(unsafe_code)]

use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, RawFd};

/// `EPOLL_CLOEXEC` for [`epoll_create1`].
const EPOLL_CLOEXEC: i32 = 0o200_0000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

/// Readable interest/readiness (`EPOLLIN`).
pub const EPOLLIN: u32 = 0x001;
/// Writable interest/readiness (`EPOLLOUT`).
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported, never requested).
pub const EPOLLERR: u32 = 0x008;
/// Hang-up (always reported, never requested).
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down its write half (`EPOLLRDHUP`).
pub const EPOLLRDHUP: u32 = 0x2000;

/// The kernel's `struct epoll_event`. On x86-64 the kernel declares it
/// packed (a 12-byte struct with an unaligned `u64`); on other
/// architectures it uses natural alignment — the `cfg_attr` mirrors the
/// kernel's `EPOLL_PACKED` attribute exactly.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Debug, Clone, Copy, Default)]
pub struct EpollEvent {
    /// Readiness bit set (`EPOLLIN | ...`).
    pub events: u32,
    /// The caller's token, returned verbatim with each event.
    pub data: u64,
}

impl EpollEvent {
    /// The readiness bits (copied out of the possibly-packed field).
    #[must_use]
    pub fn readiness(&self) -> u32 {
        self.events
    }

    /// The registration token (copied out of the possibly-packed field).
    #[must_use]
    pub fn token(&self) -> u64 {
        self.data
    }
}

/// `AF_INET` / `AF_INET6` socket domains.
const AF_INET: i32 = 2;
const AF_INET6: i32 = 10;
/// `SOCK_STREAM` plus the flag bits `socket(2)`/`accept4(2)` accept.
const SOCK_STREAM: i32 = 1;
const SOCK_NONBLOCK: i32 = 0o4000;
const SOCK_CLOEXEC: i32 = 0o200_0000;
/// `setsockopt` level/option numbers (Linux generic socket level).
const SOL_SOCKET: i32 = 1;
const SO_REUSEADDR: i32 = 2;
const SO_REUSEPORT: i32 = 15;
/// Listen backlog; the kernel clamps to `somaxconn`.
const LISTEN_BACKLOG: i32 = 1024;
/// Large enough for `sockaddr_in` (16 bytes) and `sockaddr_in6` (28).
const SOCKADDR_BUF: usize = 32;

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn close(fd: i32) -> i32;
    fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
    fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const i32, optlen: u32) -> i32;
    fn bind(fd: i32, addr: *const u8, addrlen: u32) -> i32;
    fn listen(fd: i32, backlog: i32) -> i32;
    fn getsockname(fd: i32, addr: *mut u8, addrlen: *mut u32) -> i32;
    fn accept4(fd: i32, addr: *mut u8, addrlen: *mut u32, flags: i32) -> i32;
}

/// Serializes `addr` into the kernel's `sockaddr_in`/`sockaddr_in6` byte
/// layout (family in host order, port and addresses in network order);
/// returns the encoded length.
fn encode_sockaddr(addr: SocketAddr, buf: &mut [u8; SOCKADDR_BUF]) -> u32 {
    match addr {
        SocketAddr::V4(v4) => {
            buf[0..2].copy_from_slice(&(AF_INET as u16).to_ne_bytes());
            buf[2..4].copy_from_slice(&v4.port().to_be_bytes());
            buf[4..8].copy_from_slice(&v4.ip().octets());
            16
        }
        SocketAddr::V6(v6) => {
            buf[0..2].copy_from_slice(&(AF_INET6 as u16).to_ne_bytes());
            buf[2..4].copy_from_slice(&v6.port().to_be_bytes());
            buf[4..8].copy_from_slice(&v6.flowinfo().to_be_bytes());
            buf[8..24].copy_from_slice(&v6.ip().octets());
            buf[24..28].copy_from_slice(&v6.scope_id().to_ne_bytes());
            28
        }
    }
}

/// Inverse of [`encode_sockaddr`] for `getsockname` results.
fn decode_sockaddr(buf: &[u8; SOCKADDR_BUF]) -> Option<SocketAddr> {
    let family = u16::from_ne_bytes([buf[0], buf[1]]);
    let port = u16::from_be_bytes([buf[2], buf[3]]);
    if family == AF_INET as u16 {
        let octets: [u8; 4] = buf[4..8].try_into().ok()?;
        Some(SocketAddr::from((Ipv4Addr::from(octets), port)))
    } else if family == AF_INET6 as u16 {
        let octets: [u8; 16] = buf[8..24].try_into().ok()?;
        Some(SocketAddr::from((Ipv6Addr::from(octets), port)))
    } else {
        None
    }
}

/// A nonblocking `SO_REUSEPORT` listening socket.
///
/// Several listeners may bind the same address; the kernel hashes each
/// incoming connection to one of them, so a reactor that gives every
/// worker its own listener gets kernel-balanced accept with no shared
/// accept thread. Accepted sockets are born nonblocking and close-on-exec
/// (`accept4` flags), so the hot accept path costs exactly one syscall.
///
/// # Examples
///
/// ```no_run
/// use camp_kvs::net::epoll::ReusePortListener;
///
/// let first = ReusePortListener::bind("127.0.0.1:0".parse().unwrap())?;
/// // Bind a second listener to the same (ephemeral) port.
/// let second = ReusePortListener::bind(first.local_addr())?;
/// assert_eq!(first.local_addr(), second.local_addr());
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct ReusePortListener {
    fd: RawFd,
    local: SocketAddr,
}

impl ReusePortListener {
    /// Creates a nonblocking listener on `addr` with `SO_REUSEADDR` and
    /// `SO_REUSEPORT` set (port 0 binds an ephemeral port — read it back
    /// with [`ReusePortListener::local_addr`] to bind siblings).
    ///
    /// # Errors
    ///
    /// Returns the failing syscall's error (`socket`, `setsockopt`,
    /// `bind`, `listen`, or `getsockname`).
    pub fn bind(addr: SocketAddr) -> io::Result<ReusePortListener> {
        let domain = if addr.is_ipv4() { AF_INET } else { AF_INET6 };
        // SAFETY: socket takes three plain words and returns an fd or -1.
        let fd = unsafe { socket(domain, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // From here on the fd is owned: any early return drops `listener`,
        // whose Drop closes it.
        let mut listener = ReusePortListener { fd, local: addr };
        for option in [SO_REUSEADDR, SO_REUSEPORT] {
            let one: i32 = 1;
            // SAFETY: `one` outlives the call and optlen matches its size.
            let rc = unsafe { setsockopt(fd, SOL_SOCKET, option, &one, 4) };
            if rc != 0 {
                return Err(io::Error::last_os_error());
            }
        }
        let mut encoded = [0u8; SOCKADDR_BUF];
        let len = encode_sockaddr(addr, &mut encoded);
        // SAFETY: `encoded` holds a valid sockaddr of `len` bytes and
        // outlives the call (the kernel copies it).
        if unsafe { bind(fd, encoded.as_ptr(), len) } != 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: listen takes two plain words.
        if unsafe { listen(fd, LISTEN_BACKLOG) } != 0 {
            return Err(io::Error::last_os_error());
        }
        let mut out = [0u8; SOCKADDR_BUF];
        let mut out_len = SOCKADDR_BUF as u32;
        // SAFETY: `out`/`out_len` are valid for writes of the advertised
        // capacity for the duration of the call.
        if unsafe { getsockname(fd, out.as_mut_ptr(), &mut out_len) } != 0 {
            return Err(io::Error::last_os_error());
        }
        listener.local = decode_sockaddr(&out).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "unrecognized sockaddr family")
        })?;
        Ok(listener)
    }

    /// The bound address (with the real port after an ephemeral bind).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Accepts one pending connection, already nonblocking and
    /// close-on-exec. Returns `None` when the accept queue is empty
    /// (`EAGAIN`) or the accept was interrupted/aborted before completing
    /// (`EINTR`/`ECONNABORTED` — level-triggered epoll re-reports anything
    /// still pending).
    ///
    /// # Errors
    ///
    /// Propagates hard `accept4` errors (fd exhaustion, listener closed).
    pub fn accept(&self) -> io::Result<Option<TcpStream>> {
        // SAFETY: null peer-address pointers are allowed (we do not need
        // the peer address); flags only set fd modes on the new socket.
        let fd = unsafe {
            accept4(
                self.fd,
                std::ptr::null_mut(),
                std::ptr::null_mut(),
                SOCK_NONBLOCK | SOCK_CLOEXEC,
            )
        };
        if fd < 0 {
            let err = io::Error::last_os_error();
            return match err.kind() {
                io::ErrorKind::WouldBlock
                | io::ErrorKind::Interrupted
                | io::ErrorKind::ConnectionAborted => Ok(None),
                _ => Err(err),
            };
        }
        // SAFETY: accept4 returned a fresh connected socket fd; ownership
        // transfers wholly to the TcpStream (nothing else closes it).
        Ok(Some(unsafe { TcpStream::from_raw_fd(fd) }))
    }
}

impl AsRawFd for ReusePortListener {
    fn as_raw_fd(&self) -> RawFd {
        self.fd
    }
}

impl Drop for ReusePortListener {
    fn drop(&mut self) {
        // SAFETY: `fd` is the listening socket this struct owns; Drop runs
        // once, so no double-close.
        unsafe {
            let _ = close(self.fd);
        }
    }
}

/// An owned epoll instance.
///
/// # Examples
///
/// ```no_run
/// use camp_kvs::net::epoll::{Epoll, EpollEvent, EPOLLIN};
/// use std::os::fd::AsRawFd;
///
/// let epoll = Epoll::new()?;
/// let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
/// epoll.add(listener.as_raw_fd(), EPOLLIN, 7)?;
/// let mut events = [EpollEvent::default(); 64];
/// let n = epoll.wait(&mut events, 100)?; // 100 ms timeout
/// for event in &events[..n] {
///     assert_eq!(event.token(), 7);
/// }
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Creates a new epoll instance (`EPOLL_CLOEXEC`).
    ///
    /// # Errors
    ///
    /// Returns the `epoll_create1` error (fd exhaustion, kernel limits).
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: epoll_create1 takes a flags word and returns an fd or -1;
        // no pointers cross the boundary.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent {
            events: interest,
            data: token,
        };
        let ptr = if op == EPOLL_CTL_DEL {
            std::ptr::null_mut()
        } else {
            &mut event
        };
        // SAFETY: `event` outlives the call (the kernel copies it before
        // returning); DEL passes a null pointer, which the kernel accepts.
        let rc = unsafe { epoll_ctl(self.fd, op, fd, ptr) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` with the given interest bits and token.
    ///
    /// # Errors
    ///
    /// Returns the `epoll_ctl` error (e.g. the fd is already registered).
    pub fn add(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Changes a registered fd's interest bits (and token).
    ///
    /// # Errors
    ///
    /// Returns the `epoll_ctl` error (e.g. the fd is not registered).
    pub fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Deregisters `fd`. Closing an fd removes it implicitly; an explicit
    /// delete is only needed when the fd outlives its registration.
    ///
    /// # Errors
    ///
    /// Returns the `epoll_ctl` error.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks for up to `timeout_ms` milliseconds (−1 = forever) and fills
    /// `events` with ready registrations; returns how many. A signal
    /// interruption (`EINTR`) reports zero events instead of an error, so
    /// callers re-derive their timeout and re-enter — the reactor loop does
    /// exactly that.
    ///
    /// # Errors
    ///
    /// Returns any `epoll_wait` error other than `EINTR`.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        let capacity = i32::try_from(events.len()).unwrap_or(i32::MAX).max(1);
        // SAFETY: `events` is a valid, writable slice of at least
        // `capacity` entries for the duration of the call.
        let n = unsafe { epoll_wait(self.fd, events.as_mut_ptr(), capacity, timeout_ms) };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(usize::try_from(n).unwrap_or(0))
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `fd` is the epoll fd this struct owns; double-close is
        // impossible because Drop runs once.
        unsafe {
            let _ = close(self.fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn reports_readable_after_a_write() {
        let epoll = Epoll::new().expect("epoll_create1");
        let (a, b) = UnixStream::pair().expect("socketpair");
        epoll.add(b.as_raw_fd(), EPOLLIN, 42).expect("add");
        let mut events = [EpollEvent::default(); 8];

        // Nothing written yet: a zero-timeout wait reports nothing.
        assert_eq!(epoll.wait(&mut events, 0).expect("wait"), 0);

        (&a).write_all(b"x").expect("write");
        let n = epoll.wait(&mut events, 1000).expect("wait");
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 42);
        assert_ne!(events[0].readiness() & EPOLLIN, 0);
    }

    #[test]
    fn modify_and_delete_change_interest() {
        let epoll = Epoll::new().expect("epoll_create1");
        let (a, b) = UnixStream::pair().expect("socketpair");
        epoll.add(b.as_raw_fd(), EPOLLIN, 1).expect("add");
        (&a).write_all(b"x").expect("write");

        // Re-token and confirm the new token comes back.
        epoll.modify(b.as_raw_fd(), EPOLLIN, 2).expect("modify");
        let mut events = [EpollEvent::default(); 8];
        let n = epoll.wait(&mut events, 1000).expect("wait");
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 2);

        // After delete the readable socket no longer reports.
        epoll.delete(b.as_raw_fd()).expect("delete");
        assert_eq!(epoll.wait(&mut events, 0).expect("wait"), 0);
    }

    #[test]
    fn double_add_is_an_error() {
        let epoll = Epoll::new().expect("epoll_create1");
        let (_a, b) = UnixStream::pair().expect("socketpair");
        epoll.add(b.as_raw_fd(), EPOLLIN, 1).expect("add");
        assert!(epoll.add(b.as_raw_fd(), EPOLLIN, 1).is_err());
    }

    #[test]
    fn sockaddr_round_trips_both_families() {
        for addr in ["127.0.0.1:11311", "[::1]:11311"] {
            let addr: std::net::SocketAddr = addr.parse().expect("addr");
            let mut buf = [0u8; SOCKADDR_BUF];
            encode_sockaddr(addr, &mut buf);
            assert_eq!(decode_sockaddr(&buf), Some(addr));
        }
        let garbage = [0xffu8; SOCKADDR_BUF];
        assert_eq!(decode_sockaddr(&garbage), None);
    }

    #[test]
    fn reuseport_listeners_share_a_port_and_accept() {
        use std::io::Read;

        let first = ReusePortListener::bind("127.0.0.1:0".parse().expect("addr")).expect("bind");
        let addr = first.local_addr();
        assert_ne!(addr.port(), 0);
        let second = ReusePortListener::bind(addr).expect("sibling bind");
        assert_eq!(second.local_addr(), addr);

        // Empty accept queues report None, not an error.
        assert!(first.accept().expect("accept").is_none());

        // A connection lands on exactly one of the two listeners.
        let epoll = Epoll::new().expect("epoll");
        epoll.add(first.as_raw_fd(), EPOLLIN, 1).expect("add");
        epoll.add(second.as_raw_fd(), EPOLLIN, 2).expect("add");
        let mut client = std::net::TcpStream::connect(addr).expect("connect");
        let mut events = [EpollEvent::default(); 8];
        let n = epoll.wait(&mut events, 2000).expect("wait");
        assert!(n >= 1, "no listener became readable");
        let ready = if events[0].token() == 1 {
            &first
        } else {
            &second
        };
        let accepted = ready.accept().expect("accept").expect("one pending");
        // The accepted socket is nonblocking, as accept4 was told.
        client.write_all(b"ping").expect("write");
        drop(client);
        let mut n = 0;
        let mut buf = [0u8; 8];
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while n < 4 && std::time::Instant::now() < deadline {
            match (&accepted).read(&mut buf[n..]) {
                Ok(read) => n += read,
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                Err(err) => panic!("read: {err}"),
            }
        }
        assert_eq!(&buf[..4], b"ping");
    }
}
