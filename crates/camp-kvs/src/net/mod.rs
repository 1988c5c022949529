//! The event-driven networking core: epoll wrapper, deadline heap,
//! connection state machine, and the reactor that runs them.
//!
//! Layering, bottom up:
//!
//! - [`epoll`] — the raw `epoll(7)` + socket syscall shim, the only
//!   `unsafe` code in this tree (allowlisted alongside `signals.rs` by
//!   camp-lint). Besides the epoll family it wraps the
//!   `socket`/`setsockopt`/`bind`/`listen`/`accept4` calls behind
//!   [`epoll::ReusePortListener`], the per-worker `SO_REUSEPORT` accept
//!   socket.
//! - [`timer`] — a min-heap of deadlines; idle eviction, chaos delay
//!   resumes and the drain sweep are all heap entries.
//! - `conn` (crate-private) — the per-connection protocol state machine:
//!   a read buffer in, one output buffer out, both lent by the worker's
//!   pool only while they hold bytes; one flush routine that every reply
//!   leaves through; no sockets, fully unit-testable.
//! - `reactor` (crate-private) — N worker event loops, each owning its
//!   own listener and its connections in a `camp_core::arena::Arena`
//!   (connections pinned to the accepting worker), batched
//!   event processing with one clock read per wakeup, drain/sever
//!   orchestration.
//!
//! `server::Server` is the public face of this machinery; [`Loopback`]
//! drives one connection's share of it in memory, for measuring it.

pub mod epoll;
pub mod timer;

pub(crate) mod conn;
pub(crate) mod reactor;

pub use conn::Loopback;
