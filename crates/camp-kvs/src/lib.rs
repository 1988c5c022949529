//! # camp-kvs — a Twemcache-like key-value server with CAMP eviction
//!
//! The paper's §4 implements CAMP inside IQ Twemcache (Twitter's memcached
//! fork with the IQ consistency framework) and shows that CAMP's replacement
//! decisions cost no more wall-clock time than LRU's. This crate rebuilds
//! that substrate in Rust, from the allocator up:
//!
//! * [`slab`] — Twemcache's slab allocator (1 MiB slabs, 1.25x class
//!   growth, calcification + random slab eviction), with real backing
//!   memory;
//! * [`item`] — the on-chunk item encoding (header + key + value);
//! * [`store`] — the cache store: hash index + slab memory + pluggable
//!   LRU/CAMP eviction driven by slab exhaustion;
//! * [`protocol`] — the memcached text protocol plus the IQ framework's
//!   `iqget`/`iqset` with timestamp-difference (or hinted) costs;
//! * [`shard`] — hash-partitioned multi-shard stores (the §4.1 scaling
//!   recipe);
//! * [`net`] — the event-driven core: a dependency-free epoll wrapper,
//!   a deadline heap, per-connection state machine and N-worker reactor
//!   (connections in a `camp_core` arena);
//! * [`server`] / [`client`] — the TCP server (the epoll reactor;
//!   graceful drain, overload protection, idle eviction) and a blocking
//!   client with reconnect/retry resilience;
//! * [`persist`] — crash-safe durability: a checksummed append-only log
//!   with rotating segments, warm restarts that rebuild CAMP costs, and
//!   graceful degradation when the disk is sick;
//! * [`fault`] — deterministic fault injection for chaos testing;
//! * [`signals`] — dependency-free SIGTERM/SIGINT handling (self-pipe);
//! * [`replay`] — the §4 trace-replay driver behind Figures 9a–9c.
//!
//! ## Quick start
//!
//! ```no_run
//! use camp_kvs::client::Client;
//! use camp_kvs::server::Server;
//! use camp_kvs::store::StoreConfig;
//!
//! let server = Server::start("127.0.0.1:0", StoreConfig::camp_with_memory(64 << 20))?;
//! let mut client = Client::connect(server.local_addr())?;
//!
//! // A miss arms the IQ cost timer; the set records the computation cost.
//! assert!(client.iqget(b"profile:42")?.is_none());
//! client.iqset(b"profile:42", b"...expensive value...", 0, 0, None)?;
//! assert!(client.iqget(b"profile:42")?.is_some());
//!
//! client.quit()?;
//! server.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```

// `deny`, not `forbid`: the three exceptions are `signals` (installs C
// handlers over a self-pipe), `net::epoll` (the epoll syscall shim) and
// `persist::crc` (calls the SSE4.2 CRC32C kernel once the CPU is known to
// have it). Each is individually audited (module-level `allow` with a
// safety argument at each site) and allowlisted path-exactly by
// camp-lint's `unsafe-outside-signals` rule.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod fault;
mod fingerprint;
pub mod item;
pub mod metrics;
pub mod net;
pub mod persist;
pub mod protocol;
pub mod replay;
pub mod resp;
pub mod server;
pub mod shard;
pub mod signals;
pub mod slab;
pub mod store;
mod sync;

pub use crate::client::Client;
pub use crate::replay::{replay_trace, ReplayReport};
pub use crate::server::Server;
pub use crate::store::{EvictionMode, Store, StoreConfig, StoreError, StoreStats};
