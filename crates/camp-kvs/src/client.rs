//! A blocking client for the KVS server — the reproduction's stand-in for
//! the Whalin memcached client the paper's request generator used (§4).
//!
//! The client is resilient by configuration: [`ClientConfig`] adds
//! connect/read/write timeouts, automatic reconnection with exponential
//! backoff and deterministic jitter, and bounded retries. Retries apply
//! only to idempotent commands (`get`, `iqget`, `delete`, `touch`, stats,
//! `version`, `flush_all`) unless [`ClientConfig::retry_sets`] opts the
//! storage commands in; `incr`/`decr` are never retried, because replaying
//! one after a lost reply would double-count. The default configuration
//! (no timeouts, zero retries) behaves exactly like a plain blocking
//! client.
//!
//! Every key command goes through one pipelined primitive: commands are
//! queued into a batch ([`Client::push_get`], [`Client::push_set`]), the
//! batch leaves in one `write` ([`Client::send`]), and [`Client::collect`]
//! reads the replies in order, one at a time. A single `get` or `set` is a
//! batch of one. The reply reader is strict and byte-wise: a `VALUE` header
//! that names another key or is malformed, a data block not closed by CRLF,
//! or a line a retrieval cannot get is `InvalidData`. Reading a reply
//! allocates nothing once the client's buffers are warm.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use camp_core::rng::Rng64;

/// A fetched value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Value {
    /// The value bytes.
    pub data: Vec<u8>,
    /// The flags stored with it.
    pub flags: u32,
}

/// Connection management and retry policy for [`Client`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// TCP connect timeout (`None` = the OS default).
    pub connect_timeout: Option<Duration>,
    /// Socket read timeout (`None` = block indefinitely).
    pub read_timeout: Option<Duration>,
    /// Socket write timeout (`None` = block indefinitely).
    pub write_timeout: Option<Duration>,
    /// Additional attempts after a failed command (0 = fail fast). A
    /// failed attempt tears the connection down; the next one redials.
    pub retries: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Also retry the storage commands (`set`/`add`/`replace`/`iqset`).
    /// Off by default: a retried `set` whose first attempt succeeded but
    /// whose reply was lost re-stores the same bytes (harmless for a
    /// cache, but the caller should opt in knowingly).
    pub retry_sets: bool,
    /// Seed for the backoff jitter (deterministic per client).
    pub seed: u64,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            connect_timeout: None,
            read_timeout: None,
            write_timeout: None,
            retries: 0,
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_secs(1),
            retry_sets: false,
            seed: 0x5EED_C0DE,
        }
    }
}

impl ClientConfig {
    /// A sensible resilient profile: 1 s connect/read/write timeouts and
    /// `retries` retry attempts with the default backoff.
    #[must_use]
    pub fn resilient(retries: u32) -> ClientConfig {
        ClientConfig {
            connect_timeout: Some(Duration::from_secs(1)),
            read_timeout: Some(Duration::from_secs(1)),
            write_timeout: Some(Duration::from_secs(1)),
            retries,
            ..ClientConfig::default()
        }
    }
}

/// Cumulative resilience counters for one [`Client`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientCounters {
    /// Command attempts that failed and were retried.
    pub retries: u64,
    /// Successful re-dials after the initial connection.
    pub reconnects: u64,
}

/// One reply of a pipelined batch, as [`Client::collect`] hands it over.
/// It borrows the client's reusable buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply<'a> {
    /// A retrieval found its key: the data block without its CRLF, and
    /// the flags.
    Hit {
        /// The value bytes.
        data: &'a [u8],
        /// The flags stored with them.
        flags: u32,
    },
    /// A retrieval missed (`END` alone).
    Miss,
    /// A one-line reply without its CRLF: `STORED`, `NOT_FOUND`, a number,
    /// or an error line (`SERVER_ERROR …`, which a retrieval can get too).
    Line(&'a [u8]),
}

/// What a queued command's reply looks like.
#[derive(Debug, Clone, Copy)]
enum Expect {
    /// A retrieval of the key at `request[start..end]`.
    Value(usize, usize),
    /// One line.
    Line,
}

/// The commands queued on a [`Client`] and not yet collected.
#[derive(Debug, Default)]
struct Batch {
    /// The commands as they go on the wire, so they leave in one `write`.
    request: Vec<u8>,
    /// One entry per queued command, in order.
    replies: Vec<Expect>,
    /// Some queued command must not be re-issued after a lost reply.
    once: bool,
    /// `request` is on the current connection's wire.
    sent: bool,
}

/// One live connection (one socket, so one file descriptor) plus the
/// reusable reply buffers.
#[derive(Debug)]
struct Conn {
    reader: BufReader<TcpStream>,
    /// The last reply line, without its CRLF.
    line: Vec<u8>,
    /// The last data block, with its CRLF.
    data: Vec<u8>,
}

/// A blocking text-protocol client.
///
/// # Examples
///
/// ```no_run
/// use camp_kvs::client::{Client, Reply};
///
/// let mut client = Client::connect("127.0.0.1:11211")?;
/// client.set(b"greeting", b"hello", 0, 0)?;
/// let value = client.get(b"greeting")?.expect("stored");
/// assert_eq!(value.data, b"hello");
///
/// // Two commands in one write; their replies come back in order.
/// client.push_set(b"a", b"1", 0, 0);
/// client.push_get(b"greeting");
/// client.collect(|i, reply| {
///     match i {
///         0 => assert_eq!(reply, Reply::Line(b"STORED")),
///         _ => assert!(matches!(reply, Reply::Hit { data: b"hello", .. })),
///     }
///     Ok(())
/// })?;
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct Client {
    addrs: Vec<SocketAddr>,
    config: ClientConfig,
    conn: Option<Conn>,
    rng: Rng64,
    retries_total: u64,
    reconnects_total: u64,
    batch: Batch,
}

impl Client {
    /// Connects to a server with the default (non-retrying, blocking)
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from establishing the connection.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Connects with an explicit [`ClientConfig`]. The initial connection
    /// is established eagerly (and is itself retried per the config).
    ///
    /// # Errors
    ///
    /// Returns the final I/O error once the configured retries are spent.
    pub fn connect_with<A: ToSocketAddrs>(addr: A, config: ClientConfig) -> io::Result<Client> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            ));
        }
        let rng = Rng64::seed_from_u64(config.seed);
        let mut client = Client {
            addrs,
            config,
            conn: None,
            rng,
            retries_total: 0,
            reconnects_total: 0,
            batch: Batch::default(),
        };
        let mut attempt = 0u32;
        client.conn = Some(loop {
            match client.dial() {
                Ok(conn) => break conn,
                Err(err) if attempt >= client.config.retries => return Err(err),
                Err(_) => {
                    client.retries_total += 1;
                    client.backoff(attempt);
                    attempt += 1;
                }
            }
        });
        Ok(client)
    }

    /// Cumulative retry/reconnect counters.
    #[must_use]
    pub fn counters(&self) -> ClientCounters {
        ClientCounters {
            retries: self.retries_total,
            reconnects: self.reconnects_total,
        }
    }

    fn dial(&self) -> io::Result<Conn> {
        let mut last_err = None;
        for addr in &self.addrs {
            let attempt = match self.config.connect_timeout {
                Some(timeout) => TcpStream::connect_timeout(addr, timeout),
                None => TcpStream::connect(addr),
            };
            match attempt {
                Ok(stream) => return Conn::new(stream, &self.config),
                Err(err) => last_err = Some(err),
            }
        }
        Err(last_err.unwrap_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no addresses")))
    }

    fn ensure_conn(&mut self) -> io::Result<&mut Conn> {
        if self.conn.is_none() {
            let conn = self.dial()?;
            self.reconnects_total += 1;
            self.conn = Some(conn);
        }
        match self.conn.as_mut() {
            Some(conn) => Ok(conn),
            None => Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "connection closed before use",
            )),
        }
    }

    /// Sleeps `backoff_base * 2^attempt` (capped) with 0.5x–1.5x jitter,
    /// so a fleet of clients knocked over together doesn't retry in
    /// lockstep.
    fn backoff(&mut self, attempt: u32) {
        let doubled = self
            .config
            .backoff_base
            .saturating_mul(1u32.wrapping_shl(attempt.min(16)));
        let capped = doubled.min(self.config.backoff_max);
        std::thread::sleep(capped.mul_f64(0.5 + self.rng.next_f64()));
    }

    /// Runs `op` on the live connection, redialing and retrying per the
    /// config. Any failure tears the connection down (a half-written
    /// command or half-read reply makes the stream unusable). A dial
    /// failure is always retryable — nothing was sent; an `op` failure is
    /// retried only when the command is `idempotent`.
    fn run<T>(
        &mut self,
        idempotent: bool,
        mut op: impl FnMut(&mut Conn) -> io::Result<T>,
    ) -> io::Result<T> {
        let mut attempt = 0u32;
        loop {
            let (err, retryable) = match self.ensure_conn() {
                Ok(conn) => match op(conn) {
                    Ok(value) => return Ok(value),
                    Err(err) => {
                        self.conn = None;
                        (err, idempotent)
                    }
                },
                Err(err) => (err, true),
            };
            if !retryable || attempt >= self.config.retries {
                return Err(err);
            }
            self.retries_total += 1;
            self.backoff(attempt);
            attempt += 1;
        }
    }

    /// Queues `<verb> <key>` and returns the request so the caller can
    /// append the rest of the command, CRLFs included.
    fn queue(
        &mut self,
        verb: &[u8],
        key: &[u8],
        retrieval: bool,
        replayable: bool,
    ) -> &mut Vec<u8> {
        let batch = &mut self.batch;
        batch.request.extend_from_slice(verb);
        batch.request.push(b' ');
        let start = batch.request.len();
        batch.request.extend_from_slice(key);
        batch.replies.push(if retrieval {
            Expect::Value(start, batch.request.len())
        } else {
            Expect::Line
        });
        batch.once |= !replayable;
        &mut batch.request
    }

    /// Queues a command without a key (`version\r\n`, ...).
    fn queue_line(&mut self, line: &[u8]) {
        self.batch.request.extend_from_slice(line);
        self.batch.replies.push(Expect::Line);
    }

    fn queue_store(
        &mut self,
        verb: &[u8],
        key: &[u8],
        value: &[u8],
        flags: u32,
        exptime: u64,
        cost_hint: Option<u64>,
    ) {
        let replayable = self.config.retry_sets;
        let request = self.queue(verb, key, false, replayable);
        // Writing into a `Vec` cannot fail.
        let _ = match cost_hint {
            Some(cost) => write!(request, " {flags} {exptime} {} {cost}\r\n", value.len()),
            None => write!(request, " {flags} {exptime} {}\r\n", value.len()),
        };
        request.extend_from_slice(value);
        request.extend_from_slice(b"\r\n");
    }

    /// Queues `get <key>`. Its reply is a [`Reply::Hit`], a [`Reply::Miss`]
    /// or an error [`Reply::Line`].
    pub fn push_get(&mut self, key: &[u8]) {
        self.queue(b"get", key, true, true)
            .extend_from_slice(b"\r\n");
    }

    /// Queues `set <key> <flags> <exptime> <len>` and its data block. Its
    /// reply is a [`Reply::Line`]: `STORED` or an error. A batch holding a
    /// set is re-issued after a failure only under
    /// [`ClientConfig::retry_sets`].
    pub fn push_set(&mut self, key: &[u8], value: &[u8], flags: u32, exptime: u64) {
        self.queue_store(b"set", key, value, flags, exptime, None);
    }

    /// Writes the queued batch in one `write`, dialing first if the
    /// connection is down, and leaves the replies for
    /// [`Client::collect`]. A client that sent a batch must collect it
    /// before it issues any other command.
    ///
    /// # Errors
    ///
    /// Returns the dial or write error; the connection is torn down, and
    /// `collect` re-issues the batch over a fresh one per the retry
    /// config.
    pub fn send(&mut self) -> io::Result<()> {
        let mut batch = std::mem::take(&mut self.batch);
        let sent = self
            .ensure_conn()
            .and_then(|conn| conn.write_all(&batch.request));
        if sent.is_err() {
            self.conn = None;
        }
        batch.sent = sent.is_ok();
        self.batch = batch;
        sent
    }

    /// Reads the queued batch's replies in order, sending it first unless
    /// [`Client::send`] already did, and hands each to `each` with its
    /// index; then empties the batch. An error from `each` fails the
    /// attempt like an I/O error does. A failed attempt tears the
    /// connection down and, per the retry config, re-issues the whole
    /// batch over a fresh one — unless it holds an `incr`/`decr`, or a
    /// storage command without `retry_sets` — so on a retry `each` sees
    /// the replies again from index 0.
    ///
    /// # Errors
    ///
    /// Returns the last I/O error, the reader's `InvalidData`, or the
    /// error `each` returned, once the retries are spent.
    pub fn collect(
        &mut self,
        mut each: impl FnMut(usize, Reply<'_>) -> io::Result<()>,
    ) -> io::Result<()> {
        let mut batch = std::mem::take(&mut self.batch);
        let collected = self.run(!batch.once, |conn| {
            if !std::mem::take(&mut batch.sent) {
                conn.write_all(&batch.request)?;
            }
            for (i, &expect) in batch.replies.iter().enumerate() {
                each(i, conn.read_reply(expect, &batch.request)?)?;
            }
            Ok(())
        });
        batch.request.clear();
        batch.replies.clear();
        batch.once = false;
        self.batch = batch;
        collected
    }

    /// Collects the queued batch and returns what `read` made of its last
    /// reply: the single-command methods below queue one command each.
    fn one<T: Default>(
        &mut self,
        mut read: impl FnMut(Reply<'_>) -> io::Result<T>,
    ) -> io::Result<T> {
        let mut out = T::default();
        self.collect(|_, reply| {
            out = read(reply)?;
            Ok(())
        })?;
        Ok(out)
    }

    /// [`Client::one`] for a command whose reply is one line.
    fn one_line<T: Default>(
        &mut self,
        mut read: impl FnMut(&[u8]) -> io::Result<T>,
    ) -> io::Result<T> {
        self.one(|reply| match reply {
            Reply::Line(line) => read(line),
            Reply::Hit { .. } | Reply::Miss => Ok(T::default()),
        })
    }

    /// `get <key>` — returns the value if resident.
    ///
    /// # Errors
    ///
    /// Returns I/O errors and protocol violations as `io::Error`.
    pub fn get(&mut self, key: &[u8]) -> io::Result<Option<Value>> {
        self.push_get(key);
        self.one(retrieved)
    }

    /// `iqget <key>` — like `get`, but a miss arms the server's IQ cost
    /// timer for this key.
    ///
    /// # Errors
    ///
    /// Returns I/O errors and protocol violations as `io::Error`.
    pub fn iqget(&mut self, key: &[u8]) -> io::Result<Option<Value>> {
        self.queue(b"iqget", key, true, true)
            .extend_from_slice(b"\r\n");
        self.one(retrieved)
    }

    /// `set <key> <flags> <exptime> <len>` + data.
    ///
    /// # Errors
    ///
    /// Returns I/O errors; `Ok(false)` when the server replied with an
    /// error status (e.g. the object was too large).
    pub fn set(&mut self, key: &[u8], value: &[u8], flags: u32, exptime: u64) -> io::Result<bool> {
        self.push_set(key, value, flags, exptime);
        self.one_line(|line| Ok(line == b"STORED"))
    }

    /// `iqset`, optionally with an explicit cost hint (the paper's
    /// "application provided hints" channel).
    ///
    /// # Errors
    ///
    /// Returns I/O errors; `Ok(false)` on a server error status.
    pub fn iqset(
        &mut self,
        key: &[u8],
        value: &[u8],
        flags: u32,
        exptime: u64,
        cost_hint: Option<u64>,
    ) -> io::Result<bool> {
        self.queue_store(b"iqset", key, value, flags, exptime, cost_hint);
        self.one_line(|line| Ok(line == b"STORED"))
    }

    /// `add` — stores only if the key is absent. `Ok(false)` when the key
    /// already exists (or on a server error status).
    ///
    /// # Errors
    ///
    /// Returns I/O errors as `io::Error`.
    pub fn add(&mut self, key: &[u8], value: &[u8], flags: u32, exptime: u64) -> io::Result<bool> {
        self.queue_store(b"add", key, value, flags, exptime, None);
        self.one_line(|line| Ok(line == b"STORED"))
    }

    /// `replace` — stores only if the key is present.
    ///
    /// # Errors
    ///
    /// Returns I/O errors as `io::Error`.
    pub fn replace(
        &mut self,
        key: &[u8],
        value: &[u8],
        flags: u32,
        exptime: u64,
    ) -> io::Result<bool> {
        self.queue_store(b"replace", key, value, flags, exptime, None);
        self.one_line(|line| Ok(line == b"STORED"))
    }

    /// `incr <key> <delta>` — returns the new value, or `None` when the key
    /// is absent or non-numeric. Never retried: replaying an `incr` whose
    /// reply was lost would double-count.
    ///
    /// # Errors
    ///
    /// Returns I/O errors and protocol violations as `io::Error`.
    pub fn incr(&mut self, key: &[u8], delta: u64) -> io::Result<Option<u64>> {
        self.arith(b"incr", key, delta)
    }

    /// `decr <key> <delta>` — like [`Client::incr`], floored at zero.
    ///
    /// # Errors
    ///
    /// Returns I/O errors and protocol violations as `io::Error`.
    pub fn decr(&mut self, key: &[u8], delta: u64) -> io::Result<Option<u64>> {
        self.arith(b"decr", key, delta)
    }

    fn arith(&mut self, verb: &[u8], key: &[u8], delta: u64) -> io::Result<Option<u64>> {
        let _ = write!(self.queue(verb, key, false, false), " {delta}\r\n");
        self.one_line(|line| match line {
            b"NOT_FOUND" => Ok(None),
            digits => number(digits)
                .map(Some)
                .ok_or_else(|| invalid("bad incr/decr response", digits)),
        })
    }

    /// `touch <key> <exptime>` — updates a resident key's expiry.
    ///
    /// # Errors
    ///
    /// Returns I/O errors and protocol violations as `io::Error`.
    pub fn touch(&mut self, key: &[u8], exptime: u64) -> io::Result<bool> {
        let _ = write!(self.queue(b"touch", key, false, true), " {exptime}\r\n");
        self.one_line(|line| Ok(line == b"TOUCHED"))
    }

    /// `flush_all` — drops every item on the server.
    ///
    /// # Errors
    ///
    /// Returns I/O errors and protocol violations as `io::Error`.
    pub fn flush_all(&mut self) -> io::Result<()> {
        self.queue_line(b"flush_all\r\n");
        self.one_line(|line| expect_line(line, b"OK", "flush_all failed"))
    }

    /// `version` — the server's version banner.
    ///
    /// # Errors
    ///
    /// Returns I/O errors and protocol violations as `io::Error`.
    pub fn version(&mut self) -> io::Result<String> {
        self.queue_line(b"version\r\n");
        self.one_line(|line| Ok(String::from_utf8_lossy(line).into_owned()))
    }

    /// `delete <key>`.
    ///
    /// # Errors
    ///
    /// Returns I/O errors and protocol violations as `io::Error`.
    pub fn delete(&mut self, key: &[u8]) -> io::Result<bool> {
        self.queue(b"delete", key, false, true)
            .extend_from_slice(b"\r\n");
        self.one_line(|line| Ok(line == b"DELETED"))
    }

    /// `stats` — returns the STAT table.
    ///
    /// # Errors
    ///
    /// Returns I/O errors and protocol violations as `io::Error`.
    pub fn stats(&mut self) -> io::Result<BTreeMap<String, String>> {
        self.run(true, |conn| {
            conn.write_all(b"stats\r\n")?;
            conn.read_stat_table()
        })
    }

    /// `stats detail` — the full telemetry table: everything `stats`
    /// reports plus per-command latency quantiles (`latency:get:p99_us`),
    /// per-shard policy internals (`policy:0:l_value`), eviction causes and
    /// the IQ registry gauges.
    ///
    /// # Errors
    ///
    /// Returns I/O errors and protocol violations as `io::Error`.
    pub fn stats_detail(&mut self) -> io::Result<BTreeMap<String, String>> {
        self.run(true, |conn| {
            conn.write_all(b"stats detail\r\n")?;
            conn.read_stat_table()
        })
    }

    /// `trace` — dumps the server's flight recorder: recent request spans
    /// (`SPAN`/`SLOW` lines with per-phase microsecond timestamps) and
    /// eviction decisions (`EVICTION` lines), newest state first summarized
    /// by `TRACE` header lines. Returned raw, one entry per line.
    ///
    /// # Errors
    ///
    /// Returns I/O errors and protocol violations as `io::Error`.
    pub fn trace(&mut self) -> io::Result<Vec<String>> {
        self.run(true, |conn| {
            conn.write_all(b"trace\r\n")?;
            let mut out = Vec::new();
            loop {
                conn.read_line()?;
                if conn.line == b"END" {
                    return Ok(out);
                }
                out.push(String::from_utf8_lossy(&conn.line).into_owned());
            }
        })
    }

    /// `stats reset` — zeroes the server's counters and histograms (cache
    /// contents are untouched).
    ///
    /// # Errors
    ///
    /// Returns I/O errors and protocol violations as `io::Error`.
    pub fn stats_reset(&mut self) -> io::Result<()> {
        self.queue_line(b"stats reset\r\n");
        self.one_line(|line| expect_line(line, b"RESET", "stats reset failed"))
    }

    /// `quit` — asks the server to close the connection.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the write.
    pub fn quit(mut self) -> io::Result<()> {
        match self.conn.as_mut() {
            Some(conn) => conn.write_all(b"quit\r\n"),
            None => Ok(()),
        }
    }
}

impl Conn {
    fn new(stream: TcpStream, config: &ClientConfig) -> io::Result<Conn> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(config.read_timeout)?;
        stream.set_write_timeout(config.write_timeout)?;
        Ok(Conn {
            reader: BufReader::new(stream),
            line: Vec::new(),
            data: Vec::new(),
        })
    }

    /// Writes `bytes` past the reader, on the same socket.
    fn write_all(&self, bytes: &[u8]) -> io::Result<()> {
        let mut stream: &TcpStream = self.reader.get_ref();
        stream.write_all(bytes)
    }

    /// Reads the reply to one command of `request`. A retrieval's reply
    /// is `END`, an error line, or exactly one `VALUE <key> <flags>
    /// <bytes>` block for its own key whose data ends in CRLF, then `END`;
    /// anything else is `InvalidData`.
    fn read_reply(&mut self, expect: Expect, request: &[u8]) -> io::Result<Reply<'_>> {
        self.read_line()?;
        let Expect::Value(start, end) = expect else {
            return Ok(Reply::Line(&self.line));
        };
        if self.line == b"END" {
            return Ok(Reply::Miss);
        }
        if self.line == b"ERROR"
            || self.line.starts_with(b"CLIENT_ERROR ")
            || self.line.starts_with(b"SERVER_ERROR ")
        {
            return Ok(Reply::Line(&self.line));
        }
        let (flags, block) = value_header(&self.line, &request[start..end])
            .ok_or_else(|| invalid("unexpected reply to a retrieval", &self.line))?;
        // The buffer grows with the bytes that arrive, not with the length
        // the header claims.
        self.data.clear();
        (&mut self.reader).take(block).read_to_end(&mut self.data)?;
        if self.data.len() as u64 != block {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection inside a data block",
            ));
        }
        if !self.data.ends_with(b"\r\n") {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "data block not closed by CRLF",
            ));
        }
        self.read_line()?;
        if self.line != b"END" {
            return Err(invalid("VALUE block not closed by END", &self.line));
        }
        Ok(Reply::Hit {
            data: &self.data[..self.data.len() - 2],
            flags,
        })
    }

    fn read_stat_table(&mut self) -> io::Result<BTreeMap<String, String>> {
        let mut out = BTreeMap::new();
        loop {
            self.read_line()?;
            if self.line == b"END" {
                return Ok(out);
            }
            let text = String::from_utf8_lossy(&self.line);
            if let Some(rest) = text.strip_prefix("STAT ") {
                if let Some((name, value)) = rest.split_once(' ') {
                    out.insert(name.to_owned(), value.to_owned());
                }
            }
        }
    }

    /// Reads one line into the reusable `self.line` buffer, stripped of
    /// its CRLF terminator. Allocation-free once the buffer is warm.
    fn read_line(&mut self) -> io::Result<()> {
        self.line.clear();
        let read = self.reader.read_until(b'\n', &mut self.line)?;
        if read == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while self.line.last().is_some_and(|&b| b == b'\n' || b == b'\r') {
            self.line.pop();
        }
        Ok(())
    }
}

/// What `get`/`iqget` make of a retrieval's reply.
fn retrieved(reply: Reply<'_>) -> io::Result<Option<Value>> {
    match reply {
        Reply::Hit { data, flags } => Ok(Some(Value {
            data: data.to_vec(),
            flags,
        })),
        Reply::Miss => Ok(None),
        Reply::Line(line) => Err(invalid("unexpected response line", line)),
    }
}

/// The flags of `VALUE <key> <flags> <bytes>`, and the length of its data
/// block with the CRLF, if `line` is exactly that for `key`.
fn value_header(line: &[u8], key: &[u8]) -> Option<(u32, u64)> {
    let mut fields = line.split(|&b| b == b' ');
    if fields.next()? != b"VALUE" || fields.next()? != key {
        return None;
    }
    let flags = number(fields.next()?)?;
    let block = number::<u64>(fields.next()?)?.checked_add(2)?;
    fields.next().is_none().then_some((flags, block))
}

/// A decimal number made of ASCII digits only.
fn number<T: std::str::FromStr>(digits: &[u8]) -> Option<T> {
    if digits.is_empty() || !digits.iter().all(u8::is_ascii_digit) {
        return None;
    }
    std::str::from_utf8(digits).ok()?.parse().ok()
}

fn expect_line(line: &[u8], expected: &[u8], what: &str) -> io::Result<()> {
    if line == expected {
        Ok(())
    } else {
        Err(invalid(what, line))
    }
}

fn invalid(what: &str, line: &[u8]) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{what}: {}", String::from_utf8_lossy(line)),
    )
}

#[cfg(test)]
mod tests {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::{SocketAddr, TcpListener};
    use std::thread::JoinHandle;

    use camp_core::Precision;

    use super::*;
    use crate::server::{Server, ServerOptions};
    use crate::slab::SlabConfig;
    use crate::store::{EvictionMode, StoreConfig};

    /// A one-connection server that answers the first command line with
    /// `reply`, then waits for the client to hang up.
    fn answer_once(reply: &'static [u8]) -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut line = Vec::new();
            reader.read_until(b'\n', &mut line).expect("read command");
            (&stream).write_all(reply).expect("reply");
            let _ = reader.read_to_end(&mut line);
        });
        (addr, server)
    }

    /// Another key's block and a block not closed by CRLF (which a reader
    /// that compares keys lossily and skips the CRLF unchecked takes for a
    /// miss and a hit), and every other reply a `get` cannot get: all
    /// `InvalidData`.
    #[test]
    fn a_malformed_retrieval_reply_is_invalid_data() {
        for reply in [
            &b"VALUE other 0 5\r\nhello\r\nEND\r\n"[..],
            b"VALUE k 0 5\r\nhelloXXEND\r\n",
            b"VALUE k 0\r\nEND\r\n",
            b"VALUE k x 5\r\nhello\r\nEND\r\n",
            b"VALUE k 0 +5\r\nhello\r\nEND\r\n",
            b"VALUE k 0 5 9\r\nhello\r\nEND\r\n",
            b"VALUE k 0 18446744073709551615\r\nhello\r\nEND\r\n",
            b"VALUE k 0 5\r\nhello\r\nVALUE k 0 5\r\nhello\r\nEND\r\n",
            b"STORED\r\n",
        ] {
            let (addr, server) = answer_once(reply);
            let mut client = Client::connect(addr).expect("connect");
            let err = client.get(b"k").expect_err("malformed reply");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{reply:?}");
            drop(client);
            server.join().expect("the one-connection server");
        }
    }

    fn live_server() -> Server {
        let options = ServerOptions::new(StoreConfig {
            slab: SlabConfig::small(64 * 1024, 16),
            eviction: EvictionMode::Camp(Precision::Bits(5)),
        });
        Server::start_with("127.0.0.1:0", options).expect("start server")
    }

    #[test]
    fn a_non_utf8_key_round_trips() {
        let server = live_server();
        let mut client = Client::connect(server.local_addr()).expect("connect");
        assert!(client.set(b"k\xff", b"bytes", 3, 0).expect("set"));
        let found = client.get(b"k\xff").expect("get");
        assert_eq!(
            found,
            Some(Value {
                data: b"bytes".to_vec(),
                flags: 3
            })
        );
        client.quit().expect("quit");
        server.shutdown();
    }

    /// One write carries the batch; the replies come back in order, and
    /// the batch is empty again for the next one.
    #[test]
    fn a_batch_collects_its_replies_in_order() {
        let server = live_server();
        let mut client = Client::connect(server.local_addr()).expect("connect");
        for round in 0..3u32 {
            client.push_set(b"a", b"one", round, 0);
            client.push_get(b"a");
            client.push_get(b"missing");
            client.send().expect("send");
            let mut replies = 0;
            client
                .collect(|i, reply| {
                    let expected = match i {
                        0 => Reply::Line(b"STORED"),
                        1 => Reply::Hit {
                            data: b"one",
                            flags: round,
                        },
                        _ => Reply::Miss,
                    };
                    assert_eq!(reply, expected, "reply {i}");
                    replies += 1;
                    Ok(())
                })
                .expect("collect");
            assert_eq!(replies, 3);
        }
        assert_eq!(client.counters(), ClientCounters::default());
        client.quit().expect("quit");
        server.shutdown();
    }
}
