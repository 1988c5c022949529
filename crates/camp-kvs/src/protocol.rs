//! The memcached-style text protocol, extended with the IQ framework's
//! `iqget`/`iqset` commands (paper §4).
//!
//! Supported commands (all lines end `\r\n`; `<data>` blocks are raw bytes
//! of the announced length followed by `\r\n`):
//!
//! ```text
//! get <key> [<key>...]                          -> VALUE/END
//! iqget <key>                                   -> VALUE/END (registers miss time)
//! set <key> <flags> <exptime> <bytes>\r\n<data> -> STORED
//! add / replace <key> <flags> <exptime> <bytes>\r\n<data> -> STORED | NOT_STORED
//! iqset <key> <flags> <exptime> <bytes> [cost]\r\n<data> -> STORED
//! incr / decr <key> <delta>                     -> <new value> | NOT_FOUND
//! touch <key> <exptime>                         -> TOUCHED | NOT_FOUND
//! delete <key>                                  -> DELETED | NOT_FOUND
//! flush_all                                     -> OK
//! version                                       -> VERSION camp-kvs/<semver>
//! stats                                         -> STAT lines, END
//! stats detail                                  -> extended STAT lines (latency
//!                                                  quantiles, per-shard rows,
//!                                                  policy internals), END
//! stats reset                                   -> RESET (zeroes counters and
//!                                                  histograms)
//! stats profile                                 -> shadow-profiler STAT lines
//!                                                  (hit-ratio / cost-miss
//!                                                  estimates at 0.5x/1x/2x
//!                                                  capacity), END
//! trace                                         -> flight-recorder dump (recent
//!                                                  spans, slow log, eviction
//!                                                  events), END
//! quit                                          -> connection closed
//! ```
//!
//! `iqset`'s optional trailing `cost` token is the "application provided
//! hints" channel the paper mentions; without it the server uses the
//! elapsed time since the corresponding `iqget` miss — the IQ framework's
//! timestamp-difference cost.
//!
//! # Zero-allocation parsing
//!
//! Parsing sits on the per-request hot path, so [`parse_command`] does not
//! allocate: every key in the returned [`Command`] is a `&[u8]` slice
//! borrowed from the caller's line buffer, and a multi-key `get` collects
//! its keys into a [`KeyList`] whose first [`INLINE_KEYS`] entries live
//! inline on the stack (only a pathological request with more keys spills
//! to the heap). The server never owns a key: it hashes the borrowed bytes
//! once into a fingerprint, and the only copy is the one `set` writes into
//! the slab item.

use std::fmt;

/// Keys a [`KeyList`] stores inline before spilling to the heap. Multi-key
/// `get`s beyond this are legal but take one `Vec` allocation.
pub const INLINE_KEYS: usize = 8;

/// A small-vector of borrowed keys: up to [`INLINE_KEYS`] entries inline,
/// the rest spilled to a heap `Vec`. This keeps the common multi-key `get`
/// allocation-free.
#[derive(Debug, Clone, Default)]
pub struct KeyList<'a> {
    inline: [&'a [u8]; INLINE_KEYS],
    len: usize,
    spill: Vec<&'a [u8]>,
}

impl<'a> KeyList<'a> {
    /// An empty list.
    #[must_use]
    pub fn new() -> KeyList<'a> {
        KeyList {
            inline: [b""; INLINE_KEYS],
            len: 0,
            spill: Vec::new(),
        }
    }

    /// Appends a key (allocation-free up to [`INLINE_KEYS`] entries).
    pub fn push(&mut self, key: &'a [u8]) {
        if self.len < INLINE_KEYS {
            self.inline[self.len] = key;
        } else {
            self.spill.push(key);
        }
        self.len += 1;
    }

    /// Number of keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list holds no keys.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates the keys in request order.
    pub fn iter(&self) -> impl Iterator<Item = &'a [u8]> + '_ {
        self.inline[..self.len.min(INLINE_KEYS)]
            .iter()
            .copied()
            .chain(self.spill.iter().copied())
    }
}

impl<'a> FromIterator<&'a [u8]> for KeyList<'a> {
    fn from_iter<I: IntoIterator<Item = &'a [u8]>>(iter: I) -> KeyList<'a> {
        let mut list = KeyList::new();
        for key in iter {
            list.push(key);
        }
        list
    }
}

impl<'a> PartialEq for KeyList<'a> {
    fn eq(&self, other: &KeyList<'a>) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for KeyList<'_> {}

/// A parsed command line (data blocks are read separately by the caller,
/// guided by [`SetHeader::bytes`]). Key fields borrow from the line buffer
/// handed to [`parse_command`]; see the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command<'a> {
    /// `get` / `gets` with one or more keys.
    Get {
        /// The requested keys (borrowed; inline up to [`INLINE_KEYS`]).
        keys: KeyList<'a>,
    },
    /// `iqget`: like `get` but a miss registers the IQ miss timestamp.
    IqGet {
        /// The requested key.
        key: &'a [u8],
    },
    /// `set`, `add`, `replace` or `iqset`; the data block of
    /// `header.bytes` bytes follows.
    Set {
        /// Parsed header fields.
        header: SetHeader<'a>,
    },
    /// `incr <key> <delta>` / `decr <key> <delta>`.
    Arith {
        /// The key whose numeric value changes.
        key: &'a [u8],
        /// The delta to apply.
        delta: u64,
        /// Whether this is an increment (else decrement).
        up: bool,
    },
    /// `touch <key> <exptime>`.
    Touch {
        /// The key whose expiry changes.
        key: &'a [u8],
        /// The new expiry (memcached semantics).
        exptime: u64,
    },
    /// `delete <key>`.
    Delete {
        /// The key to delete.
        key: &'a [u8],
    },
    /// `flush_all`.
    FlushAll,
    /// `version`.
    Version,
    /// `stats` / `stats detail` / `stats reset` / `stats profile`.
    Stats {
        /// Which stats surface was requested.
        scope: StatsScope,
    },
    /// `trace`: dump the flight recorder (recent request spans, the slow
    /// log, recent eviction events).
    Trace,
    /// `quit`.
    Quit,
}

/// The argument of a `stats` command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsScope {
    /// Bare `stats`: the aggregate counter table.
    Summary,
    /// `stats detail`: per-shard breakdown, latency quantiles, policy
    /// internals, IQ registry gauges.
    Detail,
    /// `stats reset`: zero the counters and histograms, re-baselining
    /// measurement (responds `RESET`).
    Reset,
    /// `stats profile`: the online shadow profiler's hit-ratio and
    /// cost-miss estimates at fractional capacities.
    Profile,
}

/// Which storage command a [`SetHeader`] came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetVerb {
    /// Unconditional store.
    Set,
    /// Store only if absent.
    Add,
    /// Store only if present.
    Replace,
    /// Unconditional store with IQ cost semantics.
    IqSet,
}

/// Header fields of a `set`/`iqset` command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetHeader<'a> {
    /// The key being stored (borrowed from the line buffer).
    pub key: &'a [u8],
    /// Opaque client flags.
    pub flags: u32,
    /// Relative or absolute expiry, memcached semantics (0 = never).
    pub exptime: u64,
    /// Length of the data block that follows.
    pub bytes: usize,
    /// Explicit cost hint (only on `iqset`).
    pub cost_hint: Option<u64>,
    /// Which storage verb this header came from.
    pub verb: SetVerb,
}

/// A protocol parse error. Malformed input renders as
/// `CLIENT_ERROR <reason>`; limit violations the *server* imposes (an
/// oversized declared value length) render as `SERVER_ERROR <reason>` and
/// are [fatal](ProtocolError::is_fatal): the connection must close because
/// the announced data block will not be read, so the stream cannot stay
/// in sync.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    reason: &'static str,
    server: bool,
    fatal: bool,
}

impl ProtocolError {
    fn new(reason: &'static str) -> Self {
        ProtocolError {
            reason,
            server: false,
            fatal: false,
        }
    }

    fn server_fatal(reason: &'static str) -> Self {
        ProtocolError {
            reason,
            server: true,
            fatal: true,
        }
    }

    /// The reason string sent to the client.
    #[must_use]
    pub fn reason(&self) -> &str {
        self.reason
    }

    /// Whether the connection must close after this error is reported
    /// (the command's data block was refused, so the stream is desynced).
    #[must_use]
    pub fn is_fatal(&self) -> bool {
        self.fatal
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let prefix = if self.server {
            "SERVER_ERROR"
        } else {
            "CLIENT_ERROR"
        };
        write!(f, "{prefix} {}", self.reason)
    }
}

impl std::error::Error for ProtocolError {}

/// Maximum key length accepted (memcached's limit is 250).
pub const MAX_KEY_LEN: usize = 250;

/// Default cap on a `set` data block's declared length (1 MiB, the
/// classic memcached item ceiling). Overridable per server via
/// [`ServerOptions::max_value_len`](crate::server::ServerOptions).
pub const DEFAULT_MAX_VALUE_LEN: usize = 1 << 20;

fn parse_u64(token: &[u8], what: &'static str) -> Result<u64, ProtocolError> {
    std::str::from_utf8(token)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or(ProtocolError::new(what))
}

fn validate_key(key: &[u8]) -> Result<(), ProtocolError> {
    if key.is_empty() {
        return Err(ProtocolError::new("empty key"));
    }
    if key.len() > MAX_KEY_LEN {
        return Err(ProtocolError::new("key too long"));
    }
    if key.iter().any(|&b| b <= b' ' || b == 0x7f) {
        return Err(ProtocolError::new("key contains control or space bytes"));
    }
    Ok(())
}

/// Parses one command line (without the trailing `\r\n`). Allocation-free
/// for every command with at most [`INLINE_KEYS`] keys: the returned
/// [`Command`] borrows its key slices from `line`.
///
/// Storage commands accept any declared data-block length; the server
/// uses [`parse_command_limited`] to refuse hostile lengths before a
/// single data byte is read.
///
/// # Errors
///
/// Returns [`ProtocolError`] on unknown commands or malformed arguments.
pub fn parse_command(line: &[u8]) -> Result<Command<'_>, ProtocolError> {
    parse_command_limited(line, usize::MAX)
}

/// Like [`parse_command`], additionally rejecting storage commands whose
/// declared data-block length exceeds `max_value_len`. This is the
/// server's input-hardening entry point: the check happens at header
/// parse, *before* any buffer is sized from the client's length field, so
/// `set k 0 0 4294967295` cannot balloon memory. The resulting error is
/// a fatal `SERVER_ERROR object too large for cache` (the announced data
/// block is never read, so the connection must close to avoid desync).
///
/// # Errors
///
/// Returns [`ProtocolError`] on unknown commands, malformed arguments, or
/// an over-limit declared length.
pub fn parse_command_limited(
    line: &[u8],
    max_value_len: usize,
) -> Result<Command<'_>, ProtocolError> {
    let mut tokens = line.split(|&b| b == b' ').filter(|t| !t.is_empty());
    let verb = tokens.next().ok_or(ProtocolError::new("empty command"))?;
    match verb {
        b"get" | b"gets" => {
            let mut keys = KeyList::new();
            for key in tokens {
                validate_key(key)?;
                keys.push(key);
            }
            if keys.is_empty() {
                return Err(ProtocolError::new("get requires at least one key"));
            }
            Ok(Command::Get { keys })
        }
        b"iqget" => {
            let key = tokens
                .next()
                .ok_or(ProtocolError::new("iqget requires a key"))?;
            validate_key(key)?;
            if tokens.next().is_some() {
                return Err(ProtocolError::new("iqget takes exactly one key"));
            }
            Ok(Command::IqGet { key })
        }
        b"set" | b"iqset" | b"add" | b"replace" => {
            let set_verb = match verb {
                b"iqset" => SetVerb::IqSet,
                b"add" => SetVerb::Add,
                b"replace" => SetVerb::Replace,
                _ => SetVerb::Set,
            };
            let iq = set_verb == SetVerb::IqSet;
            let key = tokens
                .next()
                .ok_or(ProtocolError::new("set requires a key"))?;
            validate_key(key)?;
            let flags = parse_u64(
                tokens.next().ok_or(ProtocolError::new("missing flags"))?,
                "bad flags",
            )?;
            let flags = u32::try_from(flags).map_err(|_| ProtocolError::new("bad flags"))?;
            let exptime = parse_u64(
                tokens.next().ok_or(ProtocolError::new("missing exptime"))?,
                "bad exptime",
            )?;
            let bytes = parse_u64(
                tokens.next().ok_or(ProtocolError::new("missing bytes"))?,
                "bad bytes",
            )?;
            if bytes > max_value_len as u64 {
                return Err(ProtocolError::server_fatal("object too large for cache"));
            }
            let bytes = bytes as usize;
            let cost_hint = match tokens.next() {
                Some(token) if iq => Some(parse_u64(token, "bad cost")?),
                Some(_) => return Err(ProtocolError::new("unexpected token after bytes")),
                None => None,
            };
            if tokens.next().is_some() {
                return Err(ProtocolError::new("trailing tokens"));
            }
            Ok(Command::Set {
                header: SetHeader {
                    key,
                    flags,
                    exptime,
                    bytes,
                    cost_hint,
                    verb: set_verb,
                },
            })
        }
        b"incr" | b"decr" => {
            let key = tokens
                .next()
                .ok_or(ProtocolError::new("incr/decr requires a key"))?;
            validate_key(key)?;
            let delta = parse_u64(
                tokens.next().ok_or(ProtocolError::new("missing delta"))?,
                "bad delta",
            )?;
            if tokens.next().is_some() {
                return Err(ProtocolError::new("trailing tokens"));
            }
            Ok(Command::Arith {
                key,
                delta,
                up: verb == b"incr",
            })
        }
        b"touch" => {
            let key = tokens
                .next()
                .ok_or(ProtocolError::new("touch requires a key"))?;
            validate_key(key)?;
            let exptime = parse_u64(
                tokens.next().ok_or(ProtocolError::new("missing exptime"))?,
                "bad exptime",
            )?;
            if tokens.next().is_some() {
                return Err(ProtocolError::new("trailing tokens"));
            }
            Ok(Command::Touch { key, exptime })
        }
        b"flush_all" => Ok(Command::FlushAll),
        b"version" => Ok(Command::Version),
        b"delete" => {
            let key = tokens
                .next()
                .ok_or(ProtocolError::new("delete requires a key"))?;
            validate_key(key)?;
            Ok(Command::Delete { key })
        }
        b"stats" => {
            let scope = match tokens.next() {
                None => StatsScope::Summary,
                Some(b"detail") => StatsScope::Detail,
                Some(b"reset") => StatsScope::Reset,
                Some(b"profile") => StatsScope::Profile,
                Some(_) => return Err(ProtocolError::new("unknown stats argument")),
            };
            if tokens.next().is_some() {
                return Err(ProtocolError::new("trailing tokens"));
            }
            Ok(Command::Stats { scope })
        }
        b"trace" => {
            if tokens.next().is_some() {
                return Err(ProtocolError::new("trace takes no arguments"));
            }
            Ok(Command::Trace)
        }
        b"quit" => Ok(Command::Quit),
        _ => Err(ProtocolError::new("unknown command")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys<'a>(raw: &[&'a [u8]]) -> KeyList<'a> {
        raw.iter().copied().collect()
    }

    #[test]
    fn parses_get_variants() {
        assert_eq!(
            parse_command(b"get alpha").unwrap(),
            Command::Get {
                keys: keys(&[b"alpha"])
            }
        );
        assert_eq!(
            parse_command(b"gets a b c").unwrap(),
            Command::Get {
                keys: keys(&[b"a", b"b", b"c"])
            }
        );
        assert!(parse_command(b"get").is_err());
    }

    #[test]
    fn parses_iqget() {
        assert_eq!(
            parse_command(b"iqget k1").unwrap(),
            Command::IqGet { key: b"k1" }
        );
        assert!(parse_command(b"iqget a b").is_err());
        assert!(parse_command(b"iqget").is_err());
    }

    #[test]
    fn parses_set_and_iqset() {
        let cmd = parse_command(b"set k 7 0 5").unwrap();
        assert_eq!(
            cmd,
            Command::Set {
                header: SetHeader {
                    key: b"k",
                    flags: 7,
                    exptime: 0,
                    bytes: 5,
                    cost_hint: None,
                    verb: SetVerb::Set,
                }
            }
        );
        let cmd = parse_command(b"iqset k 0 60 10 12345").unwrap();
        match cmd {
            Command::Set { header } => {
                assert_eq!(header.verb, SetVerb::IqSet);
                assert_eq!(header.cost_hint, Some(12_345));
                assert_eq!(header.exptime, 60);
                assert_eq!(header.bytes, 10);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Plain set rejects a cost token.
        assert!(parse_command(b"set k 0 0 5 99").is_err());
    }

    #[test]
    fn parses_delete_stats_quit() {
        assert_eq!(
            parse_command(b"delete kk").unwrap(),
            Command::Delete { key: b"kk" }
        );
        assert_eq!(
            parse_command(b"stats").unwrap(),
            Command::Stats {
                scope: StatsScope::Summary
            }
        );
        assert_eq!(parse_command(b"quit").unwrap(), Command::Quit);
    }

    #[test]
    fn parses_stats_scopes() {
        assert_eq!(
            parse_command(b"stats detail").unwrap(),
            Command::Stats {
                scope: StatsScope::Detail
            }
        );
        assert_eq!(
            parse_command(b"stats reset").unwrap(),
            Command::Stats {
                scope: StatsScope::Reset
            }
        );
        assert_eq!(
            parse_command(b"stats profile").unwrap(),
            Command::Stats {
                scope: StatsScope::Profile
            }
        );
        assert!(parse_command(b"stats bogus").is_err());
        assert!(parse_command(b"stats detail extra").is_err());
    }

    #[test]
    fn parses_trace() {
        assert_eq!(parse_command(b"trace").unwrap(), Command::Trace);
        assert!(parse_command(b"trace extra").is_err());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_command(b"").is_err());
        assert!(parse_command(b"frobnicate x").is_err());
        assert!(parse_command(b"set k x 0 5").is_err());
        assert!(parse_command(b"set k 0 0").is_err());
        let long_key = vec![b'a'; 251];
        let mut line = b"get ".to_vec();
        line.extend_from_slice(&long_key);
        assert!(parse_command(&line).is_err());
    }

    #[test]
    fn rejects_keys_with_spaces_or_control_bytes() {
        assert!(parse_command(b"delete bad\x01key").is_err());
        // A key token cannot contain a space (it would split), but control
        // characters can sneak in.
        assert!(parse_command(&[b'g', b'e', b't', b' ', 0x7f]).is_err());
    }

    #[test]
    fn parses_add_replace_arith_touch_flush_version() {
        match parse_command(b"add k 0 0 3").unwrap() {
            Command::Set { header } => assert_eq!(header.verb, SetVerb::Add),
            other => panic!("unexpected {other:?}"),
        }
        match parse_command(b"replace k 0 0 3").unwrap() {
            Command::Set { header } => assert_eq!(header.verb, SetVerb::Replace),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            parse_command(b"incr counter 5").unwrap(),
            Command::Arith {
                key: b"counter",
                delta: 5,
                up: true
            }
        );
        assert_eq!(
            parse_command(b"decr counter 2").unwrap(),
            Command::Arith {
                key: b"counter",
                delta: 2,
                up: false
            }
        );
        assert_eq!(
            parse_command(b"touch k 300").unwrap(),
            Command::Touch {
                key: b"k",
                exptime: 300
            }
        );
        assert_eq!(parse_command(b"flush_all").unwrap(), Command::FlushAll);
        assert_eq!(parse_command(b"version").unwrap(), Command::Version);
        // add/replace reject a cost token like plain set does.
        assert!(parse_command(b"add k 0 0 5 99").is_err());
        assert!(parse_command(b"incr k").is_err());
        assert!(parse_command(b"incr k five").is_err());
        assert!(parse_command(b"touch k").is_err());
    }

    #[test]
    fn oversized_declared_length_is_a_fatal_server_error() {
        // Unlimited parse accepts a huge declared length...
        assert!(parse_command(b"set k 0 0 4294967295").is_ok());
        // ...the limited parse refuses it before any buffer is sized.
        let err = parse_command_limited(b"set k 0 0 4294967295", 1 << 20).unwrap_err();
        assert!(err.is_fatal());
        assert_eq!(err.to_string(), "SERVER_ERROR object too large for cache");
        // At-limit passes; one past fails; every storage verb is covered.
        assert!(parse_command_limited(b"set k 0 0 1024", 1024).is_ok());
        assert!(parse_command_limited(b"set k 0 0 1025", 1024).is_err());
        assert!(parse_command_limited(b"add k 0 0 1025", 1024).is_err());
        assert!(parse_command_limited(b"replace k 0 0 1025", 1024).is_err());
        assert!(parse_command_limited(b"iqset k 0 0 1025 9", 1024).is_err());
        // Ordinary malformed input keeps the non-fatal CLIENT_ERROR shape.
        let err = parse_command_limited(b"set k x 0 5", 1024).unwrap_err();
        assert!(!err.is_fatal());
        assert!(err.to_string().starts_with("CLIENT_ERROR"));
    }

    #[test]
    fn tolerates_repeated_spaces() {
        assert_eq!(
            parse_command(b"get   a").unwrap(),
            Command::Get {
                keys: keys(&[b"a"])
            }
        );
    }

    #[test]
    fn key_list_spills_past_inline_capacity() {
        let mut line = b"get".to_vec();
        let names: Vec<String> = (0..INLINE_KEYS + 3).map(|i| format!("k{i:02}")).collect();
        for name in &names {
            line.push(b' ');
            line.extend_from_slice(name.as_bytes());
        }
        match parse_command(&line).unwrap() {
            Command::Get { keys } => {
                assert_eq!(keys.len(), INLINE_KEYS + 3);
                let got: Vec<&[u8]> = keys.iter().collect();
                let want: Vec<&[u8]> = names.iter().map(|n| n.as_bytes()).collect();
                assert_eq!(got, want);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parsed_keys_borrow_the_line_buffer() {
        // The whole point of the borrowed parse: keys are slices into the
        // caller's buffer, not copies.
        let line = b"gets alpha beta".to_vec();
        let range = line.as_ptr() as usize..line.as_ptr() as usize + line.len();
        match parse_command(&line).unwrap() {
            Command::Get { keys } => {
                for key in keys.iter() {
                    assert!(range.contains(&(key.as_ptr() as usize)));
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn line_buffer_reuse_across_commands_preserves_owned_keys() {
        // Simulates the server's connection loop: one reusable line buffer,
        // successive commands parsed from it. Anything the server keeps
        // beyond one command (e.g. the IQ miss registry's key) must be
        // converted to owned bytes; this checks that reuse of the buffer
        // cannot corrupt such a conversion, and that the second parse's
        // borrowed keys see the *new* contents.
        let mut line = Vec::new();
        line.extend_from_slice(b"iqget session:42");
        let owned_key: Vec<u8> = match parse_command(&line).unwrap() {
            Command::IqGet { key } => key.to_vec(),
            other => panic!("unexpected {other:?}"),
        };
        // Reuse the buffer for a different, longer command.
        line.clear();
        line.extend_from_slice(b"set another-key-entirely 1 0 3");
        match parse_command(&line).unwrap() {
            Command::Set { header } => {
                assert_eq!(header.key, b"another-key-entirely");
                assert_eq!(header.bytes, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
        // The owned copy from the first command is untouched by the reuse.
        assert_eq!(owned_key, b"session:42");
    }
}
