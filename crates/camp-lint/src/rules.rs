//! The repo-specific rules.
//!
//! Each rule is a pure function from a [`FileContext`] to findings. Rules
//! match over the *token stream*, so nothing inside comments, doc examples,
//! or string literals can fire them, and `lint:allow` suppression is applied
//! uniformly by the engine afterwards.
//!
//! The rule set encodes this workspace's written-down-but-previously-
//! unenforced conventions; the table in `DESIGN.md` §9 is the prose
//! counterpart of [`ALL_RULES`].

use crate::engine::{FileContext, Finding};
use crate::lexer::Token;

/// A registered rule: stable name, one-line description, check function.
#[derive(Clone, Copy)]
pub struct Rule {
    /// Stable kebab-case rule name, used in findings and `lint:allow(...)`.
    pub name: &'static str,
    /// One-line description for `--list-rules` and the DESIGN.md table.
    pub description: &'static str,
    /// The check itself.
    pub check: fn(&FileContext<'_>) -> Vec<Finding>,
}

impl std::fmt::Debug for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rule").field("name", &self.name).finish()
    }
}

/// The modules that are allowed to contain `unsafe` code, matched
/// path-exactly against the file's repo-relative path — a lookalike in
/// another directory (or a `signals.rs` elsewhere) still fires. Keep the
/// list short and justified:
///
/// * `signals.rs` — installs C signal handlers over a self-pipe; the
///   handler body is restricted to async-signal-safe calls.
/// * `net/epoll.rs` — the epoll syscall shim (`epoll_create1`/`epoll_ctl`/
///   `epoll_wait` declared via `extern "C"`, no libc crate); every call
///   site carries a safety argument and the fd is owned by the wrapper.
/// * `persist/crc.rs` — the journal's CRC32C; its one `unsafe` calls the
///   SSE4.2 kernel (a `#[target_feature]` function) only after
///   `is_x86_feature_detected!` found the feature at run time.
pub const UNSAFE_SANCTUARY: &[&str] = &[
    "crates/camp-kvs/src/signals.rs",
    "crates/camp-kvs/src/net/epoll.rs",
    "crates/camp-kvs/src/persist/crc.rs",
];

/// Crates whose library code must never read the wall clock (replay and
/// simulation determinism depend on it).
pub const DETERMINISTIC_CRATES: &[&str] = &["camp-core", "camp-policies", "camp-sim"];

/// The crate whose request path must not contain panicking `expect()` calls.
pub const REQUEST_PATH_CRATE: &str = "camp-kvs";

/// The crate allowed to invoke the ad-hoc `trace_event!`/`trace_span!`
/// flight-recorder macros in committed non-test code: their home crate,
/// which defines and self-tests them. Everywhere else they are debugging
/// leftovers (committed code records through the typed `FlightRecorder`
/// methods), exactly like `dbg!`.
pub const TRACE_MACRO_SANCTUARY_CRATE: &str = "camp-telemetry";

/// Every rule, in reporting order.
pub const ALL_RULES: &[Rule] = &[
    Rule {
        name: "unsafe-outside-signals",
        description: "`unsafe` appears outside the allowlisted modules (signals.rs, net/epoll.rs, persist/crc.rs)",
        check: unsafe_outside_signals,
    },
    Rule {
        name: "raw-mutex-lock",
        description: "`.lock().unwrap()` / `.lock().expect(...)` instead of the poison-recovering sync::lock()",
        check: raw_mutex_lock,
    },
    Rule {
        name: "unwrap-in-lib",
        description: "bare `.unwrap()` in library code (and `.expect(` on the camp-kvs request path)",
        check: unwrap_in_lib,
    },
    Rule {
        name: "println-in-lib",
        description: "`println!`-family output in library code; use the structured kvlog! instead",
        check: println_in_lib,
    },
    Rule {
        name: "wall-clock-in-core",
        description: "`Instant::now`/`SystemTime` inside deterministic crates (camp-core/policies/sim)",
        check: wall_clock_in_core,
    },
    Rule {
        name: "nested-lock",
        description: "two lock(...) call sites in one function body — deadlock smell",
        check: nested_lock,
    },
    Rule {
        name: "leftover-debug",
        description: "`dbg!`/`todo!`/`unimplemented!`, a FIXME comment, or a stray \
                      `trace_event!`/`trace_span!` left in the tree",
        check: leftover_debug,
    },
    Rule {
        name: "missing-deny-header",
        description: "a crate root without the `#![forbid|deny(unsafe_code)]` lint header",
        check: missing_deny_header,
    },
    Rule {
        name: "atomic-ordering",
        description: "an `Ordering::*` site without an `// ordering:` justification comment",
        check: atomic_ordering,
    },
    Rule {
        name: "lock-order",
        description: "a cycle in the workspace's inter-function lock-acquisition graph",
        // The analysis is inherently cross-file; the per-file check is a
        // no-op and the real pass lives in `graph::lock_order`, run by
        // `engine::lint_files` over the whole file set.
        check: |_| Vec::new(),
    },
];

/// Looks up a rule by name.
#[must_use]
pub fn rule_by_name(name: &str) -> Option<&'static Rule> {
    ALL_RULES.iter().find(|r| r.name == name)
}

// ---------------------------------------------------------------------------
// Matching helpers over the non-trivia token list.

/// The `c`-th non-trivia token, if any.
fn tok<'a>(ctx: &'a FileContext<'_>, c: usize) -> Option<&'a Token> {
    ctx.code.get(c).map(|&ti| &ctx.tokens[ti])
}

fn is_ident(ctx: &FileContext<'_>, c: usize, name: &str) -> bool {
    tok(ctx, c).is_some_and(|t| t.is_ident(ctx.src, name))
}

fn is_punct(ctx: &FileContext<'_>, c: usize, p: u8) -> bool {
    tok(ctx, c).is_some_and(|t| t.is_punct(ctx.src, p))
}

/// Whether code position `c` starts `.lock()`.
fn is_lock_call(ctx: &FileContext<'_>, c: usize) -> bool {
    is_punct(ctx, c, b'.')
        && is_ident(ctx, c + 1, "lock")
        && is_punct(ctx, c + 2, b'(')
        && is_punct(ctx, c + 3, b')')
}

// ---------------------------------------------------------------------------
// The rules.

fn unsafe_outside_signals(ctx: &FileContext<'_>) -> Vec<Finding> {
    if UNSAFE_SANCTUARY.contains(&ctx.rel_path) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for c in 0..ctx.code.len() {
        if is_ident(ctx, c, "unsafe") {
            let t = tok(ctx, c).expect("index in range");
            out.push(ctx.finding(
                "unsafe-outside-signals",
                t.start,
                format!(
                    "`unsafe` is only sanctioned in {} (signal handler, epoll shim, CRC32C kernel call)",
                    UNSAFE_SANCTUARY.join(", ")
                ),
            ));
        }
    }
    out
}

fn raw_mutex_lock(ctx: &FileContext<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    for c in 0..ctx.code.len() {
        if is_lock_call(ctx, c)
            && is_punct(ctx, c + 4, b'.')
            && (is_ident(ctx, c + 5, "unwrap") || is_ident(ctx, c + 5, "expect"))
        {
            let t = tok(ctx, c + 5).expect("index in range");
            let what = t.text(ctx.src);
            out.push(ctx.finding(
                "raw-mutex-lock",
                t.start,
                format!(
                    "`.lock().{what}(...)` panics on poison; use the counting, \
                     poison-recovering `sync::lock(&mutex)` helper"
                ),
            ));
        }
    }
    out
}

fn unwrap_in_lib(ctx: &FileContext<'_>) -> Vec<Finding> {
    if !ctx.is_lib() {
        return Vec::new();
    }
    let on_request_path = ctx.crate_name() == Some(REQUEST_PATH_CRATE);
    let mut out = Vec::new();
    for c in 0..ctx.code.len() {
        if !is_punct(ctx, c, b'.') {
            continue;
        }
        // `.lock().unwrap()` is raw-mutex-lock's finding; don't double-report.
        let after_lock_call = c >= 4 && is_lock_call(ctx, c - 4);
        if after_lock_call {
            continue;
        }
        let bare_unwrap = is_ident(ctx, c + 1, "unwrap")
            && is_punct(ctx, c + 2, b'(')
            && is_punct(ctx, c + 3, b')');
        let expect_call =
            on_request_path && is_ident(ctx, c + 1, "expect") && is_punct(ctx, c + 2, b'(');
        if !(bare_unwrap || expect_call) {
            continue;
        }
        let t = tok(ctx, c + 1).expect("index in range");
        if ctx.in_test_region(t.start) {
            continue;
        }
        let message = if bare_unwrap {
            "bare `.unwrap()` in library code: return an error, use \
             `.expect(\"invariant\")` with a message, or justify with a lint:allow"
                .to_string()
        } else {
            "`.expect(...)` on the camp-kvs request path: a panic here is a \
             user-facing outage; return an error or justify with a lint:allow"
                .to_string()
        };
        out.push(ctx.finding("unwrap-in-lib", t.start, message));
    }
    out
}

fn println_in_lib(ctx: &FileContext<'_>) -> Vec<Finding> {
    if !ctx.is_lib() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for c in 0..ctx.code.len() {
        let Some(t) = tok(ctx, c) else { continue };
        let is_print = ["println", "eprintln", "print", "eprint"]
            .iter()
            .any(|m| t.is_ident(ctx.src, m));
        if is_print && is_punct(ctx, c + 1, b'!') && !ctx.in_test_region(t.start) {
            let what = t.text(ctx.src);
            out.push(ctx.finding(
                "println-in-lib",
                t.start,
                format!("`{what}!` in library code bypasses the structured logger; use `kvlog!`"),
            ));
        }
    }
    out
}

fn wall_clock_in_core(ctx: &FileContext<'_>) -> Vec<Finding> {
    let Some(crate_name) = ctx.crate_name() else {
        return Vec::new();
    };
    if !DETERMINISTIC_CRATES.contains(&crate_name) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for c in 0..ctx.code.len() {
        let instant_now = is_ident(ctx, c, "Instant")
            && is_punct(ctx, c + 1, b':')
            && is_punct(ctx, c + 2, b':')
            && is_ident(ctx, c + 3, "now");
        let system_time = is_ident(ctx, c, "SystemTime");
        if !(instant_now || system_time) {
            continue;
        }
        let t = tok(ctx, c).expect("index in range");
        if ctx.in_test_region(t.start) {
            continue;
        }
        out.push(ctx.finding(
            "wall-clock-in-core",
            t.start,
            format!(
                "wall-clock read in deterministic crate `{crate_name}`: replay and \
                 simulation results must not depend on real time"
            ),
        ));
    }
    out
}

fn nested_lock(ctx: &FileContext<'_>) -> Vec<Finding> {
    use crate::engine::FileKind;
    if matches!(
        ctx.kind,
        FileKind::Test | FileKind::Bench | FileKind::Example
    ) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for &(open, close) in &ctx.fn_bodies {
        // Skip token ranges of functions nested inside this one, so an
        // inner fn's locks are attributed only to the inner fn.
        let nested: Vec<(usize, usize)> = ctx
            .fn_bodies
            .iter()
            .copied()
            .filter(|&(o, c)| o > open && c < close)
            .collect();
        let mut sites: Vec<usize> = Vec::new();
        let mut c = open;
        while c <= close && c < ctx.code.len() {
            if nested.iter().any(|&(o, cl)| c >= o && c <= cl) {
                c += 1;
                continue;
            }
            if is_ident(ctx, c, "lock") && is_punct(ctx, c + 1, b'(') {
                let t = tok(ctx, c).expect("index in range");
                if !ctx.in_test_region(t.start) {
                    sites.push(t.start);
                }
            }
            c += 1;
        }
        if sites.len() >= 2 {
            let (first_line, _) = ctx.line_col(sites[0]);
            out.push(ctx.finding(
                "nested-lock",
                sites[1],
                format!(
                    "{} lock(...) call sites in one function (first at line {first_line}): \
                     overlapping guards deadlock; if the locks are strictly sequential, \
                     say so with a lint:allow",
                    sites.len()
                ),
            ));
        }
    }
    out
}

fn leftover_debug(ctx: &FileContext<'_>) -> Vec<Finding> {
    use crate::engine::FileKind;
    let trace_macros_sanctioned = ctx.crate_name() == Some(TRACE_MACRO_SANCTUARY_CRATE)
        || matches!(
            ctx.kind,
            FileKind::Test | FileKind::Bench | FileKind::Example
        );
    let mut out = Vec::new();
    for c in 0..ctx.code.len() {
        let Some(t) = tok(ctx, c) else { continue };
        for mac in ["dbg", "todo", "unimplemented"] {
            if t.is_ident(ctx.src, mac) && is_punct(ctx, c + 1, b'!') {
                out.push(ctx.finding(
                    "leftover-debug",
                    t.start,
                    format!("`{mac}!` left in the tree"),
                ));
            }
        }
        if trace_macros_sanctioned {
            continue;
        }
        for mac in ["trace_event", "trace_span"] {
            if t.is_ident(ctx.src, mac)
                && is_punct(ctx, c + 1, b'!')
                && !ctx.in_test_region(t.start)
            {
                out.push(ctx.finding(
                    "leftover-debug",
                    t.start,
                    format!(
                        "`{mac}!` is a debugging aid: committed code records through \
                         the typed FlightRecorder methods (sanctioned only in \
                         {TRACE_MACRO_SANCTUARY_CRATE} and tests)"
                    ),
                ));
            }
        }
    }
    for t in &ctx.tokens {
        if t.is_comment() && t.text(ctx.src).contains("FIXME") {
            let off = t.start + t.text(ctx.src).find("FIXME").unwrap_or(0);
            out.push(ctx.finding(
                "leftover-debug",
                off,
                "FIXME comment left in the tree: file an issue or fix it".to_string(),
            ));
        }
    }
    out
}

/// The five `std::sync::atomic::Ordering` variants (deliberately not the
/// `std::cmp::Ordering` ones, which need no justification).
const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// The crate exempt from `atomic-ordering`: the model checker implements
/// the memory orderings, it doesn't have to justify choosing them.
const ORDERING_EXEMPT_PREFIX: &str = "crates/camp-check/";

fn atomic_ordering(ctx: &FileContext<'_>) -> Vec<Finding> {
    use crate::engine::FileKind;
    if !matches!(ctx.kind, FileKind::Lib { .. } | FileKind::Bin)
        || ctx.rel_path.starts_with(ORDERING_EXEMPT_PREFIX)
    {
        return Vec::new();
    }
    // Lines carrying an `// ordering:` comment. A justification covers its
    // own line and every following line of the same contiguous (blank-line
    // free) block, so one comment can vouch for a multi-line atomic
    // expression or a tight group of related sites.
    let mut justified_lines: Vec<u32> = Vec::new();
    for t in &ctx.tokens {
        if t.is_comment() && t.text(ctx.src).contains("ordering:") {
            justified_lines.push(ctx.line_col(t.start).0);
        }
    }
    let blank = |line: u32| -> bool {
        let start = ctx.line_starts.get(line as usize - 1).copied().unwrap_or(0);
        let end = ctx
            .line_starts
            .get(line as usize)
            .copied()
            .unwrap_or(ctx.src.len());
        ctx.src[start..end].iter().all(u8::is_ascii_whitespace)
    };
    let mut out = Vec::new();
    for c in 0..ctx.code.len() {
        let site = is_ident(ctx, c, "Ordering")
            && is_punct(ctx, c + 1, b':')
            && is_punct(ctx, c + 2, b':')
            && ATOMIC_ORDERINGS.iter().any(|o| is_ident(ctx, c + 3, o));
        if !site {
            continue;
        }
        let t = tok(ctx, c).expect("index in range");
        if ctx.in_test_region(t.start) {
            continue;
        }
        let (line, _) = ctx.line_col(t.start);
        // Walk up through the contiguous block looking for a justification.
        let mut l = line;
        let mut covered = justified_lines.contains(&l);
        while !covered && l > 1 && !blank(l - 1) {
            l -= 1;
            covered = justified_lines.contains(&l);
        }
        if covered {
            continue;
        }
        let variant = tok(ctx, c + 3).expect("site matched").text(ctx.src);
        out.push(ctx.finding(
            "atomic-ordering",
            t.start,
            format!(
                "`Ordering::{variant}` without an `// ordering:` justification \
                 comment on this line or the contiguous block above: say why \
                 this ordering is sufficient (what it publishes/acquires, or \
                 why Relaxed can't lose anything)"
            ),
        ));
    }
    out
}

fn missing_deny_header(ctx: &FileContext<'_>) -> Vec<Finding> {
    if !ctx.is_crate_root() {
        return Vec::new();
    }
    for c in 0..ctx.code.len() {
        let header = is_punct(ctx, c, b'#')
            && is_punct(ctx, c + 1, b'!')
            && is_punct(ctx, c + 2, b'[')
            && (is_ident(ctx, c + 3, "forbid") || is_ident(ctx, c + 3, "deny"))
            && is_punct(ctx, c + 4, b'(')
            && is_ident(ctx, c + 5, "unsafe_code")
            && is_punct(ctx, c + 6, b')')
            && is_punct(ctx, c + 7, b']');
        if header {
            return Vec::new();
        }
    }
    vec![ctx.finding(
        "missing-deny-header",
        0,
        "crate root lacks the `#![forbid(unsafe_code)]` (or `deny`, for signals.rs's \
         parent) lint header"
            .to_string(),
    )]
}
