//! Fixture corpus: every rule fires on a known-bad snippet, stays quiet on
//! the matching known-good one, and is silenced by its `lint:allow`.
//!
//! Snippets live in string literals inside this file (never on disk as
//! `.rs` files), for two reasons: the walker must not lint them as part of
//! the real tree, and keeping them inline makes each case's path-dependent
//! behaviour — the same bytes are bad in `crates/camp-kvs/src/` and fine in
//! `tests/` — explicit at the call site.

use camp_lint::rules::ALL_RULES;
use camp_lint::{lint_files, lint_source, Finding, SourceFile};

/// Rule names of the findings for `src` linted as `path`, in order.
fn fired(path: &str, src: &str) -> Vec<&'static str> {
    lint_source(path, src.as_bytes())
        .iter()
        .map(|f| f.rule)
        .collect()
}

fn assert_fires(rule: &str, path: &str, src: &str) {
    let rules = fired(path, src);
    assert!(
        rules.contains(&rule),
        "expected `{rule}` to fire on {path}; got {rules:?}\n---\n{src}"
    );
}

fn assert_clean(path: &str, src: &str) {
    let rules = fired(path, src);
    assert!(
        rules.is_empty(),
        "expected no findings on {path}; got {rules:?}\n---\n{src}"
    );
}

/// Inserting an own-line `lint:allow` above each finding's reported line
/// must silence the snippet completely.
fn assert_suppressible(path: &str, src: &str) {
    let findings = lint_source(path, src.as_bytes());
    assert!(!findings.is_empty(), "suppression case must start dirty");
    let mut suppressed = String::new();
    for (i, line) in src.lines().enumerate() {
        let here: Vec<&str> = findings
            .iter()
            .filter(|f| f.line as usize == i + 1)
            .map(|f| f.rule)
            .collect();
        if !here.is_empty() {
            let stripped = line.trim_start();
            let indent = &line[..line.len() - stripped.len()];
            suppressed.push_str(&format!("{indent}// lint:allow({})\n", here.join(", ")));
        }
        suppressed.push_str(line);
        suppressed.push('\n');
    }
    let after = fired(path, &suppressed);
    assert!(
        after.is_empty(),
        "lint:allow above each finding failed to silence {path}; still got {after:?}\n---\n{suppressed}"
    );
}

const LIB: &str = "crates/camp-core/src/fixture.rs";
const KVS_LIB: &str = "crates/camp-kvs/src/fixture.rs";
const BIN: &str = "crates/camp-kvs/src/bin/fixture.rs";
const TEST: &str = "crates/camp-kvs/tests/fixture.rs";

// -- unsafe-outside-signals -------------------------------------------------

const UNSAFE_SNIPPET: &str =
    "pub fn poke(p: *const u8) -> u8 { unsafe { std::ptr::read_volatile(p) } }\n";

#[test]
fn unsafe_outside_signals_fires_everywhere_but_the_sanctuary() {
    assert_fires("unsafe-outside-signals", KVS_LIB, UNSAFE_SNIPPET);
    assert_fires("unsafe-outside-signals", TEST, UNSAFE_SNIPPET);
    assert_clean("crates/camp-kvs/src/signals.rs", UNSAFE_SNIPPET);
    assert_clean("crates/camp-kvs/src/net/epoll.rs", UNSAFE_SNIPPET);
    assert_clean("crates/camp-kvs/src/persist/crc.rs", UNSAFE_SNIPPET);
    assert_suppressible(KVS_LIB, UNSAFE_SNIPPET);
}

#[test]
fn unsafe_sanctuary_is_path_exact() {
    // The allowlist matches whole repo-relative paths, not basenames or
    // suffixes: lookalikes in other crates/directories still fire.
    for lookalike in [
        "crates/camp-core/src/signals.rs",
        "crates/camp-kvs/src/net/signals.rs",
        "crates/camp-kvs/src/epoll.rs",
        "crates/camp-kvs/src/net/epoll2.rs",
        "crates/camp-kvs/tests/epoll.rs",
        "vendored/crates/camp-kvs/src/net/epoll.rs",
        "crates/camp-kvs/src/crc.rs",
        "crates/camp-kvs/src/persist/crc32c.rs",
        "crates/camp-core/src/persist/crc.rs",
    ] {
        assert_fires("unsafe-outside-signals", lookalike, UNSAFE_SNIPPET);
    }
}

#[test]
fn unsafe_listener_syscalls_are_confined_to_the_epoll_shim() {
    // The listener syscall family (socket/setsockopt/bind/listen/accept4)
    // joined the epoll shim; the same shapes anywhere else still fire.
    let snippets = [
        "fn mk() -> i32 { unsafe { socket(2, 1 | 0o4000, 0) } }\n",
        "fn reuse(fd: i32, on: &u32) -> i32 {\n    unsafe { setsockopt(fd, 1, 15, (on as *const u32).cast(), 4) }\n}\n",
        "fn take(fd: i32) -> i32 { unsafe { accept4(fd, std::ptr::null_mut(), std::ptr::null_mut(), 0o4000) } }\n",
    ];
    for snippet in snippets {
        assert_clean("crates/camp-kvs/src/net/epoll.rs", snippet);
        assert_fires("unsafe-outside-signals", KVS_LIB, snippet);
        assert_fires(
            "unsafe-outside-signals",
            "crates/camp-kvs/src/net/listener.rs",
            snippet,
        );
        assert_fires(
            "unsafe-outside-signals",
            "crates/camp-core/src/net/epoll.rs",
            snippet,
        );
    }
}

// -- raw-mutex-lock ---------------------------------------------------------

#[test]
fn raw_mutex_lock_fires_on_unwrap_and_expect() {
    let unwrap = "fn f(m: &std::sync::Mutex<u32>) -> u32 { *m.lock().unwrap() }\n";
    let expect = "fn f(m: &std::sync::Mutex<u32>) -> u32 { *m.lock().expect(\"poisoned\") }\n";
    for src in [unwrap, expect] {
        // Exactly one finding: unwrap-in-lib must not double-report it.
        assert_eq!(fired(KVS_LIB, src), vec!["raw-mutex-lock"]);
        // The rule is deliberately path-blind — tests hold locks too.
        assert_fires("raw-mutex-lock", TEST, src);
        assert_suppressible(KVS_LIB, src);
    }
    assert_clean(
        KVS_LIB,
        "fn f(m: &std::sync::Mutex<u32>) -> u32 { *crate::sync::lock(m) }\n",
    );
}

// -- unwrap-in-lib ----------------------------------------------------------

#[test]
fn unwrap_in_lib_flags_bare_unwrap_in_library_code_only() {
    let src = "fn f(v: Option<u32>) -> u32 { v.unwrap() }\n";
    assert_fires("unwrap-in-lib", LIB, src);
    assert_fires("unwrap-in-lib", KVS_LIB, src);
    // Binary roots need the deny header, but unwrap is their prerogative.
    assert_clean(BIN, &format!("#![forbid(unsafe_code)]\n{src}"));
    assert_clean(TEST, src);
    assert_suppressible(LIB, src);
}

#[test]
fn unwrap_in_lib_flags_expect_only_on_the_request_path() {
    let src = "fn f(v: Option<u32>) -> u32 { v.expect(\"caller checked\") }\n";
    assert_fires("unwrap-in-lib", KVS_LIB, src);
    // Off the request path, expect-with-message is the sanctioned
    // documented-invariant idiom.
    assert_clean(LIB, src);
    assert_suppressible(KVS_LIB, src);
}

#[test]
fn unwrap_in_lib_skips_test_regions_inside_lib_files() {
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1u32).unwrap(); }\n}\n";
    assert_clean(LIB, src);
}

// -- println-in-lib ---------------------------------------------------------

#[test]
fn println_in_lib_fires_on_the_print_family() {
    for mac in ["println", "eprintln", "print", "eprint"] {
        let src = format!("fn f() {{ {mac}!(\"x\"); }}\n");
        assert_fires("println-in-lib", KVS_LIB, &src);
        assert_clean(BIN, &format!("#![forbid(unsafe_code)]\n{src}"));
        assert_suppressible(KVS_LIB, &src);
    }
    // `writeln!` to an explicit sink is fine.
    assert_clean(
        KVS_LIB,
        "use std::io::Write;\nfn f(w: &mut impl Write) { let _ = writeln!(w, \"x\"); }\n",
    );
}

// -- wall-clock-in-core -----------------------------------------------------

#[test]
fn wall_clock_in_core_guards_the_deterministic_crates() {
    let instant = "fn f() -> std::time::Instant { std::time::Instant::now() }\n";
    let systime = "fn f() -> std::time::SystemTime { std::time::SystemTime::now() }\n";
    for crate_name in ["camp-core", "camp-policies", "camp-sim"] {
        let path = format!("crates/{crate_name}/src/fixture.rs");
        assert_fires("wall-clock-in-core", &path, instant);
        assert_fires("wall-clock-in-core", &path, systime);
    }
    // The server crate measures real latencies; the clock is its job.
    assert_clean(KVS_LIB, instant);
    assert_suppressible("crates/camp-sim/src/fixture.rs", instant);
}

// -- nested-lock ------------------------------------------------------------

#[test]
fn nested_lock_counts_lock_sites_per_function() {
    let two = "fn f(a: &M, b: &M) {\n    let x = lock(a);\n    let y = lock(b);\n}\n";
    assert_fires("nested-lock", KVS_LIB, two);
    assert_clean(KVS_LIB, "fn f(a: &M) {\n    let x = lock(a);\n}\n");
    // One lock per function is fine even across two functions.
    assert_clean(
        KVS_LIB,
        "fn f(a: &M) { let x = lock(a); }\nfn g(b: &M) { let y = lock(b); }\n",
    );
    // Integration tests drive the server from many threads; excluded.
    assert_clean(TEST, two);
    assert_suppressible(KVS_LIB, two);
}

// -- leftover-debug ---------------------------------------------------------

#[test]
fn leftover_debug_catches_macros_and_fixme_comments() {
    for mac in ["dbg", "todo", "unimplemented"] {
        let src = format!("fn f() {{ {mac}!() }}\n");
        assert_fires("leftover-debug", KVS_LIB, &src);
        assert_suppressible(KVS_LIB, &src);
    }
    let fixme = format!("// {}: resolve before merge\nfn f() {{}}\n", "FIXME");
    assert_fires("leftover-debug", KVS_LIB, &fixme);
    // `debug_assert!` is encouraged, not leftover debugging.
    assert_clean(KVS_LIB, "fn f(x: u32) { debug_assert!(x > 0); }\n");
}

#[test]
fn leftover_debug_catches_stray_trace_macros_outside_sanctuaries() {
    for mac in ["trace_event", "trace_span"] {
        let src = format!("fn f(r: &R) {{ {mac}!(r, \"probe\"); }}\n");
        // Committed non-test code records through the typed FlightRecorder
        // methods; the ad-hoc macros are debugging aids, like `dbg!`.
        assert_fires("leftover-debug", KVS_LIB, &src);
        assert_suppressible(KVS_LIB, &src);
        // Sanctioned in the macros' home crate, which defines them...
        assert_clean("crates/camp-telemetry/src/fixture.rs", &src);
        // ...and in tests, both integration files and inline modules.
        assert_clean(TEST, &src);
        assert_clean(
            KVS_LIB,
            &format!(
                "#[cfg(test)]\nmod tests {{\n    fn f(r: &R) {{ {mac}!(r, \"probe\"); }}\n}}\n"
            ),
        );
    }
    // A path through the recorder API, not a macro invocation.
    assert_clean(KVS_LIB, "fn f(r: &R) { r.trace_span(1); }\n");
}

// -- missing-deny-header ----------------------------------------------------

#[test]
fn missing_deny_header_requires_the_lint_block_on_crate_roots() {
    let bare = "//! A crate.\npub fn f() {}\n";
    assert_fires("missing-deny-header", "crates/camp-core/src/lib.rs", bare);
    assert_fires(
        "missing-deny-header",
        "crates/camp-kvs/src/bin/tool.rs",
        bare,
    );
    // Non-root library files don't need the header.
    assert_clean(LIB, bare);
    assert_clean(
        "crates/camp-core/src/lib.rs",
        "//! A crate.\n#![forbid(unsafe_code)]\npub fn f() {}\n",
    );
    // signals.rs's parent uses `deny` so the sanctuary can opt back in.
    assert_clean(
        "crates/camp-kvs/src/lib.rs",
        "//! A crate.\n#![deny(unsafe_code)]\npub fn f() {}\n",
    );
    assert_suppressible("crates/camp-core/src/lib.rs", bare);
}

// -- atomic-ordering --------------------------------------------------------

const BARE_ORDERING: &str = "use std::sync::atomic::{AtomicU64, Ordering};\nfn f(c: &AtomicU64) -> u64 { c.load(Ordering::Relaxed) }\n";

#[test]
fn atomic_ordering_requires_a_justification_in_lib_and_bin() {
    assert_fires("atomic-ordering", KVS_LIB, BARE_ORDERING);
    assert_fires("atomic-ordering", LIB, BARE_ORDERING);
    assert_fires(
        "atomic-ordering",
        BIN,
        &format!("#![forbid(unsafe_code)]\n{BARE_ORDERING}"),
    );
    // Tests reach for orderings freely; so does the model checker's shim,
    // whose whole job is implementing them.
    assert_clean(TEST, BARE_ORDERING);
    assert_clean("crates/camp-check/src/fixture.rs", BARE_ORDERING);
    assert_suppressible(KVS_LIB, BARE_ORDERING);
}

#[test]
fn atomic_ordering_accepts_same_line_and_contiguous_block_comments() {
    assert_clean(
        KVS_LIB,
        "fn f(c: &A) -> u64 { c.load(Ordering::Relaxed) } // ordering: Relaxed — stat.\n",
    );
    assert_clean(
        KVS_LIB,
        "fn f(c: &A) -> u64 {\n    // ordering: Relaxed — statistics counter.\n    c.load(Ordering::Relaxed)\n}\n",
    );
    // One comment vouches for every later line of the same contiguous
    // (blank-line-free) block...
    assert_clean(
        KVS_LIB,
        "fn f(c: &A, d: &A) {\n    // ordering: Relaxed(x2) — independent statistics counters.\n    c.fetch_add(1, Ordering::Relaxed);\n    d.fetch_add(1, Ordering::Relaxed);\n}\n",
    );
    // ...and a blank line is where its vouching ends.
    let gapped = "fn f(c: &A, d: &A) {\n    // ordering: Relaxed — statistics counter.\n    c.fetch_add(1, Ordering::Relaxed);\n\n    d.fetch_add(1, Ordering::Relaxed);\n}\n";
    assert_eq!(fired(KVS_LIB, gapped), vec!["atomic-ordering"]);
}

#[test]
fn atomic_ordering_only_matches_memory_orderings() {
    // `cmp::Ordering` shares the name but not the hazard.
    assert_clean(
        KVS_LIB,
        "fn f(a: u32, b: u32) -> std::cmp::Ordering { a.cmp(&b) }\n",
    );
    assert_clean(
        KVS_LIB,
        "fn f() -> std::cmp::Ordering { std::cmp::Ordering::Less }\n",
    );
}

// -- lock-order -------------------------------------------------------------

/// Lints `specs` as one multi-file workspace and keeps only the
/// whole-workspace `lock-order` findings.
fn lock_order_findings(specs: &[(&str, &str)]) -> Vec<Finding> {
    let files: Vec<SourceFile> = specs
        .iter()
        .map(|&(p, s)| SourceFile {
            rel_path: p.to_owned(),
            bytes: s.as_bytes().to_vec(),
        })
        .collect();
    lint_files(&files)
        .findings
        .into_iter()
        .filter(|f| f.rule == "lock-order")
        .collect()
}

const CYCLE_CALLER: &str = "fn a(s: &S) {\n    let _g = lock(&s.alpha);\n    b(s);\n}\n";
const CYCLE_CALLEE: &str = "fn b(s: &S) {\n    let _g = lock(&s.beta);\n}\nfn c(s: &S) {\n    let _g1 = lock(&s.beta);\n    let _g2 = lock(&s.alpha);\n}\n";
const OTHER_LIB: &str = "crates/camp-kvs/src/fixture2.rs";

#[test]
fn lock_order_flags_a_cross_file_cycle_once() {
    // `a` holds alpha while calling into `b` (beta); `c` nests alpha under
    // beta — the classic reversed pair, across two files.
    let found = lock_order_findings(&[(KVS_LIB, CYCLE_CALLER), (OTHER_LIB, CYCLE_CALLEE)]);
    assert_eq!(found.len(), 1, "one finding per cycle: {found:?}");
    assert!(found[0].message.contains("lock-order cycle"), "{found:?}");
    // The scheduler kernel of the model checker is exempt by design.
    let exempt = lock_order_findings(&[
        ("crates/camp-check/src/fixture.rs", CYCLE_CALLER),
        ("crates/camp-check/src/fixture2.rs", CYCLE_CALLEE),
    ]);
    assert!(exempt.is_empty(), "camp-check must be exempt: {exempt:?}");
}

#[test]
fn lock_order_is_quiet_under_a_consistent_acquisition_order() {
    // Same shapes as the cycle fixture, but `c` takes alpha before beta —
    // every path agrees, no finding.
    let ordered = "fn b(s: &S) {\n    let _g = lock(&s.beta);\n}\nfn c(s: &S) {\n    let _g1 = lock(&s.alpha);\n    let _g2 = lock(&s.beta);\n}\n";
    let found = lock_order_findings(&[(KVS_LIB, CYCLE_CALLER), (OTHER_LIB, ordered)]);
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn lock_order_flags_same_class_self_nesting() {
    // Two locks of one class in a single body: two threads doing it in
    // opposite per-instance order deadlock.
    let src = "fn f(s: &S) {\n    let _a = lock(&s.shards);\n    let _b = lock(&s.shards);\n}\n";
    assert_eq!(lock_order_findings(&[(KVS_LIB, src)]).len(), 1);
}

#[test]
fn lock_order_skips_unclassifiable_locals_and_foreign_receivers() {
    // A bare local has no workspace-global class — no self-nesting report.
    let local = "fn f(m: &M) {\n    let _g = lock(m);\n    let _h = lock(m);\n}\n";
    assert!(lock_order_findings(&[(KVS_LIB, local)]).is_empty());
    // `s.map.insert(...)` must NOT resolve to the workspace `fn insert`:
    // the receiver roots at a local, so this is a std-collection call and
    // no alpha→beta edge closes the cycle.
    let foreign = "fn a(s: &S) {\n    let _g = lock(&s.alpha);\n    s.map.insert(1, 2);\n}\n";
    let callee = "fn insert(s: &S) {\n    let _g = lock(&s.beta);\n}\nfn d(s: &S) {\n    let _g1 = lock(&s.beta);\n    let _g2 = lock(&s.alpha);\n}\n";
    assert!(lock_order_findings(&[(KVS_LIB, foreign), (OTHER_LIB, callee)]).is_empty());
    // The same call through `self` IS a workspace method — cycle closes.
    let through_self = "impl S {\n    fn a(&self) {\n        let _g = lock(&self.alpha);\n        self.insert(1);\n    }\n}\n";
    assert_eq!(
        lock_order_findings(&[(KVS_LIB, through_self), (OTHER_LIB, callee)]).len(),
        1
    );
}

#[test]
fn lock_order_honours_lint_allow_at_the_witness_line() {
    let found = lock_order_findings(&[(KVS_LIB, CYCLE_CALLER), (OTHER_LIB, CYCLE_CALLEE)]);
    assert_eq!(found.len(), 1);
    let witness = &found[0];
    // Insert an own-line allow above the reported witness line in the
    // reported file; the whole-workspace finding must vanish.
    let dirty = if witness.file == KVS_LIB {
        CYCLE_CALLER
    } else {
        CYCLE_CALLEE
    };
    let mut patched = String::new();
    for (i, line) in dirty.lines().enumerate() {
        if i + 1 == witness.line as usize {
            patched.push_str("    // lint:allow(lock-order) — fixture tie-break order\n");
        }
        patched.push_str(line);
        patched.push('\n');
    }
    let specs: Vec<(&str, &str)> = if witness.file == KVS_LIB {
        vec![(KVS_LIB, patched.as_str()), (OTHER_LIB, CYCLE_CALLEE)]
    } else {
        vec![(KVS_LIB, CYCLE_CALLER), (OTHER_LIB, patched.as_str())]
    };
    let after = lock_order_findings(&specs);
    assert!(after.is_empty(), "allow failed to silence: {after:?}");
}

// -- suppression mechanics --------------------------------------------------

#[test]
fn same_line_and_own_line_allow_both_work() {
    let same_line = "fn f(v: Option<u32>) -> u32 { v.unwrap() } // lint:allow(unwrap-in-lib)\n";
    assert_clean(LIB, same_line);
    let own_line =
        "// lint:allow(unwrap-in-lib) — fixture\nfn f(v: Option<u32>) -> u32 { v.unwrap() }\n";
    assert_clean(LIB, own_line);
    // A multi-line explanation between the allow and the code still counts.
    let spread = "// lint:allow(unwrap-in-lib) — a justification so long\n// that it wraps onto a second comment line\nfn f(v: Option<u32>) -> u32 { v.unwrap() }\n";
    assert_clean(LIB, spread);
    // The allow must name the right rule.
    let wrong = "fn f(v: Option<u32>) -> u32 { v.unwrap() } // lint:allow(nested-lock)\n";
    assert_fires("unwrap-in-lib", LIB, wrong);
    // And it must not leak past the line it covers.
    let leak = "// lint:allow(unwrap-in-lib)\nfn ok(v: Option<u32>) -> u32 { v.unwrap() }\nfn bad(v: Option<u32>) -> u32 { v.unwrap() }\n";
    assert_eq!(fired(LIB, leak), vec!["unwrap-in-lib"]);
}

#[test]
fn every_registered_rule_has_a_firing_fixture() {
    // The per-rule tests above must collectively cover ALL_RULES; this
    // meta-check fails if a ninth rule is added without a fixture.
    let covered = [
        "unsafe-outside-signals",
        "raw-mutex-lock",
        "unwrap-in-lib",
        "println-in-lib",
        "wall-clock-in-core",
        "nested-lock",
        "leftover-debug",
        "missing-deny-header",
        "atomic-ordering",
        "lock-order",
    ];
    for rule in ALL_RULES {
        assert!(
            covered.contains(&rule.name),
            "rule `{}` has no fixture coverage",
            rule.name
        );
    }
    assert_eq!(covered.len(), ALL_RULES.len());
}
