//! The whole-workspace `lock-order` analysis.
//!
//! Unlike every rule in [`crate::rules`], lock ordering is not a per-file
//! property: function A in one crate may take lock `x` and call into
//! function B in another crate that takes lock `y`, while function C does
//! the reverse. This module builds the workspace's inter-function
//! lock-acquisition graph and flags cycles — the static shadow of the
//! deadlocks the `camp-check` model checker catches dynamically.
//!
//! # The model
//!
//! * An **acquisition** is either a call to the poison-recovering helper,
//!   `lock(&path.to.field)`, or a raw `path.to.field.lock()` — the *lock
//!   class* is the final *field* segment of the lockee's path (`writer`,
//!   `stripes`, ...), ignoring index and call arguments
//!   (`lock(&self.stripes[i])` → `stripes`, `lock(self.shard_for(key))` →
//!   `shard_for`). Classes are workspace-global: every `self.writer` is
//!   the same class, which matches how one logical lock is reached from
//!   many methods. A lock reached through a bare local binding
//!   (`lock(shard)` inside a loop, `|s| lock(s)` in an iterator) has no
//!   class a lexer can see and is **skipped** — route acquisitions
//!   through a named field path if you need them tracked.
//! * Acquisitions are assumed **held for the rest of the function body**
//!   (guards normally live to end of scope), so a later acquisition or
//!   call in the same body happens "under" every earlier one.
//! * Calls are resolved **by bare name** to every workspace function of
//!   that name, and each function's *may-acquire* set is the fixpoint
//!   closure over its callees. Free and associated calls (`helper(...)`,
//!   `Persist::open(...)`) always resolve; method calls resolve only when
//!   the receiver chain roots at `self` (`self.inner.flush()`), because a
//!   bare-receiver method (`map.insert(...)`) is overwhelmingly a std
//!   collection call that would alias a same-named workspace function.
//! * An edge `a → b` means "`b` can be acquired while `a` is held". Any
//!   strongly-connected component with more than one class — or a class
//!   that can nest under itself, like two shard locks taken in arbitrary
//!   order — is reported as a cycle.
//!
//! Findings anchor at the acquisition/call site that closes the cycle and
//! honour the ordinary `// lint:allow(lock-order)` suppression, which is
//! how a hand-over-hand protocol with a documented tie-break order gets
//! sanctioned.

use std::collections::{BTreeMap, BTreeSet};

use crate::engine::{FileContext, FileKind, Finding};
use crate::lexer::Token;

/// Crates exempt from the analysis: the model checker's own scheduler
/// kernel serializes every virtual thread through one global lock by
/// design, which reads as a giant cycle to this analysis.
const EXEMPT_PATH_PREFIX: &str = "crates/camp-check/";

/// One lock acquisition site inside a function body.
#[derive(Debug, Clone)]
struct Acquire {
    /// Workspace-global lock class (final path segment of the lockee).
    class: String,
    /// Byte offset of the site (for findings).
    offset: usize,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
struct Call {
    /// Bare callee name; resolved against every function of that name.
    callee: String,
    /// Byte offset of the site.
    offset: usize,
}

/// A function body's lock-relevant events, in source order.
#[derive(Debug)]
struct FnInfo {
    /// Function name (bare; resolution is by name).
    name: String,
    /// Index into the context slice of the file this body lives in.
    file: usize,
    acquires: Vec<Acquire>,
    calls: Vec<Call>,
}

/// Keywords and builtins that look like calls but are not.
fn is_call_keyword(name: &str) -> bool {
    matches!(
        name,
        "fn" | "if"
            | "while"
            | "for"
            | "match"
            | "return"
            | "let"
            | "loop"
            | "unsafe"
            | "move"
            | "else"
            | "in"
            | "as"
            | "use"
            | "pub"
            | "struct"
            | "enum"
            | "impl"
            | "where"
            | "type"
            | "const"
            | "static"
            | "mut"
            | "ref"
            | "break"
            | "continue"
            | "crate"
            | "self"
            | "Self"
            | "super"
            | "dyn"
            | "box"
            | "async"
            | "await"
            | "Some"
            | "Ok"
            | "Err"
            | "None"
    )
}

fn tok<'a>(ctx: &'a FileContext<'_>, c: usize) -> Option<&'a Token> {
    ctx.code.get(c).map(|&ti| &ctx.tokens[ti])
}

fn is_ident_tok(ctx: &FileContext<'_>, c: usize) -> bool {
    tok(ctx, c).is_some_and(|t| t.kind == crate::lexer::TokenKind::Ident)
}

fn is_punct(ctx: &FileContext<'_>, c: usize, p: u8) -> bool {
    tok(ctx, c).is_some_and(|t| t.is_punct(ctx.src, p))
}

fn ident_text(ctx: &FileContext<'_>, c: usize) -> Option<String> {
    let t = tok(ctx, c)?;
    if t.kind == crate::lexer::TokenKind::Ident {
        Some(t.text(ctx.src))
    } else {
        None
    }
}

/// The lock class of a `lock( ... )` helper call starting at the `(` in
/// code position `open`: the last *field* identifier of the locked
/// expression — an ident preceded by `.`, at the outermost nesting level,
/// so index and call arguments don't masquerade as the lock
/// (`lock(&self.stripes[stripe])` → `stripes`, `lock(self.shard_for(key))`
/// → `shard_for`, `lock(local)` → none). Returns the class and the code
/// position just past the closing paren.
fn helper_lock_class(ctx: &FileContext<'_>, open: usize) -> (Option<String>, usize) {
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut class = None;
    let mut c = open;
    while let Some(t) = tok(ctx, c) {
        if t.is_punct(ctx.src, b'(') {
            paren += 1;
        } else if t.is_punct(ctx.src, b')') {
            paren -= 1;
            if paren == 0 {
                return (class, c + 1);
            }
        } else if t.is_punct(ctx.src, b'[') {
            bracket += 1;
        } else if t.is_punct(ctx.src, b']') {
            bracket -= 1;
        } else if paren == 1
            && bracket == 0
            && t.kind == crate::lexer::TokenKind::Ident
            && is_punct(ctx, c.wrapping_sub(1), b'.')
        {
            class = Some(t.text(ctx.src));
        }
        c += 1;
    }
    (class, c)
}

/// The lock class of a raw `<receiver>.lock()` whose `.` sits at code
/// position `dot`: the final field or method segment of the receiver path
/// (`self.shards[0].lock()` → `shards`, `self.shard_for(k).lock()` →
/// `shard_for`), or none when the receiver is a bare local (`shard.lock()`)
/// or not a path at all.
fn raw_lock_class(ctx: &FileContext<'_>, dot: usize) -> Option<String> {
    let mut c = dot.checked_sub(1)?;
    // Step back over one trailing index or argument-list group.
    for (open, close) in [(b'(', b')'), (b'[', b']')] {
        if is_punct(ctx, c, close) {
            let mut depth = 0i32;
            loop {
                if is_punct(ctx, c, close) {
                    depth += 1;
                } else if is_punct(ctx, c, open) {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                c = c.checked_sub(1)?;
            }
            c = c.checked_sub(1)?;
        }
    }
    // The segment must be a field/method reached through a path — a bare
    // local receiver has no workspace-global identity.
    if is_ident_tok(ctx, c) && is_punct(ctx, c.wrapping_sub(1), b'.') {
        ident_text(ctx, c)
    } else {
        None
    }
}

/// Whether the method call whose name sits at code position `c` (with the
/// `.` at `c - 1`) is reached through a receiver chain rooted at `self`
/// (`self.inner.flush()`), as opposed to a bare local or a temporary
/// (`map.insert(...)`, `lock(&x).push_back(...)`).
fn receiver_is_self(ctx: &FileContext<'_>, c: usize) -> bool {
    let mut j = c;
    while j >= 2 && is_punct(ctx, j - 1, b'.') && is_ident_tok(ctx, j - 2) {
        j -= 2;
    }
    j != c && tok(ctx, j).is_some_and(|t| t.is_ident(ctx.src, "self"))
}

/// Extracts every function's lock events from one file.
fn extract_fns(ctx: &FileContext<'_>, file: usize, out: &mut Vec<FnInfo>) {
    if !matches!(ctx.kind, FileKind::Lib { .. } | FileKind::Bin)
        || ctx.rel_path.starts_with(EXEMPT_PATH_PREFIX)
    {
        return;
    }
    for &(open, close) in &ctx.fn_bodies {
        // The function name: the identifier right after the `fn` keyword
        // that introduced this body (scan back from the open brace).
        let mut name = None;
        let mut k = open;
        while k > 0 {
            k -= 1;
            if tok(ctx, k).is_some_and(|t| t.is_ident(ctx.src, "fn")) {
                name = ident_text(ctx, k + 1);
                break;
            }
        }
        let Some(name) = name else { continue };
        // Skip ranges of functions nested inside this one.
        let nested: Vec<(usize, usize)> = ctx
            .fn_bodies
            .iter()
            .copied()
            .filter(|&(o, c)| o > open && c < close)
            .collect();
        let mut info = FnInfo {
            name,
            file,
            acquires: Vec::new(),
            calls: Vec::new(),
        };
        let mut c = open;
        while c <= close && c < ctx.code.len() {
            if nested.iter().any(|&(o, cl)| c >= o && c <= cl) {
                c += 1;
                continue;
            }
            let Some(t) = tok(ctx, c) else { break };
            let offset = t.start;
            if ctx.in_test_region(offset) {
                c += 1;
                continue;
            }
            // Helper-style acquisition: `lock( ... )`, not `.lock()`.
            if t.is_ident(ctx.src, "lock")
                && is_punct(ctx, c + 1, b'(')
                && !is_punct(ctx, c.wrapping_sub(1), b'.')
            {
                let (class, next) = helper_lock_class(ctx, c + 1);
                if let Some(class) = class {
                    info.acquires.push(Acquire { class, offset });
                }
                c = next;
                continue;
            }
            // Raw acquisition: `path.field.lock()` — class is the final
            // path segment of the receiver; bare-local receivers are
            // unclassifiable and skipped.
            if t.is_punct(ctx.src, b'.')
                && tok(ctx, c + 1).is_some_and(|t| t.is_ident(ctx.src, "lock"))
                && is_punct(ctx, c + 2, b'(')
            {
                if let Some(class) = raw_lock_class(ctx, c) {
                    info.acquires.push(Acquire { class, offset });
                }
                c += 3;
                continue;
            }
            // A call: `name(` (free/associated) always resolves; `.name(`
            // only when the receiver chain roots at `self` — a
            // bare-receiver method is overwhelmingly a std collection
            // call. Macros (`name!`), definitions (`fn name(`) and
            // keywords never match.
            if is_ident_tok(ctx, c) && is_punct(ctx, c + 1, b'(') {
                let callee = ident_text(ctx, c).unwrap_or_default();
                let prev_is_fn =
                    c > 0 && tok(ctx, c - 1).is_some_and(|t| t.is_ident(ctx.src, "fn"));
                let is_method = c > 0 && is_punct(ctx, c - 1, b'.');
                let resolvable = !is_method || receiver_is_self(ctx, c);
                if !is_call_keyword(&callee) && callee != "lock" && !prev_is_fn && resolvable {
                    info.calls.push(Call { callee, offset });
                }
            }
            c += 1;
        }
        if !info.acquires.is_empty() || !info.calls.is_empty() {
            out.push(info);
        }
    }
}

/// A directed edge witness: acquiring `to` while `from` is held.
#[derive(Debug, Clone)]
struct Witness {
    file: usize,
    offset: usize,
    detail: String,
}

/// Runs the analysis over every file context and returns `lock-order`
/// findings (one per distinct lock cycle).
#[must_use]
pub fn lock_order(contexts: &[FileContext<'_>]) -> Vec<Finding> {
    let mut fns: Vec<FnInfo> = Vec::new();
    for (i, ctx) in contexts.iter().enumerate() {
        extract_fns(ctx, i, &mut fns);
    }
    // Name → function indices (bare-name resolution).
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        by_name.entry(&f.name).or_default().push(i);
    }
    // Fixpoint: the set of lock classes each function may acquire,
    // directly or through any callee.
    let mut may: Vec<BTreeSet<String>> = fns
        .iter()
        .map(|f| f.acquires.iter().map(|a| a.class.clone()).collect())
        .collect();
    loop {
        let mut changed = false;
        for (i, f) in fns.iter().enumerate() {
            let mut add: BTreeSet<String> = BTreeSet::new();
            for call in &f.calls {
                if let Some(callees) = by_name.get(call.callee.as_str()) {
                    for &g in callees {
                        add.extend(may[g].iter().cloned());
                    }
                }
            }
            let before = may[i].len();
            may[i].extend(add);
            changed |= may[i].len() != before;
        }
        if !changed {
            break;
        }
    }
    // Edges: for each function, everything acquired (directly or via a
    // call) after an acquisition nests under it.
    let mut edges: BTreeMap<(String, String), Witness> = BTreeMap::new();
    for f in &fns {
        for (i, a) in f.acquires.iter().enumerate() {
            for b in f.acquires.iter().skip(i + 1) {
                edges
                    .entry((a.class.clone(), b.class.clone()))
                    .or_insert(Witness {
                        file: f.file,
                        offset: b.offset,
                        detail: format!(
                            "`{}` acquired while `{}` is held in fn `{}`",
                            b.class, a.class, f.name
                        ),
                    });
            }
            for call in f.calls.iter().filter(|c| c.offset > a.offset) {
                let Some(callees) = by_name.get(call.callee.as_str()) else {
                    continue;
                };
                for &g in callees {
                    for class in &may[g] {
                        edges
                            .entry((a.class.clone(), class.clone()))
                            .or_insert(Witness {
                                file: f.file,
                                offset: call.offset,
                                detail: format!(
                                "fn `{}` calls `{}` (which may acquire `{}`) while `{}` is held",
                                f.name, call.callee, class, a.class
                            ),
                            });
                    }
                }
            }
        }
    }
    report_cycles(contexts, &edges)
}

/// Finds cycles in the class graph and renders one finding per cycle.
fn report_cycles(
    contexts: &[FileContext<'_>],
    edges: &BTreeMap<(String, String), Witness>,
) -> Vec<Finding> {
    let nodes: BTreeSet<&String> = edges.keys().flat_map(|(a, b)| [a, b]).collect();
    let mut out = Vec::new();
    let mut reported: BTreeSet<Vec<&String>> = BTreeSet::new();
    for start in nodes {
        // Bounded DFS looking for a path start → ... → start.
        if let Some(path) = find_cycle(start, edges) {
            // Canonicalize so each cycle is reported once regardless of
            // which node the DFS entered it from.
            let mut canon = path.clone();
            canon.sort();
            canon.dedup();
            if !reported.insert(canon) {
                continue;
            }
            let last_hop = (path[path.len() - 2].clone(), path[path.len() - 1].clone());
            let witness = &edges[&last_hop];
            let ctx = &contexts[witness.file];
            let cycle: Vec<&str> = path.iter().map(|s| s.as_str()).collect();
            out.push(ctx.finding(
                "lock-order",
                witness.offset,
                format!(
                    "lock-order cycle `{}`: {} — a thread holding one side while \
                     another holds the reverse deadlocks; impose one acquisition \
                     order or justify with a lint:allow",
                    cycle.join(" -> "),
                    witness.detail
                ),
            ));
        }
    }
    out
}

/// DFS from `start` returning the first path that loops back to `start`
/// (as `[start, ..., start]`), if any.
fn find_cycle<'a>(
    start: &'a String,
    edges: &'a BTreeMap<(String, String), Witness>,
) -> Option<Vec<&'a String>> {
    let mut stack: Vec<&String> = vec![start];
    let mut visited: BTreeSet<&String> = BTreeSet::new();
    fn dfs<'a>(
        here: &'a String,
        start: &'a String,
        edges: &'a BTreeMap<(String, String), Witness>,
        stack: &mut Vec<&'a String>,
        visited: &mut BTreeSet<&'a String>,
    ) -> bool {
        for (pair, _) in edges.range((here.clone(), String::new())..) {
            let (from, to) = pair;
            if from != here {
                break;
            }
            if to == start {
                stack.push(to);
                return true;
            }
            if visited.insert(to) {
                stack.push(to);
                if dfs(to, start, edges, stack, visited) {
                    return true;
                }
                stack.pop();
            }
        }
        false
    }
    if dfs(start, start, edges, &mut stack, &mut visited) {
        Some(stack)
    } else {
        None
    }
}
