//! The three interprocedural passes over the workspace call graph.
//!
//! 1. **Transitive panic-reachability** (`panic_reach`) — no function
//!    reachable from the service plane (the same path set the lexical
//!    `panic` rule gates: serve, the sim pool/sweep/engine, the core
//!    solvers, chaos, obs, fleet, and this crate) may reach a panicking
//!    construct anywhere in the workspace. The lexical rule already
//!    covers panic sites *inside* the service plane; this pass covers
//!    the helper one-or-more calls deep in a physics crate. The finding
//!    prints the witness call chain.
//! 2. **Lock-order analysis** (`lock_order`) — records the partial
//!    order of mutex acquisitions (`.lock()` and the shared
//!    `hems_obs::relock(&m)` helper) held across call edges in the
//!    serve/router/pool/obs planes and flags (a) any cycle in that order (a
//!    potential deadlock) and (b) a lock held across a blocking call
//!    (`.recv()`, socket writes, `thread::sleep`, ...).
//! 3. **Determinism taint** (`taint`) — seeds nondeterminism sources
//!    (`HashMap`/`HashSet` iteration that is not re-sorted, raw clock
//!    reads, `std::env` reads, thread ids) and flags any call path from
//!    report/JSON-serialization code in chaos, fleet, or obs snapshots
//!    to a source. This encodes statically the byte-reproducibility
//!    contract the differential tests check dynamically.
//!
//! Every pass honors the inline `// hems-lint: allow(<rule>, reason =
//! "...")` workflow at the *seed site* (and `allow(panic, ..)` carries
//! over to `panic_reach`, so one reasoned justification covers both the
//! lexical and the transitive view of the same construct).

use crate::callgraph::{self, Graph};
use crate::lexer::{Token, TokenKind};
use crate::parser::{CallKind, CallSite, FnItem, ParsedFile};
use crate::report::Finding;
use crate::rules;
use crate::source::{next_significant, paren_group, SourceFile};
use std::collections::{HashMap, HashSet, VecDeque};

/// Per-pass finding counts and call-graph size, surfaced in the
/// `--json` summary so CI can assert every pass actually ran.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PassCounts {
    /// `panic_reach` finding count.
    pub panic_reach: usize,
    /// `lock_order` finding count.
    pub lock_order: usize,
    /// `taint` finding count.
    pub taint: usize,
    /// Lock acquisitions the `lock_order` pass modelled in its scope.
    pub lock_sites: usize,
    /// Call-graph size: non-test functions.
    pub functions: usize,
    /// Call-graph size: resolved call edges.
    pub edges: usize,
}

/// Findings plus the per-pass counts surfaced in the `--json` summary.
#[derive(Debug, Default)]
pub struct PassResult {
    /// All interprocedural findings.
    pub findings: Vec<Finding>,
    /// Per-pass counts.
    pub counts: PassCounts,
}

/// Files whose functions *root* the panic-reachability walk: the same
/// service-plane set the lexical `panic` rule gates.
fn is_panic_root(rel: &str) -> bool {
    rules::panic_rule_applies(rel)
}

/// Files in scope for the lock-order pass.
fn lock_scope(rel: &str) -> bool {
    rel.starts_with("crates/serve/src/")
        || rel.starts_with("crates/router/src/")
        || rel.starts_with("crates/sim/src/")
        || rel.starts_with("crates/obs/src/")
}

/// Files whose every function is a determinism-taint sink.
const TAINT_SINK_FILES: [&str; 3] = [
    "crates/chaos/src/report.rs",
    "crates/fleet/src/report.rs",
    "crates/obs/src/snapshot.rs",
];

/// In the report-producing crates, functions with these name fragments
/// are sinks even outside the sink files (e.g. `Registry::snapshot`).
const TAINT_SINK_NAME_HINTS: [&str; 4] = ["render", "report", "snapshot", "to_json"];

fn is_taint_sink(rel: &str, f: &FnItem) -> bool {
    if TAINT_SINK_FILES.contains(&rel) {
        return true;
    }
    let report_crate = rel.starts_with("crates/obs/src/")
        || rel.starts_with("crates/chaos/src/")
        || rel.starts_with("crates/fleet/src/");
    report_crate && TAINT_SINK_NAME_HINTS.iter().any(|h| f.name.contains(h))
}

/// Method names that block the calling thread (a lock must not be held
/// across them). `wait`/`wait_timeout` are deliberately absent: condvar
/// waits release the guard.
const BLOCKING_METHODS: [&str; 9] = [
    "accept",
    "flush",
    "read_exact",
    "read_line",
    "read_to_end",
    "recv",
    "recv_timeout",
    "send_timeout",
    "write_all",
];

/// The workspace's one poison-recovering lock helper
/// (`hems_obs::relock`): a call is an acquisition of its argument.
const LOCK_HELPER: &str = "relock";

/// Hash-ordered collection type names.
const HASH_TYPES: [&str; 2] = ["HashMap", "HashSet"];

/// Method names that iterate a collection in storage order.
const ITERATION_METHODS: [&str; 7] = [
    "drain",
    "into_iter",
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
];

/// Method names that re-establish a deterministic order downstream of a
/// hash iteration ("laundering": iterate-then-sort is reproducible).
const SORT_METHODS: [&str; 5] = [
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
];

/// Runs all three passes. `files` and `parsed` are parallel arrays.
pub fn run(files: &[SourceFile], parsed: &[ParsedFile]) -> PassResult {
    let units: Vec<(&str, &ParsedFile)> = files
        .iter()
        .zip(parsed)
        .map(|(f, p)| (f.rel_path.as_str(), p))
        .collect();
    let graph = callgraph::build(&units);
    let mut result = PassResult::default();
    result.counts.functions = graph.nodes.len();
    result.counts.edges = graph.out.iter().map(Vec::len).sum();
    let ctx = Ctx {
        files,
        parsed,
        graph: &graph,
    };
    panic_reach_pass(&ctx, &mut result);
    lock_order_pass(&ctx, &mut result);
    taint_pass(&ctx, &mut result);
    result
}

struct Ctx<'a> {
    files: &'a [SourceFile],
    parsed: &'a [ParsedFile],
    graph: &'a Graph,
}

impl<'a> Ctx<'a> {
    fn fn_of(&self, id: usize) -> Option<(&'a SourceFile, &'a FnItem)> {
        let node = self.graph.nodes.get(id)?;
        let file = self.files.get(node.file)?;
        let f = self.parsed.get(node.file)?.fns.get(node.fn_index)?;
        Some((file, f))
    }

    /// Qualified name of node `id` (empty when the id is stale).
    fn qualified(&self, id: usize) -> String {
        self.fn_of(id)
            .map(|(_, f)| f.qualified())
            .unwrap_or_default()
    }

    /// Outgoing edges of node `id`.
    fn edges(&self, id: usize) -> &'a [callgraph::Edge] {
        self.graph.out.get(id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Node ids whose call at `call_index` resolved to ≥ 1 target.
    fn resolved_calls(&self, id: usize) -> HashSet<usize> {
        self.edges(id).iter().map(|e| e.call_index).collect()
    }

    /// Renders a witness chain `a -> b -> c` from node ids, eliding the
    /// middle of very deep chains.
    fn chain(&self, ids: &[usize]) -> String {
        let qual = |&id: &usize| self.qualified(id);
        if ids.len() <= 6 {
            ids.iter().map(qual).collect::<Vec<_>>().join(" -> ")
        } else {
            let head: Vec<String> = ids.iter().take(3).map(qual).collect();
            let tail: Vec<String> = ids.iter().skip(ids.len() - 2).map(qual).collect();
            format!("{} -> .. -> {}", head.join(" -> "), tail.join(" -> "))
        }
    }
}

/// Multi-source BFS over forward edges; returns parent links and the
/// visited set (sources have no parent entry).
fn bfs(graph: &Graph, sources: &[usize]) -> (HashMap<usize, usize>, HashSet<usize>) {
    let mut parent: HashMap<usize, usize> = HashMap::new();
    let mut seen: HashSet<usize> = HashSet::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &s in sources {
        if seen.insert(s) {
            queue.push_back(s);
        }
    }
    while let Some(at) = queue.pop_front() {
        for e in graph.out.get(at).map(Vec::as_slice).unwrap_or(&[]) {
            if seen.insert(e.to) {
                parent.insert(e.to, at);
                queue.push_back(e.to);
            }
        }
    }
    (parent, seen)
}

/// Reconstructs the BFS path source → `to` (inclusive).
fn path_to(parent: &HashMap<usize, usize>, mut to: usize) -> Vec<usize> {
    let mut path = vec![to];
    while let Some(&p) = parent.get(&to) {
        to = p;
        path.push(to);
        if path.len() > parent.len() + 1 {
            break; // cycle guard; parents form a tree, but stay total
        }
    }
    path.reverse();
    path
}

// ---------------------------------------------------------------------
// Pass 1: transitive panic reachability
// ---------------------------------------------------------------------

/// One panicking construct inside a function body.
struct PanicSeed {
    line: u32,
    what: String,
}

/// Panic seeds of one function: `panic!`-family macros plus unresolved
/// `.unwrap()` / `.expect()` method calls (a workspace method of that
/// name is a call edge, not a panic — the parser-level fix for the
/// `.expect`-field/method false-positive class).
fn panic_seeds(ctx: &Ctx, id: usize) -> Vec<PanicSeed> {
    let Some((file, f)) = ctx.fn_of(id) else {
        return Vec::new();
    };
    let Some((lo, hi)) = f.body else {
        return Vec::new();
    };
    let mut seeds = Vec::new();
    let tokens = &file.tokens;
    let mut i = lo;
    while i <= hi {
        let Some(t) = tokens.get(i) else { break };
        if t.is_comment() || file.in_test.get(i).copied().unwrap_or(false) {
            i += 1;
            continue;
        }
        if t.kind == TokenKind::Ident
            && matches!(
                t.text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            )
        {
            let is_macro = tokens
                .get(i + 1)
                .is_some_and(|n| n.kind == TokenKind::Punct && n.text == "!");
            if is_macro && !allowed_panic(file, t.line) {
                seeds.push(PanicSeed {
                    line: t.line,
                    what: format!("`{}!`", t.text),
                });
            }
        }
        i += 1;
    }
    let resolved = ctx.resolved_calls(id);
    for (ci, call) in f.calls.iter().enumerate() {
        if call.kind == CallKind::Method
            && matches!(call.name.as_str(), "unwrap" | "expect")
            && !resolved.contains(&ci)
            && !file.in_test.get(call.token_index).copied().unwrap_or(false)
            && !allowed_panic(file, call.line)
        {
            seeds.push(PanicSeed {
                line: call.line,
                what: format!("`.{}()`", call.name),
            });
        }
    }
    seeds
}

/// `allow(panic, ..)` and `allow(panic_reach, ..)` both suppress a seed.
fn allowed_panic(file: &SourceFile, line: u32) -> bool {
    file.allowed("panic", line) || file.allowed("panic_reach", line)
}

fn panic_reach_pass(ctx: &Ctx, result: &mut PassResult) {
    let roots: Vec<usize> = (0..ctx.graph.nodes.len())
        .filter(|&id| {
            ctx.fn_of(id)
                .is_some_and(|(file, _)| is_panic_root(&file.rel_path))
        })
        .collect();
    let (parent, seen) = bfs(ctx.graph, &roots);
    for id in 0..ctx.graph.nodes.len() {
        if !seen.contains(&id) {
            continue;
        }
        let Some((file, _)) = ctx.fn_of(id) else {
            continue;
        };
        // Panic sites inside the service plane are the lexical `panic`
        // rule's findings; this pass owns everything beyond it.
        if is_panic_root(&file.rel_path) {
            continue;
        }
        for seed in panic_seeds(ctx, id) {
            let chain = ctx.chain(&path_to(&parent, id));
            result.findings.push(Finding::new(
                "panic_reach",
                &file.rel_path,
                seed.line,
                format!(
                    "{} is reachable from the service plane: {chain}; \
                     degrade instead of panicking, or justify with \
                     `allow(panic_reach, reason = ..)` at this line",
                    seed.what
                ),
            ));
            result.counts.panic_reach += 1;
        }
    }
}

// ---------------------------------------------------------------------
// Pass 2: lock-order analysis
// ---------------------------------------------------------------------

/// One lock acquisition inside a function body.
struct Acquisition {
    /// Best-effort lock identity, `crate:name`.
    ident: String,
    line: u32,
    token_index: usize,
    /// The `let` binding holding the guard, when there is one.
    binding: Option<String>,
    /// Brace depth (relative to the body) at the acquisition.
    depth: usize,
}

/// The per-function lock facts the interprocedural layer combines.
#[derive(Default)]
struct LockFacts {
    acquisitions: Vec<Acquisition>,
    /// All identities this function acquires directly.
    own: HashSet<String>,
    /// Body contains a directly blocking call.
    blocks: Option<(String, u32)>,
}

/// `crate:<name>` lock identity for the receiver of a `.lock()` call
/// (or the argument of a `lock(..)` / `relock(..)` helper call).
fn lock_identity(crate_key: &str, name: &str) -> String {
    let short = crate_key.strip_prefix("crates/").unwrap_or(crate_key);
    format!("{short}:{name}")
}

/// Extracts lock facts from one function body.
fn lock_facts(ctx: &Ctx, id: usize) -> LockFacts {
    let Some((file, f)) = ctx.fn_of(id) else {
        return LockFacts::default();
    };
    let Some((lo, hi)) = f.body else {
        return LockFacts::default();
    };
    if f.name == LOCK_HELPER {
        // The helper's own `.lock()` is modelled at each call site,
        // under the identity of the mutex passed in.
        return LockFacts::default();
    }
    let crate_key = rules::crate_key(&file.rel_path);
    let mut facts = LockFacts::default();
    let depths = body_depths(file, lo, hi);
    for call in &f.calls {
        let depth = depths
            .get(call.token_index.saturating_sub(lo))
            .copied()
            .unwrap_or(1);
        let is_lock_method = call.kind == CallKind::Method && call.name == "lock";
        let is_lock_helper =
            call.kind == CallKind::Free && (call.name == "lock" || call.name == LOCK_HELPER);
        if is_lock_method || is_lock_helper {
            let raw = if is_lock_helper {
                last_arg_ident(file, call.token_index)
            } else {
                call.receiver_ident.clone()
            };
            let raw = match raw.as_deref() {
                // `self.lock()` helpers: the impl type is the identity.
                Some("self") | None => f.self_ty.clone().unwrap_or_else(|| "mutex".to_string()),
                Some(other) => other.to_string(),
            };
            facts.own.insert(lock_identity(&crate_key, &raw));
            facts.acquisitions.push(Acquisition {
                ident: lock_identity(&crate_key, &raw),
                line: call.line,
                token_index: call.token_index,
                binding: let_binding_of(file, call.token_index, lo),
                depth,
            });
            continue;
        }
        if is_blocking_call(call) && facts.blocks.is_none() {
            facts.blocks = Some((call.name.clone(), call.line));
        }
    }
    facts
}

/// `true` when the call blocks the thread: a blocking-named method, a
/// `thread::sleep`, or a `TcpStream::connect{,_timeout}`.
fn is_blocking_call(call: &CallSite) -> bool {
    match call.kind {
        CallKind::Method => BLOCKING_METHODS.contains(&call.name.as_str()),
        CallKind::Free => {
            let last = call.path.last().map(String::as_str);
            (call.name == "sleep" && last == Some("thread"))
                || (matches!(call.name.as_str(), "connect" | "connect_timeout")
                    && last == Some("TcpStream"))
        }
    }
}

/// Brace depth per token offset within `[lo, hi]` (body `{` = depth 1).
fn body_depths(file: &SourceFile, lo: usize, hi: usize) -> Vec<usize> {
    let mut depths = Vec::with_capacity(hi - lo + 1);
    let mut depth = 0usize;
    for i in lo..=hi {
        if let Some(t) = file.tokens.get(i) {
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "{" => depth += 1,
                    "}" => depth = depth.saturating_sub(1),
                    _ => {}
                }
            }
        }
        depths.push(depth);
    }
    depths
}

/// Identifiers among the arguments of the call named at `name_index`.
fn arg_idents(tokens: &[Token], name_index: usize) -> impl Iterator<Item = &str> {
    let (open, close) = paren_group(tokens, name_index + 1).unwrap_or_default();
    tokens
        .get(open..close)
        .unwrap_or_default()
        .iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.as_str())
}

/// The last argument identifier that is not `self` —
/// `relock(&self.injector.queue)` → `queue`.
fn last_arg_ident(file: &SourceFile, name_index: usize) -> Option<String> {
    arg_idents(&file.tokens, name_index)
        .filter(|name| *name != "self")
        .last()
        .map(str::to_string)
}

/// The `let NAME = ..` binding holding the guard acquired by the call at
/// `at`, scanning back to the statement boundary. Only a guard that *is*
/// the initializer is bound (`let g = relock(&m);`); in
/// `let n = relock(&m).len();` or `let c = match relock(&m).pop() {..};`
/// the guard is a temporary of the statement.
fn let_binding_of(file: &SourceFile, at: usize, floor: usize) -> Option<String> {
    let tokens = &file.tokens;
    if !initializer_is_guard(tokens, at) {
        return None;
    }
    let mut i = at;
    let mut after_let: Option<String> = None;
    while i > floor {
        i -= 1;
        let t = tokens.get(i)?;
        if t.is_comment() {
            continue;
        }
        match (t.kind, t.text.as_str()) {
            (TokenKind::Punct, ";" | "{" | "}") => break,
            (TokenKind::Ident, "let") => return after_let,
            (TokenKind::Ident, "mut") => {}
            (TokenKind::Ident, name) => after_let = Some(name.to_string()),
            _ => after_let = None,
        }
    }
    None
}

/// Methods through which a lock result still reaches the binding as the
/// guard itself (`m.lock().unwrap()`).
const GUARD_PASSTHROUGH: [&str; 3] = ["expect", "unwrap", "unwrap_or_else"];

/// `true` when nothing but [`GUARD_PASSTHROUGH`] calls and `?` follow the
/// acquisition call at `at` before the statement's `;`.
fn initializer_is_guard(tokens: &[Token], at: usize) -> bool {
    let mut next = paren_group(tokens, at + 1).map(|(_, close)| close + 1);
    while let Some((i, t)) = next.and_then(|n| next_significant(tokens, n)) {
        if t.kind != TokenKind::Punct {
            return false;
        }
        next = match t.text.as_str() {
            ";" => return true,
            "?" => Some(i + 1),
            "." => next_significant(tokens, i + 1)
                .filter(|(_, m)| GUARD_PASSTHROUGH.contains(&m.text.as_str()))
                .and_then(|(m, _)| paren_group(tokens, m + 1))
                .map(|(_, close)| close + 1),
            _ => return false,
        };
    }
    false
}

/// One ordered lock pair with its witness site.
struct LockEdge {
    held: String,
    then: String,
    file: String,
    line: u32,
    note: String,
}

fn lock_order_pass(ctx: &Ctx, result: &mut PassResult) {
    let n = ctx.graph.nodes.len();
    let facts: Vec<LockFacts> = (0..n).map(|id| lock_facts(ctx, id)).collect();
    // Transitive closure: identities acquired and blocking behavior,
    // through the call graph to a fixed point.
    let mut acquires: HashMap<usize, HashSet<String>> = facts
        .iter()
        .enumerate()
        .filter(|(_, f)| !f.own.is_empty())
        .map(|(id, f)| (id, f.own.clone()))
        .collect();
    let mut blocks: HashSet<usize> = facts
        .iter()
        .enumerate()
        .filter(|(_, f)| f.blocks.is_some())
        .map(|(id, _)| id)
        .collect();
    loop {
        let mut changed = false;
        for (id, edges) in ctx.graph.out.iter().enumerate() {
            for e in edges {
                if blocks.contains(&e.to) && blocks.insert(id) {
                    changed = true;
                }
                let missing: Vec<String> = match (acquires.get(&e.to), acquires.get(&id)) {
                    (Some(theirs), Some(mine)) => theirs.difference(mine).cloned().collect(),
                    (Some(theirs), None) => theirs.iter().cloned().collect(),
                    _ => Vec::new(),
                };
                if !missing.is_empty() {
                    acquires.entry(id).or_default().extend(missing);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    // Collect ordered pairs and blocking-under-lock findings.
    let mut edges: Vec<LockEdge> = Vec::new();
    let mut blocking_seen: HashSet<(String, u32)> = HashSet::new();
    for (id, fact) in facts.iter().enumerate() {
        let Some((file, f)) = ctx.fn_of(id) else {
            continue;
        };
        if !lock_scope(&file.rel_path) {
            continue;
        }
        result.counts.lock_sites += fact.acquisitions.len();
        let Some((lo, hi)) = f.body else { continue };
        let depths = body_depths(file, lo, hi);
        for acq in &fact.acquisitions {
            let live = live_range(file, acq, lo, hi, &depths);
            // Other acquisitions inside the live range.
            for other in &fact.acquisitions {
                if other.token_index > acq.token_index
                    && other.token_index < live
                    && other.ident != acq.ident
                {
                    edges.push(LockEdge {
                        held: acq.ident.clone(),
                        then: other.ident.clone(),
                        file: file.rel_path.clone(),
                        line: other.line,
                        note: format!("in `{}`", f.qualified()),
                    });
                }
            }
            // Call edges inside the live range.
            for e in ctx.edges(id) {
                let Some(call) = f.calls.get(e.call_index) else {
                    continue;
                };
                if call.token_index <= acq.token_index || call.token_index >= live {
                    continue;
                }
                // Sorted for deterministic edge (and so finding) order.
                let mut thens: Vec<&String> = acquires.get(&e.to).into_iter().flatten().collect();
                thens.sort();
                for then in thens {
                    if *then != acq.ident {
                        edges.push(LockEdge {
                            held: acq.ident.clone(),
                            then: then.clone(),
                            file: file.rel_path.clone(),
                            line: e.line,
                            note: format!("in `{}` via `{}`", f.qualified(), ctx.qualified(e.to)),
                        });
                    }
                }
                if blocks.contains(&e.to) && !file.allowed("lock_order", e.line) {
                    let key = (acq.ident.clone(), e.line);
                    if blocking_seen.insert(key) {
                        result.findings.push(Finding::new(
                            "lock_order",
                            &file.rel_path,
                            e.line,
                            format!(
                                "lock `{}` held across a blocking call to `{}` in `{}`",
                                acq.ident,
                                ctx.qualified(e.to),
                                f.qualified()
                            ),
                        ));
                        result.counts.lock_order += 1;
                    }
                }
            }
            // Directly blocking calls inside the live range.
            for call in &f.calls {
                if call.token_index > acq.token_index
                    && call.token_index < live
                    && is_blocking_call(call)
                    && !file.allowed("lock_order", call.line)
                {
                    let key = (acq.ident.clone(), call.line);
                    if blocking_seen.insert(key) {
                        result.findings.push(Finding::new(
                            "lock_order",
                            &file.rel_path,
                            call.line,
                            format!(
                                "lock `{}` held across a blocking `.{}()` in `{}`",
                                acq.ident,
                                call.name,
                                f.qualified()
                            ),
                        ));
                        result.counts.lock_order += 1;
                    }
                }
            }
        }
    }
    // Cycle detection over the identity order graph.
    report_lock_cycles(ctx, &edges, result);
}

/// End (exclusive token index) of a guard's life: end of the enclosing
/// block for `let`-bound guards, end of statement for temporaries, or
/// an explicit `drop(binding)` / `wait(binding)` consumption.
fn live_range(
    file: &SourceFile,
    acq: &Acquisition,
    lo: usize,
    hi: usize,
    depths: &[usize],
) -> usize {
    let tokens = &file.tokens;
    let mut i = acq.token_index + 1;
    while i <= hi {
        let offset = i - lo;
        let depth = depths.get(offset).copied().unwrap_or(0);
        let Some(t) = tokens.get(i) else { break };
        match acq.binding.as_deref() {
            Some(binding) => {
                // Block-scoped: dies when the enclosing block closes.
                if depth < acq.depth {
                    return i;
                }
                // .. or at drop(binding) / wait(binding).
                if t.kind == TokenKind::Ident && (t.text == "drop" || t.text == "wait") {
                    let consumed = consumes_ident(tokens, i, binding);
                    if consumed {
                        return i;
                    }
                }
            }
            None => {
                // Temporary: dies at the end of its statement.
                if t.kind == TokenKind::Punct && t.text == ";" && depth <= acq.depth {
                    return i;
                }
                if depth < acq.depth {
                    return i;
                }
            }
        }
        i += 1;
    }
    hi + 1
}

/// `true` when the call at `at` has `ident` among its argument tokens.
fn consumes_ident(tokens: &[Token], at: usize, ident: &str) -> bool {
    arg_idents(tokens, at).any(|name| name == ident)
}

/// Detects cycles in the held-before order and reports each once.
fn report_lock_cycles(ctx: &Ctx, edges: &[LockEdge], result: &mut PassResult) {
    let mut adj: HashMap<&str, Vec<&LockEdge>> = HashMap::new();
    for e in edges {
        adj.entry(e.held.as_str()).or_default().push(e);
    }
    let mut idents: Vec<&str> = adj.keys().copied().collect();
    idents.sort_unstable();
    let mut reported: HashSet<Vec<String>> = HashSet::new();
    for &start in &idents {
        // DFS bounded by the identity count; find a path back to start.
        let mut stack: Vec<(&str, Vec<&LockEdge>)> = vec![(start, Vec::new())];
        let mut visited: HashSet<&str> = HashSet::new();
        while let Some((at, path)) = stack.pop() {
            for e in adj.get(at).map(Vec::as_slice).unwrap_or(&[]) {
                if e.then == start {
                    let mut cycle = path.clone();
                    cycle.push(e);
                    let mut key: Vec<String> = cycle.iter().map(|e| e.held.clone()).collect();
                    key.sort();
                    if !reported.insert(key) {
                        continue;
                    }
                    // A reasoned allow on any witness line documents
                    // the ordering invariant for the whole cycle.
                    let allowed = cycle.iter().any(|e| {
                        ctx.files
                            .iter()
                            .find(|f| f.rel_path == e.file)
                            .is_some_and(|f| f.allowed("lock_order", e.line))
                    });
                    if allowed {
                        continue;
                    }
                    let witness: Vec<String> = cycle
                        .iter()
                        .map(|e| {
                            format!(
                                "`{}` then `{}` ({} {}:{})",
                                e.held, e.then, e.note, e.file, e.line
                            )
                        })
                        .collect();
                    let Some(first) = cycle.first() else {
                        continue;
                    };
                    result.findings.push(Finding::new(
                        "lock_order",
                        &first.file,
                        first.line,
                        format!(
                            "lock-order cycle (potential deadlock): {}",
                            witness.join("; ")
                        ),
                    ));
                    result.counts.lock_order += 1;
                } else if !visited.contains(e.then.as_str()) {
                    visited.insert(e.then.as_str());
                    let mut next = path.clone();
                    next.push(e);
                    stack.push((e.then.as_str(), next));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Pass 3: determinism taint
// ---------------------------------------------------------------------

/// One nondeterminism source inside a function body.
struct TaintSource {
    line: u32,
    what: String,
}

/// Sources in one function: unordered hash iteration (not laundered by
/// a sort in the same body), raw clock reads, env reads, thread ids.
fn taint_sources(
    ctx: &Ctx,
    id: usize,
    hash_fields: &HashSet<(String, String)>,
) -> Vec<TaintSource> {
    let Some((file, f)) = ctx.fn_of(id) else {
        return Vec::new();
    };
    let Some((lo, hi)) = f.body else {
        return Vec::new();
    };
    let mut sources = Vec::new();
    let launders = f
        .calls
        .iter()
        .any(|c| SORT_METHODS.contains(&c.name.as_str()))
        || body_mentions(file, lo, hi, &["BTreeMap", "BTreeSet"]);
    let body_hash = body_mentions(file, lo, hi, &HASH_TYPES);
    for call in &f.calls {
        if file.in_test.get(call.token_index).copied().unwrap_or(false)
            || file.allowed("taint", call.line)
        {
            continue;
        }
        match call.kind {
            CallKind::Method if ITERATION_METHODS.contains(&call.name.as_str()) => {
                // The receiver must *name* a hash-typed thing: a struct
                // field of `HashMap`/`HashSet` type anywhere in the
                // workspace, or a local whose `let` line spells the
                // type. A body that merely mentions `HashMap` somewhere
                // must not condemn every Vec iteration inside it.
                let recv_is_hash = match call.receiver_ident.as_deref() {
                    Some(r) => {
                        hash_fields.iter().any(|(_, name)| name == r)
                            || local_is_hash(file, lo, call.token_index, r)
                    }
                    // Chained receiver (`map().iter()`, guard temps):
                    // fall back to the body-mention signal.
                    None => body_hash,
                };
                if !launders && recv_is_hash {
                    sources.push(TaintSource {
                        line: call.line,
                        what: format!(
                            "hash-ordered iteration (`.{}()` over a HashMap/HashSet)",
                            call.name
                        ),
                    });
                }
            }
            CallKind::Free => {
                let last = call.path.last().map(String::as_str);
                let what = match (last, call.name.as_str()) {
                    (Some("Instant" | "SystemTime"), "now") => {
                        Some(format!("raw `{}::now()`", last.unwrap_or_default()))
                    }
                    (Some("env"), "var" | "var_os" | "vars") => {
                        Some(format!("`env::{}` read", call.name))
                    }
                    (Some("thread"), "current") => Some("`thread::current()` id".to_string()),
                    _ => None,
                };
                if let Some(what) = what {
                    sources.push(TaintSource {
                        line: call.line,
                        what,
                    });
                }
            }
            _ => {}
        }
    }
    sources
}

/// `true` when a `let <name> .. = .. HashMap/HashSet ..;` statement (or
/// a `<name>: HashMap<..>` pattern/field use) precedes `before` in the
/// body: the local was visibly bound to a hash-ordered collection.
fn local_is_hash(file: &SourceFile, lo: usize, before: usize, name: &str) -> bool {
    let tokens = &file.tokens;
    let mut i = lo;
    while i < before {
        let Some(t) = tokens.get(i) else { break };
        if t.kind == TokenKind::Ident && t.text == name {
            // Scan this statement (to the next `;`) for a hash type.
            let mut j = i + 1;
            while let Some(n) = tokens.get(j) {
                if n.kind == TokenKind::Punct && (n.text == ";" || n.text == "{") {
                    break;
                }
                if n.kind == TokenKind::Ident && HASH_TYPES.contains(&n.text.as_str()) {
                    return true;
                }
                j += 1;
            }
        }
        i += 1;
    }
    false
}

/// `true` when the body tokens mention any of `needles` as identifiers.
fn body_mentions(file: &SourceFile, lo: usize, hi: usize, needles: &[&str]) -> bool {
    file.tokens
        .get(lo..=hi)
        .unwrap_or(&[])
        .iter()
        .any(|t| t.kind == TokenKind::Ident && needles.contains(&t.text.as_str()))
}

fn taint_pass(ctx: &Ctx, result: &mut PassResult) {
    // Hash-typed struct fields, workspace-wide: (owner, field).
    let mut hash_fields: HashSet<(String, String)> = HashSet::new();
    for parsed in ctx.parsed {
        for field in &parsed.struct_fields {
            if field
                .type_idents
                .iter()
                .any(|t| HASH_TYPES.contains(&t.as_str()))
            {
                hash_fields.insert((field.owner.clone(), field.name.clone()));
            }
        }
    }
    let sinks: Vec<usize> = (0..ctx.graph.nodes.len())
        .filter(|&id| {
            ctx.fn_of(id)
                .is_some_and(|(file, f)| is_taint_sink(&file.rel_path, f))
        })
        .collect();
    let (parent, seen) = bfs(ctx.graph, &sinks);
    let mut reported: HashSet<(String, u32)> = HashSet::new();
    for id in 0..ctx.graph.nodes.len() {
        if !seen.contains(&id) {
            continue;
        }
        let Some((file, _)) = ctx.fn_of(id) else {
            continue;
        };
        for src in taint_sources(ctx, id, &hash_fields) {
            if !reported.insert((file.rel_path.clone(), src.line)) {
                continue;
            }
            let chain = ctx.chain(&path_to(&parent, id));
            result.findings.push(Finding::new(
                "taint",
                &file.rel_path,
                src.line,
                format!(
                    "{} taints report serialization: {chain}; byte-reproducible \
                     reports must not depend on it — sort, inject a clock, or \
                     justify with `allow(taint, reason = ..)` at this line",
                    src.what
                ),
            ));
            result.counts.taint += 1;
        }
    }
}
