//! The five rule families.
//!
//! 1. **panic-freedom** (`panic`, `index`) — no `unwrap`/`expect`/
//!    `panic!`/`unreachable!`/`todo!`/`unimplemented!` and no direct
//!    (non-range) indexing in non-test code of the service-plane paths.
//! 2. **unit discipline** (`units`) — no raw `f64`/`f32` in `pub fn`
//!    signatures of the physics crates outside the checked-in allowlist.
//! 3. **determinism** (`timing`) — no `Instant`, `SystemTime`,
//!    `thread::sleep`, or environment reads inside solver/sim code
//!    outside the timing allowlist.
//! 4. **clock discipline** (`clock`) — no raw `Instant::now()` /
//!    `SystemTime::now()` anywhere but `hems_obs::clock`, the workspace's
//!    single timestamp choke point (DESIGN.md §12).
//! 5. **crate hygiene** (`hygiene`) — crate roots carry
//!    `#![forbid(unsafe_code)]` + `#![warn(missing_docs)]`, and every
//!    public `*Error` type implements `Display` and `std::error::Error`.
//! 6. **batch-kernel hygiene** (`batch`) — `*_many` kernels write into
//!    caller-provided slabs; no per-element `Vec` traffic (`.push`,
//!    `.collect`, `vec!`, `Vec::new`/`with_capacity`) in their bodies
//!    outside tests.
//!
//! All checks run on the token stream of a [`SourceFile`]; test regions
//! are exempt everywhere, and inline `// hems-lint: allow(...)`
//! directives (reason required) suppress single findings in place.

use crate::lexer::{Token, TokenKind};
use crate::parser::ParsedFile;
use crate::report::Finding;
use crate::source::{next_significant, paren_group, prev_significant, SourceFile};
use std::collections::{HashMap, HashSet};

/// Allowlists for the `units` and `timing` rules.
#[derive(Debug, Default)]
pub struct RuleConfig {
    /// `units` exemptions, keyed `path::fn_name`, each mapped to its
    /// 1-based line in the allowlist file.
    pub units_allow: HashMap<String, u32>,
    /// `timing` exemptions, keyed `path::ident` (or a bare `path` to
    /// exempt a whole file), mapped to their allowlist lines.
    pub timing_allow: HashMap<String, u32>,
}

impl RuleConfig {
    /// Parses one allowlist file's text: one key per line, `#` comments
    /// and blank lines ignored. Each key maps to its 1-based line.
    pub fn parse_allowlist(text: &str) -> HashMap<String, u32> {
        text.lines()
            .zip(1..)
            .map(|(l, n)| (l.trim(), n))
            .filter(|(l, _)| !l.is_empty() && !l.starts_with('#'))
            .map(|(l, n)| (l.to_string(), n))
            .collect()
    }
}

/// Service-plane paths held to panic-freedom: the serve crate, the sim
/// crate's pool/sweep/engine, the core solvers, the chaos harness (a
/// fault injector that panics is indistinguishable from a fault), the
/// fleet twin (one panicking node state machine kills a 100k-node
/// campaign) — and this lint crate, which checks itself.
pub fn panic_rule_applies(rel: &str) -> bool {
    rel.starts_with("crates/serve/src/")
        || rel.starts_with("crates/core/src/")
        || rel.starts_with("crates/lint/src/")
        || rel.starts_with("crates/chaos/src/")
        || rel.starts_with("crates/obs/src/")
        || rel.starts_with("crates/fleet/src/")
        // The conformance gate: a panicking oracle or shrinker reads as
        // a divergence in CI, so it is held to the same bar it enforces.
        || rel.starts_with("crates/conformance/src/")
        // The serving front tier: a panicking router drops every shard
        // at once, and the load harness must survive saturated targets.
        || rel.starts_with("crates/router/src/")
        || rel.starts_with("crates/load/src/")
        || matches!(
            rel,
            "crates/sim/src/pool.rs" | "crates/sim/src/sweep.rs" | "crates/sim/src/engine.rs"
        )
}

/// Physics crates held to unit discipline in `pub fn` signatures.
pub fn units_rule_applies(rel: &str) -> bool {
    ["pv", "regulator", "cpu", "storage", "mppt", "core"]
        .iter()
        .any(|c| rel.starts_with(&format!("crates/{c}/src/")))
}

/// Deterministic solver/sim paths held to the timing rule, plus the
/// fleet library (its byte-identical-report contract forbids any wall
/// clock or environment influence). The serve crate is exempt by
/// design: its stats/latency layer measures wall time on purpose. So is
/// the fleet *bin*, which times campaigns for `BENCH_fleet.json` —
/// wall-clock figures live there and never in the report lines.
pub fn timing_rule_applies(rel: &str) -> bool {
    rel.starts_with("crates/core/src/")
        || rel.starts_with("crates/sim/src/")
        || (rel.starts_with("crates/fleet/src/") && rel != "crates/fleet/src/main.rs")
        // Dogfood: the lint gate's own output must not depend on the
        // wall clock or the environment either (its one legitimate env
        // read, root discovery in `main.rs`, is allowlisted).
        || rel.starts_with("crates/lint/src/")
        // The conformance plane is fully deterministic: every case is a
        // pure function of its seed, and the only clock is the obs
        // crate's monotonic counter (throughput reporting in `main.rs`,
        // never test semantics).
        || rel.starts_with("crates/conformance/src/")
        // The serving front tier and load harness: routing decisions and
        // schedules are pure functions of seed + config; the few places
        // that legitimately touch wall time (probe pacing, open-loop
        // send pacing, latency measurement) are named in the allowlist.
        // The bins are exempt like the fleet bin: they time experiments
        // for BENCH_load.json, and wall-clock figures live there.
        || (rel.starts_with("crates/router/src/") && !rel.starts_with("crates/router/src/bin/"))
        || (rel.starts_with("crates/load/src/") && !rel.starts_with("crates/load/src/bin/"))
}

/// Every scanned path except the one module allowed to read the wall
/// clock: `hems_obs::clock`, the single timestamp choke point the rest
/// of the workspace draws from (via `monotonic_ns()` or a `Clock`
/// handle).
pub fn clock_rule_applies(rel: &str) -> bool {
    rel != "crates/obs/src/clock.rs"
}

/// `true` for crate-root files that must carry the hygiene attributes.
pub fn is_crate_root(rel: &str) -> bool {
    rel == "src/lib.rs" || (rel.starts_with("crates/") && rel.ends_with("/src/lib.rs"))
}

/// The per-crate aggregation key (`crates/<name>` or `src`).
pub fn crate_key(rel: &str) -> String {
    let mut parts = rel.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => format!("crates/{name}"),
        _ => "src".to_string(),
    }
}

/// Per-file facts the cross-file error-type check aggregates per crate.
#[derive(Debug, Default)]
pub struct ErrorTypeFacts {
    /// `pub struct`/`pub enum` types named `*Error`: `(name, line)`.
    pub declared: Vec<(String, u32)>,
    /// Type names with an `impl ... Display for <name>`.
    pub display_for: Vec<String>,
    /// Type names with an `impl ... Error for <name>`.
    pub error_for: Vec<String>,
}

/// Runs every applicable per-file rule; returns findings plus the
/// error-type facts for the cross-file hygiene pass. `parsed` is the
/// file's item tree ([`ParsedFile`]) — the panic scan consults it to
/// tell a workspace method named `expect`/`unwrap` from the `Option`/
/// `Result` panic adapters.
pub fn check_file(
    file: &SourceFile,
    parsed: &ParsedFile,
    cfg: &RuleConfig,
) -> (Vec<Finding>, ErrorTypeFacts) {
    let mut findings = Vec::new();
    findings.extend(file.directive_findings.iter().cloned());
    if panic_rule_applies(&file.rel_path) {
        scan_panic_freedom(file, parsed, &mut findings);
    }
    if units_rule_applies(&file.rel_path) {
        scan_units(file, cfg, &mut findings);
    }
    if timing_rule_applies(&file.rel_path) {
        scan_timing(file, cfg, &mut findings);
    }
    if clock_rule_applies(&file.rel_path) {
        scan_clock(file, &mut findings);
    }
    if is_crate_root(&file.rel_path) {
        scan_root_attributes(file, &mut findings);
    }
    scan_batch_kernels(file, &mut findings);
    let facts = collect_error_type_facts(file);
    (findings, facts)
}

/// Reconciles per-crate error-type facts into hygiene findings.
pub fn reconcile_error_types(facts_per_file: &[(String, ErrorTypeFacts)]) -> Vec<Finding> {
    #[derive(Default)]
    struct CrateFacts {
        declared: Vec<(String, String, u32)>, // (type, file, line)
        display_for: HashSet<String>,
        error_for: HashSet<String>,
    }
    let mut by_crate: HashMap<String, CrateFacts> = HashMap::new();
    for (rel, facts) in facts_per_file {
        let entry = by_crate.entry(crate_key(rel)).or_default();
        for (name, line) in &facts.declared {
            entry.declared.push((name.clone(), rel.clone(), *line));
        }
        entry.display_for.extend(facts.display_for.iter().cloned());
        entry.error_for.extend(facts.error_for.iter().cloned());
    }
    let mut findings = Vec::new();
    for facts in by_crate.into_values() {
        for (name, rel, line) in facts.declared {
            let mut missing = Vec::new();
            if !facts.display_for.contains(&name) {
                missing.push("Display");
            }
            if !facts.error_for.contains(&name) {
                missing.push("std::error::Error");
            }
            if !missing.is_empty() {
                findings.push(Finding::new(
                    "hygiene",
                    rel,
                    line,
                    format!(
                        "public error type `{name}` does not implement {}",
                        missing.join(" + ")
                    ),
                ));
            }
        }
    }
    findings
}

fn push_unless_allowed(file: &SourceFile, findings: &mut Vec<Finding>, finding: Finding) {
    if !file.allowed(&finding.rule, finding.line) {
        findings.push(finding);
    }
}

/// Identifiers that may directly precede `[` without forming an index
/// expression (`return [..]`, `match [..]`, ...).
const NON_INDEX_KEYWORDS: [&str; 18] = [
    "return", "break", "continue", "in", "if", "else", "match", "loop", "while", "for", "let",
    "mut", "ref", "move", "const", "static", "as", "dyn",
];

fn scan_panic_freedom(file: &SourceFile, parsed: &ParsedFile, findings: &mut Vec<Finding>) {
    let tokens = &file.tokens;
    for (i, token) in tokens.iter().enumerate() {
        if token.is_comment() || file.in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        match (token.kind, token.text.as_str()) {
            (TokenKind::Ident, name @ ("unwrap" | "expect")) => {
                let after_dot = prev_significant(tokens, i)
                    .is_some_and(|(_, p)| p.kind == TokenKind::Punct && p.text == ".");
                // Only a *call* panics: `self.expect` may be a field
                // named `expect`, so require the opening parenthesis.
                let called = next_significant(tokens, i + 1)
                    .is_some_and(|(_, n)| n.kind == TokenKind::Punct && n.text == "(");
                // `self.expect(..)` dispatching to a method this file's
                // impl block defines is an ordinary workspace call, not
                // the `Option`/`Result` panic adapter.
                let own_method = called
                    && receiver_is_self(tokens, i)
                    && parsed
                        .enclosing_self_ty(i)
                        .is_some_and(|ty| parsed.has_method(ty, name));
                if after_dot && called && !own_method {
                    push_unless_allowed(
                        file,
                        findings,
                        Finding::new(
                            "panic",
                            &file.rel_path,
                            token.line,
                            format!("call to `.{name}()` outside tests"),
                        ),
                    );
                }
            }
            (TokenKind::Ident, name @ ("panic" | "unreachable" | "todo" | "unimplemented")) => {
                let is_macro = next_significant(tokens, i + 1)
                    .is_some_and(|(_, n)| n.kind == TokenKind::Punct && n.text == "!");
                if is_macro {
                    push_unless_allowed(
                        file,
                        findings,
                        Finding::new(
                            "panic",
                            &file.rel_path,
                            token.line,
                            format!("`{name}!` outside tests"),
                        ),
                    );
                }
            }
            (TokenKind::Punct, "[") => {
                if let Some(target) = index_expression_target(tokens, i) {
                    push_unless_allowed(
                        file,
                        findings,
                        Finding::new(
                            "index",
                            &file.rel_path,
                            token.line,
                            format!("direct index into `{target}` may panic; use `.get()`"),
                        ),
                    );
                }
            }
            _ => {}
        }
    }
}

/// `true` when the method name at `i` is called on a bare `self`
/// receiver (`self.name(..)`, not `self.field.name(..)`).
fn receiver_is_self(tokens: &[Token], i: usize) -> bool {
    let Some((di, dot)) = prev_significant(tokens, i) else {
        return false;
    };
    if !(dot.kind == TokenKind::Punct && dot.text == ".") {
        return false;
    }
    let Some((ri, recv)) = prev_significant(tokens, di) else {
        return false;
    };
    if !(recv.kind == TokenKind::Ident && recv.text == "self") {
        return false;
    }
    // `a.self` cannot occur, but `x.self_like` idents can't either —
    // just reject a further `.` so chained receivers don't count.
    !prev_significant(tokens, ri).is_some_and(|(_, p)| p.kind == TokenKind::Punct && p.text == ".")
}

/// Decides whether the `[` at `open` begins a non-range index expression;
/// returns the indexed expression's trailing token text when it does.
fn index_expression_target(tokens: &[Token], open: usize) -> Option<String> {
    let (_, prev) = prev_significant(tokens, open)?;
    let target = match (prev.kind, prev.text.as_str()) {
        (TokenKind::Ident, name) if !NON_INDEX_KEYWORDS.contains(&name) => name.to_string(),
        (TokenKind::Punct, ")" | "]") => "the preceding expression".to_string(),
        _ => return None,
    };
    // Scan the bracket group; `..` anywhere inside (two adjacent dots)
    // marks a range slice, which the rule deliberately does not flag.
    let mut depth = 0usize;
    let mut i = open;
    let mut last_was_dot = false;
    while let Some(token) = tokens.get(i) {
        if token.is_comment() {
            i += 1;
            continue;
        }
        match (token.kind, token.text.as_str()) {
            (TokenKind::Punct, "[") => {
                depth += 1;
                last_was_dot = false;
            }
            (TokenKind::Punct, "]") => {
                depth -= 1;
                if depth == 0 {
                    return Some(target);
                }
                last_was_dot = false;
            }
            (TokenKind::Punct, ".") => {
                if last_was_dot {
                    return None; // range expression inside the brackets
                }
                last_was_dot = true;
            }
            _ => last_was_dot = false,
        }
        i += 1;
    }
    None // unterminated; do not guess
}

fn scan_units(file: &SourceFile, cfg: &RuleConfig, findings: &mut Vec<Finding>) {
    for (name, name_line) in raw_float_pub_fns(file) {
        let key = format!("{}::{}", file.rel_path, name);
        if !cfg.units_allow.contains_key(&key) {
            push_unless_allowed(
                file,
                findings,
                Finding::new(
                    "units",
                    &file.rel_path,
                    name_line,
                    format!(
                        "pub fn `{name}` exposes raw f64/f32 in its signature; \
                         use a hems_units quantity or allowlist `{key}`"
                    ),
                ),
            );
        }
    }
}

/// The `units` rule's subjects in `file`: every non-test `pub fn` whose
/// signature names a raw `f64`/`f32`, as `(name, name_line)` in source
/// order.
pub fn raw_float_pub_fns(file: &SourceFile) -> Vec<(String, u32)> {
    let tokens = &file.tokens;
    let mut found = Vec::new();
    let mut i = 0;
    while let Some(token) = tokens.get(i) {
        let in_test = file.in_test.get(i).copied().unwrap_or(false);
        if token.is_comment() || in_test || !(token.kind == TokenKind::Ident && token.text == "pub")
        {
            i += 1;
            continue;
        }
        let Some((name, name_line, sig_end)) = parse_pub_fn(tokens, i) else {
            i += 1;
            continue;
        };
        let raw_float = tokens
            .get(i..sig_end)
            .unwrap_or(&[])
            .iter()
            .filter(|t| !t.is_comment())
            .any(|t| t.kind == TokenKind::Ident && (t.text == "f64" || t.text == "f32"));
        if raw_float {
            found.push((name, name_line));
        }
        i = sig_end;
    }
    found
}

/// Parses a `pub [(...)]? [const|async]* fn name(...) -> ...` head
/// starting at the `pub` token. Returns `(name, name_line, signature_end)`
/// where `signature_end` indexes the body `{` / terminating `;`.
fn parse_pub_fn(tokens: &[Token], pub_index: usize) -> Option<(String, u32, usize)> {
    let (mut i, mut token) = next_significant(tokens, pub_index + 1)?;
    // pub(crate) / pub(in path)
    if let Some((_, close)) = paren_group(tokens, i) {
        (i, token) = next_significant(tokens, close + 1)?;
    }
    while token.kind == TokenKind::Ident && matches!(token.text.as_str(), "const" | "async") {
        (i, token) = next_significant(tokens, i + 1)?;
    }
    if !(token.kind == TokenKind::Ident && token.text == "fn") {
        return None;
    }
    let (name_index, name_token) = next_significant(tokens, i + 1)?;
    if name_token.kind != TokenKind::Ident {
        return None;
    }
    // The signature runs to the body `{` or the `;` of a bodiless decl,
    // skipping brace-free generics/params along the way.
    let mut j = name_index + 1;
    while let Some(t) = tokens.get(j) {
        if t.kind == TokenKind::Punct && (t.text == "{" || t.text == ";") {
            return Some((name_token.text.clone(), name_token.line, j));
        }
        j += 1;
    }
    None
}

fn scan_timing(file: &SourceFile, cfg: &RuleConfig, findings: &mut Vec<Finding>) {
    if cfg.timing_allow.contains_key(&file.rel_path) {
        return; // whole-file exemption
    }
    let tokens = &file.tokens;
    for (i, token) in tokens.iter().enumerate() {
        if token.is_comment()
            || file.in_test.get(i).copied().unwrap_or(false)
            || token.kind != TokenKind::Ident
        {
            continue;
        }
        let what = match token.text.as_str() {
            "Instant" | "SystemTime" => Some(format!("`{}` (wall-clock time)", token.text)),
            // Only the path form `thread::sleep` — plain `sleep` idents
            // are domain vocabulary here (processor sleep states).
            "sleep" if is_path_call(tokens, i, "thread") => {
                Some("`thread::sleep` (wall-clock delay)".to_string())
            }
            "var" | "var_os" | "vars" if is_path_call(tokens, i, "env") => {
                Some(format!("`env::{}` (environment read)", token.text))
            }
            _ => None,
        };
        let Some(what) = what else { continue };
        let key = format!("{}::{}", file.rel_path, token.text);
        if cfg.timing_allow.contains_key(&key) {
            continue;
        }
        push_unless_allowed(
            file,
            findings,
            Finding::new(
                "timing",
                &file.rel_path,
                token.line,
                format!(
                    "{what} in deterministic solver/sim code; \
                     inject it from the caller or allowlist `{key}`"
                ),
            ),
        );
    }
}

fn scan_clock(file: &SourceFile, findings: &mut Vec<Finding>) {
    let tokens = &file.tokens;
    for (i, token) in tokens.iter().enumerate() {
        if token.is_comment()
            || file.in_test.get(i).copied().unwrap_or(false)
            || !(token.kind == TokenKind::Ident && token.text == "now")
        {
            continue;
        }
        let source = if is_path_call(tokens, i, "Instant") {
            "Instant::now()"
        } else if is_path_call(tokens, i, "SystemTime") {
            "SystemTime::now()"
        } else {
            continue;
        };
        push_unless_allowed(
            file,
            findings,
            Finding::new(
                "clock",
                &file.rel_path,
                token.line,
                format!(
                    "raw `{source}` outside `hems_obs::clock`; \
                     use `hems_obs::clock::monotonic_ns()` or a `Clock` handle"
                ),
            ),
        );
    }
}

/// Batch-kernel hygiene: a `*_many` kernel's contract is to write into
/// caller-provided output slabs, so its body must not pay per-element
/// `Vec` traffic. Flags `.push(..)`, `.collect()`, `vec![..]` and
/// `Vec::new`/`Vec::with_capacity` inside any non-test `fn *_many` body.
fn scan_batch_kernels(file: &SourceFile, findings: &mut Vec<Finding>) {
    let tokens = &file.tokens;
    let mut i = 0;
    while let Some(token) = tokens.get(i) {
        let in_test = file.in_test.get(i).copied().unwrap_or(false);
        if token.is_comment() || in_test || !(token.kind == TokenKind::Ident && token.text == "fn")
        {
            i += 1;
            continue;
        }
        let Some((name_index, name)) = next_significant(tokens, i + 1) else {
            i += 1;
            continue;
        };
        if !(name.kind == TokenKind::Ident && name.text.ends_with("_many")) {
            i += 1;
            continue;
        }
        let kernel = name.text.clone();
        // Locate the body `{`; a `;` first means a bodiless trait decl.
        let mut j = name_index + 1;
        let mut open = None;
        while let Some(t) = tokens.get(j) {
            if t.kind == TokenKind::Punct && t.text == ";" {
                break;
            }
            if t.kind == TokenKind::Punct && t.text == "{" {
                open = Some(j);
                break;
            }
            j += 1;
        }
        let Some(open) = open else {
            i = j + 1;
            continue;
        };
        let flag = |line: u32, what: &str, findings: &mut Vec<Finding>| {
            push_unless_allowed(
                file,
                findings,
                Finding::new(
                    "batch",
                    &file.rel_path,
                    line,
                    format!(
                        "{what} inside batch kernel `{kernel}`: `*_many` kernels \
                         write into caller-provided slabs, not per-element Vec allocations"
                    ),
                ),
            );
        };
        // Walk the brace-balanced body.
        let mut depth = 0usize;
        let mut k = open;
        while let Some(t) = tokens.get(k) {
            if t.is_comment() {
                k += 1;
                continue;
            }
            match (t.kind, t.text.as_str()) {
                (TokenKind::Punct, "{") => depth += 1,
                (TokenKind::Punct, "}") => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        break;
                    }
                }
                (TokenKind::Ident, m @ ("push" | "collect")) => {
                    let after_dot = prev_significant(tokens, k)
                        .is_some_and(|(_, p)| p.kind == TokenKind::Punct && p.text == ".");
                    if after_dot {
                        flag(t.line, &format!("`.{m}()`"), findings);
                    }
                }
                (TokenKind::Ident, "vec") => {
                    let is_macro = next_significant(tokens, k + 1)
                        .is_some_and(|(_, n)| n.kind == TokenKind::Punct && n.text == "!");
                    if is_macro {
                        flag(t.line, "`vec!`", findings);
                    }
                }
                (TokenKind::Ident, m @ ("new" | "with_capacity"))
                    if is_path_call(tokens, k, "Vec") =>
                {
                    flag(t.line, &format!("`Vec::{m}`"), findings);
                }
                _ => {}
            }
            k += 1;
        }
        i = k + 1;
    }
}

/// `true` when the ident at `i` is preceded by `<prefix>::` (path call).
fn is_path_call(tokens: &[Token], i: usize, prefix: &str) -> bool {
    let Some((c1, colon1)) = prev_significant(tokens, i) else {
        return false;
    };
    let Some((c2, colon2)) = prev_significant(tokens, c1) else {
        return false;
    };
    let Some((_, head)) = prev_significant(tokens, c2) else {
        return false;
    };
    colon1.kind == TokenKind::Punct
        && colon1.text == ":"
        && colon2.kind == TokenKind::Punct
        && colon2.text == ":"
        && head.kind == TokenKind::Ident
        && head.text == prefix
}

/// Checks a crate root for `#![forbid(unsafe_code)]` and
/// `#![warn(missing_docs)]` (deny/forbid also accepted for the latter).
fn scan_root_attributes(file: &SourceFile, findings: &mut Vec<Finding>) {
    let tokens = &file.tokens;
    let mut has_forbid_unsafe = false;
    let mut has_missing_docs = false;
    let mut i = 0;
    while let Some(token) = tokens.get(i) {
        let is_inner_attr = token.kind == TokenKind::Punct
            && token.text == "#"
            && next_significant(tokens, i + 1)
                .is_some_and(|(_, t)| t.kind == TokenKind::Punct && t.text == "!");
        if !is_inner_attr {
            i += 1;
            continue;
        }
        // Collect idents to the attribute's closing `]`.
        let mut idents: Vec<&str> = Vec::new();
        let mut depth = 0usize;
        let mut j = i;
        while let Some(t) = tokens.get(j) {
            match (t.kind, t.text.as_str()) {
                (TokenKind::Punct, "[") => depth += 1,
                (TokenKind::Punct, "]") => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        break;
                    }
                }
                (TokenKind::Ident, name) => idents.push(name),
                _ => {}
            }
            j += 1;
        }
        let level = |l: &str| idents.first() == Some(&l);
        if (level("forbid") || level("deny")) && idents.contains(&"unsafe_code") {
            has_forbid_unsafe = true;
        }
        if (level("warn") || level("deny") || level("forbid")) && idents.contains(&"missing_docs") {
            has_missing_docs = true;
        }
        i = j + 1;
    }
    if !has_forbid_unsafe {
        findings.push(Finding::new(
            "hygiene",
            &file.rel_path,
            1,
            "crate root is missing `#![forbid(unsafe_code)]`",
        ));
    }
    if !has_missing_docs {
        findings.push(Finding::new(
            "hygiene",
            &file.rel_path,
            1,
            "crate root is missing `#![warn(missing_docs)]`",
        ));
    }
}

/// Collects `pub struct/enum *Error` declarations and `Display`/`Error`
/// impl targets from one file (non-test code only).
fn collect_error_type_facts(file: &SourceFile) -> ErrorTypeFacts {
    let tokens = &file.tokens;
    let mut facts = ErrorTypeFacts::default();
    for (i, token) in tokens.iter().enumerate() {
        if token.is_comment()
            || file.in_test.get(i).copied().unwrap_or(false)
            || token.kind != TokenKind::Ident
        {
            continue;
        }
        match token.text.as_str() {
            "pub" => {
                let Some((ki, kw)) = next_significant(tokens, i + 1) else {
                    continue;
                };
                if !(kw.kind == TokenKind::Ident && matches!(kw.text.as_str(), "struct" | "enum")) {
                    continue;
                }
                let Some((_, name)) = next_significant(tokens, ki + 1) else {
                    continue;
                };
                if name.kind == TokenKind::Ident && name.text.ends_with("Error") {
                    facts.declared.push((name.text.clone(), name.line));
                }
            }
            "impl" => {
                // Scan the impl head (to `{`): trait path idents, `for`,
                // then the implementing type name.
                let mut saw_display = false;
                let mut saw_error = false;
                let mut j = i + 1;
                let mut target: Option<String> = None;
                while let Some(t) = tokens.get(j) {
                    if t.kind == TokenKind::Punct && (t.text == "{" || t.text == ";") {
                        break;
                    }
                    if t.kind == TokenKind::Ident {
                        match t.text.as_str() {
                            "Display" => saw_display = true,
                            "Error" => saw_error = true,
                            "for" => {
                                target = next_significant(tokens, j + 1)
                                    .filter(|(_, n)| n.kind == TokenKind::Ident)
                                    .map(|(_, n)| n.text.clone());
                                break;
                            }
                            _ => {}
                        }
                    }
                    j += 1;
                }
                if let Some(target) = target {
                    if saw_display {
                        facts.display_for.push(target.clone());
                    }
                    if saw_error {
                        facts.error_for.push(target);
                    }
                }
            }
            _ => {}
        }
    }
    facts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(rel: &str, src: &str) -> Vec<Finding> {
        check_cfg(rel, src, &RuleConfig::default()).0
    }

    fn check_cfg(rel: &str, src: &str, cfg: &RuleConfig) -> (Vec<Finding>, ErrorTypeFacts) {
        let file = SourceFile::parse(rel, src);
        let parsed = ParsedFile::parse(&file.tokens, &file.in_test);
        check_file(&file, &parsed, cfg)
    }

    const SERVE: &str = "crates/serve/src/demo.rs";

    #[test]
    fn panic_rule_fires_on_each_seeded_construct() {
        for (src, needle) in [
            ("fn f() { x.unwrap(); }", ".unwrap()"),
            ("fn f() { x.expect(\"m\"); }", ".expect()"),
            ("fn f() { panic!(\"m\"); }", "`panic!`"),
            ("fn f() { unreachable!(); }", "`unreachable!`"),
            ("fn f() { todo!(); }", "`todo!`"),
        ] {
            let findings = check(SERVE, src);
            assert_eq!(findings.len(), 1, "{src}");
            assert!(findings[0].message.contains(needle), "{src}");
        }
    }

    #[test]
    fn panic_rule_ignores_tests_strings_comments_and_lookalikes() {
        for src in [
            "#[cfg(test)] mod tests { fn f() { x.unwrap(); } }",
            "fn f() { let s = \"x.unwrap()\"; }",
            "fn f() { let s = r#\"panic!()\"#; }",
            "// x.unwrap() in a comment\nfn f() {}",
            "fn f() { x.unwrap_or(0); x.unwrap_or_else(f); x.unwrap_or_default(); }",
        ] {
            assert!(check(SERVE, src).is_empty(), "{src}");
        }
    }

    #[test]
    fn own_expect_method_on_self_is_not_a_panic_adapter() {
        // Regression: PR 7 exempted `.expect` *fields* ad hoc; the item
        // tree now also exempts a workspace method named `expect`/
        // `unwrap` when `self.expect(..)` dispatches to it.
        let src = "pub struct Parser;\n\
             impl Parser {\n\
                 fn expect(&mut self, k: u8) {}\n\
                 fn unwrap(&mut self) {}\n\
                 fn parse(&mut self) { self.expect(1); self.unwrap(); }\n\
             }\n";
        assert!(check(SERVE, src).is_empty(), "{:?}", check(SERVE, src));
        // A field named `expect` (the original case) stays exempt.
        assert!(check(SERVE, "fn f(s: S) { let e = s.expect; }").is_empty());
        // `opt.expect(..)` on a foreign receiver still fires.
        assert_eq!(check(SERVE, "fn f() { opt.expect(\"m\"); }").len(), 1);
        // `self.expect(..)` with no such method on the impl still fires.
        let no_method = "pub struct P;\nimpl P { fn parse(&self) { self.expect(\"m\"); } }\n";
        assert_eq!(check(SERVE, no_method).len(), 1);
    }

    #[test]
    fn index_rule_flags_plain_indexing_but_not_ranges_or_literals() {
        let findings = check(SERVE, "fn f() { let y = xs[i]; }");
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("`xs`"));
        for src in [
            "fn f() { let y = &xs[1..4]; }",
            "fn f() { let y = &xs[start..]; }",
            "fn f() { let v = [0u8; 4]; }",
            "fn f() -> Vec<u8> { vec![0; 4] }",
            "#[derive(Debug)]\nstruct S;",
            "fn f() { return [1, 2]; }",
        ] {
            assert!(check(SERVE, src).is_empty(), "{src}");
        }
    }

    #[test]
    fn allow_directive_suppresses_exactly_its_rule_and_line() {
        let src = "fn f() {\n    // hems-lint: allow(panic, reason = \"demo invariant\")\n    x.unwrap();\n}\n";
        assert!(check(SERVE, src).is_empty());
        let wrong_rule =
            "fn f() {\n    // hems-lint: allow(index, reason = \"demo\")\n    x.unwrap();\n}\n";
        assert_eq!(check(SERVE, wrong_rule).len(), 1);
        let far_away =
            "// hems-lint: allow(panic, reason = \"demo\")\nfn a() {}\nfn f() { x.unwrap(); }\n";
        assert_eq!(check(SERVE, far_away).len(), 1);
    }

    #[test]
    fn units_rule_fires_on_raw_floats_in_pub_fn_signatures() {
        let rel = "crates/pv/src/demo.rs";
        let findings = check(rel, "pub fn power(v: f64) -> f64 { v }");
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("power"));
        // Private fns, test code, and bodies are not signatures.
        for src in [
            "fn private(v: f64) -> f64 { v }",
            "pub fn ok(v: Volts) -> Watts { let x: f64 = v.volts(); Watts::new(x) }",
            "#[cfg(test)] mod tests { pub fn t(v: f64) {} }",
        ] {
            assert!(check(rel, src).is_empty(), "{src}");
        }
        // An allowlist entry silences it.
        let mut cfg = RuleConfig::default();
        cfg.units_allow
            .insert("crates/pv/src/demo.rs::power".to_string(), 1);
        assert!(check_cfg(rel, "pub fn power(v: f64) -> f64 { v }", &cfg)
            .0
            .is_empty());
    }

    #[test]
    fn units_rule_spans_multiline_signatures() {
        let src = "pub fn scaled(\n    self,\n    factor: f64,\n) -> Irradiance {\n    self\n}\n";
        assert_eq!(check("crates/pv/src/demo.rs", src).len(), 1);
    }

    #[test]
    fn timing_rule_fires_on_clock_sleep_and_env_reads() {
        let rel = "crates/sim/src/demo.rs";
        // `Instant::now()` in sim code additionally trips the clock rule,
        // so filter to the family under test here.
        let timing = |rel: &str, src: &str| -> Vec<Finding> {
            check(rel, src)
                .into_iter()
                .filter(|f| f.rule == "timing")
                .collect()
        };
        for (src, needle) in [
            ("fn f() { let t = Instant::now(); }", "Instant"),
            ("fn f() { let t = SystemTime::now(); }", "SystemTime"),
            ("fn f() { thread::sleep(d); }", "sleep"),
            ("fn f() { let v = std::env::var(\"X\"); }", "env::var"),
        ] {
            let findings = timing(rel, src);
            assert_eq!(findings.len(), 1, "{src}");
            assert!(findings[0].message.contains(needle), "{src}");
        }
        // `var` as a plain identifier is not an env read.
        assert!(check(rel, "fn f() { let var = 3; }").is_empty());
        // `sleep` as domain vocabulary (processor sleep states) is fine.
        assert!(check(rel, "fn f() { cpu.sleep(); let sleep = mode; }").is_empty());
        // The serve crate's latency code is exempt by path.
        assert!(timing("crates/serve/src/stats.rs", "fn f() { Instant::now(); }").is_empty());
        // Allowlist exemptions: per-ident and whole-file.
        let mut cfg = RuleConfig::default();
        cfg.timing_allow
            .insert("crates/sim/src/demo.rs::var".to_string(), 1);
        assert!(
            check_cfg(rel, "fn f() { let v = std::env::var(\"X\"); }", &cfg)
                .0
                .is_empty()
        );
    }

    #[test]
    fn clock_rule_forbids_raw_wall_clock_reads_outside_obs_clock() {
        let findings = check(SERVE, "fn f() { let t = Instant::now(); }");
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "clock");
        assert!(findings[0].message.contains("Instant::now()"));
        let findings = check(SERVE, "fn f() { let t = SystemTime::now(); }");
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("SystemTime::now()"));
        // The obs clock module is the one sanctioned call site.
        assert!(check("crates/obs/src/clock.rs", "fn f() { Instant::now(); }").is_empty());
        // Plain `now` idents, method calls, and other paths don't trip it.
        for src in [
            "fn f() { let now = 3; }",
            "fn f() { clock.now(); }",
            "fn f() { registry.now_ns(); }",
            "fn f() { Other::now(); }",
        ] {
            assert!(check(SERVE, src).is_empty(), "{src}");
        }
        // Test regions are exempt, and a reasoned allow suppresses it.
        assert!(check(
            SERVE,
            "#[cfg(test)] mod tests { fn f() { Instant::now(); } }"
        )
        .is_empty());
        let allowed =
            "fn f() {\n    // hems-lint: allow(clock, reason = \"demo\")\n    Instant::now();\n}\n";
        assert!(check(SERVE, allowed).is_empty());
    }

    #[test]
    fn batch_rule_flags_vec_traffic_in_many_kernels() {
        let rel = "crates/pv/src/demo.rs";
        let batch = |src: &str| -> Vec<Finding> {
            check(rel, src)
                .into_iter()
                .filter(|f| f.rule == "batch")
                .collect()
        };
        for (src, needle) in [
            (
                "fn eval_many(&self, xs: &[f64]) { out.push(x); }",
                ".push()",
            ),
            (
                "fn eval_many(&self, xs: &[f64]) { let v: Vec<f64> = xs.iter().collect(); }",
                ".collect()",
            ),
            ("fn eval_many(&self) { let v = vec![0.0; 8]; }", "`vec!`"),
            ("fn eval_many(&self) { let v = Vec::new(); }", "`Vec::new`"),
            (
                "fn eval_many(&self) { let v = Vec::with_capacity(8); }",
                "`Vec::with_capacity`",
            ),
        ] {
            let findings = batch(src);
            assert_eq!(findings.len(), 1, "{src}");
            assert!(findings[0].message.contains(needle), "{src}");
            assert!(findings[0].message.contains("eval_many"), "{src}");
        }
        // Slab writes, non-kernel fns, trait decls, tests, and allows pass.
        for src in [
            "fn eval_many(&self, xs: &[f64], out: &mut [f64]) { for (o, &x) in out.iter_mut().zip(xs) { *o = x; } }",
            "fn collect_all(&self) { out.push(x); }",
            "trait T { fn eval_many(&self, xs: &[f64], out: &mut [f64]); }",
            "#[cfg(test)] mod tests { fn eval_many_check() { v.push(1); } }",
            "fn eval_many(&self) {\n    // hems-lint: allow(batch, reason = \"demo\")\n    out.push(x);\n}\n",
        ] {
            assert!(batch(src).is_empty(), "{src}");
        }
        // A default trait method body is still a kernel body.
        let defaulted =
            "trait T { fn eval_many(&self, xs: &[f64]) -> Vec<f64> { xs.iter().copied().collect() } }";
        assert_eq!(batch(defaulted).len(), 1);
    }

    #[test]
    fn hygiene_rule_requires_root_attributes() {
        let findings = check("crates/pv/src/lib.rs", "//! docs\npub fn f() {}\n");
        assert_eq!(findings.len(), 2);
        let good = "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\npub fn f() {}\n";
        assert!(check("crates/pv/src/lib.rs", good).is_empty());
        // Non-root files are not checked for the attributes.
        assert!(check("crates/pv/src/cell.rs", "pub fn f() {}").is_empty());
    }

    #[test]
    fn hygiene_rule_requires_display_and_error_impls() {
        let declared = "pub enum DemoError { Bad }\n";
        let (_, facts) = check_cfg("crates/pv/src/error.rs", declared, &RuleConfig::default());
        let findings = reconcile_error_types(&[("crates/pv/src/error.rs".to_string(), facts)]);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("Display"));
        assert!(findings[0].message.contains("std::error::Error"));

        let complete = "pub enum DemoError { Bad }\n\
             impl fmt::Display for DemoError { fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { Ok(()) } }\n\
             impl std::error::Error for DemoError {}\n";
        let (_, facts) = check_cfg("crates/pv/src/error.rs", complete, &RuleConfig::default());
        assert!(reconcile_error_types(&[("crates/pv/src/error.rs".to_string(), facts)]).is_empty());
    }

    #[test]
    fn error_impls_are_matched_within_a_crate_across_files() {
        let decl_src = "pub struct PvError;\n";
        let impls_src =
            "impl std::fmt::Display for PvError {}\nimpl std::error::Error for PvError {}\n";
        let cfg = RuleConfig::default();
        let facts = vec![
            (
                "crates/pv/src/error.rs".to_string(),
                check_cfg("crates/pv/src/error.rs", decl_src, &cfg).1,
            ),
            (
                "crates/pv/src/display.rs".to_string(),
                check_cfg("crates/pv/src/display.rs", impls_src, &cfg).1,
            ),
        ];
        assert!(reconcile_error_types(&facts).is_empty());
        // A different crate's impls do not count.
        let elsewhere = vec![
            (
                "crates/pv/src/error.rs".to_string(),
                check_cfg("crates/pv/src/error.rs", decl_src, &cfg).1,
            ),
            (
                "crates/cpu/src/display.rs".to_string(),
                check_cfg("crates/cpu/src/display.rs", impls_src, &cfg).1,
            ),
        ];
        assert_eq!(reconcile_error_types(&elsewhere).len(), 1);
    }
}
