//! Negative-case suite for the interprocedural passes: each pass must
//! fire on a synthetic bad crate (with a witness chain naming the path)
//! and fall silent when the seed carries a reasoned allow directive.

use hems_lint::parser::ParsedFile;
use hems_lint::passes::{self, PassResult};
use hems_lint::{Finding, SourceFile};

/// Lexes + parses each (rel_path, source) pair and runs all three
/// passes over the synthetic workspace.
fn run(sources: &[(&str, &str)]) -> PassResult {
    let files: Vec<SourceFile> = sources
        .iter()
        .map(|(rel, src)| SourceFile::parse(rel, src))
        .collect();
    let parsed: Vec<ParsedFile> = files
        .iter()
        .map(|f| ParsedFile::parse(&f.tokens, &f.in_test))
        .collect();
    passes::run(&files, &parsed)
}

fn rendered(findings: &[Finding]) -> String {
    findings
        .iter()
        .map(Finding::render_human)
        .collect::<Vec<_>>()
        .join("\n")
}

// ------------------------------------------------------------------
// panic_reach
// ------------------------------------------------------------------

const PANIC_ROOT: (&str, &str) = (
    "crates/serve/src/bad_root.rs",
    "pub fn handle() -> u32 { hems_pv::helper(None) }",
);

#[test]
fn panic_reach_fires_with_witness_chain() {
    let result = run(&[
        PANIC_ROOT,
        (
            "crates/pv/src/lib.rs",
            "pub fn helper(x: Option<u32>) -> u32 { x.unwrap() }",
        ),
    ]);
    assert_eq!(
        result.counts.panic_reach,
        1,
        "{}",
        rendered(&result.findings)
    );
    let f = result
        .findings
        .iter()
        .find(|f| f.rule == "panic_reach")
        .expect("panic_reach finding");
    assert_eq!(f.file, "crates/pv/src/lib.rs");
    assert!(f.message.contains("`.unwrap()`"), "{}", f.message);
    assert!(
        f.message.contains("handle -> helper"),
        "witness chain missing: {}",
        f.message
    );
}

#[test]
fn panic_reach_is_silenced_by_reasoned_allow() {
    let result = run(&[
        PANIC_ROOT,
        (
            "crates/pv/src/lib.rs",
            "pub fn helper(x: Option<u32>) -> u32 {\n\
             // hems-lint: allow(panic_reach, reason = \"total by construction in this fixture\")\n\
             x.unwrap()\n}",
        ),
    ]);
    assert_eq!(
        result.counts.panic_reach,
        0,
        "{}",
        rendered(&result.findings)
    );
}

#[test]
fn panic_reach_ignores_unreachable_code() {
    // No service-plane root calls into the pv helper: no finding.
    let result = run(&[(
        "crates/pv/src/lib.rs",
        "pub fn helper(x: Option<u32>) -> u32 { x.unwrap() }",
    )]);
    assert_eq!(
        result.counts.panic_reach,
        0,
        "{}",
        rendered(&result.findings)
    );
}

// ------------------------------------------------------------------
// lock_order
// ------------------------------------------------------------------

const LOCK_CYCLE: &str = "\
pub struct Hub { pub alpha: std::sync::Mutex<u32>, pub beta: std::sync::Mutex<u32> }
pub fn forward(h: &Hub) { let a = h.alpha.lock(); grab_beta(h); drop(a); }
pub fn grab_beta(h: &Hub) { let b = h.beta.lock(); drop(b); }
pub fn backward(h: &Hub) { let b = h.beta.lock(); grab_alpha(h); drop(b); }
pub fn grab_alpha(h: &Hub) { let a = h.alpha.lock(); drop(a); }
";

#[test]
fn lock_order_cycle_fires() {
    let result = run(&[("crates/serve/src/bad_locks.rs", LOCK_CYCLE)]);
    assert_eq!(
        result.counts.lock_order,
        1,
        "{}",
        rendered(&result.findings)
    );
    let f = result
        .findings
        .iter()
        .find(|f| f.rule == "lock_order")
        .expect("lock_order finding");
    assert!(f.message.contains("lock-order cycle"), "{}", f.message);
    assert!(f.message.contains("serve:alpha"), "{}", f.message);
    assert!(f.message.contains("serve:beta"), "{}", f.message);
}

#[test]
fn lock_order_cycle_is_silenced_by_allow_on_a_witness_line() {
    // The allow directive covers its own line and the next, so the
    // comment ahead of `forward` documents that fn's call-edge witness.
    let silenced = LOCK_CYCLE.replace(
        "pub fn forward",
        "// hems-lint: allow(lock_order, reason = \"alpha-before-beta is the documented order\")\n\
         pub fn forward",
    );
    let result = run(&[("crates/serve/src/bad_locks.rs", &silenced)]);
    assert_eq!(
        result.counts.lock_order,
        0,
        "{}",
        rendered(&result.findings)
    );
}

#[test]
fn lock_held_across_blocking_recv_fires() {
    let result = run(&[(
        "crates/serve/src/bad_block.rs",
        "pub fn pump(h: &Hub, rx: &Receiver<u32>) {\n\
         let g = h.alpha.lock();\n\
         let _ = rx.recv();\n\
         drop(g);\n}",
    )]);
    assert_eq!(
        result.counts.lock_order,
        1,
        "{}",
        rendered(&result.findings)
    );
    let f = result
        .findings
        .iter()
        .find(|f| f.rule == "lock_order")
        .expect("lock_order finding");
    assert!(f.message.contains("blocking"), "{}", f.message);
    assert!(f.message.contains("recv"), "{}", f.message);
}

#[test]
fn relock_held_across_a_sleep_fires() {
    let result = run(&[(
        "crates/serve/src/bad_relock.rs",
        "pub fn depth(s: &Shared) -> usize {\n\
         let q = relock(&s.queue);\n\
         thread::sleep(Duration::from_millis(1));\n\
         q.len()\n}",
    )]);
    assert_eq!(
        result.counts.lock_order,
        1,
        "{}",
        rendered(&result.findings)
    );
    let f = &result.findings[0];
    assert!(f.message.contains("serve:queue"), "{}", f.message);
    assert!(f.message.contains("sleep"), "{}", f.message);
    assert_eq!(result.counts.lock_sites, 1);
}

#[test]
fn relock_match_scrutinee_held_across_a_dial_fires() {
    // The scrutinee's guard lives to the end of the `match`, so the dial
    // in the arm runs under the pool lock (router scope).
    let result = run(&[(
        "crates/router/src/bad_pool.rs",
        "pub fn checkout(b: &Backend) -> Conn {\n\
         let conn = match relock(&b.idle).pop() {\n\
         Some(conn) => conn,\n\
         None => TcpStream::connect(b.addr).unwrap_or_default(),\n\
         };\n\
         conn\n}",
    )]);
    assert_eq!(
        result.counts.lock_order,
        1,
        "{}",
        rendered(&result.findings)
    );
    let f = &result.findings[0];
    assert!(f.message.contains("router:idle"), "{}", f.message);
    assert!(f.message.contains("connect"), "{}", f.message);
}

#[test]
fn relock_temporary_in_a_let_dies_with_its_statement() {
    // `n` holds the length, not the guard: the sleep runs unlocked.
    let result = run(&[(
        "crates/serve/src/fine_relock.rs",
        "pub fn depth(s: &Shared) -> usize {\n\
         let n = relock(&s.queue).len();\n\
         thread::sleep(Duration::from_millis(1));\n\
         n\n}",
    )]);
    assert_eq!(
        result.counts.lock_order,
        0,
        "{}",
        rendered(&result.findings)
    );
    assert_eq!(result.counts.lock_sites, 1);
}

#[test]
fn lock_outside_service_scope_is_ignored() {
    // Same deadlock shape, but in a physics crate: out of scope.
    let result = run(&[("crates/pv/src/locks.rs", LOCK_CYCLE)]);
    assert_eq!(
        result.counts.lock_order,
        0,
        "{}",
        rendered(&result.findings)
    );
}

// ------------------------------------------------------------------
// taint
// ------------------------------------------------------------------

const HASH_RENDER: &str = "\
use std::collections::HashMap;
pub fn render_rows() -> String {
    let rows: HashMap<String, u32> = HashMap::new();
    let mut out = String::new();
    for (k, _v) in rows.iter() {
        out.push_str(k);
    }
    out
}
";

#[test]
fn taint_hash_iteration_in_a_sink_file_fires() {
    let result = run(&[("crates/chaos/src/report.rs", HASH_RENDER)]);
    assert_eq!(result.counts.taint, 1, "{}", rendered(&result.findings));
    let f = result
        .findings
        .iter()
        .find(|f| f.rule == "taint")
        .expect("taint finding");
    assert!(
        f.message.contains("hash-ordered iteration"),
        "{}",
        f.message
    );
}

#[test]
fn taint_is_silenced_by_reasoned_allow() {
    let silenced = HASH_RENDER.replace(
        "    for (k, _v)",
        "    // hems-lint: allow(taint, reason = \"single-entry map in this fixture\")\n    for (k, _v)",
    );
    let result = run(&[("crates/chaos/src/report.rs", &silenced)]);
    assert_eq!(result.counts.taint, 0, "{}", rendered(&result.findings));
}

#[test]
fn taint_is_laundered_by_a_sort() {
    let sorted = HASH_RENDER.replace(
        "    for (k, _v) in rows.iter() {",
        "    let mut keys: Vec<&String> = rows.keys().collect();\n\
         keys.sort();\n\
         for k in keys {",
    );
    let result = run(&[("crates/chaos/src/report.rs", &sorted)]);
    assert_eq!(result.counts.taint, 0, "{}", rendered(&result.findings));
}

#[test]
fn taint_clock_read_reached_from_a_sink_fires_transitively() {
    let result = run(&[
        (
            "crates/chaos/src/report.rs",
            "pub fn report() -> u64 { hems_sim::stamp() }",
        ),
        (
            "crates/sim/src/lib.rs",
            "pub fn stamp() -> u64 { let _t = std::time::Instant::now(); 0 }",
        ),
    ]);
    assert_eq!(result.counts.taint, 1, "{}", rendered(&result.findings));
    let f = result
        .findings
        .iter()
        .find(|f| f.rule == "taint")
        .expect("taint finding");
    assert_eq!(f.file, "crates/sim/src/lib.rs");
    assert!(f.message.contains("Instant::now"), "{}", f.message);
    assert!(
        f.message.contains("report -> stamp"),
        "witness chain missing: {}",
        f.message
    );
}

#[test]
fn vec_iteration_in_a_sink_is_not_tainted() {
    // A Vec iteration in the same sink file must not be condemned just
    // because the body mentions a hash type elsewhere.
    let result = run(&[(
        "crates/chaos/src/report.rs",
        "use std::collections::HashMap;\n\
         pub fn render_list(xs: &Vec<u32>, _m: &HashMap<u32, u32>) -> u32 {\n\
         let mut sum = 0;\n\
         for x in xs.iter() { sum += x; }\n\
         sum\n}",
    )]);
    assert_eq!(result.counts.taint, 0, "{}", rendered(&result.findings));
}
