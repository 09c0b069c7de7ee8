//! End-to-end gate tests: the real workspace must pass, and the JSON
//! output must round-trip through the workspace's JSON codec.

use hems_lint::{analyze_workspace, load_baseline, load_config, Finding, SourceFile};
use hems_obs::json::{parse, Value};
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

/// The committed tree passes its own gate: after the baseline absorbs its
/// entries, nothing remains. This is the same check `scripts/verify.sh`
/// runs via the binary.
#[test]
fn the_workspace_passes_its_own_gate() {
    let root = repo_root();
    let cfg = load_config(&root);
    let analysis = analyze_workspace(&root, &cfg).expect("analysis runs");
    let baseline = load_baseline(&root);
    let (fresh, _) = baseline.partition(analysis.findings);
    assert!(
        fresh.is_empty(),
        "non-baselined findings:\n{}",
        fresh
            .iter()
            .map(Finding::render_human)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// A `units` allowlist entry that silences nothing is itself a finding,
/// reported at its allowlist line: one naming a function that no longer
/// exists, and one naming a `pub fn` whose signature has no raw float.
/// The committed entries stay silent.
#[test]
fn stale_units_allowlist_entries_are_findings() {
    let root = repo_root();
    let committed = std::fs::read_to_string(root.join(hems_lint::workspace::UNITS_ALLOWLIST))
        .expect("units allowlist reads");
    let planted =
        format!("{committed}\ncrates/pv/src/lut.rs::current_at_many\ncrates/pv/src/lut.rs::mpp\n");
    let first_planted = u32::try_from(committed.lines().count()).expect("short file") + 2;
    let mut cfg = load_config(&root);
    cfg.units_allow = hems_lint::RuleConfig::parse_allowlist(&planted);
    let analysis = analyze_workspace(&root, &cfg).expect("analysis runs");
    let (fresh, _) = load_baseline(&root).partition(analysis.findings);
    let found: Vec<(&str, u32, bool)> = fresh
        .iter()
        .map(|f| (f.file.as_str(), f.line, f.rule == "units"))
        .collect();
    assert_eq!(
        found,
        vec![
            ("crates/lint/allow/units.txt", first_planted, true),
            ("crates/lint/allow/units.txt", first_planted + 1, true),
        ],
        "{fresh:?}"
    );
    assert!(fresh[0]
        .message
        .contains("`crates/pv/src/lut.rs::current_at_many`"));
    assert!(fresh[1].message.contains("`crates/pv/src/lut.rs::mpp`"));
}

/// The headline guarantee of this PR: the service plane's panic-freedom
/// baseline is EMPTY — no `panic`/`index` finding in `crates/serve/src`
/// or `crates/sim/src/pool.rs` is baselined away; there simply are none.
#[test]
fn service_plane_panic_freedom_needs_no_baseline() {
    let root = repo_root();
    let cfg = load_config(&root);
    let analysis = analyze_workspace(&root, &cfg).expect("analysis runs");
    let service_panics: Vec<&Finding> = analysis
        .findings
        .iter()
        .filter(|f| f.rule == "panic" || f.rule == "index")
        .filter(|f| f.file.starts_with("crates/serve/src/") || f.file == "crates/sim/src/pool.rs")
        .collect();
    assert!(
        service_panics.is_empty(),
        "service-plane panic findings (must be fixed, not baselined):\n{}",
        service_panics
            .iter()
            .map(|f| f.render_human())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Seeded violations for every rule family render to JSON lines the serve
/// crate's parser accepts, with the fields intact.
#[test]
fn json_output_round_trips_through_the_serve_parser() {
    let seeded = [
        (
            "crates/serve/src/demo.rs",
            "fn f() { x.unwrap(); let y = xs[i]; }",
        ),
        ("crates/pv/src/demo.rs", "pub fn power(v: f64) -> f64 { v }"),
        (
            "crates/sim/src/demo.rs",
            "fn f() { let t = std::time::Instant::now(); }",
        ),
        ("crates/pv/src/lib.rs", "pub fn f() {}"),
    ];
    let cfg = hems_lint::RuleConfig::default();
    let mut findings = Vec::new();
    for (rel, src) in seeded {
        let file = SourceFile::parse(rel, src);
        let parsed = hems_lint::parser::ParsedFile::parse(&file.tokens, &file.in_test);
        findings.extend(hems_lint::rules::check_file(&file, &parsed, &cfg).0);
    }
    // One panic, one index, one units, one timing, two hygiene.
    let rules: Vec<&str> = findings.iter().map(|f| f.rule.as_str()).collect();
    for family in ["panic", "index", "units", "timing", "hygiene"] {
        assert!(rules.contains(&family), "missing {family} in {rules:?}");
    }
    for finding in &findings {
        let line = finding.render_json();
        let value = parse(&line).unwrap_or_else(|e| panic!("bad JSON `{line}`: {e}"));
        assert_eq!(
            value.get("rule").and_then(Value::as_str),
            Some(finding.rule.as_str())
        );
        assert_eq!(
            value.get("file").and_then(Value::as_str),
            Some(finding.file.as_str())
        );
        assert_eq!(
            value.get("line").and_then(Value::as_f64),
            Some(f64::from(finding.line))
        );
        assert_eq!(
            value.get("message").and_then(Value::as_str),
            Some(finding.message.as_str())
        );
    }
}

/// Messages with quotes, backslashes, and non-ASCII text survive the
/// encode → parse round trip byte-for-byte.
#[test]
fn json_escaping_survives_hostile_messages() {
    let finding = Finding::new(
        "panic",
        "crates/serve/src/\"odd\".rs",
        7,
        "message with \"quotes\", a\\backslash, a\ttab, and a λ",
    );
    let line = finding.render_json();
    let value = parse(&line).expect("parses");
    assert_eq!(
        value.get("message").and_then(Value::as_str),
        Some("message with \"quotes\", a\\backslash, a\ttab, and a λ")
    );
    assert_eq!(
        value.get("file").and_then(Value::as_str),
        Some("crates/serve/src/\"odd\".rs")
    );
}

/// The baseline ratchet: an absorbed finding stays absorbed across line
/// drift, each baseline entry absorbs exactly one finding, and a new
/// finding of the same rule elsewhere still fails the gate.
#[test]
fn baseline_absorbs_by_key_not_line() {
    let old = Finding::new(
        "panic",
        "crates/serve/src/a.rs",
        10,
        "call to `.unwrap()` outside tests",
    );
    let baseline = hems_lint::Baseline::parse(&hems_lint::Baseline::render(&[old]));
    // Same finding, drifted line: absorbed.
    let drifted = Finding::new(
        "panic",
        "crates/serve/src/a.rs",
        99,
        "call to `.unwrap()` outside tests",
    );
    let (fresh, absorbed) = baseline.partition(vec![drifted]);
    assert!(fresh.is_empty());
    assert_eq!(absorbed.len(), 1);
    // A second identical finding exceeds the entry's count: fresh.
    let d1 = Finding::new(
        "panic",
        "crates/serve/src/a.rs",
        12,
        "call to `.unwrap()` outside tests",
    );
    let d2 = Finding::new(
        "panic",
        "crates/serve/src/a.rs",
        30,
        "call to `.unwrap()` outside tests",
    );
    let (fresh, absorbed) = baseline.partition(vec![d1, d2]);
    assert_eq!(fresh.len(), 1);
    assert_eq!(absorbed.len(), 1);
    // A different file is a different key: fresh.
    let other = Finding::new(
        "panic",
        "crates/serve/src/b.rs",
        10,
        "call to `.unwrap()` outside tests",
    );
    let (fresh, _) = baseline.partition(vec![other]);
    assert_eq!(fresh.len(), 1);
}
