//! Workspace walking and the end-to-end analysis entry point.
//!
//! The walker visits `crates/*/src` and the root `src/` tree (sorted, so
//! output order is stable), parses each `.rs` file, runs the per-file
//! rules **in parallel** (files are independent; results are collected
//! in walk order and findings sorted, so output stays deterministic),
//! then reconciles the cross-file error-type facts and runs the three
//! interprocedural passes ([`crate::passes`]) over the whole item-tree
//! forest. Allowlists live in `crates/lint/allow/` and the baseline in
//! `crates/lint/baseline.txt`; all three are plain text with `#`
//! comments.

use crate::parser::ParsedFile;
use crate::passes::{self, PassCounts};
use crate::report::{Baseline, Finding};
use crate::rules::{self, ErrorTypeFacts, RuleConfig};
use crate::source::SourceFile;
use std::collections::HashSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::thread;

/// Workspace-relative location of the `units` allowlist.
pub const UNITS_ALLOWLIST: &str = "crates/lint/allow/units.txt";
/// Workspace-relative location of the `timing` allowlist.
pub const TIMING_ALLOWLIST: &str = "crates/lint/allow/timing.txt";
/// Workspace-relative location of the committed baseline.
pub const BASELINE: &str = "crates/lint/baseline.txt";

/// The result of analyzing a workspace.
#[derive(Debug)]
pub struct Analysis {
    /// Every finding, sorted by `(file, line, rule)`.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Interprocedural per-pass finding counts and call-graph size.
    pub passes: PassCounts,
}

/// Loads the allowlists under `root` (missing files mean empty lists, so
/// the gate runs on a bare checkout too).
pub fn load_config(root: &Path) -> RuleConfig {
    let read = |rel: &str| {
        fs::read_to_string(root.join(rel))
            .map(|text| RuleConfig::parse_allowlist(&text))
            .unwrap_or_default()
    };
    RuleConfig {
        units_allow: read(UNITS_ALLOWLIST),
        timing_allow: read(TIMING_ALLOWLIST),
    }
}

/// Loads the committed baseline under `root` (missing file = empty).
pub fn load_baseline(root: &Path) -> Baseline {
    fs::read_to_string(root.join(BASELINE))
        .map(|text| Baseline::parse(&text))
        .unwrap_or_default()
}

/// Analyzes every workspace source file under `root`.
///
/// # Errors
///
/// Propagates filesystem errors from walking or reading sources.
pub fn analyze_workspace(root: &Path, cfg: &RuleConfig) -> io::Result<Analysis> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            collect_rs_files(&dir.join("src"), &mut files)?;
        }
    }
    collect_rs_files(&root.join("src"), &mut files)?;
    files.sort();

    // Read serially (simple I/O error propagation), analyze in parallel:
    // lexing, item-tree parsing, and the per-file rules are independent
    // per file. Contiguous chunks joined in spawn order keep the results
    // in walk order, and the final sort makes output order deterministic
    // regardless of scheduling.
    let mut inputs: Vec<(String, String)> = Vec::with_capacity(files.len());
    for path in &files {
        inputs.push((relative_path(root, path), fs::read_to_string(path)?));
    }
    let per_file = analyze_files(&inputs, cfg);

    let mut findings = Vec::new();
    let mut facts = Vec::new();
    let mut sources: Vec<SourceFile> = Vec::with_capacity(per_file.len());
    let mut parsed: Vec<ParsedFile> = Vec::with_capacity(per_file.len());
    for unit in per_file {
        findings.extend(unit.findings);
        facts.push((unit.file.rel_path.clone(), unit.facts));
        sources.push(unit.file);
        parsed.push(unit.parsed);
    }
    findings.extend(rules::reconcile_error_types(&facts));
    findings.extend(stale_units_entries(&sources, cfg));
    let pass = passes::run(&sources, &parsed);
    findings.extend(pass.findings);
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.as_str()).cmp(&(b.file.as_str(), b.line, b.rule.as_str()))
    });
    Ok(Analysis {
        findings,
        files_scanned: files.len(),
        passes: pass.counts,
    })
}

/// `units` allowlist entries that silence nothing: no non-test `pub fn`
/// of that name in that file exposes a raw float. Deleting or retyping a
/// function must take its permission with it, or the key would silently
/// admit a later function of the same name.
fn stale_units_entries(sources: &[SourceFile], cfg: &RuleConfig) -> Vec<Finding> {
    let live: HashSet<String> = sources
        .iter()
        .filter(|file| rules::units_rule_applies(&file.rel_path))
        .flat_map(|file| {
            rules::raw_float_pub_fns(file)
                .into_iter()
                .map(move |(name, _)| format!("{}::{}", file.rel_path, name))
        })
        .collect();
    cfg.units_allow
        .iter()
        .filter(|(key, _)| !live.contains(*key))
        .map(|(key, &line)| {
            Finding::new(
                "units",
                UNITS_ALLOWLIST,
                line,
                format!("stale allowlist entry `{key}`: no pub fn of that name there exposes raw f64/f32; remove it"),
            )
        })
        .collect()
}

/// One file's parse + per-file rule output.
struct FileUnit {
    file: SourceFile,
    parsed: ParsedFile,
    findings: Vec<Finding>,
    facts: ErrorTypeFacts,
}

fn analyze_one(rel: &str, text: &str, cfg: &RuleConfig) -> FileUnit {
    let file = SourceFile::parse(rel, text);
    let parsed = ParsedFile::parse(&file.tokens, &file.in_test);
    let (findings, facts) = rules::check_file(&file, &parsed, cfg);
    FileUnit {
        file,
        parsed,
        findings,
        facts,
    }
}

/// Fans the per-file analysis out over scoped threads; results come
/// back in input order (chunks are contiguous and joined in order).
fn analyze_files(inputs: &[(String, String)], cfg: &RuleConfig) -> Vec<FileUnit> {
    let workers = thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .clamp(1, 8);
    let chunk_len = inputs.len().div_ceil(workers).max(1);
    let mut units: Vec<FileUnit> = Vec::with_capacity(inputs.len());
    thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .chunks(chunk_len)
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|(rel, text)| analyze_one(rel, text, cfg))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            // The analyzers are panic-free by construction (the gate
            // checks this crate too); a poisoned worker drops only its
            // own chunk rather than the whole run.
            units.extend(handle.join().unwrap_or_default());
        }
    });
    units
}

/// Recursively collects `.rs` files below `dir` (silently absent dirs are
/// fine: not every crate has every tree).
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `path` relative to `root`, `/`-separated (for stable keys on any OS).
fn relative_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The workspace root, from this crate's own manifest location.
    fn repo_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .expect("workspace root resolves")
    }

    #[test]
    fn walks_the_real_workspace_and_stays_deterministic() {
        let root = repo_root();
        let cfg = load_config(&root);
        let first = analyze_workspace(&root, &cfg).expect("analysis runs");
        let second = analyze_workspace(&root, &cfg).expect("analysis runs");
        assert!(first.files_scanned > 50, "scanned {}", first.files_scanned);
        assert_eq!(first.findings, second.findings, "deterministic output");
    }
}
