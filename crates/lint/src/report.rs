//! Findings, output rendering, and the committed baseline.
//!
//! A finding is `(rule, file, line, message)`. The human renderer prints
//! one `file:line: [rule] message` per finding; `--json` prints one JSON
//! object per line (JSON-lines), with a trailing summary object, so CI
//! can consume the output without scraping. The baseline file pins
//! findings by `(rule, file, message)` — deliberately *not* by line, so
//! unrelated edits shifting code downward do not invalidate the baseline
//! — and each baseline entry absorbs at most one matching finding, which
//! makes the gate a ratchet: new occurrences of an old problem still
//! fail.

use hems_obs::json::Value;
use std::collections::HashMap;

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (`unwrap`, `index`, `units`, `timing`, `clock`,
    /// `hygiene`, or `directive` for malformed allow directives).
    pub rule: String,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    /// Convenience constructor.
    pub fn new(
        rule: impl Into<String>,
        file: impl Into<String>,
        line: u32,
        message: impl Into<String>,
    ) -> Finding {
        Finding {
            rule: rule.into(),
            file: file.into(),
            line,
            message: message.into(),
        }
    }

    /// The line-independent identity used by the baseline.
    pub fn baseline_key(&self) -> String {
        format!("{}\t{}\t{}", self.rule, self.file, self.message)
    }

    /// `file:line: [rule] message` for terminals.
    pub fn render_human(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }

    /// One compact JSON object (no trailing newline).
    pub fn render_json(&self) -> String {
        Value::obj(vec![
            ("rule", Value::str(&self.rule)),
            ("file", Value::str(&self.file)),
            ("line", Value::Num(f64::from(self.line))),
            ("message", Value::str(&self.message)),
        ])
        .render()
    }
}

/// The parsed committed baseline: a multiset of finding keys.
#[derive(Debug, Default)]
pub struct Baseline {
    entries: HashMap<String, usize>,
}

impl Baseline {
    /// Parses baseline text: one `rule\tfile\tmessage` per line, `#`
    /// comments and blank lines ignored. Duplicate lines absorb one
    /// finding each.
    pub fn parse(text: &str) -> Baseline {
        let mut entries: HashMap<String, usize> = HashMap::new();
        for line in text.lines() {
            let line = line.trim_end();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            *entries.entry(line.to_string()).or_insert(0) += 1;
        }
        Baseline { entries }
    }

    /// Number of entries (counting duplicates).
    pub fn len(&self) -> usize {
        self.entries.values().sum()
    }

    /// `true` when the baseline has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Splits findings into `(new, baselined)`; each baseline entry
    /// absorbs at most one matching finding.
    pub fn partition(&self, findings: Vec<Finding>) -> (Vec<Finding>, Vec<Finding>) {
        let mut budget = self.entries.clone();
        let mut fresh = Vec::new();
        let mut absorbed = Vec::new();
        for finding in findings {
            match budget.get_mut(&finding.baseline_key()) {
                Some(count) if *count > 0 => {
                    *count -= 1;
                    absorbed.push(finding);
                }
                _ => fresh.push(finding),
            }
        }
        (fresh, absorbed)
    }

    /// Renders findings as baseline-file text (`--write-baseline`).
    pub fn render(findings: &[Finding]) -> String {
        let mut lines: Vec<String> = findings.iter().map(Finding::baseline_key).collect();
        lines.sort();
        let mut out = String::from(
            "# hems-lint baseline: pre-existing findings the gate tolerates.\n\
             # One `rule<TAB>file<TAB>message` per line; regenerate with\n\
             # `cargo run -p hems-lint -- --write-baseline`.\n",
        );
        for line in lines {
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_quotes_and_controls() {
        let finding = Finding::new("unwrap", "a/b.rs", 3, "say \"no\"\tplease\u{1}");
        let json = finding.render_json();
        assert!(json.contains("\\\"no\\\""), "{json}");
        assert!(json.contains("\\t"), "{json}");
        assert!(json.contains("\\u0001"), "{json}");
    }

    #[test]
    fn baseline_absorbs_at_most_one_finding_per_entry() {
        let finding = Finding::new("unwrap", "x.rs", 1, "call to unwrap");
        let baseline = Baseline::parse(&Baseline::render(std::slice::from_ref(&finding)));
        assert_eq!(baseline.len(), 1);
        let again = Finding::new("unwrap", "x.rs", 9, "call to unwrap");
        let (fresh, absorbed) = baseline.partition(vec![finding, again]);
        // Same key, different line: one absorbed (line-independent),
        // the duplicate stays fresh (the ratchet).
        assert_eq!(absorbed.len(), 1);
        assert_eq!(fresh.len(), 1);
    }

    #[test]
    fn baseline_ignores_comments_and_blanks() {
        let baseline = Baseline::parse("# comment\n\nunwrap\tx.rs\tmsg\n");
        assert_eq!(baseline.len(), 1);
        assert!(!baseline.is_empty());
        assert!(Baseline::parse("# only comments\n").is_empty());
    }
}
