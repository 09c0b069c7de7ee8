//! Source-file model: token stream plus test-region and directive layers.
//!
//! Rules never see raw tokens; they see a [`SourceFile`] that already
//! knows which tokens live inside `#[cfg(test)]` / `#[test]` items or a
//! `mod tests { ... }` block (exempt from every rule), and which findings
//! an inline `// hems-lint: allow(rule, reason = "...")` directive
//! covers. A directive *requires* a reason — an allow without one, or
//! naming an unknown rule, is itself a finding, so the escape hatch
//! cannot silently rot.

use crate::lexer::{lex, Token, TokenKind};
use crate::report::Finding;

/// Rule identifiers an allow directive may name.
pub const RULE_NAMES: [&str; 10] = [
    "panic",
    "index",
    "units",
    "timing",
    "clock",
    "hygiene",
    "batch",
    "panic_reach",
    "lock_order",
    "taint",
];

/// The directive marker looked for inside line comments.
pub const DIRECTIVE_MARKER: &str = "hems-lint:";

/// An inline suppression: `// hems-lint: allow(rule, reason = "...")`.
///
/// Covers findings of `rule` on the directive's own line and the next
/// line (so it can sit above the offending statement or trail it).
#[derive(Debug, Clone)]
pub struct Allow {
    /// The rule the directive suppresses.
    pub rule: String,
    /// Line the directive comment starts on.
    pub line: u32,
}

/// A lexed source file with its analysis layers.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// The token stream.
    pub tokens: Vec<Token>,
    /// Parallel to `tokens`: `true` inside a test region.
    pub in_test: Vec<bool>,
    /// Parsed allow directives.
    pub allows: Vec<Allow>,
    /// Findings produced by the directive parser itself (malformed or
    /// unknown-rule directives).
    pub directive_findings: Vec<Finding>,
}

impl SourceFile {
    /// Lexes and annotates one file.
    pub fn parse(rel_path: &str, src: &str) -> SourceFile {
        let tokens = lex(src);
        let in_test = mark_test_regions(&tokens);
        let (allows, directive_findings) = parse_directives(rel_path, &tokens);
        SourceFile {
            rel_path: rel_path.to_string(),
            tokens,
            in_test,
            allows,
            directive_findings,
        }
    }

    /// `true` when an allow directive for `rule` covers `line`.
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        self.allows
            .iter()
            .any(|a| a.rule == rule && (a.line == line || a.line + 1 == line))
    }
}

/// Marks tokens inside test regions: any item introduced by an attribute
/// whose tokens include the identifier `test` (`#[cfg(test)]`, `#[test]`,
/// `#[cfg(any(test, ...))]`), or a `mod tests` block.
fn mark_test_regions(tokens: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let mut depth = 0usize;
    // Brace depths at which an active test region opened.
    let mut region_depths: Vec<usize> = Vec::new();
    let mut pending = false;
    let mut i = 0;
    while let Some(token) = tokens.get(i) {
        if !region_depths.is_empty() {
            if let Some(slot) = in_test.get_mut(i) {
                *slot = true;
            }
        }
        if token.is_comment() {
            i += 1;
            continue;
        }
        match (token.kind, token.text.as_str()) {
            // An attribute: scan its bracket group for the `test` ident.
            (TokenKind::Punct, "#") => {
                let (end, mentions_test) = scan_attribute(tokens, i);
                if mentions_test {
                    pending = true;
                }
                // Tokens of a test-introducing attribute belong to the
                // region conceptually, but marking them is unnecessary:
                // attributes contain no rule-relevant tokens.
                i = end;
                continue;
            }
            (TokenKind::Ident, "mod")
                if next_significant(tokens, i + 1)
                    .is_some_and(|(_, t)| t.kind == TokenKind::Ident && t.text == "tests") =>
            {
                pending = true;
            }
            (TokenKind::Punct, "{") => {
                depth += 1;
                if pending {
                    region_depths.push(depth);
                    pending = false;
                }
            }
            (TokenKind::Punct, "}") => {
                if region_depths.last() == Some(&depth) {
                    region_depths.pop();
                }
                depth = depth.saturating_sub(1);
            }
            // `#[cfg(test)] mod tests;` or `#[cfg(test)] use ...;` — the
            // pending attribute applied to a braceless item; drop it.
            (TokenKind::Punct, ";") => pending = false,
            _ => {}
        }
        i += 1;
    }
    in_test
}

/// Scans an attribute starting at the `#` token; returns the index one
/// past the closing `]` and whether the ident `test` occurs inside.
fn scan_attribute(tokens: &[Token], hash_index: usize) -> (usize, bool) {
    let mut i = hash_index + 1;
    // Optional `!` for inner attributes.
    if tokens
        .get(i)
        .is_some_and(|t| t.kind == TokenKind::Punct && t.text == "!")
    {
        i += 1;
    }
    let Some(open) = tokens.get(i) else {
        return (i, false);
    };
    if !(open.kind == TokenKind::Punct && open.text == "[") {
        return (i, false);
    }
    let mut depth = 0usize;
    let mut mentions_test = false;
    while let Some(token) = tokens.get(i) {
        match (token.kind, token.text.as_str()) {
            (TokenKind::Punct, "[") => depth += 1,
            (TokenKind::Punct, "]") => {
                depth -= 1;
                if depth == 0 {
                    return (i + 1, mentions_test);
                }
            }
            (TokenKind::Ident, "test") => mentions_test = true,
            _ => {}
        }
        i += 1;
    }
    (i, mentions_test)
}

/// The next non-comment token at or after `from`.
pub fn next_significant(tokens: &[Token], from: usize) -> Option<(usize, &Token)> {
    let mut i = from;
    while let Some(token) = tokens.get(i) {
        if !token.is_comment() {
            return Some((i, token));
        }
        i += 1;
    }
    None
}

/// `(open, close)` token indices of the parenthesized group whose `(` is
/// the first code token at or after `from`.
pub fn paren_group(tokens: &[Token], from: usize) -> Option<(usize, usize)> {
    let (open, t) = next_significant(tokens, from)?;
    if !(t.kind == TokenKind::Punct && t.text == "(") {
        return None;
    }
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        match (t.kind, t.text.as_str()) {
            (TokenKind::Punct, "(") => depth += 1,
            (TokenKind::Punct, ")") => {
                depth -= 1;
                if depth == 0 {
                    return Some((open, i));
                }
            }
            _ => {}
        }
    }
    None
}

/// The previous non-comment token strictly before `before`.
pub fn prev_significant(tokens: &[Token], before: usize) -> Option<(usize, &Token)> {
    let mut i = before;
    while i > 0 {
        i -= 1;
        if let Some(token) = tokens.get(i) {
            if !token.is_comment() {
                return Some((i, token));
            }
        }
    }
    None
}

/// Parses `hems-lint:` directives out of line comments.
fn parse_directives(rel_path: &str, tokens: &[Token]) -> (Vec<Allow>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut findings = Vec::new();
    for token in tokens {
        if token.kind != TokenKind::LineComment {
            continue;
        }
        // Doc comments (`///`, `//!`) are prose about directives, not
        // directives; only plain `//` comments carry them.
        if token.text.starts_with("///") || token.text.starts_with("//!") {
            continue;
        }
        let Some(marker_at) = token.text.find(DIRECTIVE_MARKER) else {
            continue;
        };
        let rest = token
            .text
            .get(marker_at + DIRECTIVE_MARKER.len()..)
            .unwrap_or("")
            .trim();
        match parse_allow(rest) {
            Ok(rule) => allows.push(Allow {
                rule,
                line: token.line,
            }),
            Err(message) => findings.push(Finding::new("directive", rel_path, token.line, message)),
        }
    }
    (allows, findings)
}

/// Parses the body after `hems-lint:`, expecting
/// `allow(<rule>, reason = "<nonempty>")`.
fn parse_allow(body: &str) -> Result<String, String> {
    let Some(args) = body
        .strip_prefix("allow(")
        .and_then(|rest| rest.strip_suffix(')'))
    else {
        return Err(format!(
            "malformed directive `{body}`: expected `allow(<rule>, reason = \"...\")`"
        ));
    };
    let Some((rule, reason)) = args.split_once(',') else {
        return Err("allow directive requires a reason: `allow(<rule>, reason = \"...\")`".into());
    };
    let rule = rule.trim();
    if !RULE_NAMES.contains(&rule) {
        return Err(format!(
            "unknown rule `{rule}` in allow directive (known: {})",
            RULE_NAMES.join(", ")
        ));
    }
    let reason = reason.trim();
    let quoted = reason
        .strip_prefix("reason")
        .map(str::trim_start)
        .and_then(|r| r.strip_prefix('='))
        .map(str::trim)
        .and_then(|r| r.strip_prefix('"'))
        .and_then(|r| r.strip_suffix('"'));
    match quoted {
        Some(text) if !text.trim().is_empty() => Ok(rule.to_string()),
        _ => Err("allow directive requires a non-empty reason string".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> SourceFile {
        SourceFile::parse("crates/demo/src/lib.rs", src)
    }

    fn test_idents(file: &SourceFile) -> Vec<(String, bool)> {
        file.tokens
            .iter()
            .zip(&file.in_test)
            .filter(|(t, _)| t.kind == TokenKind::Ident)
            .map(|(t, flag)| (t.text.clone(), *flag))
            .collect()
    }

    #[test]
    fn cfg_test_modules_are_test_regions() {
        let file = parse(
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn after() {}\n",
        );
        let idents = test_idents(&file);
        assert!(idents.contains(&("live".to_string(), false)));
        assert!(idents.contains(&("unwrap".to_string(), true)));
        assert!(idents.contains(&("after".to_string(), false)));
    }

    #[test]
    fn bare_mod_tests_blocks_count_as_test_regions() {
        let file = parse("mod tests { fn t() { x.unwrap(); } }\nfn live() {}\n");
        let idents = test_idents(&file);
        assert!(idents.contains(&("unwrap".to_string(), true)));
        assert!(idents.contains(&("live".to_string(), false)));
    }

    #[test]
    fn test_attribute_on_a_single_fn_is_a_region() {
        let file = parse("#[test]\nfn check() { x.unwrap(); }\nfn live() { y(); }\n");
        let idents = test_idents(&file);
        assert!(idents.contains(&("unwrap".to_string(), true)));
        assert!(idents.contains(&("y".to_string(), false)));
    }

    #[test]
    fn cfg_test_on_a_braceless_item_does_not_leak() {
        let file = parse("#[cfg(test)]\nuse helper::thing;\nfn live() { x.unwrap(); }\n");
        let idents = test_idents(&file);
        assert!(idents.contains(&("unwrap".to_string(), false)));
    }

    #[test]
    fn nested_braces_inside_test_modules_stay_inside() {
        let file = parse(
            "#[cfg(test)]\nmod tests { fn a() { if x { y.unwrap(); } } }\nfn live() { z(); }\n",
        );
        let idents = test_idents(&file);
        assert!(idents.contains(&("unwrap".to_string(), true)));
        assert!(idents.contains(&("z".to_string(), false)));
    }

    #[test]
    fn allow_directive_with_reason_parses_and_covers_next_line() {
        let file =
            parse("// hems-lint: allow(panic, reason = \"lock recovery documented\")\nfn f() {}\n");
        assert!(file.directive_findings.is_empty());
        assert!(file.allowed("panic", 1));
        assert!(file.allowed("panic", 2));
        assert!(!file.allowed("panic", 3));
        assert!(!file.allowed("index", 2));
    }

    #[test]
    fn allow_directive_without_reason_is_rejected() {
        for bad in [
            "// hems-lint: allow(panic)",
            "// hems-lint: allow(panic, reason = \"\")",
            "// hems-lint: allow(panic, reason = )",
            "// hems-lint: allow(unwrap, because = \"x\")",
        ] {
            let file = parse(&format!("{bad}\nfn f() {{}}\n"));
            assert_eq!(file.directive_findings.len(), 1, "{bad}");
            assert!(file.allows.is_empty(), "{bad}");
        }
    }

    #[test]
    fn doc_comments_mentioning_the_marker_are_not_directives() {
        let file = parse(
            "//! Use `hems-lint: allow(panic, ...)` to suppress.\n\
             /// See `hems-lint:` syntax in the docs.\n\
             fn f() {}\n",
        );
        assert!(file.directive_findings.is_empty());
        assert!(file.allows.is_empty());
    }

    #[test]
    fn allow_directive_with_unknown_rule_is_rejected() {
        let file = parse("// hems-lint: allow(made_up, reason = \"nope\")\n");
        assert_eq!(file.directive_findings.len(), 1);
        let message = &file.directive_findings[0].message;
        assert!(message.contains("unknown rule"), "{message}");
    }
}
