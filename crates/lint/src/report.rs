//! Rule identifiers, findings, and the text/JSON renderers.

use std::fmt;

/// The analyzer families (DESIGN.md §12). Each has a stable kebab-case
/// id used in diagnostics, inline `lint:allow(<rule>)` markers, and the
/// `lint.allow` allowlist file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// `Instant::now` / `SystemTime::now` outside `crates/types/src/clock.rs`.
    WallClock,
    /// `thread::spawn` outside the network engine.
    ThreadSpawn,
    /// File / fsync syscalls outside `parblock_store`.
    FileIo,
    /// `HashMap`/`HashSet` iteration inside digest, wire encode/decode,
    /// or dependency-graph-emission functions.
    UnorderedIter,
    /// A contract access path not covered by its declared read/write set.
    RwsetCoverage,
    /// `format!` / `.to_string()` / `.clone()` inside encode, digest,
    /// or multicast functions — per-item heap allocation on the hot
    /// path, and (for `format!`) a `Debug` rendering leaking into a
    /// wire or digest format.
    HotPathAlloc,
    /// An allow marker or allowlist entry that suppresses nothing (or
    /// carries no justification).
    StaleAllow,
}

/// Every rule, in reporting order.
pub const ALL_RULES: [Rule; 7] = [
    Rule::WallClock,
    Rule::ThreadSpawn,
    Rule::FileIo,
    Rule::UnorderedIter,
    Rule::RwsetCoverage,
    Rule::HotPathAlloc,
    Rule::StaleAllow,
];

impl Rule {
    /// The stable kebab-case id.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::ThreadSpawn => "thread-spawn",
            Rule::FileIo => "file-io",
            Rule::UnorderedIter => "unordered-iter",
            Rule::RwsetCoverage => "rwset-coverage",
            Rule::HotPathAlloc => "hot-path-alloc",
            Rule::StaleAllow => "stale-allow",
        }
    }

    /// Parses a kebab-case id back into a rule.
    #[must_use]
    pub fn from_id(id: &str) -> Option<Rule> {
        ALL_RULES.into_iter().find(|r| r.id() == id)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One violation: a rule, a location, and a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The violated rule.
    pub rule: Rule,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-indexed line.
    pub line: u32,
    /// What went wrong, specific enough to act on.
    pub message: String,
}

impl Finding {
    pub(crate) fn new(rule: Rule, path: &str, line: u32, message: impl Into<String>) -> Self {
        Finding {
            rule,
            path: path.to_string(),
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// The outcome of a workspace run.
#[derive(Debug, Default)]
pub struct Report {
    /// All surviving findings, sorted by `(path, line, rule)`.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files analyzed (after skips).
    pub files_scanned: usize,
    /// Number of suppressions honored (inline markers + allowlist
    /// entries that matched at least one finding).
    pub suppressions: usize,
}

impl Report {
    /// `true` when the workspace is clean.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the human-readable report.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} file(s) scanned, {} suppression(s) honored, {} violation(s)\n",
            self.files_scanned,
            self.suppressions,
            self.findings.len()
        ));
        out
    }

    /// Renders the findings as a JSON array of
    /// `{"rule","path","line","message"}` objects — the machine-readable
    /// surface CI annotations consume.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::from("[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n  {{\"rule\":{},\"path\":{},\"line\":{},\"message\":{}}}",
                json_str(f.rule.id()),
                json_str(&f.path),
                f.line,
                json_str(&f.message)
            ));
        }
        out.push_str(if self.findings.is_empty() { "]\n" } else { "\n]\n" });
        out
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_round_trip() {
        for rule in ALL_RULES {
            assert_eq!(Rule::from_id(rule.id()), Some(rule));
        }
        assert_eq!(Rule::from_id("nope"), None);
    }

    #[test]
    fn json_escapes_specials() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn json_render_shape() {
        let mut report = Report::default();
        report
            .findings
            .push(Finding::new(Rule::WallClock, "a/b.rs", 3, "msg"));
        let json = report.render_json();
        assert!(json.contains("\"rule\":\"wall-clock\""));
        assert!(json.contains("\"path\":\"a/b.rs\""));
        assert!(json.contains("\"line\":3"));
        assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
    }
}
