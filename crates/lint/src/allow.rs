//! The committed suppression file (`lint.allow`).
//!
//! One entry per line:
//!
//! ```text
//! <rule-id> <path-prefix> -- <justification>
//! ```
//!
//! `#` starts a comment; blank lines are skipped. A finding is suppressed
//! when an entry's rule matches and its path-prefix is a prefix of the
//! finding's workspace-relative path. The justification is **mandatory** —
//! a suppression without a reason is itself an error, so every exception
//! to the determinism/robustness contract is explained in the tree.

use crate::report::Finding;

/// One parsed suppression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule id this entry silences.
    pub rule: String,
    /// Workspace-relative path prefix it applies to.
    pub path_prefix: String,
    /// Why this exception is sound.
    pub justification: String,
    /// 1-based line in `lint.allow` (for stale-entry diagnostics).
    pub source_line: u32,
}

/// The whole suppression file.
#[derive(Debug, Default, Clone)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// An empty allowlist (used when `lint.allow` does not exist).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Parses the file text.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line when an entry is
    /// malformed or its justification is missing/empty.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx as u32 + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (head, justification) = match line.split_once(" -- ") {
                Some((head, justification)) => (head, justification.trim()),
                // A line ending in ` --` has the separator but nothing
                // after it (trailing spaces were trimmed above).
                None => match line.strip_suffix(" --") {
                    Some(head) => (head, ""),
                    None => {
                        return Err(format!(
                            "lint.allow:{line_no}: missing ' -- <justification>' — every \
                             suppression must say why it is sound"
                        ))
                    }
                },
            };
            if justification.is_empty() {
                return Err(format!("lint.allow:{line_no}: empty justification"));
            }
            let mut parts = head.split_whitespace();
            let (Some(rule), Some(path_prefix), None) = (parts.next(), parts.next(), parts.next())
            else {
                return Err(format!(
                    "lint.allow:{line_no}: expected '<rule-id> <path-prefix> -- <justification>', \
                     got {line:?}"
                ));
            };
            entries.push(AllowEntry {
                rule: rule.to_string(),
                path_prefix: path_prefix.to_string(),
                justification: justification.to_string(),
                source_line: line_no,
            });
        }
        Ok(Self { entries })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the list has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Rejects entries naming rule ids the engine does not define.
    ///
    /// A typo'd id would otherwise parse fine and then suppress nothing
    /// forever, surfacing only as a perpetual stale-entry warning.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line and the known ids.
    pub fn validate_rules(&self, known: &[&str]) -> Result<(), String> {
        for e in &self.entries {
            if !known.contains(&e.rule.as_str()) {
                return Err(format!(
                    "lint.allow:{}: unknown rule id '{}' — known rules: {}",
                    e.source_line,
                    e.rule,
                    known.join(", ")
                ));
            }
        }
        Ok(())
    }

    /// The justification of the first entry suppressing `finding`, if any.
    pub fn suppresses(&self, finding: &Finding) -> Option<String> {
        self.entries
            .iter()
            .find(|e| e.rule == finding.rule && finding.path.starts_with(&e.path_prefix))
            .map(|e| e.justification.clone())
    }

    /// Entries that silenced nothing in `report` — stale suppressions that
    /// should be pruned so the allowlist never outlives the exceptions it
    /// documents.
    pub fn unused(&self, report: &crate::report::Report) -> Vec<AllowEntry> {
        self.entries
            .iter()
            .filter(|e| {
                !report
                    .suppressed
                    .iter()
                    .any(|s| s.finding.rule == e.rule && s.finding.path.starts_with(&e.path_prefix))
            })
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Severity;

    fn finding(rule: &'static str, path: &str) -> Finding {
        Finding {
            rule,
            path: path.into(),
            line: 1,
            col: 1,
            message: String::new(),
            severity: Severity::Error,
        }
    }

    #[test]
    fn parses_entries_comments_and_blanks() {
        let text = "# header\n\nno-unwrap crates/nn/src/ -- documented panics\n";
        let list = Allowlist::parse(text).unwrap();
        assert_eq!(list.len(), 1);
        assert!(!list.is_empty());
        assert!(list
            .suppresses(&finding("no-unwrap", "crates/nn/src/act.rs"))
            .is_some());
        assert!(list
            .suppresses(&finding("no-unwrap", "crates/optim/src/dropback.rs"))
            .is_none());
        assert!(list
            .suppresses(&finding("no-print", "crates/nn/src/act.rs"))
            .is_none());
    }

    #[test]
    fn missing_justification_is_an_error() {
        let err = Allowlist::parse("no-unwrap crates/nn/src/\n").unwrap_err();
        assert!(err.contains("lint.allow:1"), "{err}");
        assert!(err.contains("justification"), "{err}");
        let err = Allowlist::parse("no-unwrap crates/nn/src/ --   \n").unwrap_err();
        assert!(err.contains("empty justification"), "{err}");
    }

    #[test]
    fn malformed_entry_is_an_error() {
        let err = Allowlist::parse("just-a-rule -- why\n").unwrap_err();
        assert!(err.contains("expected"), "{err}");
        let err = Allowlist::parse("rule path extra -- why\n").unwrap_err();
        assert!(err.contains("expected"), "{err}");
    }

    #[test]
    fn unknown_rule_ids_are_rejected() {
        let list = Allowlist::parse("no-unwrpa crates/nn/src/ -- typo'd rule id\n").unwrap();
        let err = list.validate_rules(&["no-unwrap", "no-print"]).unwrap_err();
        assert!(err.contains("lint.allow:1"), "{err}");
        assert!(err.contains("no-unwrpa"), "{err}");
        assert!(err.contains("known rules"), "{err}");
        let ok = Allowlist::parse("no-print crates/nn/src/ -- fine\n").unwrap();
        assert!(ok.validate_rules(&["no-unwrap", "no-print"]).is_ok());
    }

    #[test]
    fn unused_entries_are_reported() {
        let list =
            Allowlist::parse("no-unwrap crates/nn/src/ -- used\nno-print crates/zz/ -- stale\n")
                .unwrap();
        let mut report = crate::report::Report::default();
        report.add(finding("no-unwrap", "crates/nn/src/act.rs"), &list);
        let unused = list.unused(&report);
        assert_eq!(unused.len(), 1);
        assert_eq!(unused[0].rule, "no-print");
        assert_eq!(unused[0].source_line, 2);
    }
}
