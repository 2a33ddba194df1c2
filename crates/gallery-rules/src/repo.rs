//! Versioned rule repository (§3.7.2).
//!
//! "For rule storage, we use a Git repository ... we automatically have
//! version control for the rules ... and we can also easily enforce the
//! peer review process." This module implements a content-addressed,
//! append-only repository: every change is a commit (hash-identified),
//! every rule file is validated (compiled) before it can be committed, and
//! commits require a reviewer distinct from the author.

use crate::analyze::{analyze_rule, analyze_rule_set};
use crate::error::EngineError;
use crate::rule::{CompiledRule, RuleDoc};
use gallery_core::sync::{rank, OrderedRwLock};
use gallery_store::blob::checksum::crc32;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One committed change set.
#[derive(Debug, Clone, PartialEq)]
pub struct Commit {
    pub id: String,
    pub parent: Option<String>,
    pub author: String,
    pub reviewer: String,
    pub message: String,
    /// path -> new content (`None` = deletion).
    pub changes: Vec<(String, Option<String>)>,
}

#[derive(Debug, Default)]
struct RepoInner {
    /// Current content per path.
    files: BTreeMap<String, String>,
    commits: Vec<Commit>,
}

/// The rule repository. Cloning shares state.
#[derive(Debug, Clone)]
pub struct RuleRepo {
    inner: Arc<OrderedRwLock<RepoInner>>,
}

impl Default for RuleRepo {
    fn default() -> Self {
        RuleRepo {
            inner: Arc::new(OrderedRwLock::new(rank::RULE_REPO, RepoInner::default())),
        }
    }
}

impl RuleRepo {
    pub fn new() -> Self {
        Self::default()
    }

    /// Validate rule JSON without committing — the "test framework to
    /// validate each rule before it can impact production". Compilation
    /// catches malformed documents; the static analyzer then rejects
    /// error-severity findings (typos, type errors, impossible conditions).
    pub fn validate(content: &str) -> Result<CompiledRule, EngineError> {
        let compiled = CompiledRule::from_json(content).map_err(EngineError::from)?;
        let doc: RuleDoc = serde_json::from_str(content)
            .map_err(|e| EngineError::Rule(format!("invalid rule JSON: {e}")))?;
        let report = analyze_rule(&doc);
        if report.has_errors() {
            return Err(EngineError::Lint(report.render()));
        }
        Ok(compiled)
    }

    /// Commit a set of changes. Every added/updated file must be valid rule
    /// JSON; the reviewer must differ from the author (peer review);
    /// deletions must reference existing paths.
    pub fn commit(
        &self,
        author: &str,
        reviewer: &str,
        message: &str,
        changes: Vec<(String, Option<String>)>,
    ) -> Result<String, EngineError> {
        if author.trim().is_empty() {
            return Err(EngineError::Repo("author must be non-empty".into()));
        }
        if reviewer == author {
            return Err(EngineError::Repo(format!(
                "peer review required: reviewer must differ from author {author}"
            )));
        }
        if changes.is_empty() {
            return Err(EngineError::Repo("empty commit".into()));
        }
        // Validate before mutating anything.
        for (path, content) in &changes {
            match content {
                Some(json) => {
                    Self::validate(json).map_err(|e| {
                        EngineError::Repo(format!("validation failed for {path}: {e}"))
                    })?;
                }
                None => {
                    if !self.inner.read().files.contains_key(path) {
                        return Err(EngineError::Repo(format!(
                            "cannot delete unknown path {path}"
                        )));
                    }
                }
            }
        }
        // Set-level analysis over the post-commit state: the commit may not
        // introduce duplicate ids, shadowed rules, or contradictory actions.
        {
            let mut post = self.inner.read().files.clone();
            for (path, content) in &changes {
                match content {
                    Some(json) => {
                        post.insert(path.clone(), json.clone());
                    }
                    None => {
                        post.remove(path);
                    }
                }
            }
            let docs: Vec<RuleDoc> = post
                .values()
                .filter_map(|json| serde_json::from_str(json).ok())
                .collect();
            let set_report = analyze_rule_set(&docs);
            if set_report.has_errors() {
                return Err(EngineError::Lint(set_report.render()));
            }
        }
        let mut inner = self.inner.write();
        let parent = inner.commits.last().map(|c| c.id.clone());
        let mut hash_input = String::new();
        hash_input.push_str(parent.as_deref().unwrap_or("root"));
        hash_input.push_str(author);
        hash_input.push_str(message);
        for (path, content) in &changes {
            hash_input.push_str(path);
            hash_input.push_str(content.as_deref().unwrap_or("<deleted>"));
        }
        let id = format!(
            "{:08x}{:08x}",
            crc32(hash_input.as_bytes()),
            inner.commits.len() as u32
        );
        for (path, content) in &changes {
            match content {
                Some(json) => {
                    inner.files.insert(path.clone(), json.clone());
                }
                None => {
                    inner.files.remove(path);
                }
            }
        }
        inner.commits.push(Commit {
            id: id.clone(),
            parent,
            author: author.to_owned(),
            reviewer: reviewer.to_owned(),
            message: message.to_owned(),
            changes,
        });
        Ok(id)
    }

    /// Convenience: commit one rule file.
    pub fn commit_rule(
        &self,
        author: &str,
        reviewer: &str,
        path: &str,
        content: &str,
    ) -> Result<String, EngineError> {
        self.commit(
            author,
            reviewer,
            &format!("update {path}"),
            vec![(path.to_owned(), Some(content.to_owned()))],
        )
    }

    /// Current content of a rule file.
    pub fn get(&self, path: &str) -> Option<String> {
        self.inner.read().files.get(path).cloned()
    }

    /// Paths currently present.
    pub fn paths(&self) -> Vec<String> {
        self.inner.read().files.keys().cloned().collect()
    }

    /// Commits touching a path, oldest first.
    pub fn history(&self, path: &str) -> Vec<Commit> {
        self.inner
            .read()
            .commits
            .iter()
            .filter(|c| c.changes.iter().any(|(p, _)| p == path))
            .cloned()
            .collect()
    }

    /// All commits, oldest first.
    pub fn log(&self) -> Vec<Commit> {
        self.inner.read().commits.clone()
    }

    /// Compile every rule currently in the repo.
    pub fn load_rules(&self) -> Result<Vec<CompiledRule>, EngineError> {
        self.inner
            .read()
            .files
            .values()
            .map(|json| Self::validate(json))
            .collect()
    }

    /// Reconstruct the file tree as of a given commit (time travel).
    pub fn checkout(&self, commit_id: &str) -> Result<BTreeMap<String, String>, EngineError> {
        let inner = self.inner.read();
        let upto = inner
            .commits
            .iter()
            .position(|c| c.id == commit_id)
            .ok_or_else(|| EngineError::Repo(format!("unknown commit {commit_id}")))?;
        let mut files = BTreeMap::new();
        for commit in &inner.commits[..=upto] {
            for (path, content) in &commit.changes {
                match content {
                    Some(json) => {
                        files.insert(path.clone(), json.clone());
                    }
                    None => {
                        files.remove(path);
                    }
                }
            }
        }
        Ok(files)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::{listing1_selection_rule, listing2_action_rule};

    fn rule_json(doc: &crate::rule::RuleDoc) -> String {
        serde_json::to_string_pretty(doc).unwrap()
    }

    #[test]
    fn commit_and_load() {
        let repo = RuleRepo::new();
        repo.commit_rule(
            "alice",
            "bob",
            "forecasting/selection.json",
            &rule_json(&listing1_selection_rule()),
        )
        .unwrap();
        repo.commit_rule(
            "alice",
            "bob",
            "forecasting/deploy.json",
            &rule_json(&listing2_action_rule()),
        )
        .unwrap();
        assert_eq!(repo.paths().len(), 2);
        let rules = repo.load_rules().unwrap();
        assert_eq!(rules.len(), 2);
    }

    #[test]
    fn peer_review_enforced() {
        let repo = RuleRepo::new();
        let err = repo.commit_rule(
            "alice",
            "alice",
            "r.json",
            &rule_json(&listing1_selection_rule()),
        );
        assert!(matches!(err, Err(EngineError::Repo(_))));
    }

    #[test]
    fn invalid_rule_rejected_before_commit() {
        let repo = RuleRepo::new();
        let err = repo.commit_rule("alice", "bob", "bad.json", "{ not json");
        assert!(err.is_err());
        assert!(repo.paths().is_empty());
        assert!(repo.log().is_empty());
    }

    #[test]
    fn atomic_multi_file_commit() {
        let repo = RuleRepo::new();
        // second file invalid -> whole commit rejected, first file absent
        let err = repo.commit(
            "alice",
            "bob",
            "batch",
            vec![
                ("a.json".into(), Some(rule_json(&listing1_selection_rule()))),
                ("b.json".into(), Some("garbage".into())),
            ],
        );
        assert!(err.is_err());
        assert!(repo.get("a.json").is_none());
    }

    #[test]
    fn history_and_checkout() {
        let repo = RuleRepo::new();
        let v1 = rule_json(&listing1_selection_rule());
        let mut doc2 = listing1_selection_rule();
        doc2.rule.when = "metrics[\"r2\"] <= 0.95".into();
        let v2 = rule_json(&doc2);
        let c1 = repo.commit_rule("alice", "bob", "r.json", &v1).unwrap();
        let c2 = repo.commit_rule("carol", "bob", "r.json", &v2).unwrap();
        assert_eq!(repo.history("r.json").len(), 2);
        assert_eq!(repo.get("r.json"), Some(v2.clone()));
        let old = repo.checkout(&c1).unwrap();
        assert_eq!(old.get("r.json"), Some(&v1));
        let new = repo.checkout(&c2).unwrap();
        assert_eq!(new.get("r.json"), Some(&v2));
        assert!(repo.checkout("bogus").is_err());
    }

    #[test]
    fn deletion() {
        let repo = RuleRepo::new();
        repo.commit_rule("a", "b", "r.json", &rule_json(&listing1_selection_rule()))
            .unwrap();
        repo.commit("a", "b", "remove", vec![("r.json".into(), None)])
            .unwrap();
        assert!(repo.get("r.json").is_none());
        // deleting unknown path rejected
        assert!(repo
            .commit("a", "b", "remove again", vec![("r.json".into(), None)])
            .is_err());
    }

    #[test]
    fn commit_ids_are_unique_and_chained() {
        let repo = RuleRepo::new();
        let c1 = repo
            .commit_rule("a", "b", "r1.json", &rule_json(&listing1_selection_rule()))
            .unwrap();
        let c2 = repo
            .commit_rule("a", "b", "r2.json", &rule_json(&listing2_action_rule()))
            .unwrap();
        assert_ne!(c1, c2);
        let log = repo.log();
        assert_eq!(log[0].parent, None);
        assert_eq!(log[1].parent, Some(c1));
    }
}
