//! # gallery-rules
//!
//! The orchestration rule engine of Gallery (§3.7 of *Gallery: A Machine
//! Learning Model Management System at Uber*, EDBT 2020).
//!
//! Components:
//! - a from-scratch JEXL-like expression language ([`token`], [`ast`],
//!   [`parser`], [`eval`]) covering the paper's rule conditions;
//! - Given/When/Then rule documents with two "Then" templates — model
//!   selection and callback actions ([`rule`]);
//! - champion selection over Gallery instances ([`selection`]);
//! - a named callback [`actions::ActionRegistry`] with default actions;
//! - a git-style versioned [`repo::RuleRepo`] with validation-before-commit
//!   and enforced peer review;
//! - the event-driven [`engine::RuleEngine`] with a job queue and a worker
//!   pool (Figure 8);
//! - a static analyzer ([`analyze`], [`diag`]) that type-checks rules
//!   against a context schema and flags never-firing conditions before
//!   registration.

// Unit tests may unwrap freely and use raw std locks; non-test code is
// held to the `disallowed-methods` and `disallowed-types` bans in this
// crate's clippy.toml.
#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod actions;
pub mod alerting;
pub mod analyze;
pub mod ast;
pub mod context;
pub mod diag;
pub mod engine;
pub mod error;
pub mod eval;
pub mod parser;
pub mod repo;
pub mod rule;
pub mod selection;
pub mod token;

pub use actions::{ActionInvocation, ActionLog, ActionRegistry};
pub use alerting::{
    compile_condition, register_lifecycle_actions, ACTION_DEPRECATE_INSTANCE,
    ACTION_ROLLBACK_PRODUCTION,
};
pub use analyze::{
    analyze_condition, analyze_expr_src, analyze_rule, analyze_rule_json, analyze_rule_set,
    ContextSchema, Finding, LintReport,
};
pub use diag::{codes, Diagnostic, Severity};
pub use engine::{EngineStats, RuleEngine};
pub use error::EngineError;
pub use eval::{EvalContext, EvalValue};
pub use repo::{Commit, RuleRepo};
pub use rule::{CompiledRule, RuleBody, RuleDoc, RuleKind};
pub use selection::{select_champion, select_from_gallery};
pub use token::Span;
