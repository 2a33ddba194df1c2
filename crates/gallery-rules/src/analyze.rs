//! Static analysis for the rule language.
//!
//! Three layers, run before a rule may enter the system:
//!
//! 1. **Semantic/type checking** — identifiers are resolved against a
//!    declared [`ContextSchema`] (model-metadata fields, the monitor gauge
//!    catalog with its ×1e6 descaling convention, rule-context bindings)
//!    and types are inferred bottom-up (bool/int/float/string/duration),
//!    with byte-range spans pointing at the offending token.
//! 2. **Abstract interpretation** — interval analysis on numeric
//!    subexpressions plus boolean constant folding flags always-true /
//!    always-false conditions, comparisons outside a signal's declared
//!    range (`feature_completeness > 1.2`), raw-gauge-scale thresholds on
//!    descaled bindings, division by a possibly-zero denominator, and
//!    contradictory or redundant bounds inside one conjunction.
//! 3. **Rule-set analysis** — across a rule set: duplicate ids, shadowed
//!    rules (an earlier rule's condition implies a later one's),
//!    contradictory actions on overlapping triggers, and rules whose
//!    GIVEN and WHEN clauses are jointly unsatisfiable.
//!
//! Every finding is a [`Diagnostic`] with a stable code from
//! [`crate::diag::codes`]; `Error`-severity findings reject the rule in
//! [`crate::repo::RuleRepo`] and [`crate::alerting::compile_condition`].

use crate::ast::{BinOp, Expr, ExprKind, UnOp};
use crate::diag::{codes, Diagnostic, Severity};
use crate::parser::parse;
use crate::rule::RuleDoc;
use crate::token::Span;
use gallery_telemetry::{FamilyKind, FamilyMeta};
use std::collections::BTreeMap;
use std::fmt;

/// Inferred expression type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    Bool,
    Int,
    Float,
    Duration,
    Str,
    Object,
    /// Unknown (open-world identifiers, lenient member access).
    Any,
}

impl Ty {
    fn is_numeric(self) -> bool {
        matches!(self, Ty::Int | Ty::Float | Ty::Duration)
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Ty::Bool => "bool",
            Ty::Int => "int",
            Ty::Float => "float",
            Ty::Duration => "duration",
            Ty::Str => "string",
            Ty::Object => "object",
            Ty::Any => "unknown",
        };
        f.write_str(s)
    }
}

/// Declaration of one context variable: its type, declared value range
/// (infinite bounds when unbounded), and whether the binding is descaled
/// from a ×1e6 fixed-point gauge (thresholds are in natural units).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VarDecl {
    pub ty: Ty,
    pub lo: f64,
    pub hi: f64,
    pub descaled: bool,
}

impl VarDecl {
    pub const fn str() -> Self {
        VarDecl {
            ty: Ty::Str,
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
            descaled: false,
        }
    }

    pub const fn boolean() -> Self {
        VarDecl {
            ty: Ty::Bool,
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
            descaled: false,
        }
    }

    pub const fn object() -> Self {
        VarDecl {
            ty: Ty::Object,
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
            descaled: false,
        }
    }

    pub const fn num(ty: Ty, lo: f64, hi: f64) -> Self {
        VarDecl {
            ty,
            lo,
            hi,
            descaled: false,
        }
    }

    const fn descaled(mut self) -> Self {
        self.descaled = true;
        self
    }

    fn has_finite_bound(&self) -> bool {
        self.lo.is_finite() || self.hi.is_finite()
    }
}

impl From<&FamilyMeta> for VarDecl {
    fn from(m: &FamilyMeta) -> Self {
        match m.kind {
            FamilyKind::Counter => VarDecl::num(Ty::Int, 0.0, f64::INFINITY),
            // `Registry::family_value` reports a histogram's count.
            FamilyKind::Histogram => VarDecl::num(Ty::Int, 0.0, f64::INFINITY),
            FamilyKind::Gauge => {
                if m.scale == 1.0 {
                    VarDecl::num(Ty::Int, m.lo, m.hi)
                } else {
                    VarDecl::num(Ty::Float, m.lo, m.hi).descaled()
                }
            }
        }
    }
}

/// Families minted outside the crates `gallery-rules` depends on for their
/// catalogs (storage, service, registry, rules — all documented in
/// `docs/metrics.md`, which CI cross-checks against source literals).
const EXTRA_FAMILIES: &[FamilyMeta] = &[
    // gallery-store
    FamilyMeta::counter("gallery_dal_ops_total"),
    FamilyMeta::histogram("gallery_dal_op_duration_ms"),
    FamilyMeta::counter("gallery_dal_degraded_reads_total"),
    FamilyMeta::counter("gallery_dal_stale_reads_total"),
    FamilyMeta::counter("gallery_dal_orphans_repaired_total"),
    FamilyMeta::counter("gallery_blob_ops_total"),
    FamilyMeta::counter("gallery_blob_bytes_total"),
    FamilyMeta::histogram("gallery_blob_op_duration_ms"),
    FamilyMeta::counter("gallery_wal_appends_total"),
    FamilyMeta::counter("gallery_wal_flushes_total"),
    FamilyMeta::histogram("gallery_wal_append_duration_ms"),
    FamilyMeta::counter("gallery_wal_torn_tail_truncated_total"),
    FamilyMeta::gauge("gallery_wal_size_bytes", 1.0, 0.0, f64::INFINITY),
    FamilyMeta::gauge("gallery_meta_records", 1.0, 0.0, f64::INFINITY),
    FamilyMeta::gauge("gallery_blob_bytes_resident", 1.0, 0.0, f64::INFINITY),
    FamilyMeta::counter("gallery_cache_hits_total"),
    FamilyMeta::counter("gallery_cache_misses_total"),
    FamilyMeta::counter("gallery_cache_evictions_total"),
    FamilyMeta::gauge("gallery_cache_bytes", 1.0, 0.0, f64::INFINITY),
    // gallery-service
    FamilyMeta::counter("gallery_rpc_client_calls_total"),
    FamilyMeta::counter("gallery_rpc_client_attempts_total"),
    FamilyMeta::histogram("gallery_rpc_client_call_duration_ms"),
    FamilyMeta::counter("gallery_rpc_breaker_rejections_total"),
    FamilyMeta::counter("gallery_breaker_transitions_total"),
    FamilyMeta::counter("gallery_rpc_server_requests_total"),
    FamilyMeta::histogram("gallery_rpc_server_handle_duration_ms"),
    FamilyMeta::counter("gallery_rpc_server_decode_errors_total"),
    FamilyMeta::counter("gallery_rpc_idempotent_replays_total"),
    // gallery-core registry
    FamilyMeta::counter("gallery_registry_ops_total"),
    FamilyMeta::histogram("gallery_registry_op_duration_ms"),
    FamilyMeta::counter("gallery_registry_propagated_instances_total"),
    // gallery-rules engine
    FamilyMeta::counter("gallery_rules_evals_total"),
    FamilyMeta::counter("gallery_rules_fired_total"),
    FamilyMeta::histogram("gallery_rule_eval_duration_ms"),
];

/// The identifier vocabulary one expression is checked against.
#[derive(Debug, Clone)]
pub struct ContextSchema {
    /// Human name for messages ("model instance", "alert condition", ...).
    pub kind_name: &'static str,
    /// Root identifiers.
    vars: BTreeMap<String, VarDecl>,
    /// Members of the `metrics` object.
    metrics: BTreeMap<String, VarDecl>,
    /// Unknown members of `metrics` are allowed (user-defined metrics).
    metrics_open: bool,
    /// Roots that are objects whose members resolve against another schema
    /// (the selection comparator's `a`/`b`).
    nested: Vec<&'static str>,
    nested_schema: Option<Box<ContextSchema>>,
    /// Unknown roots warn instead of erroring (contexts carry
    /// user-defined fields).
    open_world: bool,
}

/// Well-known validation-metric names with their mathematical ranges.
const KNOWN_METRIC_RANGES: &[(&str, f64, f64)] = &[
    ("r2", f64::NEG_INFINITY, 1.0),
    ("mae", 0.0, f64::INFINITY),
    ("mape", 0.0, f64::INFINITY),
    ("rmse", 0.0, f64::INFINITY),
    ("auc", 0.0, 1.0),
    ("accuracy", 0.0, 1.0),
    ("precision", 0.0, 1.0),
    ("recall", 0.0, 1.0),
    ("f1", 0.0, 1.0),
];

impl ContextSchema {
    /// Schema for GIVEN/WHEN clauses of repo rules: evaluation contexts
    /// built from a model instance (`crate::context`).
    pub fn instance_rules() -> Self {
        let mut vars = BTreeMap::new();
        for field in gallery_core::metadata::fields::ALL {
            let decl = match *field {
                "random_seed" | "epochs" => VarDecl::num(Ty::Int, 0.0, f64::INFINITY),
                _ => VarDecl::str(),
            };
            vars.insert((*field).to_owned(), decl);
        }
        for extra in [
            "modelName",
            "display_version",
            "base_version_id",
            "instance_id",
            "model_id",
        ] {
            vars.insert(extra.to_owned(), VarDecl::str());
        }
        vars.insert(
            "created_time".to_owned(),
            VarDecl::num(Ty::Duration, 0.0, f64::INFINITY),
        );
        vars.insert("deprecated".to_owned(), VarDecl::boolean());
        vars.insert("metrics".to_owned(), VarDecl::object());
        let metrics = KNOWN_METRIC_RANGES
            .iter()
            .map(|(name, lo, hi)| ((*name).to_owned(), VarDecl::num(Ty::Float, *lo, *hi)))
            .collect();
        ContextSchema {
            kind_name: "model instance",
            vars,
            metrics,
            metrics_open: true,
            nested: Vec::new(),
            nested_schema: None,
            open_world: true,
        }
    }

    /// Schema for MODEL_SELECTION comparators: `a` and `b` are candidate
    /// instances compared pairwise.
    pub fn selection_comparator() -> Self {
        ContextSchema {
            kind_name: "selection comparator",
            vars: BTreeMap::new(),
            metrics: BTreeMap::new(),
            metrics_open: false,
            nested: vec!["a", "b"],
            nested_schema: Some(Box::new(Self::instance_rules())),
            open_world: true,
        }
    }

    /// Schema for alert conditions: root identifiers (and `metrics.<name>`
    /// members) name metric families in the telemetry registry.
    pub fn alert_conditions() -> Self {
        let mut vars: BTreeMap<String, VarDecl> = BTreeMap::new();
        for fam in gallery_core::monitor::FAMILIES
            .iter()
            .chain(gallery_telemetry::alerts::FAMILIES)
            .chain(EXTRA_FAMILIES)
        {
            vars.insert(fam.name.to_owned(), fam.into());
        }
        let metrics: BTreeMap<String, VarDecl> =
            vars.iter().map(|(k, v)| (k.clone(), *v)).collect();
        vars.insert("metrics".to_owned(), VarDecl::object());
        ContextSchema {
            kind_name: "alert condition",
            vars,
            metrics,
            metrics_open: true,
            nested: Vec::new(),
            nested_schema: None,
            open_world: true,
        }
    }

    fn lookup(&self, segs: &[String]) -> Lookup {
        let root = &segs[0];
        if self.nested.iter().any(|n| n == root) {
            if segs.len() == 1 {
                return Lookup::Decl(VarDecl::object());
            }
            if let Some(inner) = &self.nested_schema {
                return inner.lookup(&segs[1..]);
            }
            return Lookup::Opaque;
        }
        if let Some(decl) = self.vars.get(root.as_str()) {
            if segs.len() == 1 {
                return Lookup::Decl(*decl);
            }
            if decl.ty == Ty::Object && root == "metrics" {
                let member = &segs[1];
                if let Some(md) = self.metrics.get(member.as_str()) {
                    if segs.len() == 2 {
                        return Lookup::Decl(*md);
                    }
                    return Lookup::ScalarMember {
                        base: format!("metrics.{member}"),
                        ty: md.ty,
                    };
                }
                if let Some(suggestion) = nearest(member, self.metrics.keys().map(|s| s.as_str())) {
                    return Lookup::Typo {
                        found: format!("metrics.{member}"),
                        suggestion: format!("metrics.{suggestion}"),
                    };
                }
                if segs.len() == 2 && self.metrics_open {
                    return Lookup::OpenNum;
                }
                return Lookup::Opaque;
            }
            if decl.ty == Ty::Object {
                return Lookup::Opaque;
            }
            return Lookup::ScalarMember {
                base: root.clone(),
                ty: decl.ty,
            };
        }
        let candidates = self
            .vars
            .keys()
            .map(|s| s.as_str())
            .chain(self.nested.iter().copied());
        if let Some(suggestion) = nearest(root, candidates) {
            return Lookup::Typo {
                found: root.clone(),
                suggestion,
            };
        }
        Lookup::UnknownRoot { name: root.clone() }
    }
}

enum Lookup {
    /// Full path resolved to a declaration.
    Decl(VarDecl),
    /// Unknown member of the open `metrics` object: a user-defined metric.
    OpenNum,
    /// Member of an opaque object: unknown, allowed.
    Opaque,
    /// Unknown name within edit distance of a declared one.
    Typo { found: String, suggestion: String },
    /// Unknown root in an open-world context.
    UnknownRoot { name: String },
    /// Member access on a declared scalar.
    ScalarMember { base: String, ty: Ty },
}

/// Optimal-string-alignment edit distance (insert/delete/substitute plus
/// adjacent transposition), the classic typo metric.
fn osa_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let (n, m) = (a.len(), b.len());
    let mut prev2 = vec![0usize; m + 1];
    let mut prev: Vec<usize> = (0..=m).collect();
    let mut cur = vec![0usize; m + 1];
    for i in 1..=n {
        cur[0] = i;
        for j in 1..=m {
            let cost = usize::from(a[i - 1] != b[j - 1]);
            cur[j] = (prev[j] + 1).min(cur[j - 1] + 1).min(prev[j - 1] + cost);
            if i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1] {
                cur[j] = cur[j].min(prev2[j - 2] + 1);
            }
        }
        std::mem::swap(&mut prev2, &mut prev);
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[m]
}

/// Closest declared name within the typo threshold (distance ≤ 2, or ≤ 1
/// for short names where a 2-edit neighborhood is too noisy).
fn nearest<'a>(name: &str, candidates: impl Iterator<Item = &'a str>) -> Option<String> {
    let limit = if name.chars().count() >= 5 { 2 } else { 1 };
    let mut best: Option<(usize, &str)> = None;
    for cand in candidates {
        let d = osa_distance(name, cand);
        if d >= 1 && d <= limit && best.is_none_or(|(bd, _)| d < bd) {
            best = Some((d, cand));
        }
    }
    best.map(|(_, c)| c.to_owned())
}

// ---------------------------------------------------------------------------
// Reports

/// One diagnostic bound to the expression (and clause) it was found in.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Which clause/file the source came from ("WHEN", "GIVEN", ...).
    pub origin: String,
    /// The analyzed source text the diagnostic's span indexes into.
    pub source: String,
    pub diag: Diagnostic,
}

impl Finding {
    pub fn render(&self) -> String {
        self.diag.render(&self.origin, &self.source)
    }
}

/// The full result of analyzing an expression, rule, or rule set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LintReport {
    pub findings: Vec<Finding>,
}

impl LintReport {
    pub fn is_empty(&self) -> bool {
        self.findings.is_empty()
    }

    pub fn has_errors(&self) -> bool {
        self.findings
            .iter()
            .any(|f| f.diag.severity == Severity::Error)
    }

    pub fn codes(&self) -> Vec<&'static str> {
        self.findings.iter().map(|f| f.diag.code).collect()
    }

    /// Rustc-style rendering of every finding, errors first.
    pub fn render(&self) -> String {
        let mut ordered: Vec<&Finding> = self.findings.iter().collect();
        ordered.sort_by_key(|f| std::cmp::Reverse(f.diag.severity));
        let mut out = String::new();
        for f in ordered {
            out.push_str(&f.render());
        }
        let errors = self
            .findings
            .iter()
            .filter(|f| f.diag.severity == Severity::Error)
            .count();
        let warnings = self.findings.len() - errors;
        if !self.findings.is_empty() {
            out.push_str(&format!("{errors} error(s), {warnings} warning(s)\n"));
        }
        out
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.render().trim_end())
    }
}

impl std::error::Error for LintReport {}

// ---------------------------------------------------------------------------
// Abstract values

const FULL: (f64, f64) = (f64::NEG_INFINITY, f64::INFINITY);

/// Abstract value of one AST node.
#[derive(Debug, Clone, PartialEq)]
enum Abs {
    Bool(Option<bool>),
    /// Closed numeric interval (±∞ for unbounded sides).
    Num(f64, f64),
    Str(Option<String>),
    Null,
    Top,
}

fn interval(lo: f64, hi: f64) -> Abs {
    if lo.is_nan() || hi.is_nan() || lo > hi {
        Abs::Num(FULL.0, FULL.1)
    } else {
        Abs::Num(lo, hi)
    }
}

/// Per-node analysis result.
#[derive(Debug, Clone)]
struct Info {
    ty: Ty,
    abs: Abs,
    /// The value may be Null at runtime (metric not reported, field
    /// absent). Blocks folding comparisons to *true*; Null orderings are
    /// false at eval so folding to false stays sound.
    maybe_null: bool,
    /// Declaration backing this node directly (no arithmetic in between);
    /// drives out-of-range and scale diagnostics.
    decl: Option<(String, VarDecl)>,
}

impl Info {
    fn new(ty: Ty, abs: Abs) -> Self {
        Info {
            ty,
            abs,
            maybe_null: false,
            decl: None,
        }
    }

    fn unknown() -> Self {
        Info {
            ty: Ty::Any,
            abs: Abs::Top,
            maybe_null: true,
            decl: None,
        }
    }

    fn num_interval(&self) -> Option<(f64, f64)> {
        match self.abs {
            Abs::Num(lo, hi) => Some((lo, hi)),
            Abs::Top => {
                if self.ty.is_numeric() || self.ty == Ty::Any {
                    Some(FULL)
                } else {
                    None
                }
            }
            _ => {
                if self.ty == Ty::Any {
                    Some(FULL)
                } else {
                    None
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The expression analyzer

struct Analyzer<'a> {
    schema: &'a ContextSchema,
    out: Vec<Diagnostic>,
}

/// Evaluator builtins: name → (parameter types, return type).
fn builtin(name: &str) -> Option<(&'static [Ty], Ty)> {
    match name {
        "abs" => Some((&[Ty::Float], Ty::Float)),
        "min" | "max" => Some((&[Ty::Float, Ty::Float], Ty::Float)),
        "contains" | "starts_with" => Some((&[Ty::Str, Ty::Str], Ty::Bool)),
        "defined" => Some((&[Ty::Any], Ty::Bool)),
        "len" => Some((&[Ty::Str], Ty::Int)),
        _ => None,
    }
}

/// Structural path of an lvalue-like expression: `a.metrics["r2"]` →
/// `["a", "metrics", "r2"]`.
fn path_segments(e: &Expr) -> Option<Vec<String>> {
    match &e.kind {
        ExprKind::Ident(name) => Some(vec![name.clone()]),
        ExprKind::Member(base, field) => {
            let mut segs = path_segments(base)?;
            segs.push(field.clone());
            Some(segs)
        }
        ExprKind::Index(base, key) => {
            if let ExprKind::Str(k) = &key.kind {
                let mut segs = path_segments(base)?;
                segs.push(k.clone());
                Some(segs)
            } else {
                None
            }
        }
        _ => None,
    }
}

fn const_num(e: &Expr) -> Option<f64> {
    match &e.kind {
        ExprKind::Num(x) => Some(*x),
        ExprKind::Unary(UnOp::Neg, inner) => const_num(inner).map(|x| -x),
        _ => None,
    }
}

impl<'a> Analyzer<'a> {
    fn new(schema: &'a ContextSchema) -> Self {
        Analyzer {
            schema,
            out: Vec::new(),
        }
    }

    fn check(&mut self, e: &Expr, conj: bool) -> Info {
        match &e.kind {
            ExprKind::Null => Info {
                ty: Ty::Any,
                abs: Abs::Null,
                maybe_null: true,
                decl: None,
            },
            ExprKind::Bool(b) => Info::new(Ty::Bool, Abs::Bool(Some(*b))),
            ExprKind::Num(x) => {
                let ty = if x.fract() == 0.0 { Ty::Int } else { Ty::Float };
                Info::new(ty, Abs::Num(*x, *x))
            }
            ExprKind::Str(s) => Info::new(Ty::Str, Abs::Str(Some(s.clone()))),
            ExprKind::Ident(_) | ExprKind::Member(..) => self.check_path(e),
            ExprKind::Index(base, key) => {
                if path_segments(e).is_some() {
                    return self.check_path(e);
                }
                let ki = self.check(key, false);
                if ki.ty != Ty::Str && ki.ty != Ty::Any {
                    self.out.push(Diagnostic::error(
                        codes::NON_STRING_KEY,
                        key.span,
                        format!("index key must be a string, found {}", ki.ty),
                    ));
                }
                self.check(base, false);
                Info::unknown()
            }
            ExprKind::Call(name, args) => self.check_call(e, name, args),
            ExprKind::Unary(op, inner) => {
                let ii = self.check(inner, false);
                match op {
                    UnOp::Not => {
                        self.require_bool(&ii, inner.span);
                        let abs = match ii.abs {
                            Abs::Bool(Some(b)) if !ii.maybe_null => Abs::Bool(Some(!b)),
                            _ => Abs::Bool(None),
                        };
                        Info::new(Ty::Bool, abs)
                    }
                    UnOp::Neg => {
                        if !matches!(ii.ty, Ty::Any) && !ii.ty.is_numeric() {
                            self.out.push(Diagnostic::error(
                                codes::TYPE_MISMATCH,
                                inner.span,
                                format!("cannot negate a {}", ii.ty),
                            ));
                        }
                        let abs = match ii.num_interval() {
                            Some((lo, hi)) => interval(-hi, -lo),
                            None => Abs::Top,
                        };
                        Info {
                            ty: if ii.ty.is_numeric() { ii.ty } else { Ty::Any },
                            abs,
                            maybe_null: ii.maybe_null,
                            decl: None,
                        }
                    }
                }
            }
            ExprKind::Binary(op, l, r) => self.check_binary(e, *op, l, r, conj),
        }
    }

    fn check_path(&mut self, e: &Expr) -> Info {
        let Some(segs) = path_segments(e) else {
            return Info::unknown();
        };
        match self.schema.lookup(&segs) {
            Lookup::Decl(decl) => {
                let abs = match decl.ty {
                    Ty::Bool => Abs::Bool(None),
                    Ty::Str => Abs::Str(None),
                    Ty::Object => Abs::Top,
                    _ => interval(decl.lo, decl.hi),
                };
                Info {
                    ty: decl.ty,
                    abs,
                    maybe_null: true,
                    decl: Some((segs.join("."), decl)),
                }
            }
            Lookup::OpenNum => Info {
                ty: Ty::Float,
                abs: Abs::Num(FULL.0, FULL.1),
                maybe_null: true,
                decl: None,
            },
            Lookup::Opaque => Info::unknown(),
            Lookup::Typo { found, suggestion } => {
                self.out.push(
                    Diagnostic::error(
                        codes::IDENT_TYPO,
                        e.span,
                        format!("unknown identifier `{found}`"),
                    )
                    .with_help(format!("did you mean `{suggestion}`?")),
                );
                Info::unknown()
            }
            Lookup::UnknownRoot { name } => {
                if self.schema.open_world {
                    self.out.push(Diagnostic::warning(
                        codes::UNKNOWN_IDENT,
                        e.span,
                        format!(
                            "`{name}` is not a declared {} identifier; it will be null unless \
                             the context binds it",
                            self.schema.kind_name
                        ),
                    ));
                } else {
                    self.out.push(Diagnostic::error(
                        codes::UNKNOWN_IDENT,
                        e.span,
                        format!("unknown {} identifier `{name}`", self.schema.kind_name),
                    ));
                }
                Info::unknown()
            }
            Lookup::ScalarMember { base, ty } => {
                self.out.push(Diagnostic::warning(
                    codes::MEMBER_OF_SCALAR,
                    e.span,
                    format!("`{base}` is a {ty}, not an object; member access yields null"),
                ));
                let mut info = Info::unknown();
                info.abs = Abs::Null;
                info
            }
        }
    }

    fn check_call(&mut self, e: &Expr, name: &str, args: &[Expr]) -> Info {
        let infos: Vec<Info> = args.iter().map(|a| self.check(a, false)).collect();
        let Some((params, ret)) = builtin(name) else {
            self.out.push(
                Diagnostic::error(
                    codes::UNKNOWN_FUNCTION,
                    e.span,
                    format!("unknown function `{name}`"),
                )
                .with_help(
                    "available functions: abs, min, max, contains, starts_with, defined, len",
                ),
            );
            return Info::unknown();
        };
        if params.len() != args.len() {
            self.out.push(Diagnostic::error(
                codes::BAD_ARITY,
                e.span,
                format!(
                    "`{name}` takes {} argument(s), found {}",
                    params.len(),
                    args.len()
                ),
            ));
            return Info::new(ret, Abs::Top);
        }
        for ((param, info), arg) in params.iter().zip(&infos).zip(args) {
            let ok = match param {
                Ty::Float => info.ty.is_numeric() || info.ty == Ty::Any,
                Ty::Str => matches!(info.ty, Ty::Str | Ty::Any),
                Ty::Any => true,
                _ => info.ty == *param || info.ty == Ty::Any,
            };
            if !ok {
                self.out.push(Diagnostic::error(
                    codes::TYPE_MISMATCH,
                    arg.span,
                    format!("`{name}` expects a {param} here, found {}", info.ty),
                ));
            }
        }
        // Interval transfer for the numeric builtins.
        let abs = match name {
            "abs" => match infos[0].num_interval() {
                Some((lo, hi)) => {
                    if lo >= 0.0 {
                        interval(lo, hi)
                    } else if hi <= 0.0 {
                        interval(-hi, -lo)
                    } else {
                        interval(0.0, (-lo).max(hi))
                    }
                }
                None => Abs::Top,
            },
            "min" | "max" => match (infos[0].num_interval(), infos[1].num_interval()) {
                (Some((alo, ahi)), Some((blo, bhi))) => {
                    if name == "min" {
                        interval(alo.min(blo), ahi.min(bhi))
                    } else {
                        interval(alo.max(blo), ahi.max(bhi))
                    }
                }
                _ => Abs::Top,
            },
            "len" => interval(0.0, f64::INFINITY),
            _ => match ret {
                Ty::Bool => Abs::Bool(None),
                _ => Abs::Top,
            },
        };
        Info::new(ret, abs)
    }

    fn check_binary(&mut self, e: &Expr, op: BinOp, l: &Expr, r: &Expr, conj: bool) -> Info {
        match op {
            BinOp::And | BinOp::Or => {
                let child_conj = conj && op == BinOp::And;
                let li = self.check(l, child_conj);
                let ri = self.check(r, child_conj);
                self.require_bool(&li, l.span);
                self.require_bool(&ri, r.span);
                // Literal operands: dead weight or a dead condition.
                for (side, info) in [(l, &li), (r, &ri)] {
                    if let ExprKind::Bool(b) = side.kind {
                        match (op, b) {
                            (BinOp::And, true) => self.out.push(Diagnostic::warning(
                                codes::ALWAYS_TRUE,
                                side.span,
                                "literal `true` has no effect in a conjunction",
                            )),
                            (BinOp::And, false) => self.out.push(Diagnostic::new_always_false(
                                conj,
                                side.span,
                                "literal `false` makes this condition always false",
                            )),
                            (BinOp::Or, true) => self.out.push(Diagnostic::warning(
                                codes::ALWAYS_TRUE,
                                side.span,
                                "literal `true` makes this condition always true",
                            )),
                            (BinOp::Or, false) => self.out.push(Diagnostic::warning(
                                codes::ALWAYS_FALSE,
                                side.span,
                                "literal `false` has no effect in a disjunction",
                            )),
                            _ => unreachable!("only And/Or reach this arm"),
                        }
                        let _ = info;
                    }
                }
                let (lb, rb) = (bool_of(&li), bool_of(&ri));
                let abs = match op {
                    BinOp::And => match (lb, rb) {
                        (Some(false), _) | (_, Some(false)) => Abs::Bool(Some(false)),
                        (Some(true), Some(true)) => Abs::Bool(Some(true)),
                        _ => Abs::Bool(None),
                    },
                    _ => match (lb, rb) {
                        (Some(true), _) | (_, Some(true)) => Abs::Bool(Some(true)),
                        (Some(false), Some(false)) => Abs::Bool(Some(false)),
                        _ => Abs::Bool(None),
                    },
                };
                Info::new(Ty::Bool, abs)
            }
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let li = self.check(l, false);
                let ri = self.check(r, false);
                self.check_comparison(e, op, l, &li, r, &ri, conj);
                Info::new(Ty::Bool, self.fold_comparison(op, &li, &ri))
            }
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => {
                let li = self.check(l, false);
                let ri = self.check(r, false);
                self.check_arith(e, op, l, &li, r, &ri)
            }
        }
    }

    /// Diagnostics for one comparison: type compatibility, then interval
    /// decisions (out-of-declared-range, always-true/false) and the
    /// descaling heuristic.
    #[allow(clippy::too_many_arguments)]
    fn check_comparison(
        &mut self,
        e: &Expr,
        op: BinOp,
        l: &Expr,
        li: &Info,
        r: &Expr,
        ri: &Info,
        conj: bool,
    ) {
        // Type compatibility.
        let compatible = li.ty == Ty::Any
            || ri.ty == Ty::Any
            || (li.ty.is_numeric() && ri.ty.is_numeric())
            || li.ty == ri.ty;
        if !compatible {
            let verb = if matches!(op, BinOp::Eq | BinOp::Ne) {
                "compare"
            } else {
                "order"
            };
            self.out.push(
                Diagnostic::error(
                    codes::TYPE_MISMATCH,
                    e.span,
                    format!("cannot {verb} {} with {}", li.ty, ri.ty),
                )
                .with_help("comparisons across types never hold; check the operand types"),
            );
            return;
        }
        if matches!(op, BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)
            && ((li.ty == Ty::Bool) || (ri.ty == Ty::Bool))
        {
            self.out.push(Diagnostic::error(
                codes::TYPE_MISMATCH,
                e.span,
                "booleans cannot be order-compared",
            ));
            return;
        }
        let decided = self.decide(op, li, ri);
        // Which side is a declared signal compared against a constant?
        let decl_vs_const = match (&li.decl, const_num(r), &ri.decl, const_num(l)) {
            (Some((path, decl)), Some(c), _, _) => Some((path.clone(), *decl, c)),
            (_, _, Some((path, decl)), Some(c)) => Some((path.clone(), *decl, c)),
            _ => None,
        };
        match decided {
            Some(false) => {
                if let Some((path, decl, c)) = &decl_vs_const {
                    if decl.has_finite_bound() {
                        let mut d = Diagnostic::error(
                            codes::OUT_OF_RANGE,
                            e.span,
                            format!(
                                "comparison is always false: `{path}` is declared in {}",
                                range_str(decl)
                            ),
                        );
                        let mut help = format!("no value of `{path}` can satisfy this comparison");
                        if decl.descaled && c.abs() >= SCALE_SUSPECT {
                            help = format!(
                                "`{path}` is already descaled from the ×1e6 gauge; write the \
                                 threshold in natural units (e.g. {})",
                                c / 1e6
                            );
                        }
                        d = d.with_help(help);
                        self.out.push(d);
                        return;
                    }
                }
                self.out.push(Diagnostic::new_always_false(
                    conj,
                    e.span,
                    "comparison is always false",
                ));
            }
            Some(true) => {
                let qualifier = if li.maybe_null || ri.maybe_null {
                    " whenever its operands are present"
                } else {
                    ""
                };
                if let Some((path, decl, c)) = &decl_vs_const {
                    if decl.has_finite_bound() {
                        let help = if decl.descaled && c.abs() >= SCALE_SUSPECT {
                            format!(
                                "`{path}` is already descaled from the ×1e6 gauge; write the \
                                 threshold in natural units (e.g. {})",
                                c / 1e6
                            )
                        } else {
                            "this constraint never filters anything".to_owned()
                        };
                        self.out.push(
                            Diagnostic::warning(
                                codes::OUT_OF_RANGE,
                                e.span,
                                format!(
                                    "comparison is always true{qualifier}: `{path}` is \
                                     declared in {}",
                                    range_str(decl)
                                ),
                            )
                            .with_help(help),
                        );
                        return;
                    }
                }
                self.out.push(Diagnostic::warning(
                    codes::ALWAYS_TRUE,
                    e.span,
                    format!("comparison is always true{qualifier}"),
                ));
            }
            None => {
                if let Some((path, decl, c)) = &decl_vs_const {
                    if decl.descaled && c.abs() >= SCALE_SUSPECT {
                        self.out.push(
                            Diagnostic::warning(
                                codes::SUSPICIOUS_SCALE,
                                e.span,
                                format!(
                                    "threshold {c} looks like a raw ×1e6 gauge value, but \
                                     `{path}` is bound descaled (natural units)"
                                ),
                            )
                            .with_help(format!(
                                "did you mean {}? monitor gauges are divided by 1e6 before \
                                 rule evaluation",
                                c / 1e6
                            )),
                        );
                    }
                }
            }
        }
    }

    /// Can the comparison's outcome be decided from the abstract values?
    fn decide(&self, op: BinOp, li: &Info, ri: &Info) -> Option<bool> {
        match (&li.abs, &ri.abs) {
            (Abs::Num(alo, ahi), Abs::Num(blo, bhi)) => match op {
                BinOp::Lt => {
                    if ahi < blo {
                        Some(true)
                    } else if alo >= bhi {
                        Some(false)
                    } else {
                        None
                    }
                }
                BinOp::Le => {
                    if ahi <= blo {
                        Some(true)
                    } else if alo > bhi {
                        Some(false)
                    } else {
                        None
                    }
                }
                BinOp::Gt => {
                    if alo > bhi {
                        Some(true)
                    } else if ahi <= blo {
                        Some(false)
                    } else {
                        None
                    }
                }
                BinOp::Ge => {
                    if alo >= bhi {
                        Some(true)
                    } else if ahi < blo {
                        Some(false)
                    } else {
                        None
                    }
                }
                BinOp::Eq => {
                    if ahi < blo || bhi < alo {
                        Some(false)
                    } else if alo == ahi && blo == bhi && alo == blo {
                        Some(true)
                    } else {
                        None
                    }
                }
                BinOp::Ne => {
                    if ahi < blo || bhi < alo {
                        Some(true)
                    } else if alo == ahi && blo == bhi && alo == blo {
                        Some(false)
                    } else {
                        None
                    }
                }
                _ => None,
            },
            (Abs::Str(Some(a)), Abs::Str(Some(b))) => match op {
                BinOp::Eq => Some(a == b),
                BinOp::Ne => Some(a != b),
                _ => None,
            },
            _ => None,
        }
    }

    /// Fold the comparison into an abstract boolean, respecting Null
    /// semantics: a Null operand makes orderings (and Eq against non-null)
    /// false at eval, so decided-false folds are sound even for
    /// maybe-null operands; decided-true is only sound when neither
    /// operand can be Null.
    fn fold_comparison(&self, op: BinOp, li: &Info, ri: &Info) -> Abs {
        let maybe_null = li.maybe_null || ri.maybe_null;
        match self.decide(op, li, ri) {
            Some(false) if !matches!(op, BinOp::Ne) => Abs::Bool(Some(false)),
            Some(true) if !maybe_null => Abs::Bool(Some(true)),
            // `Ne` against Null evaluates true, so a decided-true Ne holds
            // even for absent operands; decided-false Ne needs presence.
            Some(true) if matches!(op, BinOp::Ne) => Abs::Bool(Some(true)),
            _ => Abs::Bool(None),
        }
    }

    fn check_arith(
        &mut self,
        e: &Expr,
        op: BinOp,
        l: &Expr,
        li: &Info,
        r: &Expr,
        ri: &Info,
    ) -> Info {
        // `+` concatenates strings; everything else needs numbers.
        let str_concat = op == BinOp::Add && (li.ty == Ty::Str || ri.ty == Ty::Str);
        if str_concat {
            for (side, info) in [(l, li), (r, ri)] {
                if !matches!(info.ty, Ty::Str | Ty::Any) {
                    self.out.push(Diagnostic::error(
                        codes::TYPE_MISMATCH,
                        side.span,
                        format!("cannot concatenate a {} with a string", info.ty),
                    ));
                }
            }
            return Info::new(Ty::Str, Abs::Str(None));
        }
        for (side, info) in [(l, li), (r, ri)] {
            if !info.ty.is_numeric() && info.ty != Ty::Any {
                self.out.push(Diagnostic::error(
                    codes::TYPE_MISMATCH,
                    side.span,
                    format!("arithmetic needs numbers, found {}", info.ty),
                ));
            }
        }
        let (a, b) = (
            li.num_interval().unwrap_or(FULL),
            ri.num_interval().unwrap_or(FULL),
        );
        let abs = match op {
            BinOp::Add => interval(a.0 + b.0, a.1 + b.1),
            BinOp::Sub => interval(a.0 - b.1, a.1 - b.0),
            BinOp::Mul => {
                let products = [a.0 * b.0, a.0 * b.1, a.1 * b.0, a.1 * b.1];
                let lo = products.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = products.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                if products.iter().any(|p| p.is_nan()) {
                    Abs::Num(FULL.0, FULL.1)
                } else {
                    interval(lo, hi)
                }
            }
            BinOp::Div | BinOp::Rem => {
                // Warn only with evidence the divisor can be zero: a
                // declared or computed interval straddling zero with at
                // least one finite bound, or the literal zero itself. A
                // fully-unknown divisor stays silent.
                let evidenced = b.0 <= 0.0
                    && b.1 >= 0.0
                    && (b.0.is_finite() || b.1.is_finite() || (b.0 == 0.0 && b.1 == 0.0));
                if evidenced {
                    let msg = if b == (0.0, 0.0) {
                        "division by zero".to_owned()
                    } else {
                        let name = ri
                            .decl
                            .as_ref()
                            .map(|(p, _)| format!("`{p}`"))
                            .unwrap_or_else(|| "the divisor".to_owned());
                        format!("{name} may be zero (its value range includes 0)")
                    };
                    self.out.push(
                        Diagnostic::warning(codes::DIV_BY_ZERO, r.span, msg)
                            .with_help("guard the division, e.g. `x > 0 && a / x > t`"),
                    );
                }
                Abs::Num(FULL.0, FULL.1)
            }
            _ => unreachable!(),
        };
        let ty = match (li.ty, ri.ty) {
            (Ty::Int, Ty::Int) => Ty::Int,
            (x, y) if x.is_numeric() && y.is_numeric() => Ty::Float,
            _ => Ty::Any,
        };
        let _ = e;
        Info {
            ty,
            abs,
            maybe_null: li.maybe_null || ri.maybe_null,
            decl: None,
        }
    }

    fn require_bool(&mut self, info: &Info, span: Span) {
        if info.ty != Ty::Bool && info.ty != Ty::Any {
            self.out.push(Diagnostic::error(
                codes::TYPE_MISMATCH,
                span,
                format!("expected a boolean operand, found {}", info.ty),
            ));
        }
    }
}

impl Diagnostic {
    /// ALWAYS_FALSE severity depends on position: at the root conjunction
    /// the whole rule can never fire (error); inside a disjunction it is a
    /// dead branch (warning).
    fn new_always_false(conj: bool, span: Span, message: impl Into<String>) -> Self {
        if conj {
            Diagnostic::error(codes::ALWAYS_FALSE, span, message)
        } else {
            Diagnostic::warning(codes::ALWAYS_FALSE, span, message)
        }
    }
}

fn bool_of(info: &Info) -> Option<bool> {
    match info.abs {
        Abs::Bool(b) => b,
        _ => None,
    }
}

fn range_str(decl: &VarDecl) -> String {
    let lo = if decl.lo.is_finite() {
        format!("[{}", decl.lo)
    } else {
        "(-∞".to_owned()
    };
    let hi = if decl.hi.is_finite() {
        format!("{}]", decl.hi)
    } else {
        "∞)".to_owned()
    };
    format!("{lo}, {hi}")
}

/// Thresholds at or above this magnitude against a descaled gauge binding
/// look like raw ×1e6 values.
const SCALE_SUSPECT: f64 = 1e5;

// ---------------------------------------------------------------------------
// Conjunction (atom) analysis

/// One comparison atom `path op constant` inside a conjunction.
#[derive(Debug, Clone)]
struct Atom {
    path: String,
    cmp: AtomCmp,
    span: Span,
}

#[derive(Debug, Clone, PartialEq)]
enum AtomCmp {
    Num(BinOp, f64),
    EqStr(String),
    NeStr(String),
}

/// Allowed set of a numeric atom as a half-open-aware interval.
#[derive(Debug, Clone, Copy, PartialEq)]
struct NumSet {
    lo: f64,
    lo_open: bool,
    hi: f64,
    hi_open: bool,
}

impl NumSet {
    const FULL: NumSet = NumSet {
        lo: f64::NEG_INFINITY,
        lo_open: false,
        hi: f64::INFINITY,
        hi_open: false,
    };

    fn of(op: BinOp, c: f64) -> Option<NumSet> {
        let mut s = NumSet::FULL;
        match op {
            BinOp::Lt => {
                s.hi = c;
                s.hi_open = true;
            }
            BinOp::Le => s.hi = c,
            BinOp::Gt => {
                s.lo = c;
                s.lo_open = true;
            }
            BinOp::Ge => s.lo = c,
            BinOp::Eq => {
                s.lo = c;
                s.hi = c;
            }
            // `!=` removes a point; it neither constrains nor is implied.
            _ => return None,
        }
        Some(s)
    }

    fn intersect(self, other: NumSet) -> NumSet {
        let (lo, lo_open) = if other.lo > self.lo {
            (other.lo, other.lo_open)
        } else if other.lo < self.lo {
            (self.lo, self.lo_open)
        } else {
            (self.lo, self.lo_open || other.lo_open)
        };
        let (hi, hi_open) = if other.hi < self.hi {
            (other.hi, other.hi_open)
        } else if other.hi > self.hi {
            (self.hi, self.hi_open)
        } else {
            (self.hi, self.hi_open || other.hi_open)
        };
        NumSet {
            lo,
            lo_open,
            hi,
            hi_open,
        }
    }

    fn is_empty(self) -> bool {
        self.lo > self.hi || (self.lo == self.hi && (self.lo_open || self.hi_open))
    }

    /// Is `self` contained in `other`?
    fn subset_of(self, other: NumSet) -> bool {
        let lo_ok = self.lo > other.lo || (self.lo == other.lo && (self.lo_open || !other.lo_open));
        let hi_ok = self.hi < other.hi || (self.hi == other.hi && (self.hi_open || !other.hi_open));
        lo_ok && hi_ok
    }
}

/// Flatten a `&&` chain into its conjuncts.
fn conjuncts(e: &Expr) -> Vec<&Expr> {
    match &e.kind {
        ExprKind::Binary(BinOp::And, l, r) => {
            let mut out = conjuncts(l);
            out.extend(conjuncts(r));
            out
        }
        _ => vec![e],
    }
}

/// Extract the atom of a single comparison conjunct, normalizing
/// `const op path` to `path op' const`.
fn atom_of(e: &Expr) -> Option<Atom> {
    let ExprKind::Binary(op, l, r) = &e.kind else {
        return None;
    };
    if !op.is_comparison() {
        return None;
    }
    let flipped = |op: BinOp| match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    };
    let (path, op, cexpr) = if let Some(segs) = path_segments(l) {
        (segs.join("."), *op, &**r)
    } else if let Some(segs) = path_segments(r) {
        (segs.join("."), flipped(*op), &**l)
    } else {
        return None;
    };
    if let Some(c) = const_num(cexpr) {
        return Some(Atom {
            path,
            cmp: AtomCmp::Num(op, c),
            span: e.span,
        });
    }
    if let ExprKind::Str(s) = &cexpr.kind {
        match op {
            BinOp::Eq => {
                return Some(Atom {
                    path,
                    cmp: AtomCmp::EqStr(s.clone()),
                    span: e.span,
                })
            }
            BinOp::Ne => {
                return Some(Atom {
                    path,
                    cmp: AtomCmp::NeStr(s.clone()),
                    span: e.span,
                })
            }
            _ => {}
        }
    }
    None
}

/// All maximal conjunctions in an expression (the root, and every `&&`
/// chain nested under `||` / `!`).
fn collect_conjunctions<'e>(e: &'e Expr, out: &mut Vec<Vec<&'e Expr>>) {
    let parts = conjuncts(e);
    if parts.len() > 1 {
        out.push(parts.clone());
    }
    for part in parts {
        match &part.kind {
            ExprKind::Binary(BinOp::Or, l, r) => {
                collect_conjunctions(l, out);
                collect_conjunctions(r, out);
            }
            ExprKind::Unary(UnOp::Not, inner) => collect_conjunctions(inner, out),
            _ => {}
        }
    }
}

/// Per-path constraint summary of a set of atoms.
#[derive(Debug, Default)]
struct Constraints {
    nums: BTreeMap<String, NumSet>,
    str_eq: BTreeMap<String, String>,
    str_ne: BTreeMap<String, Vec<String>>,
    feasible: bool,
}

fn constraints(atoms: &[Atom]) -> Constraints {
    let mut c = Constraints {
        feasible: true,
        ..Constraints::default()
    };
    for atom in atoms {
        match &atom.cmp {
            AtomCmp::Num(op, v) => {
                if let Some(set) = NumSet::of(*op, *v) {
                    let entry = c.nums.entry(atom.path.clone()).or_insert(NumSet::FULL);
                    *entry = entry.intersect(set);
                    if entry.is_empty() {
                        c.feasible = false;
                    }
                }
            }
            AtomCmp::EqStr(v) => {
                if let Some(prev) = c.str_eq.get(&atom.path) {
                    if prev != v {
                        c.feasible = false;
                    }
                } else {
                    c.str_eq.insert(atom.path.clone(), v.clone());
                }
                if c.str_ne
                    .get(&atom.path)
                    .is_some_and(|nes| nes.iter().any(|n| n == v))
                {
                    c.feasible = false;
                }
            }
            AtomCmp::NeStr(v) => {
                if c.str_eq.get(&atom.path) == Some(v) {
                    c.feasible = false;
                }
                c.str_ne
                    .entry(atom.path.clone())
                    .or_default()
                    .push(v.clone());
            }
        }
    }
    c
}

/// RL0306/RL0307 over every maximal conjunction of one expression.
fn analyze_conjunctions(root: &Expr, out: &mut Vec<Diagnostic>) {
    let mut groups = Vec::new();
    collect_conjunctions(root, &mut groups);
    for group in groups {
        let atoms: Vec<Atom> = group.iter().filter_map(|e| atom_of(e)).collect();
        // Contradictions: fold atoms per path in order, flagging the atom
        // that empties the intersection.
        let mut nums: BTreeMap<&str, NumSet> = BTreeMap::new();
        let mut str_eq: BTreeMap<&str, &str> = BTreeMap::new();
        let mut contradicted: Vec<&str> = Vec::new();
        for atom in &atoms {
            match &atom.cmp {
                AtomCmp::Num(op, v) => {
                    let Some(set) = NumSet::of(*op, *v) else {
                        continue;
                    };
                    let entry = nums.entry(atom.path.as_str()).or_insert(NumSet::FULL);
                    let next = entry.intersect(set);
                    if next.is_empty() && !entry.is_empty() {
                        out.push(
                            Diagnostic::error(
                                codes::CONTRADICTORY_BOUNDS,
                                atom.span,
                                format!(
                                    "constraints on `{}` in this conjunction are \
                                     unsatisfiable",
                                    atom.path
                                ),
                            )
                            .with_help("the bounds exclude every value; the rule can never fire"),
                        );
                        contradicted.push(atom.path.as_str());
                    }
                    *entry = next;
                }
                AtomCmp::EqStr(v) => {
                    if let Some(prev) = str_eq.get(atom.path.as_str()) {
                        if *prev != v.as_str() {
                            out.push(Diagnostic::error(
                                codes::CONTRADICTORY_BOUNDS,
                                atom.span,
                                format!("`{}` cannot equal both \"{prev}\" and \"{v}\"", atom.path),
                            ));
                            contradicted.push(atom.path.as_str());
                        }
                    } else {
                        str_eq.insert(atom.path.as_str(), v.as_str());
                    }
                }
                AtomCmp::NeStr(_) => {}
            }
        }
        // Redundancy: a numeric atom implied by the other atoms on its path.
        for (i, atom) in atoms.iter().enumerate() {
            let AtomCmp::Num(op, v) = &atom.cmp else {
                continue;
            };
            if contradicted.contains(&atom.path.as_str()) {
                continue;
            }
            let Some(own) = NumSet::of(*op, *v) else {
                continue;
            };
            let mut others = NumSet::FULL;
            let mut has_other = false;
            for (j, other) in atoms.iter().enumerate() {
                if i == j || other.path != atom.path {
                    continue;
                }
                if let AtomCmp::Num(oop, ov) = &other.cmp {
                    if let Some(oset) = NumSet::of(*oop, *ov) {
                        others = others.intersect(oset);
                        has_other = true;
                    }
                }
            }
            if has_other && !others.is_empty() && others.subset_of(own) && own != others {
                out.push(
                    Diagnostic::warning(
                        codes::REDUNDANT_COMPARISON,
                        atom.span,
                        format!(
                            "this comparison is implied by the other constraints on `{}`",
                            atom.path
                        ),
                    )
                    .with_help(
                        "a redundant bound often means an inverted comparison elsewhere in \
                         the condition",
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Entry points

/// Analyze one expression source against a schema. Parse failures become
/// RL0001/RL0002 findings.
pub fn analyze_expr_src(origin: &str, src: &str, schema: &ContextSchema) -> Vec<Finding> {
    let mut findings = Vec::new();
    let expr = match parse(src) {
        Ok(e) => e,
        Err(e) => {
            findings.push(Finding {
                origin: origin.to_owned(),
                source: src.to_owned(),
                diag: Diagnostic::error(e.code, e.span, e.message),
            });
            return findings;
        }
    };
    let mut analyzer = Analyzer::new(schema);
    let root = analyzer.check(&expr, true);
    let mut out = analyzer.out;
    if root.ty != Ty::Bool && root.ty != Ty::Any {
        out.push(
            Diagnostic::error(
                codes::NON_BOOLEAN_CONDITION,
                expr.span,
                format!("condition has type {}, expected bool", root.ty),
            )
            .with_help("a rule condition must reduce to true or false"),
        );
    }
    let value_codes = [codes::ALWAYS_TRUE, codes::ALWAYS_FALSE, codes::OUT_OF_RANGE];
    if !out.iter().any(|d| value_codes.contains(&d.code)) {
        match root.abs {
            // A bare literal `true` is the idiomatic "match everything"
            // clause; only *derived* always-true conditions are suspicious.
            Abs::Bool(Some(true)) if !matches!(expr.kind, ExprKind::Bool(true)) => out.push(
                Diagnostic::warning(codes::ALWAYS_TRUE, expr.span, "condition is always true"),
            ),
            Abs::Bool(Some(false)) => out.push(Diagnostic::error(
                codes::ALWAYS_FALSE,
                expr.span,
                "condition is always false; the rule can never fire",
            )),
            _ => {}
        }
    }
    analyze_conjunctions(&expr, &mut out);
    findings.extend(out.into_iter().map(|diag| Finding {
        origin: origin.to_owned(),
        source: src.to_owned(),
        diag,
    }));
    findings
}

/// Analyze an alert condition (as accepted by
/// [`crate::alerting::compile_condition`]).
pub fn analyze_condition(src: &str) -> LintReport {
    LintReport {
        findings: analyze_expr_src("condition", src, &ContextSchema::alert_conditions()),
    }
}

/// Analyze one rule document: document shape, each clause, and cross-clause
/// reachability.
pub fn analyze_rule(doc: &RuleDoc) -> LintReport {
    let mut findings = Vec::new();
    let doc_finding = |message: String| Finding {
        origin: "rule".to_owned(),
        source: String::new(),
        diag: Diagnostic::error(codes::BAD_DOCUMENT, Span::DUMMY, message),
    };
    if doc.uuid.trim().is_empty() {
        findings.push(doc_finding("rule uuid must be non-empty".to_owned()));
    }
    match (
        &doc.rule.model_selection,
        doc.rule.callback_actions.as_slice(),
    ) {
        (Some(_), actions) if !actions.is_empty() => {
            findings.push(doc_finding(
                "rule cannot declare both MODEL_SELECTION and CALLBACK_ACTIONS".to_owned(),
            ));
        }
        (None, []) => {
            findings.push(doc_finding(
                "rule needs MODEL_SELECTION or CALLBACK_ACTIONS".to_owned(),
            ));
        }
        (None, actions) if actions.iter().any(|a| a.trim().is_empty()) => {
            findings.push(doc_finding(
                "callback action names must be non-empty".to_owned(),
            ));
        }
        _ => {}
    }
    let instance = ContextSchema::instance_rules();
    findings.extend(analyze_expr_src("GIVEN", &doc.rule.given, &instance));
    findings.extend(analyze_expr_src("WHEN", &doc.rule.when, &instance));
    if let Some(sel) = &doc.rule.model_selection {
        findings.extend(analyze_expr_src(
            "MODEL_SELECTION",
            sel,
            &ContextSchema::selection_comparator(),
        ));
    }
    // Cross-clause reachability: GIVEN ∧ WHEN must be satisfiable.
    if let (Ok(given), Ok(when)) = (parse(&doc.rule.given), parse(&doc.rule.when)) {
        let given_atoms: Vec<Atom> = conjuncts(&given)
            .iter()
            .filter_map(|e| atom_of(e))
            .collect();
        let when_atoms: Vec<Atom> = conjuncts(&when).iter().filter_map(|e| atom_of(e)).collect();
        let mut joint = given_atoms.clone();
        joint.extend(when_atoms.iter().cloned());
        if constraints(&given_atoms).feasible
            && constraints(&when_atoms).feasible
            && !constraints(&joint).feasible
        {
            findings.push(Finding {
                origin: "WHEN".to_owned(),
                source: doc.rule.when.clone(),
                diag: Diagnostic::error(
                    codes::UNREACHABLE_RULE,
                    when.span,
                    "GIVEN and WHEN are jointly unsatisfiable; the rule can never fire",
                )
                .with_help("the two clauses put contradictory bounds on the same signal"),
            });
        }
    }
    LintReport { findings }
}

/// Analyze rule JSON text; malformed documents yield RL0003.
pub fn analyze_rule_json(src: &str) -> LintReport {
    match serde_json::from_str::<RuleDoc>(src) {
        Ok(doc) => analyze_rule(&doc),
        Err(e) => LintReport {
            findings: vec![Finding {
                origin: "rule".to_owned(),
                source: src.to_owned(),
                diag: Diagnostic::error(
                    codes::BAD_DOCUMENT,
                    Span::DUMMY,
                    format!("not a valid rule document: {e}"),
                ),
            }],
        },
    }
}

/// Lifecycle intent of an action name, for contradiction detection.
fn action_class(name: &str) -> Option<&'static str> {
    let n = name.to_ascii_lowercase();
    if n.contains("deprecate") || n.contains("rollback") || n.contains("retire") {
        Some("demote")
    } else if n.contains("deploy") || n.contains("promote") || n.contains("release") {
        Some("promote")
    } else {
        None
    }
}

/// Parsed per-rule facts used by the set analysis.
struct RuleFacts<'d> {
    doc: &'d RuleDoc,
    given: Option<Expr>,
    atoms: Vec<Atom>,
    when_atoms: Vec<Atom>,
    fully_atomic: bool,
}

fn rule_facts(doc: &RuleDoc) -> RuleFacts<'_> {
    let given = parse(&doc.rule.given).ok();
    let when = parse(&doc.rule.when).ok();
    let mut atoms = Vec::new();
    let mut fully_atomic = given.is_some() && when.is_some();
    let mut when_atoms = Vec::new();
    for (expr, into_when) in [(&given, false), (&when, true)] {
        if let Some(e) = expr {
            for part in conjuncts(e) {
                match atom_of(part) {
                    Some(atom) => {
                        if into_when {
                            when_atoms.push(atom.clone());
                        }
                        atoms.push(atom);
                    }
                    None => fully_atomic = false,
                }
            }
        }
    }
    RuleFacts {
        doc,
        given,
        atoms,
        when_atoms,
        fully_atomic,
    }
}

/// Does rule `a`'s condition imply rule `b`'s? Sound over-approximation:
/// `a`'s atoms describe a superset of its solutions, so if that superset
/// fits inside `b`'s (fully atomic) condition, every firing of `a` also
/// fires `b`.
fn implies(a: &RuleFacts<'_>, b: &RuleFacts<'_>) -> bool {
    if !b.fully_atomic || b.atoms.is_empty() {
        return false;
    }
    let ca = constraints(&a.atoms);
    if !ca.feasible {
        return false;
    }
    for atom in &b.atoms {
        match &atom.cmp {
            AtomCmp::Num(op, v) => {
                let Some(allowed) = NumSet::of(*op, *v) else {
                    return false;
                };
                let have = ca.nums.get(&atom.path).copied().unwrap_or(NumSet::FULL);
                if !have.subset_of(allowed) {
                    return false;
                }
            }
            AtomCmp::EqStr(v) => {
                if ca.str_eq.get(&atom.path) != Some(v) {
                    return false;
                }
            }
            AtomCmp::NeStr(v) => {
                let pinned_other = ca.str_eq.get(&atom.path).is_some_and(|pinned| pinned != v);
                let ne_known = ca
                    .str_ne
                    .get(&atom.path)
                    .is_some_and(|nes| nes.iter().any(|n| n == v));
                if !pinned_other && !ne_known {
                    return false;
                }
            }
        }
    }
    true
}

/// Set-level analysis over a rule set (a `RuleRepo`'s files, in commit
/// order): duplicate ids, shadowing, and contradictory actions.
pub fn analyze_rule_set(docs: &[RuleDoc]) -> LintReport {
    let mut report = LintReport::default();
    for doc in docs {
        report
            .findings
            .extend(analyze_rule(doc).findings.into_iter().map(|mut f| {
                f.origin = format!("rule {} {}", doc.uuid, f.origin);
                f
            }));
    }
    let facts: Vec<RuleFacts<'_>> = docs.iter().map(rule_facts).collect();
    for (i, a) in facts.iter().enumerate() {
        for b in facts.iter().skip(i + 1) {
            if a.doc.uuid == b.doc.uuid {
                report.findings.push(Finding {
                    origin: format!("rule {}", b.doc.uuid),
                    source: String::new(),
                    diag: Diagnostic::error(
                        codes::DUPLICATE_RULE_ID,
                        Span::DUMMY,
                        format!("duplicate rule uuid `{}`", b.doc.uuid),
                    ),
                });
                continue;
            }
            if a.doc.rule.environment != b.doc.rule.environment {
                continue;
            }
            // Shadowing: same effect, earlier condition implies later.
            let same_effect = match (&a.doc.rule.model_selection, &b.doc.rule.model_selection) {
                (Some(x), Some(y)) => x == y,
                (None, None) => {
                    let mut xa = a.doc.rule.callback_actions.clone();
                    let mut xb = b.doc.rule.callback_actions.clone();
                    xa.sort();
                    xb.sort();
                    xa == xb
                }
                _ => false,
            };
            if same_effect && implies(a, b) {
                report.findings.push(Finding {
                    origin: format!("rule {}", b.doc.uuid),
                    source: b.doc.rule.when.clone(),
                    diag: Diagnostic::warning(
                        codes::SHADOWED_RULE,
                        Span::DUMMY,
                        format!(
                            "rule `{}` is shadowed by earlier rule `{}`: every model that \
                             triggers the earlier rule also triggers this one, with the \
                             same effect",
                            b.doc.uuid, a.doc.uuid
                        ),
                    )
                    .with_help("merge the rules or tighten the later condition"),
                });
            }
            // Contradictory actions on overlapping triggers.
            let (acts_a, acts_b) = (&a.doc.rule.callback_actions, &b.doc.rule.callback_actions);
            if acts_a.is_empty() || acts_b.is_empty() {
                continue;
            }
            let same_given = match (&a.given, &b.given) {
                (Some(x), Some(y)) => x == y,
                _ => false,
            };
            if !same_given {
                continue;
            }
            let mut joint = a.when_atoms.clone();
            joint.extend(b.when_atoms.iter().cloned());
            if !constraints(&joint).feasible {
                continue;
            }
            for act_a in acts_a {
                for act_b in acts_b {
                    let (Some(ca), Some(cb)) = (action_class(act_a), action_class(act_b)) else {
                        continue;
                    };
                    if ca != cb {
                        report.findings.push(Finding {
                            origin: format!("rule {}", b.doc.uuid),
                            source: String::new(),
                            diag: Diagnostic::error(
                                codes::CONTRADICTORY_ACTIONS,
                                Span::DUMMY,
                                format!(
                                    "rules `{}` and `{}` fire on overlapping triggers but \
                                     request opposing actions (`{act_a}` vs `{act_b}`)",
                                    a.doc.uuid, b.doc.uuid
                                ),
                            )
                            .with_help(
                                "a model matching both rules would be promoted and demoted \
                                 at once; make the WHEN clauses disjoint",
                            ),
                        });
                    }
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::{listing1_selection_rule, listing2_action_rule};

    fn when_codes(src: &str) -> Vec<&'static str> {
        analyze_expr_src("WHEN", src, &ContextSchema::instance_rules())
            .into_iter()
            .map(|f| f.diag.code)
            .collect()
    }

    #[test]
    fn listings_lint_clean() {
        assert!(analyze_rule(&listing1_selection_rule()).is_empty());
        assert!(analyze_rule(&listing2_action_rule()).is_empty());
        assert!(analyze_rule_set(&[listing1_selection_rule(), listing2_action_rule()]).is_empty());
    }

    #[test]
    fn typo_is_an_error_with_suggestion() {
        let f = analyze_expr_src(
            "GIVEN",
            r#"modelNmae == "x""#,
            &ContextSchema::instance_rules(),
        );
        assert_eq!(f[0].diag.code, codes::IDENT_TYPO);
        assert_eq!(f[0].diag.severity, Severity::Error);
        assert!(f[0].diag.help.as_deref().unwrap().contains("modelName"));
        assert_eq!(
            f[0].diag.span.slice(r#"modelNmae == "x""#),
            Some("modelNmae")
        );
    }

    #[test]
    fn unknown_ident_is_a_warning_in_open_world() {
        let f = analyze_expr_src(
            "GIVEN",
            r#"custom_business_tag == "x""#,
            &ContextSchema::instance_rules(),
        );
        assert_eq!(f[0].diag.code, codes::UNKNOWN_IDENT);
        assert_eq!(f[0].diag.severity, Severity::Warning);
    }

    #[test]
    fn declared_range_rejects_impossible_threshold() {
        let codes_found = when_codes("metrics.auc > 1.5");
        assert_eq!(codes_found, vec![codes::OUT_OF_RANGE]);
    }

    #[test]
    fn descale_mistake_on_alert_condition() {
        let report = analyze_condition("gallery_monitor_drift_score > 3000000");
        assert_eq!(report.codes(), vec![codes::SUSPICIOUS_SCALE]);
        let report = analyze_condition("gallery_monitor_feature_completeness < 900000");
        assert_eq!(report.codes(), vec![codes::OUT_OF_RANGE]);
        assert!(report.render().contains("1e6"));
    }

    #[test]
    fn natural_unit_thresholds_are_clean() {
        assert!(analyze_condition("gallery_monitor_drift_score > 3.0").is_empty());
        assert!(analyze_condition("gallery_monitor_staleness_ms > 60000").is_empty());
        assert!(analyze_condition("gallery_rpc_server_requests_total >= 1").is_empty());
    }

    #[test]
    fn non_boolean_condition_rejected() {
        let report = analyze_condition("1 + 1");
        assert!(report.has_errors());
        assert!(report.codes().contains(&codes::NON_BOOLEAN_CONDITION));
    }

    #[test]
    fn contradiction_and_redundancy() {
        assert_eq!(
            when_codes("metrics.bias > 0.5 && metrics.bias < 0.1"),
            vec![codes::CONTRADICTORY_BOUNDS]
        );
        assert_eq!(
            when_codes("metrics.bias >= 0.1 && metrics.bias >= -0.1"),
            vec![codes::REDUNDANT_COMPARISON]
        );
        // The Listing-2 corridor is neither.
        assert!(when_codes("metrics.bias <= 0.1 && metrics.bias >= -0.1").is_empty());
    }

    #[test]
    fn unreachable_rule_across_clauses() {
        let mut doc = listing2_action_rule();
        doc.rule.given = r#"model_domain == "UberX" && metrics.bias > 0.5"#.into();
        doc.rule.when = "metrics.bias < 0.1".into();
        let report = analyze_rule(&doc);
        assert!(report.codes().contains(&codes::UNREACHABLE_RULE));
    }

    #[test]
    fn duplicate_and_shadowed_rules() {
        let a = listing2_action_rule();
        let mut dup = listing2_action_rule();
        dup.rule.when = "metrics.bias <= 0.05".into();
        let report = analyze_rule_set(&[a.clone(), dup]);
        assert!(report.codes().contains(&codes::DUPLICATE_RULE_ID));

        let mut narrow = listing2_action_rule();
        narrow.uuid = "narrow".into();
        narrow.rule.when = "metrics.bias <= 0.05 && metrics.bias >= -0.05".into();
        let mut wide = listing2_action_rule();
        wide.uuid = "wide".into();
        let report = analyze_rule_set(&[narrow, wide]);
        assert!(report.codes().contains(&codes::SHADOWED_RULE));
    }

    #[test]
    fn contradictory_actions_on_overlapping_triggers() {
        let mut deploy = listing2_action_rule();
        deploy.uuid = "deploy".into();
        let mut deprecate = listing2_action_rule();
        deprecate.uuid = "deprecate".into();
        deprecate.rule.callback_actions = vec!["deprecate_instance".into()];
        let report = analyze_rule_set(&[deploy, deprecate]);
        assert!(report.codes().contains(&codes::CONTRADICTORY_ACTIONS));
        assert!(report.has_errors());
    }

    #[test]
    fn division_by_possibly_zero() {
        assert_eq!(
            when_codes("metrics.rmse / metrics.mae > 2"),
            vec![codes::DIV_BY_ZERO]
        );
        // No evidence the divisor can be zero: unknown custom metric.
        assert!(when_codes("metrics.rmse / metrics.custom_denominator > 2").is_empty());
    }

    #[test]
    fn osa_distance_basics() {
        assert_eq!(osa_distance("modelName", "modelNmae"), 1); // transposition
        assert_eq!(osa_distance("abs", "abss"), 1);
        assert_eq!(osa_distance("drift", "drift"), 0);
        assert_eq!(osa_distance("a", "b"), 1);
    }

    #[test]
    fn selection_comparator_schema() {
        let f = analyze_expr_src(
            "MODEL_SELECTION",
            "a.created_time > b.created_time",
            &ContextSchema::selection_comparator(),
        );
        assert!(f.is_empty());
        let f = analyze_expr_src(
            "MODEL_SELECTION",
            r#"a.metrics["r2"] < b.metrics["r2"]"#,
            &ContextSchema::selection_comparator(),
        );
        assert!(f.is_empty());
    }

    #[test]
    fn member_of_scalar_warns() {
        let f = analyze_expr_src(
            "GIVEN",
            r#"modelName.length > 3"#,
            &ContextSchema::instance_rules(),
        );
        assert!(f.iter().any(|x| x.diag.code == codes::MEMBER_OF_SCALAR));
    }

    #[test]
    fn bad_document_shape() {
        let report = analyze_rule_json("{ not json");
        assert_eq!(report.codes(), vec![codes::BAD_DOCUMENT]);
        let mut doc = listing1_selection_rule();
        doc.rule.callback_actions = vec!["x".into()];
        assert!(analyze_rule(&doc).codes().contains(&codes::BAD_DOCUMENT));
    }
}
