//! The metric catalog (docs/metrics.md) is enforced, not aspirational:
//! every `gallery_*` family name that appears as a string literal in the
//! source tree must be documented, and every documented family must
//! still exist in code. Either direction failing breaks CI, so the
//! catalog cannot rot.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            // Criterion benchmark IDs under benches/ reuse the gallery_
            // prefix for chart names; they are not metric families.
            if path.file_name().is_some_and(|n| n == "benches") {
                continue;
            }
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Extract `gallery_*` identifiers that appear right after `needle` in
/// `text` (for sources: a quote; for docs: a backtick).
fn extract_names(text: &str, needle: &str) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let mut rest = text;
    while let Some(pos) = rest.find(needle) {
        rest = &rest[pos + needle.len()..];
        let name: String = format!(
            "gallery_{}",
            rest.chars()
                .take_while(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '_')
                .collect::<String>()
        );
        // Trailing-underscore tokens are prefix filters / globs
        // (e.g. the CLI's family filter), not family names.
        if !name.ends_with('_') {
            names.insert(name);
        }
    }
    names
}

/// Exposition-series suffixes implied by a histogram family.
const SERIES_SUFFIXES: [&str; 3] = ["_bucket", "_sum", "_count"];

fn base_name(name: &str) -> &str {
    for suffix in SERIES_SUFFIXES {
        if let Some(stripped) = name.strip_suffix(suffix) {
            return stripped;
        }
    }
    name
}

#[test]
fn every_metric_family_is_documented_and_every_documented_family_exists() {
    let root = repo_root();
    // Split the quote off the prefix so this very file's literals don't
    // register as an (undocumentable) family named "gallery_".
    let quoted = format!("{}gallery_", '"');

    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files);
    rust_files(&root.join("src"), &mut files);
    rust_files(&root.join("tests"), &mut files);
    assert!(
        files.len() > 50,
        "suspiciously few Rust files found: {}",
        files.len()
    );

    let mut code_names = BTreeSet::new();
    for file in &files {
        let text = fs::read_to_string(file).unwrap();
        code_names.extend(extract_names(&text, &quoted));
    }
    assert!(
        code_names.len() > 30,
        "suspiciously few metric literals found: {code_names:?}"
    );

    let docs = fs::read_to_string(root.join("docs/metrics.md")).unwrap();
    let doc_names = extract_names(&docs, "`gallery_");

    let undocumented: Vec<&String> = code_names
        .iter()
        .filter(|n| !doc_names.contains(*n) && !doc_names.contains(base_name(n)))
        .collect();
    assert!(
        undocumented.is_empty(),
        "metric families minted in code but missing from docs/metrics.md: {undocumented:?}"
    );

    let stale: Vec<&String> = doc_names
        .iter()
        .filter(|n| !code_names.contains(*n))
        .collect();
    assert!(
        stale.is_empty(),
        "families documented in docs/metrics.md but absent from the source tree: {stale:?}"
    );
}

/// The `shape` label is a closed set, minted up front: the values a store
/// exposes before its first query are exactly the ones docs/metrics.md
/// lists for `gallery_store_query_total`.
#[test]
fn documented_query_shapes_are_the_minted_ones() {
    use gallery::store::MetadataStore;
    use gallery::telemetry::Telemetry;

    let telemetry = Telemetry::new();
    let _store = MetadataStore::in_memory().with_telemetry(std::sync::Arc::clone(&telemetry));
    let series = format!("{}store_query_total{{shape=\"", "gallery_");
    let minted: BTreeSet<String> = telemetry
        .render_text()
        .lines()
        .filter_map(|line| line.strip_prefix(series.as_str()))
        .filter_map(|rest| rest.split('"').next().map(str::to_owned))
        .collect();

    let docs = fs::read_to_string(repo_root().join("docs/metrics.md")).unwrap();
    let row = docs
        .lines()
        .find(|l| l.starts_with("| `gallery_store_query_total`"))
        .expect("docs/metrics.md documents the per-shape query counter");
    // Every second piece is inside backticks: the family, `shape`, its
    // values, then whatever the description quotes.
    let documented: BTreeSet<String> = row
        .split('`')
        .skip(1)
        .step_by(2)
        .skip(2)
        .take_while(|v| v.chars().all(|c| c.is_ascii_lowercase() || c == '_'))
        .map(str::to_owned)
        .collect();
    assert_eq!(documented, minted);
    for shape in ["index_top", "semi_join"] {
        assert!(minted.contains(shape), "{shape} not in {minted:?}");
    }
}
