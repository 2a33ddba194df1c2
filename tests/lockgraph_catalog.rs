//! The lock-diagnostics catalog (docs/concurrency.md) is enforced, not
//! aspirational: every code in `gallery_sync::codes::ALL` must be
//! documented in the catalog table AND pinned by a fixture in
//! `crates/gallery-sync/tests/lockgraph_fixtures.rs`, and every `GLnnnn`
//! code mentioned in the docs or fixture corpus must still exist in
//! code. Either direction failing breaks CI, so the catalog cannot rot.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

use gallery::core::sync::{codes, rank};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Extract every `GLnnnn` token from `text`.
fn extract_codes(text: &str) -> BTreeSet<String> {
    let bytes = text.as_bytes();
    let mut out = BTreeSet::new();
    for i in 0..bytes.len().saturating_sub(5) {
        if bytes[i] == b'G'
            && bytes[i + 1] == b'L'
            && bytes[i + 2..i + 6].iter().all(u8::is_ascii_digit)
            // Reject longer digit runs (e.g. "GL00011" is not a code).
            && bytes.get(i + 6).is_none_or(|b| !b.is_ascii_digit())
        {
            out.insert(String::from_utf8_lossy(&bytes[i..i + 6]).into_owned());
        }
    }
    out
}

#[test]
fn every_lock_code_is_documented_and_every_documented_code_exists() {
    let root = repo_root();
    let docs = fs::read_to_string(root.join("docs/concurrency.md")).unwrap();
    let doc_codes = extract_codes(&docs);

    let known: BTreeSet<String> = codes::ALL.iter().map(|c| c.to_string()).collect();
    assert!(known.len() >= 5, "suspiciously few codes: {known:?}");

    let undocumented: Vec<&String> = known.iter().filter(|c| !doc_codes.contains(*c)).collect();
    assert!(
        undocumented.is_empty(),
        "lock diagnostic codes missing from docs/concurrency.md: {undocumented:?}"
    );

    let stale: Vec<&String> = doc_codes.iter().filter(|c| !known.contains(*c)).collect();
    assert!(
        stale.is_empty(),
        "codes documented in docs/concurrency.md but absent from codes::ALL: {stale:?}"
    );
}

#[test]
fn every_lock_code_is_pinned_by_a_lockgraph_fixture() {
    let root = repo_root();
    let fixtures =
        fs::read_to_string(root.join("crates/gallery-sync/tests/lockgraph_fixtures.rs")).unwrap();
    let fixture_codes = extract_codes(&fixtures);

    let unpinned: Vec<&&str> = codes::ALL
        .iter()
        .filter(|c| !fixture_codes.contains(**c))
        .collect();
    assert!(
        unpinned.is_empty(),
        "lock diagnostic codes without a fixture in lockgraph_fixtures.rs: {unpinned:?}"
    );

    let stale: Vec<&String> = fixture_codes
        .iter()
        .filter(|c| !codes::ALL.contains(&c.as_str()))
        .collect();
    assert!(
        stale.is_empty(),
        "codes referenced in lockgraph_fixtures.rs but absent from codes::ALL: {stale:?}"
    );
}

#[test]
fn every_declared_rank_is_in_the_rank_table() {
    let docs = fs::read_to_string(repo_root().join("docs/concurrency.md")).unwrap();
    let missing: Vec<&str> = rank::DECLARED
        .iter()
        .map(|r| r.name)
        .filter(|name| !docs.contains(&format!("`{name}`")))
        .collect();
    assert!(
        missing.is_empty(),
        "declared ranks missing from the docs/concurrency.md rank table: {missing:?}"
    );
}
