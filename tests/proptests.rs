//! Property-based tests over core invariants, spanning crates.

use bytes::Bytes;
use gallery_core::metrics::{format_metric_blob, parse_metric_blob};
use gallery_core::semver::{ChangeKind, SemVer};
use gallery_core::{Gallery, InstanceSpec, ModelSpec};
use gallery_service::{Request, Response, WireConstraint, WireOp, WireValue};
use gallery_store::blob::cache::CachedBlobStore;
use gallery_store::blob::checksum::crc32;
use gallery_store::blob::memory::MemoryBlobStore;
use gallery_store::{Constraint, ObjectStore, Op, Query, Record, Value};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        "[a-zA-Z0-9_ ]{0,24}".prop_map(Value::Str),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(Value::Bytes),
        any::<i64>().prop_map(Value::Timestamp),
    ]
}

fn arb_wire_value() -> impl Strategy<Value = WireValue> {
    prop_oneof![
        Just(WireValue::Null),
        any::<bool>().prop_map(WireValue::Bool),
        any::<i64>().prop_map(WireValue::Int),
        any::<f64>()
            .prop_filter("finite", |x| x.is_finite())
            .prop_map(WireValue::Float),
        "[a-zA-Z0-9_]{0,16}".prop_map(WireValue::Str),
    ]
}

proptest! {
    /// Value total ordering is antisymmetric and transitive on triples.
    #[test]
    fn value_ordering_is_total(a in arb_value(), b in arb_value(), c in arb_value()) {
        use std::cmp::Ordering;
        let ab = a.total_cmp(&b);
        let ba = b.total_cmp(&a);
        prop_assert_eq!(ab, ba.reverse());
        if ab == Ordering::Equal {
            prop_assert_eq!(a.total_cmp(&c), b.total_cmp(&c));
        }
        if ab != Ordering::Greater && b.total_cmp(&c) != Ordering::Greater {
            prop_assert_ne!(a.total_cmp(&c), Ordering::Greater);
        }
    }

    /// CRC32 detects any single-byte corruption.
    #[test]
    fn crc32_detects_single_byte_change(
        mut data in proptest::collection::vec(any::<u8>(), 1..256),
        index in any::<prop::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let before = crc32(&data);
        let i = index.index(data.len());
        data[i] ^= flip;
        prop_assert_ne!(before, crc32(&data));
    }

    /// Metric blob format: format → parse is the identity.
    #[test]
    fn metric_blob_roundtrip(
        pairs in proptest::collection::vec(
            ("[a-z][a-z0-9_]{0,12}", any::<f64>().prop_filter("finite", |x| x.is_finite())),
            0..8,
        )
    ) {
        let pairs: Vec<(String, f64)> = pairs;
        let blob = format_metric_blob(&pairs);
        let parsed = parse_metric_blob(&blob).unwrap();
        prop_assert_eq!(parsed, pairs);
    }

    /// SemVer bumps always produce strictly larger versions.
    #[test]
    fn semver_bumps_increase(
        major in 0u32..1000,
        minor in 0u32..1000,
        patch in 0u32..1000,
        kind in prop_oneof![
            Just(ChangeKind::ArchitectureChange),
            Just(ChangeKind::FeatureOrHyperparamChange),
            Just(ChangeKind::Retrain),
        ],
    ) {
        let v = SemVer::new(major, minor, patch);
        prop_assert!(v.bump(kind) > v);
    }

    /// Wire protocol: ModelQuery requests roundtrip for arbitrary
    /// constraint lists.
    #[test]
    fn wire_model_query_roundtrip(
        constraints in proptest::collection::vec(
            ("[a-zA-Z_]{1,12}", 0u8..8, arb_wire_value()),
            0..8,
        )
    ) {
        let constraints: Vec<WireConstraint> = constraints
            .into_iter()
            .map(|(field, op, value)| {
                let op = match op {
                    0 => WireOp::Eq, 1 => WireOp::Ne, 2 => WireOp::Lt, 3 => WireOp::Le,
                    4 => WireOp::Gt, 5 => WireOp::Ge, 6 => WireOp::Contains,
                    _ => WireOp::StartsWith,
                };
                WireConstraint::new(field, op, value)
            })
            .collect();
        let req = Request::ModelQuery { constraints };
        let back = Request::decode(req.encode()).unwrap();
        prop_assert_eq!(back, req);
    }

    /// Wire protocol never panics on arbitrary garbage frames.
    #[test]
    fn wire_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = Request::decode(Bytes::from(bytes.clone()));
        let _ = Response::decode(Bytes::from(bytes));
    }

    /// Expression parser never panics and, when it parses, evaluation with
    /// an empty context never panics either.
    #[test]
    fn expression_pipeline_never_panics(src in "[a-z0-9 .()\"'<>=!&|+*/-]{0,48}") {
        if let Ok(expr) = gallery_rules::parser::parse(&src) {
            let _ = gallery_rules::eval::eval(&expr, &gallery_rules::EvalContext::new());
        }
    }

    /// Blob cache: hits + misses == gets; cached bytes never exceed budget.
    #[test]
    fn cache_respects_budget(
        sizes in proptest::collection::vec(1usize..64, 1..20),
        budget in 32usize..256,
        access in proptest::collection::vec(any::<prop::sample::Index>(), 0..40),
    ) {
        let cache = CachedBlobStore::new(std::sync::Arc::new(MemoryBlobStore::new()), budget);
        let mut locations = Vec::new();
        for s in &sizes {
            locations.push(cache.put(Bytes::from(vec![0u8; *s])).unwrap().location);
        }
        for ix in &access {
            let loc = &locations[ix.index(locations.len())];
            let _ = cache.get(loc).unwrap();
        }
        let stats = cache.stats();
        prop_assert!(stats.bytes_cached as usize <= budget);
        prop_assert_eq!(stats.hits + stats.misses, access.len() as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Registry invariant: every uploaded blob is retrievable and
    /// byte-identical; display versions increase monotonically per model.
    #[test]
    fn upload_fetch_identity(blobs in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..512), 1..8,
    )) {
        let g = Gallery::in_memory();
        let model = g.create_model(ModelSpec::new("p", "prop_base").name("m")).unwrap();
        let mut last_minor = None;
        for blob in &blobs {
            let inst = g
                .upload_instance(&model.id, InstanceSpec::new(), Bytes::from(blob.clone()))
                .unwrap();
            let back = g.fetch_instance_blob(&inst.id).unwrap();
            prop_assert_eq!(&back[..], &blob[..]);
            if let Some(prev) = last_minor {
                prop_assert_eq!(inst.display_version.minor, prev + 1);
            }
            last_minor = Some(inst.display_version.minor);
        }
    }

    /// Query results under a conjunctive constraint always satisfy every
    /// constraint (store-level soundness).
    #[test]
    fn query_results_satisfy_constraints(
        rows in proptest::collection::vec((0i64..50, 0i64..50), 1..40),
        threshold in 0i64..50,
    ) {
        let store = gallery_store::MetadataStore::in_memory();
        store.create_table(gallery_store::TableSchema::new(
            "t", "id",
            vec![
                gallery_store::ColumnDef::new("id", gallery_store::ValueType::Str),
                gallery_store::ColumnDef::new("a", gallery_store::ValueType::Int).hash_indexed(),
                gallery_store::ColumnDef::new("b", gallery_store::ValueType::Int).btree_indexed(),
            ],
        ).unwrap()).unwrap();
        for (i, (a, b)) in rows.iter().enumerate() {
            store.insert("t", Record::new()
                .set("id", format!("r{i}"))
                .set("a", *a)
                .set("b", *b)).unwrap();
        }
        let q = Query::all()
            .and(Constraint::new("b", Op::Lt, threshold))
            .and(Constraint::new("a", Op::Ge, 10i64));
        let results = store.query("t", &q).unwrap();
        let expected = rows.iter().filter(|(a, b)| *b < threshold && *a >= 10).count();
        prop_assert_eq!(results.len(), expected);
        for r in &results {
            prop_assert!(r.get("b").unwrap().as_int().unwrap() < threshold);
            prop_assert!(r.get("a").unwrap().as_int().unwrap() >= 10);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Registry invariant: over random sequences of uploads, upstream
    /// retrains (each claims an automatic instance downstream) and
    /// deprecations, a model's display versions strictly increase in
    /// commit order, deprecated instances included.
    #[test]
    fn display_versions_strictly_increase_in_commit_order(
        ops in proptest::collection::vec((0u8..3, any::<u8>()), 1..40),
    ) {
        let g = Gallery::in_memory();
        let down = g.create_model(ModelSpec::new("p", "down").name("d")).unwrap();
        let up = g.create_model(ModelSpec::new("p", "up").name("u")).unwrap();
        g.add_dependency(&down.id, &up.id).unwrap();
        let of_down = Query::all()
            .and(Constraint::eq("model_id", down.id.as_str()))
            .order_by("created", false);
        for (op, pick) in ops {
            match op {
                0 => {
                    g.upload_instance(&down.id, InstanceSpec::new(), Bytes::from_static(b"d"))
                        .unwrap();
                }
                1 => {
                    g.upload_instance(&up.id, InstanceSpec::new(), Bytes::from_static(b"u"))
                        .unwrap();
                }
                _ => {
                    let live = g.find_instances(&of_down).unwrap();
                    if !live.is_empty() {
                        let victim = &live[usize::from(pick) % live.len()];
                        g.deprecate_instance(&victim.id).unwrap();
                    }
                }
            }
        }
        let all = g.find_instances(&of_down.clone().with_deprecated()).unwrap();
        for pair in all.windows(2) {
            prop_assert!(
                pair[0].display_version < pair[1].display_version,
                "{} then {}", pair[0].display_version, pair[1].display_version
            );
        }
    }
}
