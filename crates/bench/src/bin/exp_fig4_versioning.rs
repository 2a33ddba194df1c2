//! E3 — Figure 4: UUID-based model instance versioning.
//!
//! Recreates the paper's example: two base version ids
//! (`demand_conversion`, `supply_cancellation`); the latter evolves over
//! four UUID-identified instances, time-ordered and linked to their base.
//! Also contrasts with the legacy semantic-versioning fleet (§3.4.1's
//! motivation) by showing version divergence across cities.

use bytes::Bytes;
use gallery_bench::{banner, TextTable};
use gallery_core::semver::{ChangeKind, SemVerFleet};
use gallery_core::{Gallery, InstanceSpec, ManualClock, ModelSpec};
use std::sync::Arc;

fn main() {
    banner(
        "E3: UUID versioning with base version ids",
        "Figure 4 + §3.4.1",
    );
    let g = Gallery::in_memory_with_clock(Arc::new(ManualClock::new(1_700_000_000_000)));

    // Two modeling approaches, as in the figure.
    let demand = g
        .create_model(
            ModelSpec::new("marketplace", "demand_conversion")
                .name("demand_conversion")
                .owner("forecasting"),
        )
        .unwrap();
    g.upload_instance(
        &demand.id,
        InstanceSpec::new(),
        Bytes::from_static(b"dc-v1"),
    )
    .unwrap();

    let supply = g
        .create_model(
            ModelSpec::new("marketplace", "supply_cancellation")
                .name("supply_cancellation")
                .owner("forecasting"),
        )
        .unwrap();
    // "supply_cancellation has evolved over four iterations with different
    // model instances which are identified by four different UUIDs."
    for i in 0..4 {
        g.upload_instance(
            &supply.id,
            InstanceSpec::new(),
            Bytes::from(format!("sc-weights-{i}")),
        )
        .unwrap();
    }

    let mut table = TextTable::new(&[
        "base version id",
        "instance uuid",
        "version",
        "created (ms)",
    ]);
    for base in ["demand_conversion", "supply_cancellation"] {
        for inst in g
            .instances_of_base_version(base)
            .unwrap()
            .to_instances()
            .unwrap()
        {
            table.add_row(vec![
                base.to_string(),
                inst.id.to_string(),
                inst.display_version.to_string(),
                inst.created_at.to_string(),
            ]);
        }
    }
    println!("{}", table.render());

    // Checks mirroring the figure's properties.
    let sc = g
        .instances_of_base_version("supply_cancellation")
        .unwrap()
        .to_instances()
        .unwrap();
    assert_eq!(sc.len(), 4, "four iterations");
    assert!(
        sc.windows(2).all(|w| w[0].created_at < w[1].created_at),
        "instances are sorted by time"
    );
    let distinct: std::collections::HashSet<_> = sc.iter().map(|i| i.id.clone()).collect();
    assert_eq!(distinct.len(), 4, "four distinct UUIDs");
    assert!(sc
        .iter()
        .all(|i| i.base_version_id.as_str() == "supply_cancellation"));
    // lineage chains to the base
    let latest = sc.last().unwrap();
    let lineage = g.instance_lineage(&latest.id).unwrap();
    assert_eq!(lineage.len(), 4);
    println!(
        "lineage of newest supply_cancellation instance: {} hops to root ✓",
        lineage.len()
    );

    // The legacy baseline the section motivates against: semantic versions
    // diverge across a 100-city fleet once per-city retraining starts.
    println!("\nlegacy semantic versioning (pre-Gallery baseline, §3.4.1):");
    let mut fleet = SemVerFleet::new();
    for i in 0..100 {
        fleet.add_city(format!("city_{i:03}"));
    }
    let aligned = fleet.distinct_versions();
    // Retrain only the cities whose models degraded (every third city,
    // some twice).
    for i in (0..100).step_by(3) {
        fleet
            .apply(&format!("city_{i:03}"), ChangeKind::Retrain)
            .unwrap();
        if i % 2 == 0 {
            fleet
                .apply(&format!("city_{i:03}"), ChangeKind::Retrain)
                .unwrap();
        }
    }
    let diverged = fleet.distinct_versions();
    let mut table = TextTable::new(&["fleet state", "distinct versions across 100 cities"]);
    table.add_row(vec!["initial launch".into(), aligned.to_string()]);
    table.add_row(vec![
        "after selective retraining".into(),
        diverged.to_string(),
    ]);
    println!("{}", table.render());
    println!(
        "semantic versions lose meaning: cities no longer align ({} -> {} distinct versions)",
        aligned, diverged
    );
    assert!(diverged > aligned);
}
