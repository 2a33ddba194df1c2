//! Dependency management with versioning (§3.4.2, Figs 5–7).
//!
//! Models declare upstream dependencies by id. When an upstream publishes
//! a new instance, every transitive downstream model automatically receives
//! a *new* instance version — without its production pointer changing —
//! so owners become aware of the change and can opt in (Fig 6). Adding a
//! new dependency edge likewise bumps the model and its downstream
//! closure (Fig 7). Cycles are rejected at edge-insertion time.

use crate::error::{GalleryError, Result};
use crate::id::ModelId;
use crate::registry::Gallery;
use crate::schemas::tables;
use crate::version::InstanceTrigger;
use gallery_store::{Constraint, Query, Record, Value};
use std::collections::{HashSet, VecDeque};

fn edge_pk(model: &ModelId, upstream: &ModelId) -> String {
    format!("{}->{}", model.as_str(), upstream.as_str())
}

impl Gallery {
    /// Declare that `model` depends on (consumes the output of) `upstream`.
    /// Rejects self-edges, duplicates, and anything that would create a
    /// cycle. Triggers Fig 7 propagation: `model` and its transitive
    /// downstream closure each get an automatic new instance version.
    pub fn add_dependency(&self, model: &ModelId, upstream: &ModelId) -> Result<()> {
        if model == upstream {
            return Err(GalleryError::DependencyCycle {
                from: model.to_string(),
                to: upstream.to_string(),
            });
        }
        self.get_model(model)?;
        self.get_model(upstream)?;
        if self.upstream_of(model)?.contains(upstream) {
            return Err(GalleryError::DuplicateDependency {
                from: model.to_string(),
                to: upstream.to_string(),
            });
        }
        // Cycle check: `upstream` must not (transitively) depend on `model`.
        if self.transitive_upstream(upstream)?.contains(model) {
            return Err(GalleryError::DependencyCycle {
                from: model.to_string(),
                to: upstream.to_string(),
            });
        }
        let pk = edge_pk(model, upstream);
        // A previously removed edge is deprecated, not deleted; re-adding
        // it revives the existing row.
        if self.dal().get(tables::DEPENDENCIES, &pk)?.is_some() {
            self.dal()
                .set_flag(tables::DEPENDENCIES, &pk, "deprecated", false)?;
        } else {
            let record = Record::new()
                .set("id", pk)
                .set("model", model.as_str())
                .set("upstream", upstream.as_str())
                .set("created", Value::Timestamp(self.now_ms()));
            self.dal().put(tables::DEPENDENCIES, record)?;
        }
        self.events()
            .publish(&crate::events::GalleryEvent::DependencyAdded {
                model_id: model.clone(),
                upstream: upstream.clone(),
            });
        // Fig 7: the model itself is bumped (new dependency is a change to
        // its effective inputs), then its downstream closure.
        self.create_automatic_instance(
            model,
            InstanceTrigger::DependencyAdded {
                new_dependency: upstream.to_string(),
            },
        )?;
        self.propagate_from(model, None)?;
        Ok(())
    }

    /// Remove a dependency edge. Edges are flagged deprecated rather than
    /// deleted (immutability), which removes them from live traversals.
    pub fn remove_dependency(&self, model: &ModelId, upstream: &ModelId) -> Result<()> {
        let pk = edge_pk(model, upstream);
        let live = self
            .dal()
            .get(tables::DEPENDENCIES, &pk)?
            .map(|r| !matches!(r.get("deprecated"), Some(Value::Bool(true))))
            .unwrap_or(false);
        if !live {
            return Err(GalleryError::NoSuchDependency {
                from: model.to_string(),
                to: upstream.to_string(),
            });
        }
        self.dal()
            .set_flag(tables::DEPENDENCIES, &pk, "deprecated", true)?;
        self.events()
            .publish(&crate::events::GalleryEvent::DependencyRemoved {
                model_id: model.clone(),
                upstream: upstream.clone(),
            });
        Ok(())
    }

    /// Direct upstream dependencies of a model.
    pub fn upstream_of(&self, model: &ModelId) -> Result<Vec<ModelId>> {
        let rows = self.dal().query(
            tables::DEPENDENCIES,
            &Query::all()
                .and(Constraint::eq("model", model.as_str()))
                .order_by("created", false),
        )?;
        Ok(rows
            .iter()
            .filter_map(|r| r.get("upstream").and_then(Value::as_str))
            .map(ModelId::from)
            .collect())
    }

    /// Direct downstream dependents of a model.
    pub fn downstream_of(&self, model: &ModelId) -> Result<Vec<ModelId>> {
        let rows = self.dal().query(
            tables::DEPENDENCIES,
            &Query::all()
                .and(Constraint::eq("upstream", model.as_str()))
                .order_by("created", false),
        )?;
        Ok(rows
            .iter()
            .filter_map(|r| r.get("model").and_then(Value::as_str))
            .map(ModelId::from)
            .collect())
    }

    /// Transitive upstream closure (everything this model depends on),
    /// BFS order, excluding the model itself.
    pub fn transitive_upstream(&self, model: &ModelId) -> Result<Vec<ModelId>> {
        self.bfs(model, |g, m| g.upstream_of(m))
    }

    /// Transitive downstream closure (everything affected by this model),
    /// BFS order, excluding the model itself.
    pub fn transitive_downstream(&self, model: &ModelId) -> Result<Vec<ModelId>> {
        self.bfs(model, |g, m| g.downstream_of(m))
    }

    fn bfs(
        &self,
        start: &ModelId,
        next: impl Fn(&Gallery, &ModelId) -> Result<Vec<ModelId>>,
    ) -> Result<Vec<ModelId>> {
        let mut seen: HashSet<ModelId> = HashSet::new();
        let mut order = Vec::new();
        let mut queue = VecDeque::new();
        queue.push_back(start.clone());
        seen.insert(start.clone());
        while let Some(m) = queue.pop_front() {
            for n in next(self, &m)? {
                if seen.insert(n.clone()) {
                    order.push(n.clone());
                    queue.push_back(n);
                }
            }
        }
        Ok(order)
    }

    /// Fig 6 propagation: called after `changed` publishes a new (real)
    /// instance version. Every transitive downstream model gets one
    /// automatic instance version attributed to its *direct* upstream that
    /// changed; production pointers are untouched. Returns the models
    /// bumped, in propagation (BFS) order.
    pub(crate) fn propagate_from(
        &self,
        changed: &ModelId,
        parent: Option<gallery_telemetry::SpanContext>,
    ) -> Result<Vec<ModelId>> {
        let metrics = self.registry_metrics();
        let mut span = match parent {
            Some(ctx) => metrics
                .telemetry
                .tracer()
                .start_child("registry/propagate", ctx),
            None => metrics.telemetry.tracer().start_span("registry/propagate"),
        };
        span.set_attr("changed", changed.to_string());
        // BFS over downstream edges; attribute each bump to the direct
        // upstream through which the change arrived.
        let mut seen: HashSet<ModelId> = HashSet::new();
        let mut bumped = Vec::new();
        let mut queue: VecDeque<ModelId> = VecDeque::new();
        seen.insert(changed.clone());
        queue.push_back(changed.clone());
        while let Some(m) = queue.pop_front() {
            for d in self.downstream_of(&m)? {
                if seen.insert(d.clone()) {
                    self.create_automatic_instance(
                        &d,
                        InstanceTrigger::DependencyUpdate {
                            upstream_model: m.to_string(),
                        },
                    )?;
                    bumped.push(d.clone());
                    queue.push_back(d);
                }
            }
        }
        metrics.propagated.add(bumped.len() as u64);
        span.set_attr("bumped", bumped.len().to_string());
        Ok(bumped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::instance::InstanceSpec;
    use crate::model::ModelSpec;
    use crate::version::DisplayVersion;
    use bytes::Bytes;
    use std::sync::Arc;

    fn gallery() -> Gallery {
        Gallery::in_memory_with_clock(Arc::new(ManualClock::new(1_000)))
    }

    /// Build the Figure 5 graph: X and Y depend on A; A depends on B and C.
    /// Display majors match the paper: X=7, Y=8, A=4, B=2, C=3.
    fn figure5(g: &Gallery) -> (ModelId, ModelId, ModelId, ModelId, ModelId) {
        let mk = |base: &str, major: u32| {
            let m = g
                .create_model_with_major(
                    ModelSpec::new("marketplace", base).name(base).owner("fc"),
                    major,
                )
                .unwrap();
            g.upload_instance(&m.id, InstanceSpec::new(), Bytes::from(base.to_owned()))
                .unwrap();
            m.id
        };
        let x = mk("model_x", 7);
        let y = mk("model_y", 8);
        let a = mk("model_a", 4);
        let b = mk("model_b", 2);
        let c = mk("model_c", 3);
        g.add_dependency(&a, &b).unwrap();
        g.add_dependency(&a, &c).unwrap();
        g.add_dependency(&x, &a).unwrap();
        g.add_dependency(&y, &a).unwrap();
        (x, y, a, b, c)
    }

    fn version_of(g: &Gallery, m: &ModelId) -> DisplayVersion {
        g.latest_instance(m).unwrap().unwrap().display_version
    }

    #[test]
    fn upstream_downstream_queries() {
        let g = gallery();
        let (x, y, a, b, c) = figure5(&g);
        assert_eq!(g.upstream_of(&a).unwrap(), vec![b.clone(), c.clone()]);
        let mut down_a = g.downstream_of(&a).unwrap();
        down_a.sort();
        let mut expect = vec![x.clone(), y.clone()];
        expect.sort();
        assert_eq!(down_a, expect);
        // transitive: B's downstream closure is {A, X, Y}
        let mut closure = g.transitive_downstream(&b).unwrap();
        closure.sort();
        let mut expect = vec![a.clone(), x.clone(), y.clone()];
        expect.sort();
        assert_eq!(closure, expect);
        // transitive upstream of X is {A, B, C}
        let mut up = g.transitive_upstream(&x).unwrap();
        up.sort();
        let mut expect = vec![a, b, c];
        expect.sort();
        assert_eq!(up, expect);
    }

    #[test]
    fn self_and_duplicate_edges_rejected() {
        let g = gallery();
        let (_, _, a, b, _) = figure5(&g);
        assert!(matches!(
            g.add_dependency(&a, &a),
            Err(GalleryError::DependencyCycle { .. })
        ));
        assert!(matches!(
            g.add_dependency(&a, &b),
            Err(GalleryError::DuplicateDependency { .. })
        ));
    }

    #[test]
    fn cycles_rejected() {
        let g = gallery();
        let (x, _, _, b, _) = figure5(&g);
        // B -> ... -> X exists downstream; X as upstream of B would cycle.
        assert!(matches!(
            g.add_dependency(&b, &x),
            Err(GalleryError::DependencyCycle { .. })
        ));
    }

    #[test]
    fn remove_dependency() {
        let g = gallery();
        let (x, _, a, _, _) = figure5(&g);
        g.remove_dependency(&x, &a).unwrap();
        assert!(g.upstream_of(&x).unwrap().is_empty());
        assert!(matches!(
            g.remove_dependency(&x, &a),
            Err(GalleryError::NoSuchDependency { .. })
        ));
    }

    /// Figure 6: retraining B (2.0 -> 2.1) creates automatic versions
    /// A 4.1, X 7.1, Y 8.1 without changing production pointers.
    #[test]
    fn figure6_upstream_retrain_propagates() {
        let g = gallery();
        let (x, y, a, b, _c) = figure5(&g);
        // figure5 construction itself created automatic bumps when edges
        // were added; record the post-construction versions as baseline.
        let (va0, vx0, vy0) = (version_of(&g, &a), version_of(&g, &x), version_of(&g, &y));
        // deploy current latest of A to production
        let prod_inst = g.latest_instance(&a).unwrap().unwrap();
        g.deploy(&a, &prod_inst.id, "production").unwrap();

        let vb0 = version_of(&g, &b);
        g.upload_instance(
            &b.clone(),
            InstanceSpec::new(),
            Bytes::from_static(b"b-retrained"),
        )
        .unwrap();

        assert_eq!(version_of(&g, &b), vb0.bump_minor());
        assert_eq!(version_of(&g, &a), va0.bump_minor());
        assert_eq!(version_of(&g, &x), vx0.bump_minor());
        assert_eq!(version_of(&g, &y), vy0.bump_minor());
        // A's new version is automatic, attributed to B.
        let latest_a = g.latest_instance(&a).unwrap().unwrap();
        assert_eq!(
            latest_a.trigger,
            InstanceTrigger::DependencyUpdate {
                upstream_model: b.to_string()
            }
        );
        // production pointer unchanged (Fig 6: "without changing the
        // production versions")
        assert_eq!(
            g.deployed_instance(&a, "production").unwrap(),
            Some(prod_inst.id)
        );
        // the automatic instance serves its parent's blob
        let blob = g.fetch_instance_blob(&latest_a.id).unwrap();
        assert_eq!(blob, Bytes::from_static(b"model_a"));
    }

    /// Figure 7: adding dependency D to A bumps A, X, and Y.
    #[test]
    fn figure7_new_dependency_propagates() {
        let g = gallery();
        let (x, y, a, _b, _c) = figure5(&g);
        let d = g
            .create_model_with_major(ModelSpec::new("marketplace", "model_d").name("model_d"), 1)
            .unwrap();
        g.upload_instance(&d.id, InstanceSpec::new(), Bytes::from_static(b"d"))
            .unwrap();
        let (va0, vx0, vy0) = (version_of(&g, &a), version_of(&g, &x), version_of(&g, &y));
        g.add_dependency(&a, &d.id).unwrap();
        assert_eq!(version_of(&g, &a), va0.bump_minor());
        assert_eq!(version_of(&g, &x), vx0.bump_minor());
        assert_eq!(version_of(&g, &y), vy0.bump_minor());
        let latest_a = g.latest_instance(&a).unwrap().unwrap();
        assert_eq!(
            latest_a.trigger,
            InstanceTrigger::DependencyAdded {
                new_dependency: d.id.to_string()
            }
        );
    }

    #[test]
    fn diamond_propagates_once_per_model() {
        // X depends on both A and B; A and B both depend on C. A retrain of
        // C must bump X exactly once, not twice.
        let g = gallery();
        let mk = |base: &str| {
            let m = g
                .create_model(ModelSpec::new("p", base).name(base))
                .unwrap();
            g.upload_instance(&m.id, InstanceSpec::new(), Bytes::from(base.to_owned()))
                .unwrap();
            m.id
        };
        let x = mk("dx");
        let a = mk("da");
        let b = mk("db");
        let c = mk("dc");
        g.add_dependency(&a, &c).unwrap();
        g.add_dependency(&b, &c).unwrap();
        g.add_dependency(&x, &a).unwrap();
        g.add_dependency(&x, &b).unwrap();
        let before = g.instances_of_model(&x).unwrap().len();
        g.upload_instance(&c, InstanceSpec::new(), Bytes::from_static(b"c2"))
            .unwrap();
        let after = g.instances_of_model(&x).unwrap().len();
        assert_eq!(after, before + 1);
    }

    #[test]
    fn leaf_retrain_propagates_nothing() {
        let g = gallery();
        let (x, _, _, _, _) = figure5(&g);
        // X has no downstream.
        let counts_before: usize = g.instances_of_model(&x).unwrap().len();
        g.upload_instance(&x, InstanceSpec::new(), Bytes::from_static(b"x2"))
            .unwrap();
        assert_eq!(g.instances_of_model(&x).unwrap().len(), counts_before + 1);
    }
}

#[cfg(test)]
mod revive_tests {
    use super::tests_support::*;
    use crate::error::GalleryError;

    #[test]
    fn readd_after_remove_revives_edge() {
        let g = gallery();
        let (x, a) = two_models(&g);
        g.add_dependency(&x, &a).unwrap();
        g.remove_dependency(&x, &a).unwrap();
        assert!(g.upstream_of(&x).unwrap().is_empty());
        g.add_dependency(&x, &a).unwrap();
        assert_eq!(g.upstream_of(&x).unwrap(), vec![a.clone()]);
        // and removing again works
        g.remove_dependency(&x, &a).unwrap();
        assert!(matches!(
            g.remove_dependency(&x, &a),
            Err(GalleryError::NoSuchDependency { .. })
        ));
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    use crate::clock::ManualClock;
    use crate::id::ModelId;
    use crate::instance::InstanceSpec;
    use crate::model::ModelSpec;
    use crate::registry::Gallery;
    use bytes::Bytes;
    use std::sync::Arc;

    pub fn gallery() -> Gallery {
        Gallery::in_memory_with_clock(Arc::new(ManualClock::new(1_000)))
    }

    pub fn two_models(g: &Gallery) -> (ModelId, ModelId) {
        let mk = |base: &str| {
            let m = g
                .create_model(ModelSpec::new("p", base).name(base))
                .unwrap();
            g.upload_instance(&m.id, InstanceSpec::new(), Bytes::from(base.to_owned()))
                .unwrap();
            m.id
        };
        (mk("rx"), mk("ra"))
    }
}
