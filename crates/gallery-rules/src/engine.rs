//! The orchestration rule engine (§3.7.2, Figure 8).
//!
//! Evaluation is event based: rules are triggered either by a direct
//! request (Client 1 in Fig 8 — synchronous model selection) or by updates
//! to metadata/metrics referenced by a registered rule (Client 2 — action
//! rules). Triggered evaluations flow through a job queue drained by a
//! pool of worker threads; when a rule's conditions hold, its callback
//! actions are executed through the [`ActionRegistry`].

use crate::actions::{ActionInvocation, ActionRegistry};
use crate::context::instance_context_scoped;
use crate::error::EngineError;
use crate::eval::{eval, EvalValue};
use crate::rule::{CompiledRule, RuleKind};
use crate::selection;
use crossbeam::channel::{unbounded, Receiver, Sender};
use gallery_core::sync::{rank, OrderedMutex, OrderedRwLock};
use gallery_core::{Gallery, GalleryEvent, InstanceId, ModelInstance};
use gallery_telemetry::Telemetry;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One queued evaluation job.
#[derive(Debug)]
enum Job {
    /// Evaluate an action rule against one instance. When the evaluation
    /// was triggered by a metric update, the update's name/value ride along
    /// and take precedence over the stored history — the rule judges the
    /// observation that triggered it (§3.7.2), and evaluation stays O(1)
    /// in the size of the metric log.
    Evaluate {
        rule_id: String,
        instance_id: InstanceId,
        trigger_metric: Option<(String, f64)>,
        enqueued_at: Instant,
    },
    /// Run a selection rule and reply on the channel.
    Select {
        rule_id: String,
        reply: Sender<Result<Option<ModelInstance>, EngineError>>,
        enqueued_at: Instant,
    },
    Shutdown,
}

/// Engine throughput/latency counters (the paper's "reasonable response
/// time (SLA) when the rule is triggered").
#[derive(Debug, Default, Clone)]
pub struct EngineStats {
    /// Jobs enqueued.
    pub triggered: u64,
    /// Jobs whose conditions evaluated true.
    pub fired: u64,
    /// Actions successfully executed.
    pub actions_executed: u64,
    /// Evaluation or action errors.
    pub errors: u64,
    /// Total trigger→completion latency across jobs.
    pub total_latency: Duration,
    /// Worst-case trigger→completion latency.
    pub max_latency: Duration,
    /// Jobs completed (for mean latency).
    pub completed: u64,
}

impl EngineStats {
    pub fn mean_latency(&self) -> Duration {
        if self.completed == 0 {
            Duration::ZERO
        } else {
            self.total_latency / self.completed as u32
        }
    }
}

struct EngineShared {
    gallery: Arc<Gallery>,
    actions: ActionRegistry,
    rules: OrderedRwLock<HashMap<String, CompiledRule>>,
    stats: OrderedMutex<EngineStats>,
    telemetry: Arc<Telemetry>,
    /// Jobs enqueued but not yet completed (drain barrier).
    in_flight: std::sync::atomic::AtomicU64,
}

/// The rule engine. Spawns `workers` evaluation threads; subscribe it to a
/// Gallery with [`RuleEngine::attach`] to get event-driven triggering.
pub struct RuleEngine {
    shared: Arc<EngineShared>,
    tx: Sender<Job>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl RuleEngine {
    /// Create an engine over a Gallery with a worker pool. Per-rule eval
    /// telemetry lands in the process-global bundle; use
    /// [`RuleEngine::new_with_telemetry`] to direct it elsewhere.
    pub fn new(gallery: Arc<Gallery>, actions: ActionRegistry, workers: usize) -> Arc<Self> {
        Self::new_with_telemetry(
            gallery,
            actions,
            workers,
            Arc::clone(gallery_telemetry::global()),
        )
    }

    /// [`RuleEngine::new`] with an explicit telemetry bundle for the
    /// per-rule evaluation counters and timing histograms.
    // Failing to spawn a worker thread at engine startup is fatal by
    // design — there is no degraded mode without an evaluation pool.
    #[allow(clippy::disallowed_methods)]
    pub fn new_with_telemetry(
        gallery: Arc<Gallery>,
        actions: ActionRegistry,
        workers: usize,
        telemetry: Arc<Telemetry>,
    ) -> Arc<Self> {
        let (tx, rx) = unbounded::<Job>();
        let shared = Arc::new(EngineShared {
            gallery,
            actions,
            rules: OrderedRwLock::new(rank::ENGINE_RULES, HashMap::new()),
            stats: OrderedMutex::new(rank::ENGINE_STATS, EngineStats::default()),
            telemetry,
            in_flight: std::sync::atomic::AtomicU64::new(0),
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let rx: Receiver<Job> = rx.clone();
                std::thread::Builder::new()
                    .name(format!("rule-worker-{i}"))
                    .spawn(move || worker_loop(shared, rx))
                    .expect("spawn rule worker")
            })
            .collect();
        Arc::new(RuleEngine {
            shared,
            tx,
            workers,
        })
    }

    /// Subscribe this engine to the Gallery's event bus so that metric
    /// inserts trigger matching action rules automatically.
    pub fn attach(self: &Arc<Self>) {
        let weak = Arc::downgrade(self);
        self.shared
            .gallery
            .events()
            .subscribe(Arc::new(move |event| {
                if let Some(engine) = weak.upgrade() {
                    engine.on_event(event);
                }
            }));
    }

    fn on_event(&self, event: &GalleryEvent) {
        match event {
            // "updating any metadata or metrics specific in a registered
            // rule" (§3.7.2): a metric update triggers every action rule
            // watching that metric name...
            GalleryEvent::MetricInserted {
                instance_id,
                metric_name,
                value,
                ..
            } => {
                let rules = self.shared.rules.read();
                for rule in rules.values() {
                    if rule.is_action() && rule.watched_metrics.iter().any(|m| m == metric_name) {
                        self.enqueue(Job::Evaluate {
                            rule_id: rule.id.clone(),
                            instance_id: instance_id.clone(),
                            trigger_metric: Some((metric_name.clone(), *value)),
                            enqueued_at: Instant::now(),
                        });
                    }
                }
            }
            // ...and a new (non-automatic) instance is itself a metadata
            // update: rules that do not depend on metrics at all (pure
            // GIVEN conditions) get a chance to fire immediately.
            GalleryEvent::InstanceCreated {
                instance_id,
                automatic: false,
                ..
            } => {
                let rules = self.shared.rules.read();
                for rule in rules.values() {
                    if rule.is_action() && rule.watched_metrics.is_empty() {
                        self.enqueue(Job::Evaluate {
                            rule_id: rule.id.clone(),
                            instance_id: instance_id.clone(),
                            trigger_metric: None,
                            enqueued_at: Instant::now(),
                        });
                    }
                }
            }
            _ => {}
        }
    }

    fn enqueue(&self, job: Job) {
        self.shared.stats.lock().triggered += 1;
        self.shared
            .in_flight
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        // Send only fails when all workers are gone (shutdown).
        let _ = self.tx.send(job);
    }

    /// Register a compiled rule. Re-registering the same id replaces it
    /// (rules themselves are versioned in the [`crate::repo::RuleRepo`]).
    pub fn register(&self, rule: CompiledRule) {
        self.shared.rules.write().insert(rule.id.clone(), rule);
    }

    /// Load every rule from a repo snapshot.
    pub fn register_all(&self, rules: impl IntoIterator<Item = CompiledRule>) {
        let mut map = self.shared.rules.write();
        for rule in rules {
            map.insert(rule.id.clone(), rule);
        }
    }

    pub fn unregister(&self, rule_id: &str) -> bool {
        self.shared.rules.write().remove(rule_id).is_some()
    }

    pub fn rule_count(&self) -> usize {
        self.shared.rules.read().len()
    }

    /// Synchronous model selection through the job queue (Fig 8, Client 1):
    /// the request is enqueued, a worker evaluates it, and the champion is
    /// returned to the caller.
    pub fn select(&self, rule_id: &str) -> Result<Option<ModelInstance>, EngineError> {
        if !self.shared.rules.read().contains_key(rule_id) {
            return Err(EngineError::UnknownRule(rule_id.to_owned()));
        }
        let (reply_tx, reply_rx) = unbounded();
        self.enqueue(Job::Select {
            rule_id: rule_id.to_owned(),
            reply: reply_tx,
            enqueued_at: Instant::now(),
        });
        reply_rx.recv().map_err(|_| EngineError::ShuttingDown)?
    }

    /// Directly trigger evaluation of an action rule against an instance
    /// (the "directly sending a request to the rule trigger" path).
    pub fn trigger(&self, rule_id: &str, instance_id: &InstanceId) -> Result<(), EngineError> {
        if !self.shared.rules.read().contains_key(rule_id) {
            return Err(EngineError::UnknownRule(rule_id.to_owned()));
        }
        self.enqueue(Job::Evaluate {
            rule_id: rule_id.to_owned(),
            instance_id: instance_id.clone(),
            trigger_metric: None,
            enqueued_at: Instant::now(),
        });
        Ok(())
    }

    /// Block until every enqueued job has completed (test/benchmark
    /// helper): queue empty is not enough — workers may still be mid-job.
    pub fn drain(&self) {
        while self
            .shared
            .in_flight
            .load(std::sync::atomic::Ordering::SeqCst)
            > 0
        {
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    pub fn stats(&self) -> EngineStats {
        self.shared.stats.lock().clone()
    }
}

impl Drop for RuleEngine {
    fn drop(&mut self) {
        for _ in &self.workers {
            let _ = self.tx.send(Job::Shutdown);
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: Arc<EngineShared>, rx: Receiver<Job>) {
    while let Ok(job) = rx.recv() {
        match job {
            Job::Shutdown => break,
            Job::Select {
                rule_id,
                reply,
                enqueued_at,
            } => {
                let result = if rule_id == "__barrier__" {
                    Ok(None)
                } else {
                    let started = Instant::now();
                    let result = run_selection(&shared, &rule_id);
                    observe_eval(&shared, &rule_id, "select", started);
                    result
                };
                finish_job(&shared, enqueued_at, result.is_err());
                let _ = reply.send(result);
            }
            Job::Evaluate {
                rule_id,
                instance_id,
                trigger_metric,
                enqueued_at,
            } => {
                let started = Instant::now();
                let errored = match run_action(&shared, &rule_id, &instance_id, trigger_metric) {
                    Ok(fired) => {
                        if fired {
                            shared.stats.lock().fired += 1;
                            shared
                                .telemetry
                                .registry()
                                .counter("gallery_rules_fired_total", &[("rule", &rule_id)])
                                .inc();
                        }
                        false
                    }
                    Err(_) => true,
                };
                observe_eval(&shared, &rule_id, "evaluate", started);
                finish_job(&shared, enqueued_at, errored);
            }
        }
    }
}

/// Per-rule evaluation accounting: one counter tick plus a latency sample
/// per worker-side evaluation, labelled by rule id and job kind.
fn observe_eval(shared: &EngineShared, rule_id: &str, kind: &str, started: Instant) {
    let reg = shared.telemetry.registry();
    reg.counter(
        "gallery_rules_evals_total",
        &[("kind", kind), ("rule", rule_id)],
    )
    .inc();
    reg.duration_histogram("gallery_rule_eval_duration_ms", &[("rule", rule_id)])
        .observe_since(started);
}

fn finish_job(shared: &EngineShared, enqueued_at: Instant, errored: bool) {
    let latency = enqueued_at.elapsed();
    {
        let mut stats = shared.stats.lock();
        stats.completed += 1;
        stats.total_latency += latency;
        if latency > stats.max_latency {
            stats.max_latency = latency;
        }
        if errored {
            stats.errors += 1;
        }
    }
    shared
        .in_flight
        .fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
}

fn run_selection(
    shared: &EngineShared,
    rule_id: &str,
) -> Result<Option<ModelInstance>, EngineError> {
    let rule = shared
        .rules
        .read()
        .get(rule_id)
        .cloned()
        .ok_or_else(|| EngineError::UnknownRule(rule_id.to_owned()))?;
    selection::select_from_gallery(&shared.gallery, &rule)
}

/// Evaluate an action rule against one instance; returns whether it fired.
fn run_action(
    shared: &EngineShared,
    rule_id: &str,
    instance_id: &InstanceId,
    trigger_metric: Option<(String, f64)>,
) -> Result<bool, EngineError> {
    let rule = shared
        .rules
        .read()
        .get(rule_id)
        .cloned()
        .ok_or_else(|| EngineError::UnknownRule(rule_id.to_owned()))?;
    let actions = match &rule.kind {
        RuleKind::Action { actions } => actions.clone(),
        RuleKind::Selection { .. } => return Ok(false),
    };
    let instance = shared.gallery.get_instance(instance_id)?;
    // Scoped context: fetch only the metrics this rule references that did
    // NOT arrive with the trigger, keeping evaluation O(watched metrics)
    // instead of O(all stored observations).
    let fetch_names: Vec<String> = rule
        .watched_metrics
        .iter()
        .filter(|m| {
            trigger_metric
                .as_ref()
                .map(|(n, _)| n != *m)
                .unwrap_or(true)
        })
        .cloned()
        .collect();
    let mut ctx = instance_context_scoped(&shared.gallery, &instance, &fetch_names)?;
    if let Some((name, value)) = trigger_metric {
        ctx.set_metric(name, value);
    }
    if eval(&rule.given, &ctx)? != EvalValue::Bool(true) {
        return Ok(false);
    }
    if eval(&rule.when, &ctx)? != EvalValue::Bool(true) {
        return Ok(false);
    }
    for action in &actions {
        let invocation = ActionInvocation {
            rule_id: rule.id.clone(),
            action: action.clone(),
            instance_id: instance.id.clone(),
            model_id: instance.model_id.clone(),
            environment: rule.environment.clone(),
        };
        shared.actions.invoke(&invocation)?;
        shared.stats.lock().actions_executed += 1;
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::{listing1_selection_rule, listing2_action_rule, CompiledRule};
    use bytes::Bytes;
    use gallery_core::metadata::{fields, Metadata};
    use gallery_core::{InstanceSpec, MetricScope, MetricSpec, ModelSpec};

    fn rf_instance(g: &Gallery, domain: &str) -> gallery_core::ModelInstance {
        let model = g
            .create_model(ModelSpec::new("p", format!("base-{domain}")).name("Random Forest"))
            .unwrap();
        g.upload_instance(
            &model.id,
            InstanceSpec::new().metadata(
                Metadata::new()
                    .with(fields::MODEL_NAME, "Random Forest")
                    .with(fields::MODEL_DOMAIN, domain),
            ),
            Bytes::from_static(b"w"),
        )
        .unwrap()
    }

    #[test]
    fn listing2_event_driven_deployment() {
        let gallery = Arc::new(Gallery::in_memory());
        let (actions, _log) = ActionRegistry::with_defaults();
        let deployed: Arc<std::sync::Mutex<Vec<ActionInvocation>>> = Arc::default();
        {
            let deployed = Arc::clone(&deployed);
            actions.register("forecasting_deployment", move |inv| {
                deployed.lock().unwrap().push(inv.clone());
                Ok(())
            });
        }
        let engine = RuleEngine::new(Arc::clone(&gallery), actions, 2);
        engine.register(CompiledRule::compile(&listing2_action_rule()).unwrap());
        engine.attach();

        let inst = rf_instance(&gallery, "UberX");
        // In-corridor bias -> rule fires.
        gallery
            .insert_metric(
                &inst.id,
                MetricSpec::new("bias", MetricScope::Validation, 0.05),
            )
            .unwrap();
        engine.drain();
        assert_eq!(deployed.lock().unwrap().len(), 1);
        assert_eq!(deployed.lock().unwrap()[0].action, "forecasting_deployment");
        // Out-of-corridor bias -> no new fire.
        gallery
            .insert_metric(
                &inst.id,
                MetricSpec::new("bias", MetricScope::Validation, 0.5),
            )
            .unwrap();
        engine.drain();
        assert_eq!(deployed.lock().unwrap().len(), 1);
        let stats = engine.stats();
        assert!(stats.triggered >= 2);
        assert_eq!(stats.fired, 1);
        assert_eq!(stats.errors, 0);
    }

    #[test]
    fn unwatched_metric_does_not_trigger() {
        let gallery = Arc::new(Gallery::in_memory());
        let (actions, _log) = ActionRegistry::with_defaults();
        let engine = RuleEngine::new(Arc::clone(&gallery), actions, 1);
        engine.register(CompiledRule::compile(&listing2_action_rule()).unwrap());
        engine.attach();
        let inst = rf_instance(&gallery, "UberX");
        gallery
            .insert_metric(
                &inst.id,
                MetricSpec::new("mae", MetricScope::Validation, 0.05),
            )
            .unwrap();
        engine.drain();
        assert_eq!(engine.stats().fired, 0);
    }

    #[test]
    fn given_filters_domain() {
        let gallery = Arc::new(Gallery::in_memory());
        let (actions, log) = ActionRegistry::with_defaults();
        let mut doc = listing2_action_rule();
        doc.rule.callback_actions = vec!["log".into()];
        let engine = RuleEngine::new(Arc::clone(&gallery), actions, 1);
        engine.register(CompiledRule::compile(&doc).unwrap());
        engine.attach();
        let pool_inst = rf_instance(&gallery, "UberPool");
        gallery
            .insert_metric(
                &pool_inst.id,
                MetricSpec::new("bias", MetricScope::Validation, 0.0),
            )
            .unwrap();
        engine.drain();
        assert!(
            log.is_empty(),
            "UberPool instance must not fire an UberX rule"
        );
    }

    #[test]
    fn selection_through_queue() {
        let gallery = Arc::new(Gallery::in_memory());
        let model = gallery
            .create_model(ModelSpec::new("p", "demand").name("linear_regression"))
            .unwrap();
        for r2 in [0.7, 0.8] {
            let inst = gallery
                .upload_instance(
                    &model.id,
                    InstanceSpec::new().metadata(
                        Metadata::new()
                            .with(fields::MODEL_NAME, "linear_regression")
                            .with(fields::MODEL_DOMAIN, "UberX"),
                    ),
                    Bytes::from_static(b"w"),
                )
                .unwrap();
            gallery
                .insert_metric(&inst.id, MetricSpec::new("r2", MetricScope::Validation, r2))
                .unwrap();
        }
        let (actions, _log) = ActionRegistry::with_defaults();
        let engine = RuleEngine::new(Arc::clone(&gallery), actions, 2);
        engine.register(CompiledRule::compile(&listing1_selection_rule()).unwrap());
        let champion = engine.select(&listing1_selection_rule().uuid).unwrap();
        assert!(champion.is_some());
        assert!(matches!(
            engine.select("ghost"),
            Err(EngineError::UnknownRule(_))
        ));
    }

    #[test]
    fn direct_trigger() {
        let gallery = Arc::new(Gallery::in_memory());
        let (actions, log) = ActionRegistry::with_defaults();
        let mut doc = listing2_action_rule();
        doc.rule.callback_actions = vec!["alert".into()];
        let engine = RuleEngine::new(Arc::clone(&gallery), actions, 1);
        engine.register(CompiledRule::compile(&doc).unwrap());
        // No attach: only direct triggering.
        let inst = rf_instance(&gallery, "UberX");
        gallery
            .insert_metric(
                &inst.id,
                MetricSpec::new("bias", MetricScope::Validation, 0.01),
            )
            .unwrap();
        engine.trigger(&doc.uuid, &inst.id).unwrap();
        engine.drain();
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn unregister() {
        let gallery = Arc::new(Gallery::in_memory());
        let (actions, _) = ActionRegistry::with_defaults();
        let engine = RuleEngine::new(gallery, actions, 1);
        engine.register(CompiledRule::compile(&listing2_action_rule()).unwrap());
        assert_eq!(engine.rule_count(), 1);
        assert!(engine.unregister(&listing2_action_rule().uuid));
        assert!(!engine.unregister("ghost"));
        assert_eq!(engine.rule_count(), 0);
    }

    #[test]
    fn action_errors_counted() {
        let gallery = Arc::new(Gallery::in_memory());
        let actions = ActionRegistry::new();
        actions.register("forecasting_deployment", |_| {
            Err(EngineError::ActionFailed("deploy target down".into()))
        });
        let engine = RuleEngine::new(Arc::clone(&gallery), actions, 1);
        engine.register(CompiledRule::compile(&listing2_action_rule()).unwrap());
        engine.attach();
        let inst = rf_instance(&gallery, "UberX");
        gallery
            .insert_metric(
                &inst.id,
                MetricSpec::new("bias", MetricScope::Validation, 0.0),
            )
            .unwrap();
        engine.drain();
        assert_eq!(engine.stats().errors, 1);
    }
}

#[cfg(test)]
mod metadata_trigger_tests {
    use super::*;
    use crate::rule::{CompiledRule, RuleBody, RuleDoc};
    use bytes::Bytes;
    use gallery_core::metadata::{fields, Metadata};
    use gallery_core::{InstanceSpec, ModelSpec};

    /// A metrics-free action rule fires the moment a matching instance is
    /// registered (metadata-update triggering, §3.7.2).
    #[test]
    fn instance_creation_triggers_metadata_only_rules() {
        let gallery = Arc::new(Gallery::in_memory());
        let (actions, log) = ActionRegistry::with_defaults();
        let mut doc = RuleDoc {
            team: "t".into(),
            uuid: "notify-on-new-uberx-instance".into(),
            rule: RuleBody {
                given: r#"model_domain == "UberX""#.into(),
                when: "true".into(),
                environment: "staging".into(),
                model_selection: None,
                callback_actions: vec!["alert".into()],
            },
        };
        let engine = RuleEngine::new(Arc::clone(&gallery), actions, 1);
        engine.register(CompiledRule::compile(&doc).unwrap());
        engine.attach();

        let model = gallery
            .create_model(ModelSpec::new("p", "meta_trigger").name("m"))
            .unwrap();
        gallery
            .upload_instance(
                &model.id,
                InstanceSpec::new().metadata(Metadata::new().with(fields::MODEL_DOMAIN, "UberX")),
                Bytes::from_static(b"w"),
            )
            .unwrap();
        engine.drain();
        assert_eq!(log.len(), 1, "new matching instance fires the rule");

        // Non-matching domain: no fire.
        gallery
            .upload_instance(
                &model.id,
                InstanceSpec::new()
                    .metadata(Metadata::new().with(fields::MODEL_DOMAIN, "UberPool")),
                Bytes::from_static(b"w2"),
            )
            .unwrap();
        engine.drain();
        assert_eq!(log.len(), 1);

        // Metric-watching rules are NOT triggered by bare instance creation.
        doc.uuid = "metric-rule".into();
        doc.rule.when = "metrics.bias < 0.1".into();
        engine.register(CompiledRule::compile(&doc).unwrap());
        gallery
            .upload_instance(
                &model.id,
                InstanceSpec::new().metadata(Metadata::new().with(fields::MODEL_DOMAIN, "UberX")),
                Bytes::from_static(b"w3"),
            )
            .unwrap();
        engine.drain();
        // the metadata-only rule fired once more; the metric rule did not
        assert_eq!(log.len(), 2);
    }
}
