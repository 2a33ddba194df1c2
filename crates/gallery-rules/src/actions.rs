//! Callback actions (§3.7.1).
//!
//! "We expect users to define callback functions that will be triggered by
//! the rule engine" — e.g. a deployment action that flips the served model
//! version. "There are also a default set of common actions that users can
//! leverage or extend, like sending an email or alerting."

use crate::error::EngineError;
use gallery_core::sync::{rank, OrderedMutex, OrderedRwLock};
use gallery_core::{InstanceId, ModelId};
use std::collections::HashMap;
use std::sync::Arc;

/// Everything an action callback learns about why it fired.
#[derive(Debug, Clone, PartialEq)]
pub struct ActionInvocation {
    pub rule_id: String,
    pub action: String,
    pub instance_id: InstanceId,
    pub model_id: ModelId,
    pub environment: String,
}

/// An action callback.
pub type ActionFn = Arc<dyn Fn(&ActionInvocation) -> Result<(), EngineError> + Send + Sync>;

/// Named action registry shared by the rule engine and its users.
#[derive(Clone)]
pub struct ActionRegistry {
    actions: Arc<OrderedRwLock<HashMap<String, ActionFn>>>,
}

impl Default for ActionRegistry {
    fn default() -> Self {
        ActionRegistry {
            actions: Arc::new(OrderedRwLock::new(rank::ACTION_REGISTRY, HashMap::new())),
        }
    }
}

impl ActionRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registry preloaded with the default actions: `log` and `alert`
    /// (recording into the returned [`ActionLog`]) and `noop`.
    pub fn with_defaults() -> (Self, ActionLog) {
        let registry = Self::new();
        let log = ActionLog::default();
        {
            let log = log.clone();
            registry.register("log", move |inv| {
                log.record("log", inv);
                Ok(())
            });
        }
        {
            let log = log.clone();
            registry.register("alert", move |inv| {
                log.record("alert", inv);
                Ok(())
            });
        }
        registry.register("noop", |_| Ok(()));
        (registry, log)
    }

    pub fn register(
        &self,
        name: impl Into<String>,
        f: impl Fn(&ActionInvocation) -> Result<(), EngineError> + Send + Sync + 'static,
    ) {
        self.actions.write().insert(name.into(), Arc::new(f));
    }

    pub fn contains(&self, name: &str) -> bool {
        self.actions.read().contains_key(name)
    }

    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.actions.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Invoke a named action.
    pub fn invoke(&self, invocation: &ActionInvocation) -> Result<(), EngineError> {
        let f = {
            let actions = self.actions.read();
            actions
                .get(&invocation.action)
                .cloned()
                .ok_or_else(|| EngineError::UnknownAction(invocation.action.clone()))?
        };
        f(invocation)
    }
}

impl std::fmt::Debug for ActionRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActionRegistry")
            .field("actions", &self.names())
            .finish()
    }
}

/// Shared record of fired default actions (emails/alerts in the paper).
#[derive(Debug, Clone)]
pub struct ActionLog {
    entries: Arc<OrderedMutex<Vec<(String, ActionInvocation)>>>,
}

impl Default for ActionLog {
    fn default() -> Self {
        ActionLog {
            entries: Arc::new(OrderedMutex::new(rank::ACTION_LOG, Vec::new())),
        }
    }
}

impl ActionLog {
    pub fn record(&self, kind: &str, invocation: &ActionInvocation) {
        self.entries
            .lock()
            .push((kind.to_owned(), invocation.clone()));
    }

    pub fn entries(&self) -> Vec<(String, ActionInvocation)> {
        self.entries.lock().clone()
    }

    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn invocation(action: &str) -> ActionInvocation {
        ActionInvocation {
            rule_id: "r1".into(),
            action: action.into(),
            instance_id: InstanceId::from("i1"),
            model_id: ModelId::from("m1"),
            environment: "production".into(),
        }
    }

    #[test]
    fn register_and_invoke() {
        let registry = ActionRegistry::new();
        let fired = Arc::new(std::sync::Mutex::new(0));
        {
            let fired = Arc::clone(&fired);
            registry.register("deploy", move |_| {
                *fired.lock().unwrap() += 1;
                Ok(())
            });
        }
        registry.invoke(&invocation("deploy")).unwrap();
        registry.invoke(&invocation("deploy")).unwrap();
        assert_eq!(*fired.lock().unwrap(), 2);
    }

    #[test]
    fn unknown_action_errors() {
        let registry = ActionRegistry::new();
        assert!(matches!(
            registry.invoke(&invocation("ghost")),
            Err(EngineError::UnknownAction(_))
        ));
    }

    #[test]
    fn defaults_log_and_alert() {
        let (registry, log) = ActionRegistry::with_defaults();
        assert!(registry.contains("log"));
        assert!(registry.contains("alert"));
        assert!(registry.contains("noop"));
        registry.invoke(&invocation("alert")).unwrap();
        registry.invoke(&invocation("noop")).unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!(log.entries()[0].0, "alert");
    }

    #[test]
    fn action_error_propagates() {
        let registry = ActionRegistry::new();
        registry.register("fails", |_| Err(EngineError::ActionFailed("boom".into())));
        assert!(matches!(
            registry.invoke(&invocation("fails")),
            Err(EngineError::ActionFailed(_))
        ));
    }
}
