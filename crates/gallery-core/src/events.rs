//! Gallery change events.
//!
//! The rule engine (§3.7.2) evaluates rules when "any metadata or metrics
//! specific in a registered rule" are updated. The registry publishes one
//! event per mutation; subscribers (the rule engine, monitors, tests)
//! receive them synchronously on the mutating thread and are expected to
//! enqueue work rather than block. The bus's lock is not held while they
//! run, so a handler may subscribe further handlers.

use crate::id::{InstanceId, ModelId};
use crate::metrics::MetricScope;
use gallery_sync::{rank, OrderedRwLock};
use std::sync::Arc;

/// One change in Gallery state.
#[derive(Debug, Clone, PartialEq)]
pub enum GalleryEvent {
    ModelCreated {
        model_id: ModelId,
    },
    InstanceCreated {
        model_id: ModelId,
        instance_id: InstanceId,
        /// True when the instance is automatic dependency bookkeeping.
        automatic: bool,
    },
    MetricInserted {
        instance_id: InstanceId,
        metric_name: String,
        scope: MetricScope,
        value: f64,
    },
    Deployed {
        model_id: ModelId,
        instance_id: InstanceId,
        environment: String,
    },
    Deprecated {
        /// `"model"` or `"instance"`.
        kind: &'static str,
        id: String,
    },
    DependencyAdded {
        model_id: ModelId,
        upstream: ModelId,
    },
    DependencyRemoved {
        model_id: ModelId,
        upstream: ModelId,
    },
    StageChanged {
        instance_id: InstanceId,
        stage: String,
    },
}

/// A subscriber callback.
pub type EventHandler = Arc<dyn Fn(&GalleryEvent) + Send + Sync>;

/// Fan-out event bus. Handlers run synchronously in registration order.
///
/// The subscriber list is copy-on-write: `publish` clones the list's
/// `Arc` under the read lock and runs the handlers after releasing it,
/// and `subscribe` swaps in a new list. A publish allocates nothing, and
/// a handler added during a publish first sees the next event.
#[derive(Clone)]
pub struct EventBus {
    handlers: Arc<OrderedRwLock<Arc<Vec<EventHandler>>>>,
}

impl Default for EventBus {
    fn default() -> Self {
        EventBus {
            handlers: Arc::new(OrderedRwLock::new(rank::EVENT_BUS, Arc::default())),
        }
    }
}

impl EventBus {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn subscribe(&self, handler: EventHandler) {
        let mut handlers = self.handlers.write();
        // In place when no publish holds the current list, else a copy.
        Arc::make_mut(&mut handlers).push(handler);
    }

    pub fn publish(&self, event: &GalleryEvent) {
        let handlers = Arc::clone(&self.handlers.read());
        for h in handlers.iter() {
            h(event);
        }
    }

    pub fn subscriber_count(&self) -> usize {
        self.handlers.read().len()
    }
}

impl std::fmt::Debug for EventBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventBus")
            .field("subscribers", &self.subscriber_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn publish_reaches_all_subscribers() {
        let bus = EventBus::new();
        let seen: Arc<Mutex<Vec<String>>> = Arc::default();
        for tag in ["a", "b"] {
            let seen = Arc::clone(&seen);
            let tag = tag.to_owned();
            bus.subscribe(Arc::new(move |e| {
                if let GalleryEvent::ModelCreated { model_id } = e {
                    seen.lock().unwrap().push(format!("{tag}:{model_id}"));
                }
            }));
        }
        bus.publish(&GalleryEvent::ModelCreated {
            model_id: ModelId::from("m1"),
        });
        let seen = seen.lock().unwrap();
        assert_eq!(&*seen, &["a:m1".to_string(), "b:m1".to_string()]);
    }

    /// A handler that subscribes another handler during `publish`
    /// completes: the handlers run after the bus's read lock is released,
    /// so the subscribe's write lock is free. The publish runs on its own
    /// thread, so a regression fails the timeout rather than hanging the
    /// suite.
    #[test]
    fn handler_may_subscribe_during_publish() {
        let bus = EventBus::new();
        let late_calls = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        {
            let bus2 = bus.clone();
            let late_calls = Arc::clone(&late_calls);
            bus.subscribe(Arc::new(move |_| {
                let late_calls = Arc::clone(&late_calls);
                bus2.subscribe(Arc::new(move |_| {
                    late_calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                }));
            }));
        }
        let event = GalleryEvent::ModelCreated {
            model_id: ModelId::from("m1"),
        };
        let (tx, rx) = std::sync::mpsc::channel();
        let publisher = {
            let bus = bus.clone();
            let event = event.clone();
            std::thread::spawn(move || {
                bus.publish(&event);
                let _ = tx.send(());
            })
        };
        rx.recv_timeout(std::time::Duration::from_secs(5))
            .expect("a handler that subscribes during publish must not deadlock the bus");
        publisher.join().unwrap();
        assert_eq!(bus.subscriber_count(), 2);
        assert_eq!(
            late_calls.load(std::sync::atomic::Ordering::SeqCst),
            0,
            "a handler added during a publish first sees the next event"
        );
        bus.publish(&event);
        assert_eq!(late_calls.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert_eq!(bus.subscriber_count(), 3);
    }

    #[test]
    fn clone_shares_subscribers() {
        let bus = EventBus::new();
        let bus2 = bus.clone();
        bus2.subscribe(Arc::new(|_| {}));
        assert_eq!(bus.subscriber_count(), 1);
    }
}
