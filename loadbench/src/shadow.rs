//! The shadow model: what Gallery must contain, kept by the benchmark
//! from its own inputs and the ids the server handed back. Every response
//! is checked against it; a response that disagrees is a failed
//! operation.
//!
//! On `mixed` a reader checks while a writer writes, so each count has a
//! lower bound (rows whose write was acknowledged) and an upper bound
//! (rows whose write has been issued). Nothing is ever deleted, so a
//! result is right when it lies between the lower bound taken before the
//! call and the upper bound taken after it.

use crate::gen::{Dataset, ModelSpec, Sizes};

pub struct ModelEntry {
    pub id: String,
    pub spec: ModelSpec,
}

pub struct InstanceEntry {
    pub id: String,
    pub model: u32,
    pub blob_location: String,
    pub blob_len: u32,
    pub blob_crc: u32,
    /// Lowest acknowledged value of the join metric; `INFINITY` until one
    /// is. The join keeps an instance with any observation below the
    /// threshold, so the lowest one decides.
    pub join_value: f64,
}

#[derive(Default, Clone, Copy)]
struct Bounds {
    acked: u32,
    issued: u32,
}

pub struct Shadow {
    model_types: u32,
    pub models: Vec<ModelEntry>,
    pub instances: Vec<InstanceEntry>,
    latest: Vec<u32>,
    uploads_in_flight: Vec<u32>,
    by_name: Vec<Vec<u32>>,
    /// Per name: instances issued whose join metric is not yet acked.
    unsettled: Vec<u32>,
    by_city: Vec<Bounds>,
    by_project: Vec<Bounds>,
    by_project_type: Vec<Bounds>,
    by_model: Vec<Bounds>,
    pub acked_metrics: u64,
}

/// Which count of the shadow a search should return.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CountKey {
    City(u32),
    Project(u32),
    ProjectType(u32, u32),
    Model(u32),
    /// Instances named `name` with a join-metric value below `threshold`.
    Join(u32, f64),
}

impl Shadow {
    pub fn new(sizes: &Sizes, dataset: &Dataset) -> Shadow {
        Shadow {
            model_types: sizes.model_types,
            models: Vec::with_capacity(dataset.models.len()),
            instances: Vec::new(),
            latest: vec![u32::MAX; dataset.models.len()],
            uploads_in_flight: vec![0; dataset.models.len()],
            by_name: vec![Vec::new(); sizes.names as usize],
            unsettled: vec![0; sizes.names as usize],
            by_city: vec![Bounds::default(); sizes.cities as usize],
            by_project: vec![Bounds::default(); sizes.projects as usize],
            by_project_type: vec![Bounds::default(); (sizes.projects * sizes.model_types) as usize],
            by_model: vec![Bounds::default(); dataset.models.len()],
            acked_metrics: 0,
        }
    }

    pub fn add_model(&mut self, id: String, spec: ModelSpec) {
        self.models.push(ModelEntry { id, spec });
    }

    fn counters(&mut self, model: u32, city: u32) -> [&mut Bounds; 4] {
        let spec = &self.models[model as usize].spec;
        let pt = spec.project * self.model_types + spec.model_type;
        [
            &mut self.by_city[city as usize],
            &mut self.by_project[spec.project as usize],
            &mut self.by_project_type[pt as usize],
            &mut self.by_model[model as usize],
        ]
    }

    /// An upload to `model` in `city` is about to be sent.
    pub fn begin_upload(&mut self, model: u32, city: u32) {
        for c in self.counters(model, city) {
            c.issued += 1;
        }
        self.uploads_in_flight[model as usize] += 1;
        let name = self.models[model as usize].spec.name;
        self.unsettled[name as usize] += 1;
    }

    /// The upload was acknowledged; returns the new instance's ordinal.
    pub fn ack_upload(&mut self, model: u32, city: u32, entry: InstanceEntry) -> u32 {
        for c in self.counters(model, city) {
            c.acked += 1;
        }
        let ordinal = self.instances.len() as u32;
        self.instances.push(entry);
        self.latest[model as usize] = ordinal;
        self.uploads_in_flight[model as usize] -= 1;
        let name = self.models[model as usize].spec.name;
        self.by_name[name as usize].push(ordinal);
        ordinal
    }

    /// The upload failed: it will never be visible.
    pub fn abandon_upload(&mut self, model: u32, city: u32) {
        for c in self.counters(model, city) {
            c.issued -= 1;
        }
        self.uploads_in_flight[model as usize] -= 1;
        let name = self.models[model as usize].spec.name;
        self.unsettled[name as usize] -= 1;
    }

    /// A metric write was acknowledged. `settles` marks the first join
    /// metric of a new instance.
    pub fn ack_metric(&mut self, ordinal: u32, join_value: Option<f64>, settles: bool) {
        self.acked_metrics += 1;
        if let Some(v) = join_value {
            let inst = &mut self.instances[ordinal as usize];
            inst.join_value = inst.join_value.min(v);
        }
        if settles {
            self.settle(ordinal);
        }
    }

    /// The join metric of a new instance was acked or given up on.
    pub fn settle(&mut self, ordinal: u32) {
        let model = self.instances[ordinal as usize].model;
        let name = self.models[model as usize].spec.name;
        self.unsettled[name as usize] -= 1;
    }

    /// The model's latest acknowledged instance, if any.
    pub fn latest(&self, model: u32) -> Option<u32> {
        Some(self.latest[model as usize]).filter(|&o| o != u32::MAX)
    }

    pub fn upload_in_flight(&self, model: u32) -> bool {
        self.uploads_in_flight[model as usize] > 0
    }

    /// (rows acknowledged, rows issued) for a search.
    pub fn bounds(&self, key: CountKey) -> (u32, u32) {
        let b = match key {
            CountKey::City(c) => self.by_city[c as usize],
            CountKey::Project(p) => self.by_project[p as usize],
            CountKey::ProjectType(p, t) => {
                self.by_project_type[(p * self.model_types + t) as usize]
            }
            CountKey::Model(m) => self.by_model[m as usize],
            CountKey::Join(name, threshold) => {
                let acked = self.by_name[name as usize]
                    .iter()
                    .filter(|&&o| self.instances[o as usize].join_value < threshold)
                    .count() as u32;
                return (acked, acked + self.unsettled[name as usize]);
            }
        };
        (b.acked, b.issued)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn entry(model: u32) -> InstanceEntry {
        InstanceEntry {
            id: format!("i-{model}"),
            model,
            blob_location: String::new(),
            blob_len: 0,
            blob_crc: 0,
            join_value: f64::INFINITY,
        }
    }

    #[test]
    fn bounds_bracket_an_upload_in_flight() {
        let sizes = Sizes::tiny();
        let data = gen::dataset(&sizes, 1);
        let mut s = Shadow::new(&sizes, &data);
        for (i, spec) in data.models.iter().enumerate() {
            s.add_model(format!("m-{i}"), spec.clone());
        }
        let name = data.models[3].name;
        assert_eq!(s.bounds(CountKey::Model(3)), (0, 0));
        assert_eq!(s.latest(3), None);
        s.begin_upload(3, 1);
        assert_eq!(s.bounds(CountKey::City(1)), (0, 1));
        assert!(s.upload_in_flight(3));
        assert_eq!(s.bounds(CountKey::Join(name, 0.5)), (0, 1));
        let ord = s.ack_upload(3, 1, entry(3));
        assert_eq!(s.bounds(CountKey::City(1)), (1, 1));
        assert_eq!(s.latest(3), Some(ord));
        assert!(!s.upload_in_flight(3));
        // Visible to the join only once its metric is acked and low enough.
        assert_eq!(s.bounds(CountKey::Join(name, 0.5)), (0, 1));
        s.ack_metric(ord, Some(0.4), true);
        assert_eq!(s.bounds(CountKey::Join(name, 0.5)), (1, 1));
        assert_eq!(s.bounds(CountKey::Join(name, 0.3)), (0, 0));
        s.begin_upload(3, 2);
        s.abandon_upload(3, 2);
        assert_eq!(s.bounds(CountKey::City(2)), (0, 0));
        assert_eq!(s.bounds(CountKey::Join(name, 0.5)), (1, 1));
        assert_eq!(s.acked_metrics, 1);
    }
}
