//! Display versions for dependency bookkeeping (Figs 5–7).
//!
//! Gallery identifies instances by UUID (§3.4.1), but the paper's
//! dependency examples display compact `major.minor` counters ("we use
//! numbers instead of UUIDs ... for readability"): retrains and
//! dependency-triggered updates bump the minor number, a new model
//! approach bumps the major number. We keep the same dual scheme: the
//! UUID is the identity; the display version is derived, human-facing
//! metadata.

use crate::error::{GalleryError, Result};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A `major.minor` display version, e.g. `4.1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DisplayVersion {
    pub major: u32,
    pub minor: u32,
}

impl DisplayVersion {
    pub const fn new(major: u32, minor: u32) -> Self {
        DisplayVersion { major, minor }
    }

    /// Parse `"4.1"`.
    pub fn parse(s: &str) -> Result<Self> {
        let (maj, min) = s
            .split_once('.')
            .ok_or_else(|| GalleryError::Invalid(format!("bad display version: {s}")))?;
        let major = maj
            .parse()
            .map_err(|_| GalleryError::Invalid(format!("bad display version: {s}")))?;
        let minor = min
            .parse()
            .map_err(|_| GalleryError::Invalid(format!("bad display version: {s}")))?;
        Ok(DisplayVersion { major, minor })
    }

    /// New instance of the same model (retrain or dependency update).
    pub fn bump_minor(self) -> Self {
        DisplayVersion::new(self.major, self.minor + 1)
    }

    /// New model approach.
    pub fn bump_major(self) -> Self {
        DisplayVersion::new(self.major + 1, 0)
    }
}

impl fmt::Display for DisplayVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.major, self.minor)
    }
}

/// Why a model instance version was created. Distinguishes real retrains
/// from the automatic bookkeeping versions created when upstream
/// dependencies change (Fig 6: "Considering that there is no real change of
/// Model A, X or Y, we automatically update the model instance version ...
/// without changing the production versions").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum InstanceTrigger {
    /// A real training run produced this instance.
    Trained,
    /// An upstream model published a new instance; this version exists so
    /// the owner can *choose* to upgrade (Fig 6).
    DependencyUpdate { upstream_model: String },
    /// A new dependency edge was added to this model (Fig 7).
    DependencyAdded { new_dependency: String },
}

impl InstanceTrigger {
    /// Encode for storage in a metadata column.
    pub fn encode(&self) -> String {
        match self {
            InstanceTrigger::Trained => "trained".to_owned(),
            InstanceTrigger::DependencyUpdate { upstream_model } => {
                format!("dep_update:{upstream_model}")
            }
            InstanceTrigger::DependencyAdded { new_dependency } => {
                format!("dep_added:{new_dependency}")
            }
        }
    }

    pub fn decode(s: &str) -> Result<Self> {
        let (kind, argument) = Self::split(s)?;
        Ok(match kind {
            TriggerKind::Trained => InstanceTrigger::Trained,
            TriggerKind::DependencyUpdate => InstanceTrigger::DependencyUpdate {
                upstream_model: argument.to_owned(),
            },
            TriggerKind::DependencyAdded => InstanceTrigger::DependencyAdded {
                new_dependency: argument.to_owned(),
            },
        })
    }

    /// Check stored text as [`InstanceTrigger::decode`] does, with the
    /// same error, without building a trigger: a reply written from the
    /// row carries the text itself, which [`InstanceTrigger::encode`] of
    /// the decoded trigger gives back unchanged.
    pub fn check(s: &str) -> Result<()> {
        Self::split(s).map(drop)
    }

    /// The kind of a stored trigger and its argument, borrowed from it.
    fn split(s: &str) -> Result<(TriggerKind, &str)> {
        if s == "trained" {
            return Ok((TriggerKind::Trained, ""));
        }
        if let Some(rest) = s.strip_prefix("dep_update:") {
            return Ok((TriggerKind::DependencyUpdate, rest));
        }
        if let Some(rest) = s.strip_prefix("dep_added:") {
            return Ok((TriggerKind::DependencyAdded, rest));
        }
        Err(GalleryError::Invalid(format!("bad instance trigger: {s}")))
    }

    pub fn is_automatic(&self) -> bool {
        !matches!(self, InstanceTrigger::Trained)
    }
}

/// [`InstanceTrigger`]'s variants without their arguments.
enum TriggerKind {
    Trained,
    DependencyUpdate,
    DependencyAdded,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_display_roundtrip() {
        let v = DisplayVersion::parse("4.1").unwrap();
        assert_eq!(v, DisplayVersion::new(4, 1));
        assert_eq!(v.to_string(), "4.1");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(DisplayVersion::parse("4").is_err());
        assert!(DisplayVersion::parse("a.b").is_err());
        assert!(DisplayVersion::parse("1.2.3").is_err());
    }

    #[test]
    fn bumps() {
        let v = DisplayVersion::new(4, 1);
        assert_eq!(v.bump_minor(), DisplayVersion::new(4, 2));
        assert_eq!(v.bump_major(), DisplayVersion::new(5, 0));
    }

    #[test]
    fn ordering() {
        assert!(DisplayVersion::new(2, 1) > DisplayVersion::new(2, 0));
        assert!(DisplayVersion::new(3, 0) > DisplayVersion::new(2, 9));
    }

    #[test]
    fn trigger_encode_decode() {
        for t in [
            InstanceTrigger::Trained,
            InstanceTrigger::DependencyUpdate {
                upstream_model: "model-b".into(),
            },
            InstanceTrigger::DependencyAdded {
                new_dependency: "model-d".into(),
            },
        ] {
            assert_eq!(InstanceTrigger::decode(&t.encode()).unwrap(), t);
            InstanceTrigger::check(&t.encode()).unwrap();
        }
        for bogus in ["bogus", "Trained", "dep_update", "trained:x"] {
            let err = InstanceTrigger::decode(bogus).unwrap_err();
            assert_eq!(InstanceTrigger::check(bogus).unwrap_err(), err);
        }
    }

    #[test]
    fn automatic_flag() {
        assert!(!InstanceTrigger::Trained.is_automatic());
        assert!(InstanceTrigger::DependencyUpdate {
            upstream_model: "m".into()
        }
        .is_automatic());
    }
}
