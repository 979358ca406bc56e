//! Serializable optimizer state for crash-safe training.
//!
//! A resumable checkpoint must round-trip the *optimizer's* accumulators —
//! the tracked map, momentum velocities, step counters — bit-for-bit, or a
//! resumed run diverges from an uninterrupted one on the first step after
//! restore. [`OptState`] is the neutral carrier: an ordered list of named
//! fields, each one of a small set of shapes ([`StateField`]), captured by
//! [`crate::Optimizer::snapshot_state`] and re-applied by
//! [`crate::Optimizer::restore_state`].
//!
//! The field list is a `Vec`, not a map, so snapshot order is exactly the
//! order the optimizer pushed — serialization downstream is deterministic
//! without any sorting step, and the `dropback-lint` `hash-iteration` rule
//! stays happy by construction.

use std::fmt;

/// One named piece of optimizer state.
///
/// Floats are always round-tripped through their IEEE-754 bits, never
/// through text, so a snapshot/restore cycle is exact.
#[derive(Debug, Clone, PartialEq)]
pub enum StateField {
    /// A scalar counter, flag, or f32-as-bits configuration value.
    U64(u64),
    /// A dense per-weight vector (momentum velocity, Adam moments, ...).
    F32s(Vec<f32>),
    /// A sparse index → value map in ascending index order. No rule in
    /// this crate emits one any more; the shape stays so snapshots written
    /// by the retired `dropback-sparse` rule still decode (and are then
    /// refused by name).
    Pairs(Vec<(u64, f32)>),
    /// A dense boolean mask (the tracked mask of [`crate::DropBack`]).
    Bools(Vec<bool>),
}

impl StateField {
    /// Short shape name for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            StateField::U64(_) => "u64",
            StateField::F32s(_) => "f32s",
            StateField::Pairs(_) => "pairs",
            StateField::Bools(_) => "bools",
        }
    }
}

/// Why a [`crate::Optimizer::restore_state`] call was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum StateError {
    /// Snapshot was taken from a different optimizer.
    NameMismatch {
        /// The optimizer asked to restore.
        expected: String,
        /// The optimizer named in the snapshot.
        found: String,
    },
    /// A field the optimizer needs is absent from the snapshot.
    Missing(&'static str),
    /// A field exists but with the wrong [`StateField`] shape.
    WrongType {
        /// Field name.
        field: &'static str,
        /// Shape the optimizer expected.
        expected: &'static str,
        /// Shape found in the snapshot.
        found: &'static str,
    },
    /// A configuration value baked into the snapshot (budget `k`, freeze
    /// epoch, momentum coefficient) disagrees with the constructed
    /// optimizer — resuming would silently train a different rule.
    ConfigMismatch {
        /// Field name.
        field: &'static str,
        /// Value of the constructed optimizer.
        expected: u64,
        /// Value in the snapshot.
        found: u64,
    },
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::NameMismatch { expected, found } => write!(
                f,
                "optimizer state is for {found:?}, cannot restore into {expected:?}"
            ),
            StateError::Missing(field) => write!(f, "optimizer state field {field:?} is missing"),
            StateError::WrongType {
                field,
                expected,
                found,
            } => write!(
                f,
                "optimizer state field {field:?} has shape {found}, expected {expected}"
            ),
            StateError::ConfigMismatch {
                field,
                expected,
                found,
            } => write!(
                f,
                "optimizer config {field:?} mismatch: snapshot has {found}, \
                 constructed optimizer has {expected}; resume with the original settings"
            ),
        }
    }
}

impl std::error::Error for StateError {}

/// A snapshot of one optimizer's mutable state (plus the configuration
/// values needed to validate a restore).
#[derive(Debug, Clone, PartialEq)]
pub struct OptState {
    name: String,
    fields: Vec<(String, StateField)>,
}

impl OptState {
    /// Creates an empty snapshot tagged with the optimizer's name.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            fields: Vec::new(),
        }
    }

    /// The optimizer name this snapshot was captured from.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The fields in capture order.
    pub fn fields(&self) -> &[(String, StateField)] {
        &self.fields
    }

    /// Appends a field (capture order is serialization order).
    pub fn push(&mut self, name: &str, field: StateField) {
        self.fields.push((name.to_string(), field));
    }

    /// Builder-style [`OptState::push`].
    pub fn with(mut self, name: &str, field: StateField) -> Self {
        self.push(name, field);
        self
    }

    fn lookup(&self, name: &'static str) -> Result<&StateField, StateError> {
        self.fields
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, f)| f)
            .ok_or(StateError::Missing(name))
    }

    /// Reads a scalar field.
    pub fn u64(&self, name: &'static str) -> Result<u64, StateError> {
        match self.lookup(name)? {
            StateField::U64(v) => Ok(*v),
            other => Err(StateError::WrongType {
                field: name,
                expected: "u64",
                found: other.kind(),
            }),
        }
    }

    /// Reads a dense float vector field.
    pub fn f32s(&self, name: &'static str) -> Result<&[f32], StateError> {
        match self.lookup(name)? {
            StateField::F32s(v) => Ok(v),
            other => Err(StateError::WrongType {
                field: name,
                expected: "f32s",
                found: other.kind(),
            }),
        }
    }

    /// Reads a boolean mask field.
    pub fn bools(&self, name: &'static str) -> Result<&[bool], StateError> {
        match self.lookup(name)? {
            StateField::Bools(v) => Ok(v),
            other => Err(StateError::WrongType {
                field: name,
                expected: "bools",
                found: other.kind(),
            }),
        }
    }

    /// Rejects a snapshot captured from a different optimizer.
    pub fn expect_name(&self, expected: &str) -> Result<(), StateError> {
        if self.name == expected {
            Ok(())
        } else {
            Err(StateError::NameMismatch {
                expected: expected.to_string(),
                found: self.name.clone(),
            })
        }
    }

    /// Validates that a configuration scalar in the snapshot matches the
    /// constructed optimizer's value.
    pub fn expect_u64(&self, name: &'static str, expected: u64) -> Result<(), StateError> {
        let found = self.u64(name)?;
        if found == expected {
            Ok(())
        } else {
            Err(StateError::ConfigMismatch {
                field: name,
                expected,
                found,
            })
        }
    }
}

/// Encodes an optional epoch (e.g. `freeze_after`) as a u64 scalar;
/// `None` becomes `u64::MAX`, which no realistic epoch budget reaches.
pub(crate) fn encode_opt_epoch(v: Option<usize>) -> u64 {
    match v {
        Some(e) => e as u64,
        None => u64::MAX,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_getters_round_trip() {
        let s = OptState::new("x")
            .with("a", StateField::U64(7))
            .with("b", StateField::F32s(vec![1.5, -2.0]))
            .with("c", StateField::Pairs(vec![(3, 0.5)]))
            .with("d", StateField::Bools(vec![true, false]));
        assert_eq!(s.u64("a").unwrap(), 7);
        assert_eq!(s.f32s("b").unwrap(), &[1.5, -2.0]);
        assert_eq!(s.bools("d").unwrap(), &[true, false]);
    }

    #[test]
    fn missing_and_wrong_type_are_reported() {
        let s = OptState::new("x").with("a", StateField::U64(7));
        assert_eq!(s.u64("nope"), Err(StateError::Missing("nope")));
        assert!(matches!(
            s.f32s("a"),
            Err(StateError::WrongType {
                field: "a",
                expected: "f32s",
                found: "u64",
            })
        ));
    }

    #[test]
    fn name_and_config_validation() {
        let s = OptState::new("sgd").with("k", StateField::U64(10));
        assert!(s.expect_name("sgd").is_ok());
        assert!(matches!(
            s.expect_name("adam"),
            Err(StateError::NameMismatch { .. })
        ));
        assert!(s.expect_u64("k", 10).is_ok());
        assert!(matches!(
            s.expect_u64("k", 11),
            Err(StateError::ConfigMismatch {
                field: "k",
                expected: 11,
                found: 10,
            })
        ));
    }

    #[test]
    fn opt_epoch_encoding() {
        assert_eq!(encode_opt_epoch(None), u64::MAX);
        assert_eq!(encode_opt_epoch(Some(3)), 3);
    }

    #[test]
    fn errors_render_actionable_messages() {
        let e = StateError::ConfigMismatch {
            field: "k",
            expected: 5,
            found: 9,
        };
        let msg = e.to_string();
        assert!(msg.contains("snapshot has 9"));
        assert!(msg.contains("resume with the original settings"));
    }
}
