//! Compact model checkpoints: `(seed, k tracked entries)`.
//!
//! A DropBack-trained network is fully described by its initialization
//! seed plus the `k` tracked index/value pairs — everything else
//! regenerates. This module serializes exactly that, making the paper's
//! compression columns concrete in bytes on disk.
//!
//! This is the **v1** (`DROPBKv1`) final-model format: weights only, no
//! optimizer or loop state. Resumable mid-training snapshots use the v2
//! format in [`crate::TrainState`]. Both formats share the
//! [`CheckpointError`] type; see `docs/CHECKPOINTS.md` for the byte
//! layouts and recovery semantics.

use dropback_nn::Network;
use dropback_optim::StateError;
use std::fmt;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 8] = b"DROPBKv1";

/// Upper bound on speculative `Vec` pre-allocation while deserializing.
/// A corrupt or hostile length field can claim up to `u64::MAX` entries;
/// we never reserve more than this up front — reads past it grow the
/// vector only as bytes actually arrive, so a truncated stream errors out
/// instead of triggering a giant allocation.
const MAX_PREALLOC_ENTRIES: usize = 1 << 16;

/// Why a checkpoint could not be read, validated, or applied.
#[derive(Debug)]
pub enum CheckpointError {
    /// An underlying I/O failure (open, read, write, fsync, rename).
    Io(io::Error),
    /// The bytes are not a valid checkpoint: bad magic, truncated stream,
    /// checksum mismatch, or an out-of-bounds length field.
    InvalidData(String),
    /// The checkpoint's regeneration seed disagrees with the network it is
    /// being applied to — untracked weights would regenerate differently.
    SeedMismatch {
        /// Seed of the target network.
        expected: u64,
        /// Seed recorded in the checkpoint.
        found: u64,
    },
    /// A mask or state vector has the wrong length for the target network.
    LengthMismatch {
        /// Length the network requires.
        expected: usize,
        /// Length that was provided.
        found: usize,
    },
    /// A stored weight index does not exist in the target network.
    IndexOutOfRange {
        /// The offending index.
        index: u64,
        /// The network's parameter count.
        len: usize,
    },
    /// The snapshot is well-formed but belongs to a different run: wrong
    /// model, optimizer, shuffle seed, or optimizer configuration.
    Incompatible(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::InvalidData(what) => write!(f, "invalid checkpoint data: {what}"),
            CheckpointError::SeedMismatch { expected, found } => write!(
                f,
                "checkpoint seed {found} does not match network seed {expected}; \
                 rebuild the network with the checkpoint's seed"
            ),
            CheckpointError::LengthMismatch { expected, found } => write!(
                f,
                "length mismatch: got {found}, network has {expected} parameters"
            ),
            CheckpointError::IndexOutOfRange { index, len } => write!(
                f,
                "checkpoint index {index} out of range for a {len}-parameter network"
            ),
            CheckpointError::Incompatible(what) => write!(f, "incompatible checkpoint: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<StateError> for CheckpointError {
    fn from(e: StateError) -> Self {
        CheckpointError::Incompatible(e.to_string())
    }
}

impl CheckpointError {
    /// Whether this error means *the bytes on disk are bad* (truncation,
    /// bit-rot, torn write) rather than a caller mistake. Corruption is
    /// what [`crate::CheckpointStore`] falls back past on load.
    pub fn is_corruption(&self) -> bool {
        match self {
            CheckpointError::InvalidData(_) => true,
            CheckpointError::Io(e) => e.kind() == io::ErrorKind::UnexpectedEof,
            _ => false,
        }
    }
}

/// A compact checkpoint of a weight-budget-trained model.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    seed: u64,
    entries: Vec<(u64, f32)>,
}

impl Checkpoint {
    /// Captures a checkpoint from a dense store plus a tracked mask
    /// (e.g. [`dropback_optim::DropBack::mask`]).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::LengthMismatch`] if `mask.len()` differs
    /// from the parameter count.
    pub fn from_mask(net: &Network, mask: &[bool]) -> Result<Self, CheckpointError> {
        if mask.len() != net.num_params() {
            return Err(CheckpointError::LengthMismatch {
                expected: net.num_params(),
                found: mask.len(),
            });
        }
        let entries: Vec<(u64, f32)> = mask
            .iter()
            .enumerate()
            .filter(|(_, &m)| m)
            .map(|(i, _)| (i as u64, net.store().params()[i]))
            .collect();
        Ok(Self {
            seed: net.store().seed(),
            entries,
        })
    }

    /// The regeneration seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of stored weights.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the checkpoint stores no weights.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serialized size in bytes (what actually ships to the device).
    pub fn size_bytes(&self) -> usize {
        MAGIC.len() + 8 + 8 + self.entries.len() * 12
    }

    /// Restores the tracked weights into a freshly-constructed network.
    /// The network **must** have been built with the same architecture and
    /// seed; untracked weights are already correct by regeneration.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::SeedMismatch`] if the checkpoint seed
    /// disagrees with the network's, or
    /// [`CheckpointError::IndexOutOfRange`] if an index does not exist in
    /// the network. The network is not modified on error.
    pub fn apply(&self, net: &mut Network) -> Result<(), CheckpointError> {
        if self.seed != net.store().seed() {
            return Err(CheckpointError::SeedMismatch {
                expected: net.store().seed(),
                found: self.seed,
            });
        }
        let n = net.num_params();
        // Validate every index before the first write so a bad checkpoint
        // cannot leave the network half-applied.
        if let Some(&(bad, _)) = self.entries.iter().find(|&&(i, _)| i as usize >= n) {
            return Err(CheckpointError::IndexOutOfRange { index: bad, len: n });
        }
        for &(i, w) in &self.entries {
            net.store_mut().params_mut()[i as usize] = w;
        }
        Ok(())
    }

    /// Writes the checkpoint (little-endian binary).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_to(&self, mut w: impl Write) -> io::Result<()> {
        w.write_all(MAGIC)?;
        w.write_all(&self.seed.to_le_bytes())?;
        w.write_all(&(self.entries.len() as u64).to_le_bytes())?;
        for &(i, v) in &self.entries {
            w.write_all(&i.to_le_bytes())?;
            w.write_all(&v.to_le_bytes())?;
        }
        Ok(())
    }

    /// Reads a checkpoint previously written by [`Checkpoint::write_to`].
    ///
    /// The declared entry count is never trusted for allocation: at most
    /// 65,536 entries are reserved up front, and
    /// the vector grows only as entry bytes actually arrive, so a
    /// truncated or hostile stream fails with an error instead of an
    /// attacker-sized allocation.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::InvalidData`] on a bad magic header and
    /// [`CheckpointError::Io`] (`UnexpectedEof`) on a truncated stream.
    pub fn read_from(mut r: impl Read) -> Result<Self, CheckpointError> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(CheckpointError::InvalidData(
                "not a DropBack v1 checkpoint (bad magic)".into(),
            ));
        }
        let mut b8 = [0u8; 8];
        r.read_exact(&mut b8)?;
        let seed = u64::from_le_bytes(b8);
        r.read_exact(&mut b8)?;
        let declared = u64::from_le_bytes(b8);
        let n = usize::try_from(declared).map_err(|_| {
            CheckpointError::InvalidData(format!("entry count {declared} exceeds address space"))
        })?;
        let mut entries = Vec::with_capacity(n.min(MAX_PREALLOC_ENTRIES));
        let mut b4 = [0u8; 4];
        for _ in 0..n {
            r.read_exact(&mut b8)?;
            let i = u64::from_le_bytes(b8);
            r.read_exact(&mut b4)?;
            entries.push((i, f32::from_le_bytes(b4)));
        }
        Ok(Self { seed, entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dropback_data::synthetic_mnist;
    use dropback_nn::models;
    use dropback_optim::{DropBack, Optimizer as _};

    fn trained() -> (Network, DropBack) {
        let (train, _) = synthetic_mnist(300, 50, 5);
        let mut net = models::mnist_100_100(5);
        let mut opt = DropBack::new(4_000);
        let batcher = dropback_data::Batcher::new(64, 1);
        for (x, labels) in batcher.epoch(&train, 0) {
            let _ = net.loss_backward(&x, &labels);
            opt.step(net.store_mut(), 0.1);
        }
        (net, opt)
    }

    #[test]
    fn roundtrip_through_bytes_is_bit_exact() {
        let (net, opt) = trained();
        let ckpt = Checkpoint::from_mask(&net, opt.mask()).unwrap();
        let mut buf = Vec::new();
        ckpt.write_to(&mut buf).unwrap();
        assert_eq!(buf.len(), ckpt.size_bytes());
        let loaded = Checkpoint::read_from(&buf[..]).unwrap();
        assert_eq!(ckpt, loaded);
        // Rebuild the model from architecture + checkpoint only.
        let mut rebuilt = models::mnist_100_100(5);
        loaded.apply(&mut rebuilt).unwrap();
        assert_eq!(net.store().params(), rebuilt.store().params());
    }

    #[test]
    fn checkpoint_is_small() {
        let (net, opt) = trained();
        let ckpt = Checkpoint::from_mask(&net, opt.mask()).unwrap();
        assert!(ckpt.len() <= 4_000);
        // 89,610 f32s dense = 358 KB; 4k entries = 48 KB + header.
        assert!(ckpt.size_bytes() < 50_000);
    }

    #[test]
    fn from_mask_stores_exactly_the_tracked_weights() {
        let (net, opt) = trained();
        let ckpt = Checkpoint::from_mask(&net, opt.mask()).unwrap();
        assert_eq!(ckpt.len(), opt.tracked_count());
        let indices: Vec<u64> = ckpt.entries.iter().map(|&(i, _)| i).collect();
        assert!(indices.windows(2).all(|w| w[0] < w[1]), "not index-ordered");
        for &(i, w) in &ckpt.entries {
            assert!(opt.mask()[i as usize]);
            assert_eq!(w.to_bits(), net.store().params()[i as usize].to_bits());
        }
    }

    #[test]
    fn bad_mask_length_is_a_typed_error() {
        let (net, _) = trained();
        let err = Checkpoint::from_mask(&net, &[true; 3]).unwrap_err();
        match err {
            CheckpointError::LengthMismatch { expected, found } => {
                assert_eq!(expected, net.num_params());
                assert_eq!(found, 3);
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn wrong_seed_is_a_typed_error_not_a_panic() {
        let (net, opt) = trained();
        let ckpt = Checkpoint::from_mask(&net, opt.mask()).unwrap();
        let mut other = models::mnist_100_100(999);
        let before = other.store().params().to_vec();
        let err = ckpt.apply(&mut other).unwrap_err();
        assert!(matches!(err, CheckpointError::SeedMismatch { .. }));
        assert!(err.to_string().contains("seed"));
        // Failed apply must not touch the network.
        assert_eq!(other.store().params(), &before[..]);
    }

    #[test]
    fn out_of_range_index_is_rejected_before_any_write() {
        let (net, _) = trained();
        let ckpt = Checkpoint {
            seed: net.store().seed(),
            entries: vec![(0, 1.0), (u64::MAX, 2.0)],
        };
        let mut target = models::mnist_100_100(5);
        let before = target.store().params().to_vec();
        let err = ckpt.apply(&mut target).unwrap_err();
        assert!(matches!(err, CheckpointError::IndexOutOfRange { .. }));
        assert_eq!(target.store().params(), &before[..], "partial apply");
    }

    #[test]
    fn bad_magic_is_an_error() {
        let err = Checkpoint::read_from(&b"NOTDROPB romuald"[..]).unwrap_err();
        assert!(matches!(err, CheckpointError::InvalidData(_)));
        assert!(err.is_corruption());
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let (net, opt) = trained();
        let ckpt = Checkpoint::from_mask(&net, opt.mask()).unwrap();
        let mut buf = Vec::new();
        ckpt.write_to(&mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        let err = Checkpoint::read_from(&buf[..]).unwrap_err();
        assert!(err.is_corruption());
    }

    #[test]
    fn hostile_entry_count_does_not_preallocate() {
        // Header claims u64::MAX entries but carries none: the reader must
        // fail on EOF without reserving attacker-sized memory first.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&7u64.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        let err = Checkpoint::read_from(&buf[..]).unwrap_err();
        assert!(err.is_corruption());
    }
}
