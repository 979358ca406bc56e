//! Seeded corruption fuzzing of both checkpoint formats: every truncation
//! and every seeded bit-flip must produce a clean typed error (or, for
//! the CRC-less v1 format, at worst a well-formed wrong read) — never a
//! panic and never an attacker-sized allocation.

use dropback::prelude::*;
use dropback::prng::Xorshift64;

const FLIP_TRIALS: u64 = 300;

fn v1_bytes() -> Vec<u8> {
    let mut net = models::mnist_100_100(3);
    let mut opt = DropBack::new(2_000);
    let (train, _) = synthetic_mnist(128, 32, 3);
    for (x, labels) in Batcher::new(64, 1).epoch(&train, 0) {
        let _ = net.loss_backward(&x, &labels);
        opt.step(net.store_mut(), 0.1);
    }
    let ckpt = Checkpoint::from_mask(&net, opt.mask()).unwrap();
    let mut buf = Vec::new();
    ckpt.write_to(&mut buf).unwrap();
    buf
}

fn v2_bytes() -> Vec<u8> {
    let mut net = models::mnist_100_100(3);
    let mut opt = DropBack::new(2_000);
    let (train, _) = synthetic_mnist(128, 32, 3);
    for (x, labels) in Batcher::new(64, 1).epoch(&train, 0) {
        let _ = net.loss_backward(&x, &labels);
        opt.step(net.store_mut(), 0.1);
    }
    let state = TrainState::capture(&net, &opt, 1, &TrainProgress::fresh());
    let mut buf = Vec::new();
    state.write_to(&mut buf).unwrap();
    buf
}

/// Every possible truncation point in the header region plus a seeded
/// sample of the body: a clean error every time, no panic, no OOM.
#[test]
fn truncated_v2_snapshots_always_error_cleanly() {
    let buf = v2_bytes();
    let mut cuts: Vec<usize> = (0..64.min(buf.len())).collect();
    let mut rng = Xorshift64::new(0xC0FFEE);
    for _ in 0..FLIP_TRIALS {
        cuts.push((rng.next_u64() % buf.len() as u64) as usize);
    }
    for cut in cuts {
        let err =
            TrainState::read_from(&buf[..cut]).expect_err("a truncated snapshot must never parse");
        assert!(err.is_corruption(), "cut at {cut}: {err}");
    }
}

#[test]
fn truncated_v1_checkpoints_always_error_cleanly() {
    let buf = v1_bytes();
    let mut cuts: Vec<usize> = (0..64.min(buf.len())).collect();
    let mut rng = Xorshift64::new(0xBEEF);
    for _ in 0..FLIP_TRIALS {
        cuts.push((rng.next_u64() % buf.len() as u64) as usize);
    }
    for cut in cuts {
        let err = Checkpoint::read_from(&buf[..cut])
            .expect_err("a truncated checkpoint must never parse");
        assert!(err.is_corruption(), "cut at {cut}: {err}");
    }
}

/// The v2 format is CRC-protected: *any* single-bit flip anywhere in the
/// file must be detected.
#[test]
fn bit_flipped_v2_snapshots_are_always_detected() {
    let buf = v2_bytes();
    let mut rng = Xorshift64::new(0xF11B);
    for trial in 0..FLIP_TRIALS {
        let offset = (rng.next_u64() % buf.len() as u64) as usize;
        let bit = 1u8 << (rng.next_u64() % 8);
        let mut bad = buf.clone();
        bad[offset] ^= bit;
        let err = TrainState::read_from(&bad[..]).expect_err("flip must be detected");
        assert!(
            err.is_corruption(),
            "trial {trial}: flip at byte {offset} bit {bit:#04x} gave non-corruption error {err}"
        );
    }
}

/// The v1 format has no checksum, so a flipped weight byte can read back
/// "successfully" — but it must *never* panic, and any structural damage
/// (magic, counts) must surface as a typed error.
#[test]
fn bit_flipped_v1_checkpoints_never_panic() {
    let buf = v1_bytes();
    let mut rng = Xorshift64::new(0xDEAD_BEEF);
    for _ in 0..FLIP_TRIALS {
        let offset = (rng.next_u64() % buf.len() as u64) as usize;
        let bit = 1u8 << (rng.next_u64() % 8);
        let mut bad = buf.clone();
        bad[offset] ^= bit;
        match Checkpoint::read_from(&bad[..]) {
            // A flip in an entry's bytes is undetectable without a CRC;
            // the read succeeds with one wrong entry. Applying it must
            // still be safe: either it applies or errors, no panic.
            Ok(ckpt) => {
                let mut net = models::mnist_100_100(3);
                let _ = ckpt.apply(&mut net);
            }
            Err(err) => {
                assert!(
                    err.is_corruption(),
                    "flip at {offset} gave non-corruption error {err}"
                );
            }
        }
    }
}

/// Multi-byte garbage: random writes over random spans, both formats.
#[test]
fn scribbled_spans_never_panic_either_format() {
    let v1 = v1_bytes();
    let v2 = v2_bytes();
    let mut rng = Xorshift64::new(0x5C12_BB1E);
    for _ in 0..FLIP_TRIALS {
        for (buf, is_v2) in [(&v1, false), (&v2, true)] {
            let start = (rng.next_u64() % buf.len() as u64) as usize;
            let span = 1 + (rng.next_u64() % 32) as usize;
            let mut bad = buf.clone();
            for b in bad.iter_mut().skip(start).take(span) {
                *b = rng.next_u64() as u8;
            }
            if is_v2 {
                // CRC catches every scribble (a scribble that happens to
                // write back identical bytes is a no-op and parses fine).
                if bad != *buf {
                    assert!(TrainState::read_from(&bad[..]).is_err());
                }
            } else {
                let _ = Checkpoint::read_from(&bad[..]);
            }
        }
    }
}
