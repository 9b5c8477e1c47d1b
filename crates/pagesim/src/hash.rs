//! A fast hasher for in-memory maps keyed by OIDs and rows.
//!
//! The default SipHash guards against keys chosen to collide; the maps
//! here (a clustered file's OID index, a partition's row mirror) are
//! rebuilt on every snapshot load, one insert per object or row, and
//! their keys are a few 64-bit words each.  [`WordHasher`] folds each
//! word in with FxHash's rotate-xor-multiply step.  Adversarial keys
//! could make those maps slow, never wrong.

use std::hash::{BuildHasherDefault, Hasher};

/// FxHash's rotate-xor-multiply step over each word written.
#[derive(Debug, Default, Clone, Copy)]
pub struct WordHasher(u64);

/// Builds [`WordHasher`]s: `HashMap<K, V, WordBuildHasher>`.
pub type WordBuildHasher = BuildHasherDefault<WordHasher>;

impl WordHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(n.into());
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}
