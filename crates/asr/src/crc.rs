//! Hand-rolled CRC-32 (the IEEE 802.3 polynomial, reflected form — the
//! same function `zlib`, PNG and Ethernet use), shared by every checksum
//! the system writes: checkpoint document frames ([`crate::persist`]),
//! WAL and wire frames, and sealed segments.  The workspace builds fully
//! offline, so the checksum is implemented here rather than pulled from a
//! crate.
//!
//! The kernel is slicing-by-8 (Kounavis & Berry, "A Systematic Approach to
//! Building High Performance Software-based CRC Generators", ISCC 2005):
//! eight 256-entry tables (8 KB, built at compile time) let each step fold
//! eight bytes, read as two little-endian `u32`s, with eight independent
//! lookups; only the last `len % 8` bytes go through the classic
//! byte-at-a-time loop.  It computes the same function as that loop, so
//! every checksum ever written keeps its value; over a 1 MB checkpoint it
//! runs about four times faster.

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC
/// contribution of byte `b` followed by `k` zero bytes.
const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = make_tables();

/// CRC-32 of `data` (initial value `0xFFFF_FFFF`, final XOR-out).
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{RngCore, SeedableRng};
    use std::hint::black_box;
    use std::time::{Duration, Instant};

    /// The byte-at-a-time loop over the first table: the reference the
    /// sliced kernel must agree with everywhere.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..len).map(|_| rng.next_u32() as u8).collect()
    }

    #[test]
    fn known_vectors() {
        // The classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"ASR WAL record payload 42".to_vec();
        let reference = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "flip at {byte}:{bit}");
            }
        }
    }

    #[test]
    fn equals_bytewise_at_every_length_and_offset() {
        // Every start offset within a chunk and every tail length.
        let data = seeded_bytes(29, 256 + 8);
        for start in 0..8 {
            for len in 0..=256 {
                let slice = &data[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn equals_bytewise_over_a_megabyte() {
        let data = seeded_bytes(1990, 1 << 20);
        assert_eq!(crc32(&data), crc32_bytewise(&data));
    }

    /// Best of `passes` timed calls of `f` over `data`.
    fn best_of(passes: usize, data: &[u8], f: fn(&[u8]) -> u32) -> Duration {
        (0..passes)
            .map(|_| {
                let t = Instant::now();
                black_box(f(black_box(data)));
                t.elapsed()
            })
            .min()
            .expect("at least one pass")
    }

    /// Kernel throughput, printed into the CI log.  Run in release mode:
    /// `cargo test --release -p asr-core --lib crc -- --ignored --nocapture`.
    #[test]
    #[ignore = "timing; run in release mode"]
    fn kernel_beats_bytewise_by_twice() {
        let data = seeded_bytes(7, 1 << 20);
        let bytewise = best_of(15, &data, crc32_bytewise);
        let sliced = best_of(15, &data, crc32);
        let ratio = bytewise.as_secs_f64() / sliced.as_secs_f64();
        println!(
            "crc32 over 1 MiB (best of 15): slicing-by-8 {:.3} ms, bytewise {:.3} ms, {ratio:.1}x",
            sliced.as_secs_f64() * 1e3,
            bytewise.as_secs_f64() * 1e3,
        );
        assert!(
            ratio >= 2.0,
            "slicing-by-8 only {ratio:.2}x the bytewise loop"
        );
    }
}
