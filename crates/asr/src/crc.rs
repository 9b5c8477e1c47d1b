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
//! byte-at-a-time loop.  From 4 KiB up the input is cut into four lanes
//! whose slicing-by-8 steps are interleaved, so four independent chains
//! of lookups overlap in the CPU instead of each waiting on the one
//! before; the four lane CRCs are then joined with [`crc32_combine`]
//! (zlib's shift of a CRC past zero bytes in GF(2)).  Every path computes
//! the same function as the byte-at-a-time loop, so every checksum ever
//! written keeps its value.

const POLY: u32 = 0xEDB8_8320;

/// Inputs from this length up run on four interleaved lanes.
const LANES_FROM: usize = 4096;

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

/// `a · b` modulo the polynomial, both in the reflected bit order
/// (`1 << 31` is `x^0`).
const fn mult_mod_p(a: u32, mut b: u32) -> u32 {
    let mut m = 1u32 << 31;
    let mut p = 0;
    while m != 0 {
        if a & m != 0 {
            p ^= b;
        }
        m >>= 1;
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
    }
    p
}

/// `X2N[k]` is `x^(2^k)` modulo the polynomial; `x`'s order divides
/// `2^32 − 1`, so `x^(2^k)` repeats with period 32 in `k`.
const fn make_x2n() -> [u32; 32] {
    let mut table = [0u32; 32];
    let mut p = 1u32 << 30; // x^1
    let mut k = 0;
    while k < 32 {
        table[k] = p;
        p = mult_mod_p(p, p);
        k += 1;
    }
    table
}

static X2N: [u32; 32] = make_x2n();

/// `x^(8·bytes)` modulo the polynomial: the operator that moves a CRC
/// past `bytes` zero bytes.
fn zero_bytes_operator(bytes: u64) -> u32 {
    let mut p = 1u32 << 31; // x^0
    let mut n = bytes;
    let mut k = 3; // 8 = 2^3 bits per byte
    while n != 0 {
        if n & 1 != 0 {
            p = mult_mod_p(X2N[k & 31], p);
        }
        n >>= 1;
        k += 1;
    }
    p
}

/// The CRC-32 of `a ‖ b` from `crc_a`, the CRC-32 of `a`, and `crc_b`,
/// the CRC-32 of `b`, which is `len_b` bytes long.
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    mult_mod_p(zero_bytes_operator(len_b), crc_a) ^ crc_b
}

/// Fold `data` into the CRC register `c` (no pre- or post-conditioning).
#[inline(always)]
fn update(mut c: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        c = step(c, chunk);
    }
    for &b in chunks.remainder() {
        c = TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// One slicing-by-8 step: fold the eight bytes of `chunk` into `c`.
#[inline(always)]
fn step(c: u32, chunk: &[u8]) -> u32 {
    let t = &TABLES;
    let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
    t[7][(lo & 0xFF) as usize]
        ^ t[6][((lo >> 8) & 0xFF) as usize]
        ^ t[5][((lo >> 16) & 0xFF) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][(hi & 0xFF) as usize]
        ^ t[2][((hi >> 8) & 0xFF) as usize]
        ^ t[1][((hi >> 16) & 0xFF) as usize]
        ^ t[0][(hi >> 24) as usize]
}

/// CRC-32 of `data` (initial value `0xFFFF_FFFF`, final XOR-out).
pub fn crc32(data: &[u8]) -> u32 {
    if data.len() < LANES_FROM {
        return !update(!0, data);
    }
    // Lanes 1–3 hold `lane` bytes each, a multiple of 8; lane 0 the rest.
    let lane = (data.len() / 4) & !7;
    let (first, rest) = data.split_at(data.len() - 3 * lane);
    let (second, rest) = rest.split_at(lane);
    let (third, fourth) = rest.split_at(lane);
    let mut c = [!0u32; 4];
    let lanes = (first.chunks_exact(8))
        .zip(second.chunks_exact(8))
        .zip(third.chunks_exact(8).zip(fourth.chunks_exact(8)));
    for ((a, b), (x, y)) in lanes {
        c[0] = step(c[0], a);
        c[1] = step(c[1], b);
        c[2] = step(c[2], x);
        c[3] = step(c[3], y);
    }
    let joined = !update(c[0], &first[lane..]);
    let joined = crc32_combine(joined, !c[1], lane as u64);
    let joined = crc32_combine(joined, !c[2], lane as u64);
    crc32_combine(joined, !c[3], lane as u64)
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

    /// Around the single-lane cut-over and every lane split: `len` just
    /// below and above 4 KiB, and lengths whose lane 0 takes 0–31 extra
    /// bytes over the others.
    #[test]
    fn equals_bytewise_around_every_lane_split() {
        let data = seeded_bytes(4096, 3 * LANES_FROM);
        let mut lens: Vec<usize> = (LANES_FROM - 16..LANES_FROM + 40).collect();
        for base in [LANES_FROM, 5000, 8192, 3 * LANES_FROM - 64] {
            lens.extend((base..base + 33).filter(|&n| n <= data.len()));
        }
        for len in lens {
            for start in [0, 1, 7] {
                let slice = &data[start..(start + len).min(data.len())];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "start {start} len {}",
                    slice.len()
                );
            }
        }
    }

    #[test]
    fn combine_joins_two_crcs() {
        let data = seeded_bytes(11, 700);
        for cut in [0, 1, 8, 255, 699, 700] {
            let (a, b) = data.split_at(cut);
            assert_eq!(
                crc32_combine(crc32(a), crc32(b), b.len() as u64),
                crc32(&data),
                "cut {cut}"
            );
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
        let single = best_of(15, &data, |d| !update(!0, d));
        let sliced = best_of(15, &data, crc32);
        let ratio = bytewise.as_secs_f64() / sliced.as_secs_f64();
        println!(
            "crc32 over 1 MiB (best of 15): 4 lanes of slicing-by-8 {:.3} ms, \
             one lane {:.3} ms, bytewise {:.3} ms, {ratio:.1}x",
            sliced.as_secs_f64() * 1e3,
            single.as_secs_f64() * 1e3,
            bytewise.as_secs_f64() * 1e3,
        );
        assert!(
            ratio >= 2.0,
            "slicing-by-8 only {ratio:.2}x the bytewise loop"
        );
    }
}
