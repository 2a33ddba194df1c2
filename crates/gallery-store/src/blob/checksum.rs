//! CRC-32 (IEEE 802.3 polynomial), implemented from scratch.
//!
//! Used to frame WAL entries and to verify blob integrity end-to-end
//! (model blobs are opaque binaries — §3.3.2 — so a checksum is the only
//! integrity signal the store can provide without interpreting them).
//!
//! The kernel is slice-by-8: eight 256-entry tables let one step fold
//! eight input bytes into the state with eight independent lookups,
//! where the bytewise loop has one lookup per byte, each waiting on the
//! last. Same polynomial, same values; safe, portable Rust.

/// Lookup tables for the reflected polynomial 0xEDB88320. `TABLES[0]` is
/// the classic bytewise table; `TABLES[k][b]` is the CRC state after byte
/// `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
}

/// Fold `data` into the running (pre-inverted) state `c`: eight bytes per
/// step while they last, then the bytewise tail.
fn fold(mut c: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut chunks = data.chunks_exact(8);
    for w in &mut chunks {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
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
    c
}

/// Compute the CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    fold(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Incremental CRC-32 hasher for streaming writes.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    pub fn update(&mut self, data: &[u8]) {
        self.state = fold(self.state, data);
    }

    pub fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The bit-at-a-time definition of CRC-32/IEEE: the reference the
    /// sliced kernel must agree with, sharing no table with it.
    fn crc32_reference(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.gen_range(0..256u64) as u8).collect()
    }

    #[test]
    fn known_vectors() {
        // Standard test vector for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sliced_matches_reference_at_every_length_and_alignment() {
        let mut rng = StdRng::seed_from_u64(0xC4C);
        let buf = random_bytes(&mut rng, 8 + 64);
        for start in 0..8 {
            for len in 0..=64 {
                let data = &buf[start..start + len];
                assert_eq!(
                    crc32(data),
                    crc32_reference(data),
                    "start {start}, len {len}"
                );
            }
        }
    }

    #[test]
    fn sliced_matches_reference_on_large_buffers() {
        let mut rng = StdRng::seed_from_u64(0xB10B);
        // Miri interprets every step; a few KiB already cover the loop.
        let max_kib = if cfg!(miri) { 4 } else { 70 };
        for _ in 0..4 {
            let len = rng.gen_range(1024..max_kib * 1024u64) as usize;
            let data = random_bytes(&mut rng, len);
            assert_eq!(crc32(&data), crc32_reference(&data), "len {len}");
        }
    }

    #[test]
    fn incremental_split_anywhere_matches_oneshot() {
        let data = b"hello world, this is a model blob";
        for split in 0..=data.len() {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), crc32(data), "split at {split}");
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0u8; 1024];
        data[512] = 0x42;
        let clean = crc32(&data);
        data[512] ^= 0x01;
        assert_ne!(crc32(&data), clean);
    }
}
