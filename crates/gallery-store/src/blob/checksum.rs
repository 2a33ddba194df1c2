//! CRC-32 (IEEE 802.3 polynomial), implemented from scratch.
//!
//! Used to frame WAL entries and to verify blob integrity end-to-end
//! (model blobs are opaque binaries — §3.3.2 — so a checksum is the only
//! integrity signal the store can provide without interpreting them).
//!
//! Two kernels compute the same values; the platform picks one, no option
//! does:
//!
//! - **Carry-less multiply** (x86_64 with `pclmulqdq` and `sse4.1`, tested
//!   once at run time by `is_x86_feature_detected!`, which caches its
//!   answer). Inputs of at least `CLMUL_MIN_LEN` (64) bytes are folded
//!   64 bytes per step in four 128-bit lanes, the lanes folded into one, 16
//!   bytes per step after that, and the last 128 bits Barrett-reduced to
//!   32 (Gopal et al., "Fast CRC Computation for Generic Polynomials Using
//!   PCLMULQDQ Instruction", Intel, 2009). The sub-16-byte tail goes
//!   through the table loop. This module's `clmul` part is the only
//!   `unsafe` code in the crate: the `#[target_feature]` kernel and its
//!   unaligned 16-byte loads.
//! - **Slice-by-8**, safe and portable: eight 256-entry tables let one
//!   step fold eight input bytes into the state with eight independent
//!   lookups. It is the only kernel on other architectures, on CPUs
//!   without the two features and under Miri, it takes inputs shorter
//!   than the crossover, and the tests compare the fast kernel against it.

/// Lookup tables for the reflected polynomial 0xEDB88320. `TABLES[0]` is
/// the classic bytewise table; `TABLES[k][b]` is the CRC state after byte
/// `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = build_tables();

/// Shortest input the carry-less-multiply kernel takes: its four lanes
/// start from 64 bytes. It already wins there, fixed cost (lane merge and
/// Barrett reduction) included. Measured on a 2-vCPU x86_64 host, best of
/// seven: 64 bytes take 13–14 ns against slice-by-8's 33–46 ns, 128 bytes
/// 17–18 ns against 85–88 ns, and 16 KiB 0.93–0.97 µs against 14.6 µs.
#[cfg_attr(not(all(target_arch = "x86_64", not(miri))), allow(dead_code))]
const CLMUL_MIN_LEN: usize = 64;

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

/// Fold `data` into the running (pre-inverted) state `c`: through the
/// carry-less-multiply kernel where the CPU has it and the input is long
/// enough, else through slice-by-8.
fn fold(c: u32, data: &[u8]) -> u32 {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if let Some(c) = clmul::fold(c, data) {
        return c;
    }
    fold_sliced(c, data)
}

/// The portable kernel: eight bytes per step while they last, then the
/// bytewise tail.
fn fold_sliced(mut c: u32, data: &[u8]) -> u32 {
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

/// Folding constants for the bit-reflected polynomial, from the end of
/// Gopal et al. Each `K_n` is `x^n mod P(x)`, bit-reflected and shifted
/// left by one (33 bits); the test `constants_follow_from_the_polynomial`
/// derives them.
#[cfg_attr(not(all(target_arch = "x86_64", not(miri))), allow(dead_code))]
mod k {
    /// Fold by four 128-bit lanes, 512 bits ahead: `K1` multiplies a
    /// lane's low qword, `K2` its high one.
    pub const K1: u64 = 0x1_5444_2BD4; // x^(4*128+32)
    pub const K2: u64 = 0x1_C6E4_1596; // x^(4*128-32)
    /// Fold by one lane, 128 bits ahead, the same way.
    pub const K3: u64 = 0x1_7519_97D0; // x^(128+32)
    pub const K4: u64 = 0x0_CCAA_009E; // x^(128-32)
    /// 96 bits down to 64.
    pub const K5: u64 = 0x1_63CD_6124; // x^64
    /// Barrett reduction: `P(x)` and `floor(x^64 / P(x))`, both reflected.
    pub const P: u64 = 0x1_DB71_0641;
    pub const MU: u64 = 0x1_F701_1641;
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
#[allow(unsafe_code)]
mod clmul {
    use super::{fold_sliced, k, CLMUL_MIN_LEN};
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi64x, _mm_setr_epi32, _mm_srli_si128, _mm_xor_si128,
    };

    /// Fold `data` into the state `c` with carry-less multiplies, or `None`
    /// when the input is shorter than the crossover or the CPU lacks
    /// `pclmulqdq` or `sse4.1`.
    pub(super) fn fold(c: u32, data: &[u8]) -> Option<u32> {
        if data.len() < CLMUL_MIN_LEN
            || !is_x86_feature_detected!("pclmulqdq")
            || !is_x86_feature_detected!("sse4.1")
        {
            return None;
        }
        // SAFETY: `fold_lanes` needs `pclmulqdq` and `sse4.1`, and both
        // were detected on this CPU just above. The length check above
        // gives it the 64 bytes it reads first; every load it makes is
        // bounds-checked in `load`.
        Some(unsafe { fold_lanes(c, data) })
    }

    /// Unaligned load of `b[..16]`.
    #[inline(always)]
    fn load(b: &[u8]) -> __m128i {
        assert!(b.len() >= 16, "a 16-byte load needs 16 bytes");
        // SAFETY: the assert above keeps the 16-byte read inside `b`;
        // `loadu` takes any alignment, and SSE2, which it needs, is part
        // of the x86_64 baseline.
        unsafe { _mm_loadu_si128(b.as_ptr().cast()) }
    }

    /// `a.lo * keys.lo ^ a.hi * keys.hi ^ next`: one lane moved 128 (or
    /// 512) bits ahead and the data there added in.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq`.
    #[target_feature(enable = "pclmulqdq")]
    #[inline]
    unsafe fn fold_into(a: __m128i, keys: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(a, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(a, keys);
        _mm_xor_si128(_mm_xor_si128(hi, lo), next)
    }

    /// The kernel. Panics if `data` is shorter than 64 bytes.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq` and `sse4.1`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    unsafe fn fold_lanes(c: u32, data: &[u8]) -> u32 {
        let (first, rest) = data.split_at(64);
        let mut x1 = _mm_xor_si128(load(first), _mm_cvtsi32_si128(c as i32));
        let mut x2 = load(&first[16..]);
        let mut x3 = load(&first[32..]);
        let mut x4 = load(&first[48..]);

        let k1k2 = _mm_set_epi64x(k::K2 as i64, k::K1 as i64);
        let mut blocks = rest.chunks_exact(64);
        for b in &mut blocks {
            x1 = fold_into(x1, k1k2, load(b));
            x2 = fold_into(x2, k1k2, load(&b[16..]));
            x3 = fold_into(x3, k1k2, load(&b[32..]));
            x4 = fold_into(x4, k1k2, load(&b[48..]));
        }

        let k3k4 = _mm_set_epi64x(k::K4 as i64, k::K3 as i64);
        x1 = fold_into(x1, k3k4, x2);
        x1 = fold_into(x1, k3k4, x3);
        x1 = fold_into(x1, k3k4, x4);
        let mut singles = blocks.remainder().chunks_exact(16);
        for b in &mut singles {
            x1 = fold_into(x1, k3k4, load(b));
        }

        // 128 bits to 64.
        let low32 = _mm_setr_epi32(!0, 0, !0, 0);
        x1 = _mm_xor_si128(
            _mm_srli_si128::<8>(x1),
            _mm_clmulepi64_si128::<0x10>(x1, k3k4),
        );
        let k5 = _mm_set_epi64x(0, k::K5 as i64);
        x1 = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x1, low32), k5),
            _mm_srli_si128::<4>(x1),
        );

        // Barrett reduction to 32 bits.
        let poly = _mm_set_epi64x(k::MU as i64, k::P as i64);
        let mut t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x1, low32), poly);
        t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, low32), poly);
        let c = _mm_extract_epi32::<1>(_mm_xor_si128(x1, t)) as u32;

        fold_sliced(c, singles.remainder())
    }
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

    /// The bit-at-a-time definition of CRC-32/IEEE: the reference both
    /// kernels must agree with, sharing no table or constant with them.
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

    fn sliced(data: &[u8]) -> u32 {
        fold_sliced(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
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
        assert_eq!(sliced(b"123456789"), 0xCBF4_3926);
    }

    /// Every length through the crossover, the four-lane to one-lane
    /// hand-off and the table tail, at every start offset of a 16-byte
    /// load. Miri runs only the portable kernel and interprets every step,
    /// so it takes the short end.
    #[test]
    fn matches_reference_at_every_length_and_alignment() {
        let mut rng = StdRng::seed_from_u64(0xC4C);
        let max_len = if cfg!(miri) { 64 } else { 1024 };
        let buf = random_bytes(&mut rng, 16 + max_len);
        for start in 0..16 {
            for len in 0..=max_len {
                let data = &buf[start..start + len];
                let want = crc32_reference(data);
                assert_eq!(crc32(data), want, "start {start}, len {len}");
                assert_eq!(sliced(data), want, "sliced: start {start}, len {len}");
            }
        }
    }

    #[test]
    fn matches_reference_on_large_buffers() {
        let mut rng = StdRng::seed_from_u64(0xB10B);
        // Miri interprets every step; a few KiB already cover the loop.
        let (max_kib, fixed): (u64, &[usize]) = if cfg!(miri) {
            (4, &[])
        } else {
            (70, &[64 << 10, (64 << 10) + 1])
        };
        let random = (0..4).map(|_| rng.gen_range(1024..max_kib * 1024) as usize);
        let lens: Vec<usize> = random.chain(fixed.iter().copied()).collect();
        for len in lens {
            let data = random_bytes(&mut rng, len);
            let want = crc32_reference(&data);
            assert_eq!(crc32(&data), want, "len {len}");
            assert_eq!(sliced(&data), want, "sliced: len {len}");
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
        // A running state handed into and out of the fast kernel: splits
        // near either end of a 4 KiB buffer leave one side short of the
        // crossover and the other long.
        let mut rng = StdRng::seed_from_u64(0x5B1);
        let data = random_bytes(&mut rng, 4096);
        let whole = crc32_reference(&data);
        let near_start = 0..=256;
        let near_end = (0..=256).map(|back| data.len() - back);
        let splits: Vec<usize> = if cfg!(miri) {
            vec![0, 63, 64, 65, 4096 - 64]
        } else {
            near_start.chain(near_end).collect()
        };
        for split in splits {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), whole, "split at {split} of 4096");
        }
    }

    /// `x^n mod P(x)` over GF(2), in normal (not reflected) bit order,
    /// for the 33-bit `P` = 0x1_04C1_1DB7.
    fn x_pow_mod(n: u32) -> u32 {
        let mut r: u32 = 1;
        for _ in 0..n {
            let carry = r & 0x8000_0000 != 0;
            r <<= 1;
            if carry {
                r ^= 0x04C1_1DB7;
            }
        }
        r
    }

    /// `floor(x^64 / P(x))` over GF(2): a 33-bit quotient.
    fn x64_div_p() -> u64 {
        const P: u128 = 0x1_04C1_1DB7;
        let mut rem: u128 = 1 << 64;
        let mut q: u64 = 0;
        for bit in (0..=32).rev() {
            if rem & (1 << (bit + 32)) != 0 {
                rem ^= P << bit;
                q |= 1 << bit;
            }
        }
        q
    }

    #[test]
    fn constants_follow_from_the_polynomial() {
        let folded = |n: u32| u64::from(x_pow_mod(n).reverse_bits()) << 1;
        assert_eq!(k::K1, folded(4 * 128 + 32));
        assert_eq!(k::K2, folded(4 * 128 - 32));
        assert_eq!(k::K3, folded(128 + 32));
        assert_eq!(k::K4, folded(128 - 32));
        assert_eq!(k::K5, folded(64));
        let reflect33 = |v: u64| v.reverse_bits() >> 31;
        assert_eq!(k::P, reflect33(0x1_04C1_1DB7));
        assert_eq!(k::MU, reflect33(x64_div_p()));
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
