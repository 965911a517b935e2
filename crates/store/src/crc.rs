//! CRC-32 (ISO-HDLC / "zlib" polynomial), dependency-free, with a
//! carry-less-multiply kernel where the CPU has one.
//!
//! Every WAL and snapshot record carries a CRC over its payload so that a
//! torn or bit-flipped tail is *detected* at replay instead of silently
//! feeding a recovered object garbage. The polynomial choice is the
//! ubiquitous reflected `0xEDB88320` — interoperable with `crc32` tooling,
//! should anyone want to inspect a log file from the outside.
//!
//! Every logged or replayed byte passes through here, so there are two
//! kernels, both the same function of the input:
//!
//! * **Folding** (x86-64): 64-byte blocks folded four lanes at a time with
//!   `PCLMULQDQ` carry-less multiplies, then one lane, then a 128 → 64-bit
//!   reduction and a Barrett reduction to the 32-bit remainder (Gopal et
//!   al., *Fast CRC Computation for Generic Polynomials Using PCLMULQDQ*,
//!   Intel, 2009). The last `len % 16` bytes go through the portable loop.
//! * **Slicing-by-16** (portable): sixteen bytes per step over sixteen
//!   compile-time tables (Intel's "slicing-by-N").
//!
//! [`crc32`] picks at run time, from what it can observe: the folding
//! kernel when the input is at least 64 bytes and the CPU reports both
//! `pclmulqdq` and `sse4.1`, the portable loop otherwise — on other CPUs,
//! and on short inputs, where the reductions cost more than they save. The
//! call into the folding kernel is the crate's one `unsafe` island: a
//! `#[target_feature]` function may only be called once its features are
//! known to exist. The test module keeps the byte-wise loop as the
//! definition and holds both kernels to it, so no file byte depends on
//! which one ran.

/// The reflected CRC-32 polynomial (ISO-HDLC).
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0][b]` is the CRC of byte `b` (the classic byte-wise table);
/// `TABLES[k][b]` is the CRC of `b` followed by `k` zero bytes, so one
/// lookup per byte of a 16-byte block advances the state by the block.
const TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 of `bytes` (init `0xFFFF_FFFF`, final xor `0xFFFF_FFFF`).
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if let Some(state) = folded(!0, bytes) {
        return !state;
    }
    !sliced(!0, bytes)
}

/// The folding kernel's result, if this CPU has the kernel and `bytes` is
/// long enough to use it.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn folded(state: u32, bytes: &[u8]) -> Option<u32> {
    if bytes.len() < 64
        || !std::is_x86_feature_detected!("pclmulqdq")
        || !std::is_x86_feature_detected!("sse4.1")
    {
        return None;
    }
    // SAFETY: `clmul::update` is safe code that needs exactly the
    // `pclmulqdq` and `sse4.1` instructions, and this CPU has both: the two
    // run-time checks above passed.
    Some(unsafe { clmul::update(state, bytes) })
}

/// Advance the un-inverted CRC state over `bytes`, sixteen at a time.
fn sliced(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        let low = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(low & 0xFF) as usize]
            ^ t[14][((low >> 8) & 0xFF) as usize]
            ^ t[13][((low >> 16) & 0xFF) as usize]
            ^ t[12][(low >> 24) as usize]
            ^ t[11][usize::from(b[4])]
            ^ t[10][usize::from(b[5])]
            ^ t[9][usize::from(b[6])]
            ^ t[8][usize::from(b[7])]
            ^ t[7][usize::from(b[8])]
            ^ t[6][usize::from(b[9])]
            ^ t[5][usize::from(b[10])]
            ^ t[4][usize::from(b[11])]
            ^ t[3][usize::from(b[12])]
            ^ t[2][usize::from(b[13])]
            ^ t[1][usize::from(b[14])]
            ^ t[0][usize::from(b[15])];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

/// The folding kernel. Carrying a 128-bit lane forward over `n` bits is
/// two carry-less multiplies of its halves by `xⁿ` residues mod `P`; the
/// constants are those residues for `0xEDB88320`, bit-reflected and
/// shifted left by one, as in the Intel paper.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Fold by four lanes: `x^(4·128+32)` and `x^(4·128−32)` mod `P`.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// Fold by one lane: `x^(128+32)` and `x^(128−32)` mod `P`.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// Reduce 96 bits to 64: `x^64 mod P`.
    const K5: i64 = 0x1_63cd_6124;
    /// Barrett reduction: `P` with its `x³²` term, and `μ = ⌊x⁶⁴ / P⌋`.
    const P_X: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// One 16-byte block as a lane, read from the slice as two
    /// little-endian words.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(block: &[u8]) -> __m128i {
        let word = |at: usize| {
            let bytes = block[at..at + 8].try_into().expect("an 8-byte word");
            u64::from_le_bytes(bytes) as i64
        };
        _mm_set_epi64x(word(8), word(0))
    }

    /// `next ⊕ lane·k` for the `k` pair in `keys`: the lane carried forward
    /// over the distance the pair encodes, into `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(lane: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let low = _mm_clmulepi64_si128(lane, keys, 0x00);
        let high = _mm_clmulepi64_si128(lane, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, low), high)
    }

    /// Advance the un-inverted CRC state over `bytes` (at least 64 long).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(state: u32, bytes: &[u8]) -> u32 {
        let mut blocks = bytes.chunks_exact(64);
        let first = blocks.next().expect("the kernel takes at least 64 bytes");
        let mut lanes = [0, 16, 32, 48].map(|at| load(&first[at..at + 16]));
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(state as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        for block in &mut blocks {
            for (at, lane) in (0..64).step_by(16).zip(&mut lanes) {
                *lane = fold(*lane, load(&block[at..at + 16]), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let [mut x, x1, x2, x3] = lanes;
        for next in [x1, x2, x3] {
            x = fold(x, next, k3k4);
        }
        let mut tail = blocks.remainder().chunks_exact(16);
        for block in &mut tail {
            x = fold(x, load(block), k3k4);
        }

        // 128 → 64 bits: the low half carried over the high one, then the
        // low 32 bits of that over the rest.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett: T1 = (R mod x³²)·μ, T2 = (T1 mod x³²)·P, and the
        // remainder is the upper half of R ⊕ T2 (reflected).
        let pu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let state = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        super::sliced(state, tail.remainder())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rastor_common::SplitMix64;

    /// The definition: one table lookup per byte, advancing the
    /// un-inverted state `crc` (the CRC is `!bytewise(!0, bytes)`).
    fn bytewise(mut crc: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        crc
    }

    /// The portable kernel alone, whatever the CPU.
    fn portable(bytes: &[u8]) -> u32 {
        !sliced(!0, bytes)
    }

    #[test]
    fn known_vectors() {
        // The classic check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"rastor"), crc32(b"rastor"));
    }

    /// Every length from empty through many 64-byte blocks, each at every
    /// alignment of a 16-byte block: block count, remainder and start
    /// offset all vary, and both the dispatching `crc32` and the portable
    /// loop must agree with the byte-wise one.
    #[test]
    fn sliced_crc_equals_the_bytewise_definition() {
        assert_eq!(!bytewise(!0, b"123456789"), 0xCBF4_3926);
        let mut rng = SplitMix64::new(0xC3C3);
        let buf: Vec<u8> = (0..4096 + 16).map(|_| rng.next_u64() as u8).collect();
        for start in 0..16 {
            // The byte-wise state after each prefix of `buf[start..]`.
            let mut state = !0;
            for len in 0..=4096 {
                let bytes = &buf[start..start + len];
                assert_eq!(crc32(bytes), !state, "{len} bytes at {start}");
                assert_eq!(portable(bytes), !state, "portable, {len} bytes at {start}");
                state = bytewise(state, &buf[start + len..][..1]);
            }
        }
    }

    /// On a short payload, and on one of 1 051 bytes — a logged 1 KiB put,
    /// long enough for the folding kernel.
    #[test]
    fn single_bit_flips_change_the_crc() {
        let mut rng = SplitMix64::new(0xF11B);
        let record: Vec<u8> = (0..1051).map(|_| rng.next_u64() as u8).collect();
        for base in [&b"the write-ahead log record payload"[..], &record] {
            let crc = crc32(base);
            for byte in 0..base.len() {
                for bit in 0..8 {
                    let mut flipped = base.to_vec();
                    flipped[byte] ^= 1 << bit;
                    assert_ne!(crc32(&flipped), crc, "flip at {byte}:{bit} undetected");
                }
            }
        }
    }

    /// Long inputs at any alignment: random buffers up to 1 MiB, each at a
    /// random offset into its allocation, through both kernels.
    #[test]
    #[ignore = "long: cargo test -p rastor_store --release -- --include-ignored"]
    fn long_random_buffers_match_the_bytewise_definition() {
        let mut rng = SplitMix64::new(0x1_0000);
        for _ in 0..256 {
            let len = rng.gen_range(0, 1 << 20) as usize;
            let start = rng.gen_range(0, 64) as usize;
            let buf: Vec<u8> = (0..start + len).map(|_| rng.next_u64() as u8).collect();
            let bytes = &buf[start..];
            let want = !bytewise(!0, bytes);
            assert_eq!(crc32(bytes), want, "{len} bytes at {start}");
            assert_eq!(portable(bytes), want, "portable, {len} bytes at {start}");
        }
    }
}
