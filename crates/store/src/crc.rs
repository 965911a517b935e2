//! CRC-32 (ISO-HDLC / "zlib" polynomial), slicing-by-16 and
//! dependency-free.
//!
//! Every WAL and snapshot record carries a CRC over its payload so that a
//! torn or bit-flipped tail is *detected* at replay instead of silently
//! feeding a recovered object garbage. The polynomial choice is the
//! ubiquitous reflected `0xEDB88320` — interoperable with `crc32` tooling,
//! should anyone want to inspect a log file from the outside.
//!
//! Every logged or replayed byte passes through here, so the loop takes
//! sixteen bytes per step over sixteen compile-time tables instead of one
//! byte per step over one (Intel's "slicing-by-N"). It is the same
//! function of the input — the test module keeps the byte-wise loop as the
//! definition and compares the two — so no file byte depends on it.

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
    let t = &TABLES;
    let mut crc = 0xFFFF_FFFFu32;
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
    crc ^ 0xFFFF_FFFF
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

    #[test]
    fn known_vectors() {
        // The classic check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"rastor"), crc32(b"rastor"));
    }

    /// Every length from empty through many 16-byte blocks, each at every
    /// alignment of a block: block count, remainder and start offset all
    /// vary, and the sliced loop must agree with the byte-wise one.
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
                state = bytewise(state, &buf[start + len..][..1]);
            }
        }
    }

    #[test]
    fn single_bit_flips_change_the_crc() {
        let base = b"the write-ahead log record payload".to_vec();
        let crc = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), crc, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
