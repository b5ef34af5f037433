//! CRC32C (Castagnoli) integrity checksums.
//!
//! The BDRM snapshot format (and anything else that wants to detect
//! bit rot or torn writes) needs a checksum that is cheap, incremental,
//! and dependency-free. CRC32C is the storage-industry standard for
//! exactly this role (iSCSI, ext4, Btrfs, LevelDB); the reflected
//! polynomial `0x82F63B78` here matches every one of those
//! implementations, so the test vectors below are externally checkable.
//!
//! [`Crc32c`] is an incremental hasher: feed it section bytes as they
//! are produced and [`finalize`](Crc32c::finalize) when the section
//! closes. [`crc32c`] is the one-shot convenience over a slice.
//!
//! On x86-64 hosts with SSE4.2 the hasher runs the hardware `crc32`
//! instruction eight bytes at a time (picked at runtime); everywhere
//! else it falls back to the byte-at-a-time table. The instruction
//! implements this same polynomial, so both kernels produce identical
//! checksums and every file byte written under one verifies under the
//! other.

/// Reflected CRC32C polynomial (Castagnoli).
const POLY: u32 = 0x82F6_3B78;

/// Byte-indexed lookup table, built at compile time.
const TABLE: [u32; 256] = build_table();

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Incremental CRC32C hasher.
///
/// # Examples
///
/// ```
/// use bdrmap_types::integrity::{crc32c, Crc32c};
///
/// let mut h = Crc32c::new();
/// h.update(b"1234");
/// h.update(b"56789");
/// assert_eq!(h.finalize(), crc32c(b"123456789"));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Crc32c {
    state: u32,
}

impl Default for Crc32c {
    fn default() -> Crc32c {
        Crc32c::new()
    }
}

impl Crc32c {
    /// A fresh hasher.
    pub fn new() -> Crc32c {
        Crc32c { state: !0 }
    }

    /// Feed `data` into the running checksum.
    pub fn update(&mut self, data: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: the CPU supports SSE4.2, checked just above.
            self.state = unsafe { sse42_update(self.state, data) };
            return;
        }
        self.state = table_update(self.state, data);
    }

    /// The checksum over everything fed so far.
    pub fn finalize(self) -> u32 {
        !self.state
    }
}

/// One-shot CRC32C of a byte slice.
pub fn crc32c(data: &[u8]) -> u32 {
    let mut h = Crc32c::new();
    h.update(data);
    h.finalize()
}

/// The portable kernel: advance a raw (pre-inverted) CRC state over
/// `data` one byte at a time through [`TABLE`].
fn table_update(mut crc: u32, data: &[u8]) -> u32 {
    for &b in data {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// The SSE4.2 kernel: the same state transition as [`table_update`],
/// eight bytes per `crc32` instruction, then the tail byte by byte.
///
/// # Safety
///
/// The CPU must support SSE4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn sse42_update(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut words = data.chunks_exact(8);
    let mut crc = u64::from(crc);
    for w in &mut words {
        let word = u64::from_le_bytes(w.try_into().expect("chunks_exact(8) yields 8 bytes"));
        crc = _mm_crc32_u64(crc, word);
    }
    let mut crc = crc as u32;
    for &b in words.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known-answer tests against the published CRC32C vectors (RFC
    /// 3720 appendix B.4 and the common check value).
    #[test]
    fn known_answers() {
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b"a"), 0xC1D0_4330);
        assert_eq!(
            crc32c(b"The quick brown fox jumps over the lazy dog"),
            0x2262_0404
        );
        // 32 zero bytes (iSCSI test vector).
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        // 32 0xFF bytes.
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        // The fallback kernel answers the same vectors.
        for (input, want) in [
            (&b"123456789"[..], 0xE306_9283),
            (&[0u8; 32][..], 0x8A91_36AA),
            (&[0xFFu8; 32][..], 0x62A8_AB43),
        ] {
            assert_eq!(!table_update(!0, input), want);
        }
    }

    /// Incremental hashing over arbitrary split points must equal the
    /// one-shot checksum.
    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let whole = crc32c(&data);
        for split in [0, 1, 7, 499, 999, 1000] {
            let mut h = Crc32c::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), whole, "split at {split}");
        }
        // Byte-at-a-time.
        let mut h = Crc32c::new();
        for b in &data {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(h.finalize(), whole);
    }

    /// Deterministic test bytes (splitmix64 stream).
    fn noise(n: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..n)
            .map(|_| {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    /// The hardware kernel and the table kernel agree on every length
    /// up to 2 KiB at every start alignment, from a non-trivial state.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sse42_matches_table_at_every_length_and_offset() {
        if !std::arch::is_x86_feature_detected!("sse4.2") {
            eprintln!("no SSE4.2 on this CPU; only the table kernel runs");
            return;
        }
        let data = noise(2048 + 8);
        for off in 0..8 {
            for len in 0..=2048 {
                let bytes = &data[off..off + len];
                for seed in [!0u32, 0x1234_5678] {
                    // SAFETY: SSE4.2 support was checked above.
                    let hw = unsafe { sse42_update(seed, bytes) };
                    assert_eq!(hw, table_update(seed, bytes), "len {len} offset {off}");
                }
            }
        }
    }

    /// Incremental updates at arbitrary split points through the
    /// dispatching hasher equal one table pass over the whole input.
    #[test]
    fn split_updates_match_the_table_kernel() {
        let data = noise(5000);
        let want = !table_update(!0, &data);
        let mut x = 7u64;
        for round in 0..200 {
            let mut h = Crc32c::new();
            let mut at = 0;
            while at < data.len() {
                // LCG-drawn chunk lengths in 0..=64 keep every tail
                // length and alignment in play.
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let step = ((x >> 33) % 65) as usize;
                let end = (at + step).min(data.len());
                h.update(&data[at..end]);
                at = end;
            }
            assert_eq!(h.finalize(), want, "round {round}");
        }
        assert_eq!(crc32c(&data), want);
    }

    /// Any single-bit flip must change the checksum (the property the
    /// snapshot codec relies on to catch bit rot).
    #[test]
    fn single_bit_flips_are_detected() {
        let data = b"border maps must not rot on disk".to_vec();
        let clean = crc32c(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32c(&flipped), clean, "flip {byte}:{bit} undetected");
            }
        }
    }
}
