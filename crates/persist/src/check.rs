//! Checksums used by the snapshot format: CRC-32 (IEEE) for corruption
//! detection and FNV-1a 64 as a cheap dataset fingerprint.
//!
//! Both are implemented here rather than pulled in as dependencies: the
//! workspace builds against vendored crates only (see `DESIGN.md`,
//! "Offline dependency policy"), and the two algorithms together are a
//! few dozen lines with well-known test vectors.

/// CRC-32 lookup tables for the reflected IEEE 802.3 polynomial
/// (`0xEDB88320`), built at compile time. `CRC_TABLES[0]` is the classic
/// byte table; `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k`
/// zero bytes, which lets [`crc32`] fold eight bytes per step
/// ("slicing-by-8") with eight independent table loads.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
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

/// CRC-32 (IEEE) of `data` — the checksum used by gzip, PNG and zip, so
/// snapshot sections can be cross-checked with standard tools.
///
/// Slicing-by-8: each step XORs the running CRC into the next eight
/// bytes and looks every byte up in its own table, so the loads are
/// independent instead of a serial chain of one per byte. The value is
/// identical to the byte-at-a-time definition (checked against it in
/// the tests below).
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

/// FNV-1a 64-bit hash of `data`. Used as the dataset digest in snapshot
/// headers: not cryptographic, but any accidental payload change flips it
/// with overwhelming probability, and it is stable across platforms.
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in data {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time CRC-32 definition: the oracle the sliced
    /// [`crc32`] must match bit for bit.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_matches_the_bytewise_definition() {
        // Every length up to eight whole words, from every start offset
        // within a word, over bytes that exercise all table entries.
        let data: Vec<u8> = (0..200u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 13) as u8)
            .collect();
        for start in 0..8 {
            for len in 0..=64 {
                let slice = &data[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "start {start} len {len}"
                );
            }
        }
        let big: Vec<u8> = (0..100_003u32).map(|i| (i ^ (i >> 7)) as u8).collect();
        assert_eq!(crc32(&big), crc32_bytewise(&big));
        assert_eq!(crc32(&[0xFF; 37]), crc32_bytewise(&[0xFF; 37]));
    }

    #[test]
    fn crc32_known_vectors() {
        // Canonical check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn fnv1a64_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn single_bit_flip_changes_both() {
        let mut data = b"some snapshot payload".to_vec();
        let (c0, f0) = (crc32(&data), fnv1a64(&data));
        data[7] ^= 0x10;
        assert_ne!(crc32(&data), c0);
        assert_ne!(fnv1a64(&data), f0);
    }
}
