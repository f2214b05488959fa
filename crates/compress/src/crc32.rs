//! CRC-32 (IEEE 802.3 polynomial), used as the integrity checksum of
//! compression containers and SSTable blocks.

/// Slicing-by-8 lookup tables for the reflected polynomial `0xEDB88320`,
/// computed at compile time. `TABLES[0]` is the classic bytewise table;
/// `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so
/// eight table lookups fold eight input bytes at once.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
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
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Computes the CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Hasher::new();
    h.update(data);
    h.finish()
}

/// Incremental CRC-32 hasher.
#[derive(Debug, Clone)]
pub struct Hasher {
    state: u32,
}

impl Hasher {
    /// Starts a new checksum.
    pub fn new() -> Self {
        Hasher { state: 0xFFFF_FFFF }
    }

    /// Feeds bytes into the checksum, eight at a time (slicing-by-8).
    pub fn update(&mut self, data: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut chunks = data.chunks_exact(8);
        for c in &mut chunks {
            let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            crc = t[7][(lo & 0xff) as usize]
                ^ t[6][((lo >> 8) & 0xff) as usize]
                ^ t[5][((lo >> 16) & 0xff) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][c[4] as usize]
                ^ t[2][c[5] as usize]
                ^ t[1][c[6] as usize]
                ^ t[0][c[7] as usize];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
        }
        self.state = crc;
    }

    /// Finalises and returns the checksum.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Hasher {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard test vectors for CRC-32/IEEE.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"hello, spatio-temporal world";
        let mut h = Hasher::new();
        h.update(&data[..10]);
        h.update(&data[10..]);
        assert_eq!(h.finish(), crc32(data));
    }

    /// The textbook bytewise CRC-32, the reference the sliced one must
    /// match bit for bit.
    fn bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn sliced_matches_bytewise_at_every_length() {
        let data: Vec<u8> = (0..64u32).map(|i| (i * 151 + 7) as u8).collect();
        for len in 0..=64 {
            assert_eq!(crc32(&data[..len]), bytewise(&data[..len]), "len {len}");
        }
        // Every alignment of a longer buffer.
        let long: Vec<u8> = (0..4099u32).map(|i| (i ^ (i >> 3)) as u8).collect();
        for start in 0..8 {
            assert_eq!(crc32(&long[start..]), bytewise(&long[start..]));
        }
    }

    #[test]
    fn incremental_updates_at_random_split_points() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let data: Vec<u8> = (0..1000).map(|_| next() as u8).collect();
        for _ in 0..200 {
            let mut cuts: Vec<usize> = (0..(next() % 6) as usize)
                .map(|_| (next() % 1001) as usize)
                .collect();
            cuts.push(0);
            cuts.push(data.len());
            cuts.sort_unstable();
            let mut h = Hasher::new();
            for w in cuts.windows(2) {
                h.update(&data[w[0]..w[1]]);
            }
            assert_eq!(h.finish(), bytewise(&data), "cuts {cuts:?}");
        }
    }

    #[test]
    fn detects_corruption() {
        let a = crc32(b"payload-a");
        let b = crc32(b"payload-b");
        assert_ne!(a, b);
    }
}
