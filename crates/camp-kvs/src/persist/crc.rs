//! CRC32C (Castagnoli, reflected polynomial 0x82F63B78), the checksum
//! of every journal frame ([`super::record`]), in two kernels that give
//! the same value bit for bit:
//!
//! * **SSE4.2**: the `crc32` instruction computes exactly this CRC, eight
//!   input bytes per instruction, then one per byte for the tail. It runs
//!   wherever `is_x86_feature_detected!("sse4.2")` says the CPU has it.
//! * **Slicing-by-8**: eight table lookups fold eight input bytes per
//!   step, and a bytewise loop finishes the tail. It runs on every other
//!   CPU and target.
//!
//! Both are hand-rolled: the workspace is dependency-free by design. The
//! module's one `unsafe` is the call into the SSE4.2 kernel, made only
//! after the run-time check; camp-lint allowlists this file for it.
#![allow(unsafe_code)]

/// CRC32C of `bytes`, by the fastest kernel this CPU runs.
#[must_use]
pub fn crc32c(bytes: &[u8]) -> u32 {
    hardware(bytes).unwrap_or_else(|| sliced(bytes))
}

/// The SSE4.2 kernel's CRC32C of `bytes`, or `None` where the CPU (or
/// the target) has no SSE4.2.
#[inline]
fn hardware(bytes: &[u8]) -> Option<u32> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `sse42` is compiled for SSE4.2 and nothing else, and the
        // check above found SSE4.2 on the CPU this runs on.
        return Some(unsafe { sse42(bytes) });
    }
    let _ = bytes; // read only on x86-64
    None
}

/// The SSE4.2 kernel. Calling it on a CPU without SSE4.2 is undefined
/// behaviour, which is why the call needs `unsafe`: [`hardware`] checks
/// first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn sse42(bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let (words, tail) = bytes.as_chunks::<8>();
    let mut crc = u64::from(!0u32);
    for word in words {
        crc = _mm_crc32_u64(crc, u64::from_le_bytes(*word));
    }
    // The instruction leaves the upper 32 bits zero.
    let mut crc = crc as u32;
    for &b in tail {
        crc = _mm_crc32_u8(crc, b);
    }
    !crc
}

/// The slicing-by-8 kernel.
fn sliced(bytes: &[u8]) -> u32 {
    static TABLES: [[u32; 256]; 8] = build_tables();
    let mut crc = !0u32;
    let (words, tail) = bytes.as_chunks::<8>();
    for &[b0, b1, b2, b3, b4, b5, b6, b7] in words {
        let lo = crc ^ u32::from_le_bytes([b0, b1, b2, b3]);
        let hi = u32::from_le_bytes([b4, b5, b6, b7]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in tail {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes.
const fn build_tables() -> [[u32; 256]; 8] {
    const POLY: u32 = 0x82F6_3B78;
    let mut tables = [[0u32; 256]; 8];
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_core::rng::Rng64;

    /// The byte-at-a-time form, kept as both kernels' oracle.
    fn bytewise(bytes: &[u8]) -> u32 {
        const TABLE: [u32; 256] = build_tables()[0];
        !bytes.iter().fold(!0u32, |crc, &b| {
            (crc >> 8) ^ TABLE[((crc ^ u32::from(b)) & 0xFF) as usize]
        })
    }

    /// A kernel under test; `None` means it cannot run on this CPU.
    type Kernel = fn(&[u8]) -> Option<u32>;

    /// Every kernel this CPU can run, by name: the hardware one only
    /// where it is detected.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut kernels: Vec<(&'static str, Kernel)> = vec![
            ("dispatched", |b| Some(crc32c(b))),
            ("sliced", |b| Some(sliced(b))),
        ];
        if hardware(b"").is_some() {
            kernels.push(("sse4.2", hardware));
        }
        kernels
    }

    #[test]
    fn crc32c_matches_known_vectors() {
        // RFC 3720 appendix B.4 test vectors.
        let vectors: [(&[u8], u32); 4] = [
            (b"", 0),
            (&[0u8; 32], 0x8A91_36AA),
            (&[0xFFu8; 32], 0x62A8_AB43),
            (b"123456789", 0xE306_9283),
        ];
        for (name, kernel) in kernels() {
            for (bytes, expected) in vectors {
                assert_eq!(kernel(bytes), Some(expected), "{name}: {bytes:?}");
            }
        }
    }

    fn assert_equals_the_bytewise_form(kernel: Kernel) {
        let mut rng = Rng64::seed_from_u64(0xC3C3_2C00);
        let buffer: Vec<u8> = (0..4096 + 8)
            .map(|_| (rng.next_u64() & 0xFF) as u8)
            .collect();
        for offset in 0..8 {
            for len in 0..=4096 {
                let bytes = &buffer[offset..offset + len];
                assert_eq!(
                    kernel(bytes),
                    Some(bytewise(bytes)),
                    "offset {offset}, len {len}"
                );
            }
        }
    }

    #[test]
    fn sliced_crc_equals_the_bytewise_form_at_every_length_and_alignment() {
        assert_equals_the_bytewise_form(|b| Some(sliced(b)));
    }

    #[test]
    fn hardware_crc_equals_the_bytewise_form_at_every_length_and_alignment() {
        if hardware(b"").is_none() {
            eprintln!("no SSE4.2 on this CPU: only the sliced kernel runs here");
            return;
        }
        assert_equals_the_bytewise_form(hardware);
    }
}
