//! The on-disk record codec: length-prefixed, CRC32C-checksummed
//! mutation records, plus the forward scanner recovery is built on.
//!
//! # Record layout (all integers big-endian)
//!
//! ```text
//! +--------+--------+--------+----------------------+
//! | magic  | len    | crc    | payload (len bytes)  |
//! | u32    | u32    | u32    |                      |
//! +--------+--------+--------+----------------------+
//! ```
//!
//! `magic` is the constant `"CPLG"`; `len` counts payload bytes only;
//! `crc` is CRC32C (Castagnoli) over the payload. The payload begins
//! with a one-byte kind tag followed by kind-specific fields mirroring
//! the [`crate::item`] encoding order:
//!
//! ```text
//! set    1 | key_len u16 | value_len u32 | flags u32 | cost u64 |
//!          expires_at u64 | key | value
//! delete 2 | key_len u16 | key
//! clear  3 |
//! touch  4 | key_len u16 | expires_at u64 | key
//! seal   5 |
//! ```
//!
//! The scanner ([`scan`]) never panics on arbitrary bytes. Where no
//! verifiable frame starts it asks what lies beyond: nothing but zeros is
//! the unused end of a reserved segment (clean, counted nowhere); bytes
//! with no verifiable frame after them are the torn tail of an
//! interrupted write (counted in [`ScanSummary::torn_bytes`]); bytes
//! *with* one are mid-log corruption — quarantined, then skipped to that
//! frame.

/// Per-record framing magic: `"CPLG"` (camp persistence log).
pub const MAGIC: u32 = 0x4350_4C47;

/// Frame header bytes ahead of the payload: magic + len + crc.
pub const FRAME_HEADER_LEN: usize = 12;

/// Upper bound on a sane payload length. Values are capped at the
/// server's `--max-value-bytes` (1 MiB by default, configurable), so
/// anything close to this bound is a corrupt length field, not data.
pub const MAX_PAYLOAD_LEN: usize = 64 << 20;

const KIND_SET: u8 = 1;
const KIND_DELETE: u8 = 2;
const KIND_CLEAR: u8 = 3;
const KIND_TOUCH: u8 = 4;
const KIND_SEAL: u8 = 5;

/// One decoded log record, borrowing from the scanned buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Record<'a> {
    /// A successful store (`set`/`add`/`replace`/`incr`/`decr` result),
    /// carrying everything recovery needs to rebuild the item *and* its
    /// eviction priority.
    Set {
        /// The wire key.
        key: &'a [u8],
        /// The stored value bytes.
        value: &'a [u8],
        /// Opaque client flags.
        flags: u32,
        /// CAMP miss cost at store time.
        cost: u64,
        /// Absolute unix expiry (0 = never).
        expires_at: u64,
    },
    /// A successful delete.
    Delete {
        /// The deleted key.
        key: &'a [u8],
    },
    /// `flush_all` (also written at the head of a compaction snapshot so
    /// stale earlier segments are harmless on replay).
    Clear,
    /// A successful `touch`: expiry rewritten in place.
    Touch {
        /// The touched key.
        key: &'a [u8],
        /// The new absolute unix expiry (0 = never).
        expires_at: u64,
    },
    /// A clean shutdown sealed the segment here.
    Seal,
}

/// CRC32C (Castagnoli, reflected polynomial 0x82F63B78), slicing-by-8:
/// eight table lookups fold eight input bytes per step, and a bytewise
/// loop finishes the tail. Hand-rolled: the workspace is dependency-free
/// by design.
#[must_use]
pub fn crc32c(bytes: &[u8]) -> u32 {
    static TABLES: [[u32; 256]; 8] = build_crc_tables();
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes.
const fn build_crc_tables() -> [[u32; 256]; 8] {
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

fn push_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn push_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

/// Appends `record` to `buf` as one framed, checksummed log record.
/// Keys longer than `u16::MAX` are truncated by the protocol layer long
/// before this point (the parser caps key length), so the cast is safe.
pub fn encode_into(record: &Record<'_>, buf: &mut Vec<u8>) {
    let frame_start = buf.len();
    push_u32(buf, MAGIC);
    push_u32(buf, 0); // len placeholder
    push_u32(buf, 0); // crc placeholder
    let payload_start = buf.len();
    match *record {
        Record::Set {
            key,
            value,
            flags,
            cost,
            expires_at,
        } => {
            buf.push(KIND_SET);
            push_u16(buf, key.len() as u16);
            push_u32(buf, value.len() as u32);
            push_u32(buf, flags);
            push_u64(buf, cost);
            push_u64(buf, expires_at);
            buf.extend_from_slice(key);
            buf.extend_from_slice(value);
        }
        Record::Delete { key } => {
            buf.push(KIND_DELETE);
            push_u16(buf, key.len() as u16);
            buf.extend_from_slice(key);
        }
        Record::Clear => buf.push(KIND_CLEAR),
        Record::Touch { key, expires_at } => {
            buf.push(KIND_TOUCH);
            push_u16(buf, key.len() as u16);
            push_u64(buf, expires_at);
            buf.extend_from_slice(key);
        }
        Record::Seal => buf.push(KIND_SEAL),
    }
    let payload_len = (buf.len() - payload_start) as u32;
    let crc = crc32c(&buf[payload_start..]);
    buf[frame_start + 4..frame_start + 8].copy_from_slice(&payload_len.to_be_bytes());
    buf[frame_start + 8..frame_start + 12].copy_from_slice(&crc.to_be_bytes());
}

fn read_u16(buf: &[u8], at: usize) -> Option<u16> {
    Some(u16::from_be_bytes(buf.get(at..at + 2)?.try_into().ok()?))
}

fn read_u32(buf: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_be_bytes(buf.get(at..at + 4)?.try_into().ok()?))
}

fn read_u64(buf: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_be_bytes(buf.get(at..at + 8)?.try_into().ok()?))
}

/// Decodes one checksum-verified payload. `None` means the payload is
/// structurally inconsistent despite the CRC passing — possible only
/// under a checksum collision, and treated as quarantine-worthy.
#[must_use]
pub fn decode_payload(payload: &[u8]) -> Option<Record<'_>> {
    let (&kind, rest) = payload.split_first()?;
    match kind {
        KIND_SET => {
            let key_len = usize::from(read_u16(rest, 0)?);
            let value_len = read_u32(rest, 2)? as usize;
            let flags = read_u32(rest, 6)?;
            let cost = read_u64(rest, 10)?;
            let expires_at = read_u64(rest, 18)?;
            let key_start = 26usize;
            let value_start = key_start.checked_add(key_len)?;
            let end = value_start.checked_add(value_len)?;
            if end != rest.len() {
                return None;
            }
            Some(Record::Set {
                key: &rest[key_start..value_start],
                value: &rest[value_start..end],
                flags,
                cost,
                expires_at,
            })
        }
        KIND_DELETE => {
            let key_len = usize::from(read_u16(rest, 0)?);
            if 2 + key_len != rest.len() {
                return None;
            }
            Some(Record::Delete { key: &rest[2..] })
        }
        KIND_CLEAR => rest.is_empty().then_some(Record::Clear),
        KIND_TOUCH => {
            let key_len = usize::from(read_u16(rest, 0)?);
            let expires_at = read_u64(rest, 2)?;
            if 10 + key_len != rest.len() {
                return None;
            }
            Some(Record::Touch {
                key: &rest[10..],
                expires_at,
            })
        }
        KIND_SEAL => rest.is_empty().then_some(Record::Seal),
        _ => None,
    }
}

/// What one segment scan found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanSummary {
    /// Checksum-verified records handed to the visitor.
    pub applied: u64,
    /// Corrupt records (or corrupt gaps) skipped mid-log.
    pub quarantined: u64,
    /// Bytes of torn tail: the trailing span of an interrupted write.
    pub torn_bytes: u64,
    /// Whether the last verified record was a [`Record::Seal`] — i.e.
    /// the segment was closed by a clean shutdown, not a crash.
    pub sealed: bool,
    /// Where the log ends: everything from this offset on is torn tail
    /// or unused reserved zeros, and recovery may cut it off.
    pub valid_len: u64,
}

/// Searches `buf[from..]` for the next frame magic.
fn resync(buf: &[u8], from: usize) -> Option<usize> {
    let needle = MAGIC.to_be_bytes();
    let mut at = from;
    while at + 4 <= buf.len() {
        if buf[at..at + 4] == needle {
            return Some(at);
        }
        at += 1;
    }
    None
}

/// The payload of the frame at `buf[at..]`, if a whole one with a sane
/// length and a matching checksum starts there.
fn frame_at(buf: &[u8], at: usize) -> Option<&[u8]> {
    if buf.get(at..at + 4)? != MAGIC.to_be_bytes() {
        return None;
    }
    let len = read_u32(buf, at + 4)? as usize;
    let crc = read_u32(buf, at + 8)?;
    // Every payload leads with its kind byte. An empty one (whose CRC, 0,
    // would even match) is a header torn over reserved zeros.
    if len == 0 || len > MAX_PAYLOAD_LEN {
        return None;
    }
    let start = at + FRAME_HEADER_LEN;
    let payload = buf.get(start..start + len)?;
    (crc32c(payload) == crc).then_some(payload)
}

/// The offset of the first verifiable frame in `buf[from..]`.
fn next_frame(buf: &[u8], from: usize) -> Option<usize> {
    let mut at = from;
    while let Some(hit) = resync(buf, at) {
        if frame_at(buf, hit).is_some() {
            return Some(hit);
        }
        at = hit + 1;
    }
    None
}

/// Scans one segment's bytes front to back, calling `apply` for every
/// checksum-verified record. Never panics, always terminates: the
/// cursor strictly advances.
///
/// Where no verifiable frame starts, what follows decides (the three
/// end-of-log rules):
///
/// 1. nothing but zeros — starting with the twelve a frame header would
///    occupy — is the unused end of a reserved segment: the log ends
///    cleanly and nothing is counted;
/// 2. bytes with no verifiable frame anywhere after them are the **torn
///    tail** of an interrupted write, counted in `torn_bytes` up to
///    their last non-zero byte (whatever zeros trail them were reserved,
///    not torn);
/// 3. bytes with a verifiable frame after them are mid-log corruption:
///    one quarantine, and the scan resumes at that frame.
pub fn scan(buf: &[u8], mut apply: impl FnMut(Record<'_>)) -> ScanSummary {
    let mut summary = ScanSummary::default();
    // Nothing at or past this offset but zeros.
    let data_end = buf.iter().rposition(|&b| b != 0).map_or(0, |last| last + 1);
    let mut at = 0usize;
    while at < buf.len() {
        if let Some(payload) = frame_at(buf, at) {
            match decode_payload(payload) {
                Some(record) => {
                    summary.sealed = matches!(record, Record::Seal);
                    summary.applied += 1;
                    apply(record);
                }
                None => summary.quarantined += 1,
            }
            at += FRAME_HEADER_LEN + payload.len();
            continue;
        }
        if at >= data_end {
            break;
        }
        match next_frame(buf, at + 1) {
            Some(next) => {
                summary.quarantined += 1;
                at = next;
            }
            None => {
                summary.torn_bytes = (data_end - at) as u64;
                break;
            }
        }
    }
    summary.valid_len = at as u64;
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use camp_core::rng::Rng64;

    fn sample_records() -> Vec<Vec<u8>> {
        let mut encoded = Vec::new();
        let records = [
            Record::Set {
                key: b"user:1",
                value: b"alice",
                flags: 7,
                cost: 1_000,
                expires_at: 0,
            },
            Record::Set {
                key: b"user:2",
                value: &[0xAB; 300],
                flags: 0,
                cost: 42,
                expires_at: 99_999,
            },
            Record::Delete { key: b"user:1" },
            Record::Touch {
                key: b"user:2",
                expires_at: 123,
            },
            Record::Clear,
            Record::Set {
                key: b"",
                value: b"",
                flags: u32::MAX,
                cost: u64::MAX,
                expires_at: u64::MAX,
            },
            Record::Seal,
        ];
        for record in &records {
            let mut buf = Vec::new();
            encode_into(record, &mut buf);
            encoded.push(buf);
        }
        encoded
    }

    fn segment_from(parts: &[Vec<u8>]) -> Vec<u8> {
        parts.iter().flat_map(|p| p.iter().copied()).collect()
    }

    #[test]
    fn crc32c_matches_known_vectors() {
        // RFC 3720 appendix B.4 test vectors.
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    }

    /// The byte-at-a-time form [`crc32c`] replaced, kept as its oracle.
    fn crc32c_bytewise(bytes: &[u8]) -> u32 {
        const TABLE: [u32; 256] = build_crc_tables()[0];
        !bytes.iter().fold(!0u32, |crc, &b| {
            (crc >> 8) ^ TABLE[((crc ^ u32::from(b)) & 0xFF) as usize]
        })
    }

    #[test]
    fn sliced_crc_equals_the_bytewise_form_at_every_length_and_alignment() {
        let mut rng = Rng64::seed_from_u64(0xC3C3_2C00);
        let buffer: Vec<u8> = (0..4096 + 8)
            .map(|_| (rng.next_u64() & 0xFF) as u8)
            .collect();
        for offset in 0..8 {
            for len in 0..=4096 {
                let bytes = &buffer[offset..offset + len];
                assert_eq!(
                    crc32c(bytes),
                    crc32c_bytewise(bytes),
                    "offset {offset}, len {len}"
                );
            }
        }
    }

    #[test]
    fn records_round_trip() {
        let mut buf = Vec::new();
        let original = Record::Set {
            key: b"k",
            value: b"v1234",
            flags: 3,
            cost: 17,
            expires_at: 86_400,
        };
        encode_into(&original, &mut buf);
        let mut seen = Vec::new();
        let summary = scan(&buf, |r| {
            if let Record::Set {
                key,
                value,
                flags,
                cost,
                expires_at,
            } = r
            {
                seen.push((key.to_vec(), value.to_vec(), flags, cost, expires_at));
            }
        });
        assert_eq!(summary.applied, 1);
        assert_eq!(summary.quarantined, 0);
        assert_eq!(summary.torn_bytes, 0);
        assert_eq!(
            seen,
            vec![(b"k".to_vec(), b"v1234".to_vec(), 3, 17, 86_400)]
        );
    }

    #[test]
    fn clean_segment_scans_fully_and_reports_seal() {
        let segment = segment_from(&sample_records());
        let mut applied = 0u64;
        let summary = scan(&segment, |_| applied += 1);
        assert_eq!(summary.applied, 7);
        assert_eq!(applied, 7);
        assert_eq!(summary.quarantined, 0);
        assert_eq!(summary.torn_bytes, 0);
        assert!(summary.sealed);
    }

    #[test]
    fn torn_tail_is_counted_not_applied() {
        let records = sample_records();
        let mut segment = segment_from(&records[..2]);
        let full_len = segment.len();
        // Chop the second record mid-payload: a torn tail.
        segment.truncate(full_len - 100);
        let mut applied = 0u64;
        let summary = scan(&segment, |_| applied += 1);
        assert_eq!(applied, 1);
        assert_eq!(summary.applied, 1);
        assert_eq!(summary.quarantined, 0);
        assert_eq!(
            summary.torn_bytes as usize,
            segment.len() - records[0].len()
        );
        assert!(!summary.sealed);
    }

    #[test]
    fn reserved_zeros_end_the_log_cleanly() {
        let records = sample_records();
        let log = segment_from(&records[..3]);
        // A whole runway, a header's worth, less than a header's worth.
        for zeros in [4096, FRAME_HEADER_LEN, 5, 0] {
            let mut segment = log.clone();
            segment.resize(log.len() + zeros, 0);
            let summary = scan(&segment, |_| {});
            assert_eq!(
                summary,
                ScanSummary {
                    applied: 3,
                    valid_len: log.len() as u64,
                    ..ScanSummary::default()
                },
                "{zeros} zeros"
            );
        }
        // A record whose own payload ends in zeros is not cut short.
        let mut segment = Vec::new();
        encode_into(
            &Record::Set {
                key: b"k",
                value: &[0; 64],
                flags: 0,
                cost: 0,
                expires_at: 0,
            },
            &mut segment,
        );
        let len = segment.len();
        segment.resize(len + 100, 0);
        let summary = scan(&segment, |_| {});
        assert_eq!((summary.applied, summary.valid_len), (1, len as u64));
    }

    #[test]
    fn zeros_or_garbage_mid_log_are_quarantined_when_a_frame_follows() {
        let records = sample_records();
        for gap in [vec![0u8; 600], vec![0x5A; 37]] {
            let mut segment = segment_from(&records[..2]);
            segment.extend_from_slice(&gap);
            segment.extend(segment_from(&records[2..4]));
            segment.resize(segment.len() + 512, 0);
            let mut applied = 0u64;
            let summary = scan(&segment, |_| applied += 1);
            assert_eq!(applied, 4, "the records past the gap still replay");
            assert_eq!((summary.quarantined, summary.torn_bytes), (1, 0));
        }
    }

    #[test]
    fn garbage_with_no_frame_after_it_is_the_torn_tail() {
        let records = sample_records();
        let log = segment_from(&records[..2]);
        let mut segment = log.clone();
        // Half a frame, then the runway it was being written over.
        segment.extend_from_slice(&records[2][..records[2].len() / 2]);
        let torn = segment.len() - log.len();
        segment.resize(segment.len() + 1000, 0);
        let summary = scan(&segment, |_| {});
        assert_eq!(
            summary,
            ScanSummary {
                applied: 2,
                torn_bytes: torn as u64,
                valid_len: log.len() as u64,
                ..ScanSummary::default()
            }
        );
    }

    #[test]
    fn corrupt_middle_record_is_quarantined_and_scan_resyncs() {
        let records = sample_records();
        let mut segment = segment_from(&records[..3]);
        // Flip a payload byte in the middle record.
        let middle_payload_at = records[0].len() + FRAME_HEADER_LEN + 5;
        segment[middle_payload_at] ^= 0xFF;
        let mut applied = 0u64;
        let summary = scan(&segment, |_| applied += 1);
        // First and third records survive; the middle one is quarantined.
        assert_eq!(applied, 2);
        assert!(summary.quarantined >= 1);
        assert_eq!(summary.torn_bytes, 0);
    }

    #[test]
    fn garbage_prefix_resyncs_to_real_records() {
        let records = sample_records();
        let mut segment = vec![0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02, 0x03];
        segment.extend(segment_from(&records[..2]));
        let mut applied = 0u64;
        let summary = scan(&segment, |_| applied += 1);
        assert_eq!(applied, 2);
        assert!(summary.quarantined >= 1);
    }

    #[test]
    fn implausible_length_does_not_allocate_or_panic() {
        let mut segment = Vec::new();
        segment.extend_from_slice(&MAGIC.to_be_bytes());
        segment.extend_from_slice(&u32::MAX.to_be_bytes()); // absurd len
        segment.extend_from_slice(&0u32.to_be_bytes());
        segment.extend_from_slice(&[0u8; 64]);
        let summary = scan(&segment, |_| {});
        assert_eq!(summary.applied, 0);
        // Nothing verifiable follows it, so it is a torn tail, counted up
        // to its last non-zero byte.
        assert_eq!((summary.quarantined, summary.torn_bytes), (0, 8));
        assert_eq!(summary.valid_len, 0);
    }

    /// The recovery fuzzer (the PR 4/PR 5 fuzzer recipe): 20k seeded
    /// mutations — bit flips, truncations, insertions, duplications and
    /// cross-corpus splices — of a valid segment. The scan must always
    /// terminate without panicking, and every record it *applies* must
    /// be byte-identical to a record from the valid corpus: corruption
    /// is only ever quarantined or torn, never served.
    #[test]
    fn mangled_segments_never_panic_and_never_apply_corrupt_records() {
        let corpus = sample_records();
        let valid: Vec<Vec<u8>> = corpus.clone();
        let is_known = |record: &Record<'_>| {
            let mut buf = Vec::new();
            encode_into(record, &mut buf);
            valid.contains(&buf)
        };
        let mut rng = Rng64::seed_from_u64(0xD15C_F0CC);
        let mut quarantined_total = 0u64;
        let mut torn_total = 0u64;
        for round in 0..20_000 {
            let mut segment = segment_from(&corpus);
            let mutations = 1 + rng.range_u64(0, 4);
            for _ in 0..mutations {
                if segment.is_empty() {
                    break;
                }
                match rng.range_u64(0, 5) {
                    0 => {
                        // Bit flip.
                        let at = rng.range_usize(0, segment.len());
                        segment[at] ^= 1 << rng.range_u64(0, 8);
                    }
                    1 => {
                        // Truncate.
                        let at = rng.range_usize(0, segment.len());
                        segment.truncate(at);
                    }
                    2 => {
                        // Insert a random byte.
                        let at = rng.range_usize(0, segment.len() + 1);
                        segment.insert(at, (rng.next_u64() & 0xFF) as u8);
                    }
                    3 => {
                        // Duplicate a chunk in place.
                        let at = rng.range_usize(0, segment.len());
                        let end = (at + rng.range_usize(1, 48)).min(segment.len());
                        let chunk: Vec<u8> = segment[at..end].to_vec();
                        segment.splice(at..at, chunk);
                    }
                    _ => {
                        // Splice a fragment of another corpus record in.
                        let donor = &corpus[rng.range_usize(0, corpus.len())];
                        let from = rng.range_usize(0, donor.len());
                        let to = (from + rng.range_usize(1, 32)).min(donor.len());
                        let at = rng.range_usize(0, segment.len() + 1);
                        let frag: Vec<u8> = donor[from..to].to_vec();
                        segment.splice(at..at, frag);
                    }
                }
            }
            let mut corrupt_served = 0u64;
            let summary = scan(&segment, |record| {
                if !is_known(&record) {
                    corrupt_served += 1;
                }
            });
            assert_eq!(
                corrupt_served, 0,
                "round {round}: scan served a corrupt record"
            );
            assert!(
                summary.applied <= (corpus.len() as u64) * 3,
                "round {round}: applied count exploded"
            );
            quarantined_total += summary.quarantined;
            torn_total += summary.torn_bytes;
        }
        // The exact-counts sanity check: across 20k mutated segments the
        // scanner must both quarantine and tear (mutations hit payloads
        // and tails alike); all-zero counters would mean the checks are
        // dead code.
        assert!(quarantined_total > 0);
        assert!(torn_total > 0);
    }
}
