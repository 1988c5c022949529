//! The journal's older frame format, read once at boot and then
//! compacted away.
//!
//! Before segment files were recycled, a frame had a 12-byte header —
//! magic `"CPLG"`, payload length, CRC32C over the payload alone — and
//! named no segment; its payload is what a payload is today. Boot reads
//! every segment file through [`read_segment`]. A file whose first
//! verifiable frame is of this format is *re-framed*: each verified frame
//! is re-emitted as a frame of the file's segment, every other byte is
//! passed through, and the copy ends at the first frame of the current
//! format (a file holds one format). The one scanner,
//! [`record::scan_segment`], then reads the copy, so corruption is
//! quarantined and a torn tail counted as they always were. Boot begins
//! its own segment with a compaction snapshot whenever it re-framed a
//! file, which retires the file; if that snapshot fails, the file stays
//! and is re-framed again at the next boot. No writer emits this format,
//! and no file of it is ever recycled.

use super::record::{self, crc32c, read_u32, Record, ScanSummary, MAX_PAYLOAD_LEN};

/// The older format's magic, `"CPLG"`.
const MAGIC: u32 = 0x4350_4C47;

/// Its frame header: magic, payload length, CRC32C of the payload.
const HEADER_LEN: usize = 12;

/// The payload of the older-format frame at `bytes[at..]`, if a whole one
/// with a sane length and a matching checksum starts there.
fn payload_at(bytes: &[u8], at: usize) -> Option<&[u8]> {
    if read_u32(bytes, at)? != MAGIC {
        return None;
    }
    let len = read_u32(bytes, at + 4)? as usize;
    if len == 0 || len > MAX_PAYLOAD_LEN {
        return None;
    }
    let payload = bytes.get(at + HEADER_LEN..at + HEADER_LEN + len)?;
    (crc32c(payload) == read_u32(bytes, at + 8)?).then_some(payload)
}

/// `bytes` with every verified older-format frame re-emitted as a frame
/// of `segment` and every other byte passed through, up to the first
/// frame of the current format; and where each re-emitted frame begins in
/// the copy. `None` if no older-format frame comes before that frame: the
/// file is of the current format.
fn reframe(bytes: &[u8], segment: u64) -> Option<(Vec<u8>, Vec<usize>)> {
    let (mut out, mut starts) = (Vec::new(), Vec::new());
    let (mut copied, mut at) = (0, 0);
    // The zeros a file ends with are the clean end of its log, in either
    // format.
    let data_end = bytes
        .iter()
        .rposition(|&b| b != 0)
        .map_or(0, |last| last + 1);
    while at < data_end {
        if let Some(payload) = payload_at(bytes, at) {
            out.extend_from_slice(&bytes[copied..at]);
            starts.push(out.len());
            record::frame_payload(payload, segment, &mut out);
            at += HEADER_LEN + payload.len();
            copied = at;
        } else if record::is_frame_at(bytes, at) {
            break;
        } else {
            at += 1;
        }
    }
    if starts.is_empty() {
        return None;
    }
    out.extend_from_slice(&bytes[copied..at]);
    Some((out, starts))
}

/// Reads segment `segment`'s file `bytes` as boot does, calling `apply`
/// for each record: through the scanner, re-framed first if the file is
/// of the older format. Returns the scan's summary, whose `valid_len` is
/// an offset of `bytes`, and whether the file was re-framed.
pub(crate) fn read_segment(
    bytes: &[u8],
    segment: u64,
    apply: impl FnMut(Record<'_>),
) -> (ScanSummary, bool) {
    let Some((reframed, starts)) = reframe(bytes, segment) else {
        return (record::scan_segment(bytes, segment, apply), false);
    };
    let mut summary = record::scan_segment(&reframed, segment, apply);
    // Each re-emitted frame is a segment index longer than its original.
    let grown = starts.partition_point(|&start| (start as u64) < summary.valid_len);
    let growth = (record::FRAME_HEADER_LEN - HEADER_LEN) * grown;
    summary.valid_len = summary.valid_len.saturating_sub(growth as u64);
    (summary, true)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::item::Item;
    use crate::persist::record::tests::{
        frames_of, from_hex, fuzz_recovery, sample_records, segment_from,
    };
    use crate::persist::record::{encode_frame, FRAME_HEADER_LEN};

    /// `record` as a frame of the older format.
    pub(crate) fn frame(record: &Record<'_>) -> Vec<u8> {
        let mut current = Vec::new();
        encode_frame(record, 0, &mut current);
        let payload = &current[FRAME_HEADER_LEN..];
        let mut frame = MAGIC.to_be_bytes().to_vec();
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        frame.extend_from_slice(&crc32c(payload).to_be_bytes());
        frame.extend_from_slice(payload);
        frame
    }

    /// Whether an older-format frame starts anywhere in `bytes`.
    pub(crate) fn holds_frame(bytes: &[u8]) -> bool {
        (0..bytes.len()).any(|at| payload_at(bytes, at).is_some())
    }

    /// Every record `bytes` yields when read as segment `segment`.
    fn read_all(bytes: &[u8], segment: u64) -> (Vec<Vec<u8>>, ScanSummary, bool) {
        let mut seen = Vec::new();
        let (summary, reframed) = read_segment(bytes, segment, |record| {
            let mut frame = Vec::new();
            encode_frame(&record, segment, &mut frame);
            seen.push(frame);
        });
        (seen, summary, reframed)
    }

    /// One frame of each mutating kind, byte for byte as the journal wrote
    /// them before frames named their segment: every data directory of
    /// that format must still boot, to the same records. The `Set`
    /// payload (75 bytes) runs a checksum kernel through nine 8-byte words
    /// and a 3-byte tail.
    #[test]
    fn encoded_frames_are_pinned_to_the_journal_format() {
        let pinned = [
            (
                Record::Set(Item {
                    key: b"user:42",
                    value: b"{\"name\":\"ada\",\"langs\":[\"rust\",\"c\"],\"k\":1}",
                    flags: 0x00C0_FFEE,
                    cost: 2_500,
                    expires_at: 1_700_000_000,
                }),
                concat!(
                    "43504c47", "0000004b", "27146bf7", // magic, len 75, crc
                    "01", "0007", "00000029", "00c0ffee", // set, key/value len, flags
                    "00000000000009c4", "000000006553f100", // cost, expires_at
                    "757365723a3432", // key
                    "7b226e616d65223a22616461222c226c616e6773223a5b2272757374222c2263225d2c226b223a317d",
                ),
            ),
            (
                Record::Delete { key: b"user:42" },
                concat!("43504c47", "0000000a", "04392254", "02", "0007", "757365723a3432"),
            ),
            (
                Record::Touch {
                    key: b"session:9",
                    expires_at: 86_400,
                },
                concat!(
                    "43504c47", "00000014", "ecaf6bfc", "04", "0009", "0000000000015180",
                    "73657373696f6e3a39",
                ),
            ),
            (Record::Clear, concat!("43504c47", "00000001", "412da0a5", "03")),
        ];
        let mut segment = Vec::new();
        for (record, hex) in &pinned {
            let bytes = from_hex(hex);
            assert_eq!(frame(record), bytes, "{record:?}");
            segment.extend_from_slice(&bytes);
        }
        let mut seen = 0;
        let (summary, reframed) = read_segment(&segment, 3, |record| {
            assert_eq!(record, pinned[seen].0);
            seen += 1;
        });
        assert!(reframed);
        assert_eq!(seen, pinned.len());
        assert_eq!(
            summary,
            ScanSummary {
                applied: pinned.len() as u64,
                valid_len: segment.len() as u64,
                ..ScanSummary::default()
            }
        );
    }

    #[test]
    fn a_file_holds_one_format() {
        let current = segment_from(&frames_of(9, 2));
        let legacy = segment_from(
            &sample_records()
                .iter()
                .take(2)
                .map(frame)
                .collect::<Vec<_>>(),
        );
        // Older frames, then a frame of the current format: another life's,
        // where the log ends.
        let (seen, summary, reframed) = read_all(&[legacy.clone(), current.clone()].concat(), 9);
        assert!(reframed);
        assert_eq!(
            (seen.len(), summary.applied, summary.quarantined),
            (2, 2, 0)
        );
        assert_eq!(summary.torn_bytes, 0);
        assert_eq!(summary.valid_len, legacy.len() as u64);
        // The other way round no writer produces (an older-format file is
        // never recycled): the older frames read as a torn tail.
        let (_, summary, reframed) = read_all(&[current.clone(), legacy.clone()].concat(), 9);
        assert!(!reframed);
        assert_eq!((summary.applied, summary.quarantined), (2, 0));
        assert_eq!(summary.torn_bytes, legacy.len() as u64);
        assert_eq!(summary.valid_len, current.len() as u64);
    }

    #[test]
    fn a_torn_or_corrupt_older_file_counts_as_it_always_did() {
        let frames: Vec<Vec<u8>> = sample_records().iter().map(frame).collect();
        let whole = segment_from(&frames);
        // Torn in the last-but-one record, then the zeros reserved past it.
        let cut = whole.len() - frames[6].len() - 3;
        let mut torn = whole[..cut].to_vec();
        torn.resize(torn.len() + 512, 0);
        let (seen, summary, _) = read_all(&torn, 4);
        assert_eq!(seen.len(), 5);
        assert_eq!(
            summary,
            ScanSummary {
                applied: 5,
                torn_bytes: (frames[5].len() - 3) as u64,
                valid_len: (cut - frames[5].len() + 3) as u64,
                ..ScanSummary::default()
            }
        );
        // A flipped payload byte in the second record: quarantined, and
        // the scan resumes at the third.
        let mut corrupt = whole.clone();
        corrupt[frames[0].len() + HEADER_LEN + 5] ^= 0xFF;
        let (seen, summary, _) = read_all(&corrupt, 4);
        assert_eq!(
            (seen.len(), summary.quarantined, summary.torn_bytes),
            (6, 1, 0)
        );
        assert!(summary.sealed);
        assert_eq!(summary.valid_len, whole.len() as u64);
    }

    /// The recovery fuzzer over an older-format journal, read as boot
    /// reads it (detect, re-frame, scan): 20k seeded mutations, and every
    /// record applied is one some writer encoded.
    #[test]
    fn mangled_older_segments_never_panic_and_never_apply_corrupt_records() {
        let frames: Vec<Vec<u8>> = sample_records().iter().map(frame).collect();
        fuzz_recovery(
            &segment_from(&frames),
            &frames,
            0xD15C_F0CC,
            |bytes, apply| read_segment(bytes, 9, apply).0,
        );
    }
}
