//! The on-disk record codec: length-prefixed, CRC32C-checksummed
//! mutation records, plus the forward scanner recovery is built on.
//!
//! # Record layout (all integers big-endian)
//!
//! ```text
//! +--------+--------+--------+---------+----------------------+
//! | magic  | len    | crc    | segment | payload (len bytes)  |
//! | u32    | u32    | u32    | u32     |                      |
//! +--------+--------+--------+---------+----------------------+
//! ```
//!
//! `magic` is the constant `"CPL2"`; `len` counts payload bytes only;
//! `segment` is the low 32 bits of the index of the segment the frame was
//! written to; `crc` is CRC32C (Castagnoli) over `segment` and the
//! payload. The payload begins with a one-byte kind tag. A `Set`'s body is
//! the item exactly as a slab chunk holds it ([`Item::append_to`]), cost
//! included:
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
//! This is the one frame format the scanner reads. A segment written in
//! the journal's older format is re-framed into this one at boot
//! (`persist::legacy`) and then compacted away.
//!
//! The segment index is what makes a recycled file safe: a spare file is
//! overwritten from offset 0, so past the records of its new life lie
//! those of its earlier one, checksums intact. A verified frame that
//! names another segment is such a leftover, and ends the log.
//!
//! The scanner ([`scan_segment`]) never panics on arbitrary bytes. Where
//! no frame of the segment starts it asks what lies beyond: nothing but
//! zeros, an end marker or another segment's frames end the log cleanly
//! (counted nowhere); other bytes with no frame of the segment after
//! them are the torn tail of an interrupted write (counted in
//! [`ScanSummary::torn_bytes`]); bytes *with* one are mid-log corruption
//! — quarantined, then skipped to that frame.

pub use super::crc::crc32c;

use crate::item::Item;

/// Per-record framing magic: `"CPL2"` (camp persistence log, the
/// format whose frames name their segment).
pub const MAGIC: u32 = 0x4350_4C32;

/// Frame header bytes ahead of the payload: magic + len + crc + segment.
pub const FRAME_HEADER_LEN: usize = 16;

/// The checksum covers a frame from this offset on: its segment index and
/// its payload.
pub const CHECKED_FROM: usize = 12;

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
    /// A successful store (`set`/`add`/`replace`/`incr`/`decr` result):
    /// the stored item, whose cost lets recovery rebuild its eviction
    /// priority too.
    Set(Item<'a>),
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

/// The segment tag a frame carries: the low 32 bits of the index, which
/// a file's successive lives never share (indices only grow, and a spare
/// serves again only after a rotation).
fn segment_tag(segment: u64) -> u32 {
    segment as u32
}

/// Appends `record` to `buf` as one framed, checksummed log record of
/// segment `segment`: the frame the writer emits. Keys longer than
/// `u16::MAX` are refused by the protocol layer long before this point
/// (the parser caps key length), so the casts are safe.
pub fn encode_frame(record: &Record<'_>, segment: u64, buf: &mut Vec<u8>) {
    let start = buf.len();
    buf.extend_from_slice(&[0; FRAME_HEADER_LEN]);
    match *record {
        Record::Set(item) => {
            buf.push(KIND_SET);
            item.append_to(buf);
        }
        Record::Delete { key } => {
            buf.push(KIND_DELETE);
            buf.extend_from_slice(&(key.len() as u16).to_be_bytes());
            buf.extend_from_slice(key);
        }
        Record::Clear => buf.push(KIND_CLEAR),
        Record::Touch { key, expires_at } => {
            buf.push(KIND_TOUCH);
            buf.extend_from_slice(&(key.len() as u16).to_be_bytes());
            buf.extend_from_slice(&expires_at.to_be_bytes());
            buf.extend_from_slice(key);
        }
        Record::Seal => buf.push(KIND_SEAL),
    }
    finish_frame(buf, start, segment);
}

/// Appends `payload` to `buf` as a frame of segment `segment`, whatever
/// it decodes to: how `legacy` re-frames an older frame.
pub(crate) fn frame_payload(payload: &[u8], segment: u64, buf: &mut Vec<u8>) {
    let start = buf.len();
    buf.extend_from_slice(&[0; FRAME_HEADER_LEN]);
    buf.extend_from_slice(payload);
    finish_frame(buf, start, segment);
}

/// Fills in the header of the frame at `buf[start..]`, whose payload runs
/// to the end of `buf`.
fn finish_frame(buf: &mut [u8], start: usize, segment: u64) {
    let payload_len = (buf.len() - start - FRAME_HEADER_LEN) as u32;
    buf[start..start + 4].copy_from_slice(&MAGIC.to_be_bytes());
    buf[start + 4..start + 8].copy_from_slice(&payload_len.to_be_bytes());
    buf[start + CHECKED_FROM..start + FRAME_HEADER_LEN]
        .copy_from_slice(&segment_tag(segment).to_be_bytes());
    let crc = crc32c(&buf[start + CHECKED_FROM..]);
    buf[start + 8..start + CHECKED_FROM].copy_from_slice(&crc.to_be_bytes());
}

fn read_u16(buf: &[u8], at: usize) -> Option<u16> {
    Some(u16::from_be_bytes(buf.get(at..at + 2)?.try_into().ok()?))
}

pub(crate) fn read_u32(buf: &[u8], at: usize) -> Option<u32> {
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
            let item = Item::parse(rest)?;
            (Item::encoded_len(item.key.len(), item.value.len()) == rest.len())
                .then_some(Record::Set(item))
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
    /// Where the log ends: everything from this offset on is torn tail,
    /// unused reserved zeros or a recycled file's earlier life, and
    /// recovery may cut it off.
    pub valid_len: u64,
}

/// What the writer appends after every write: a frame header's worth of
/// zeros, so the log reads as ended there whatever the file holds past it
/// — reserved zeros, or a recycled file's earlier life. The next write
/// lands after it, and a scan steps over one that a frame of its segment
/// follows.
pub const END_MARKER: [u8; FRAME_HEADER_LEN] = [0; FRAME_HEADER_LEN];

/// One checksum-verified frame.
struct Frame<'a> {
    payload: &'a [u8],
    /// Bytes on disk, header included.
    len: usize,
    /// The segment tag it carries.
    segment: u32,
}

/// Searches `buf[from..]` for the next frame magic.
fn resync(buf: &[u8], from: usize) -> Option<usize> {
    let mut at = from;
    while at + 4 <= buf.len() {
        if read_u32(buf, at) == Some(MAGIC) {
            return Some(at);
        }
        at += 1;
    }
    None
}

/// The frame at `buf[at..]`, if a whole one with a sane length and a
/// matching checksum starts there.
fn frame_at(buf: &[u8], at: usize) -> Option<Frame<'_>> {
    if read_u32(buf, at)? != MAGIC {
        return None;
    }
    let len = read_u32(buf, at + 4)? as usize;
    let crc = read_u32(buf, at + 8)?;
    let segment = read_u32(buf, at + CHECKED_FROM)?;
    // Every payload leads with its kind byte. An empty one is a header
    // torn over reserved zeros.
    if len == 0 || len > MAX_PAYLOAD_LEN {
        return None;
    }
    let end = at + FRAME_HEADER_LEN + len;
    let checked = buf.get(at + CHECKED_FROM..end)?;
    (crc32c(checked) == crc).then_some(Frame {
        payload: &checked[FRAME_HEADER_LEN - CHECKED_FROM..],
        len: FRAME_HEADER_LEN + len,
        segment,
    })
}

/// Whether a verifiable frame, of any segment, starts at `buf[at..]`.
pub(crate) fn is_frame_at(buf: &[u8], at: usize) -> bool {
    frame_at(buf, at).is_some()
}

/// The first verifiable frame in `buf[from..]`, of any segment.
fn next_frame(buf: &[u8], from: usize) -> Option<(usize, Frame<'_>)> {
    let mut at = from;
    while let Some(hit) = resync(buf, at) {
        if let Some(frame) = frame_at(buf, hit) {
            return Some((hit, frame));
        }
        at = hit + 1;
    }
    None
}

/// Scans the bytes of segment `segment` front to back, calling `apply` for
/// every checksum-verified record of that segment. Never panics, always
/// terminates: the cursor strictly advances.
///
/// The log ends cleanly at a verified frame of another segment — the
/// earlier life of a recycled file. Where no verifiable frame starts, what
/// follows decides (the end-of-log rules):
///
/// 1. nothing but zeros — starting with the twelve a frame header would
///    occupy — is the unused end of a reserved segment: the log ends
///    cleanly and nothing is counted;
/// 2. an [`END_MARKER`] is stepped over when a frame of the segment
///    follows it, and otherwise ends the log as cleanly — but for a frame
///    begun right after it and not finished, a torn tail by rule 3;
/// 3. bytes with no frame of the segment after them, before any other
///    segment's, are the **torn tail** of an interrupted write, counted
///    in `torn_bytes` up to their last non-zero byte (whatever zeros
///    trail them were reserved, not torn);
/// 4. bytes with a frame of the segment after them are mid-log
///    corruption: one quarantine, and the scan resumes at that frame.
pub fn scan_segment(buf: &[u8], segment: u64, mut apply: impl FnMut(Record<'_>)) -> ScanSummary {
    let tag = segment_tag(segment);
    let ours = |frame: &Frame<'_>| frame.segment == tag;
    let mut summary = ScanSummary::default();
    // Nothing at or past this offset but zeros.
    let data_end = buf.iter().rposition(|&b| b != 0).map_or(0, |last| last + 1);
    let mut at = 0usize;
    while at < buf.len() {
        if let Some(frame) = frame_at(buf, at) {
            if !ours(&frame) {
                break;
            }
            match decode_payload(frame.payload) {
                Some(record) => {
                    summary.sealed = matches!(record, Record::Seal);
                    summary.applied += 1;
                    apply(record);
                }
                None => summary.quarantined += 1,
            }
            at += frame.len;
            continue;
        }
        if at >= data_end {
            break;
        }
        let marked = buf[at..].starts_with(&END_MARKER);
        if marked && frame_at(buf, at + END_MARKER.len()).is_some_and(|next| ours(&next)) {
            at += END_MARKER.len();
            continue;
        }
        match next_frame(buf, at + 1) {
            Some((next, frame)) if ours(&frame) => {
                summary.quarantined += 1;
                at = next;
            }
            other => {
                let end = other.map_or(data_end, |(next, _)| next);
                // Past an end marker lies the earlier life, unless a write
                // began a frame there and did not finish it.
                let from = if marked { at + END_MARKER.len() } else { at };
                if !marked || read_u32(buf, from) == Some(MAGIC) {
                    let torn = buf[from..end]
                        .iter()
                        .rposition(|&b| b != 0)
                        .map_or(0, |last| last + 1);
                    summary.torn_bytes = torn as u64;
                }
                break;
            }
        }
    }
    summary.valid_len = at as u64;
    summary
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use camp_core::rng::Rng64;

    /// A `Set` of the given fields.
    fn set<'a>(
        key: &'a [u8],
        value: &'a [u8],
        flags: u32,
        cost: u64,
        expires_at: u64,
    ) -> Record<'a> {
        Record::Set(Item {
            key,
            value,
            flags,
            cost,
            expires_at,
        })
    }

    /// One record of each kind, and `Set`s with a 300-byte and with an
    /// empty key and value.
    pub(crate) fn sample_records() -> Vec<Record<'static>> {
        vec![
            set(b"user:1", b"alice", 7, 1_000, 0),
            set(b"user:2", &[0xAB; 300], 0, 42, 99_999),
            Record::Delete { key: b"user:1" },
            Record::Touch {
                key: b"user:2",
                expires_at: 123,
            },
            Record::Clear,
            set(b"", b"", u32::MAX, u64::MAX, u64::MAX),
            Record::Seal,
        ]
    }

    /// [`sample_records`] as frames of `segment`.
    fn sample_frames(segment: u64) -> Vec<Vec<u8>> {
        sample_records()
            .iter()
            .map(|record| {
                let mut frame = Vec::new();
                encode_frame(record, segment, &mut frame);
                frame
            })
            .collect()
    }

    /// The payload the writer encodes for `record`.
    fn payload_of(record: &Record<'_>) -> Vec<u8> {
        let mut frame = Vec::new();
        encode_frame(record, 0, &mut frame);
        frame.split_off(FRAME_HEADER_LEN)
    }

    pub(crate) fn segment_from(parts: &[Vec<u8>]) -> Vec<u8> {
        parts.iter().flat_map(|p| p.iter().copied()).collect()
    }

    fn to_hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    pub(crate) fn from_hex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|at| u8::from_str_radix(&hex[at..at + 2], 16).expect("hex"))
            .collect()
    }

    /// A `Set`'s payload is its kind byte and then the item exactly as a
    /// slab chunk holds it.
    #[test]
    fn a_set_payload_is_the_kind_byte_and_the_item_encoding() {
        let item = Item {
            key: b"user:42",
            value: b"{\"name\":\"ada\"}",
            flags: 0x00C0_FFEE,
            cost: 2_500,
            expires_at: 1_700_000_000,
        };
        let mut chunk = vec![0u8; Item::encoded_len(item.key.len(), item.value.len())];
        item.encode_into(&mut chunk);
        assert_eq!(
            payload_of(&Record::Set(item)),
            [&[KIND_SET][..], &chunk].concat()
        );
        assert_eq!(
            decode_payload(&payload_of(&Record::Set(item))),
            Some(Record::Set(item))
        );
        // A payload longer or shorter than the item it declares is not one.
        let mut payload = payload_of(&Record::Set(item));
        payload.push(0);
        assert_eq!(decode_payload(&payload), None);
        payload.truncate(payload.len() - 2);
        assert_eq!(decode_payload(&payload), None);
    }

    /// The writer's own `Set`, `Touch` and `Clear` frames of segment 7,
    /// byte for byte: their payloads are those the journal has always
    /// written (the older format's pins in `legacy` carry the same payload
    /// hex), behind the header that names the segment.
    #[test]
    fn writer_frames_of_each_kind_are_pinned() {
        let pinned = [
            (
                set(
                    b"user:42",
                    b"{\"name\":\"ada\",\"langs\":[\"rust\",\"c\"],\"k\":1}",
                    0x00C0_FFEE,
                    2_500,
                    1_700_000_000,
                ),
                concat!(
                    "43504c32", "0000004b", "27683311", "00000007", // magic, len 75, crc, segment
                    "01", "0007", "00000029", "00c0ffee", // set, key/value len, flags
                    "00000000000009c4", "000000006553f100", // cost, expires_at
                    "757365723a3432", // key
                    "7b226e616d65223a22616461222c226c616e6773223a5b2272757374222c2263225d2c226b223a317d",
                ),
            ),
            (
                Record::Touch {
                    key: b"session:9",
                    expires_at: 86_400,
                },
                concat!(
                    "43504c32", "00000014", "f7a6a0af", "00000007", "04", "0009",
                    "0000000000015180", "73657373696f6e3a39",
                ),
            ),
            (
                Record::Clear,
                concat!("43504c32", "00000001", "2c4f4c84", "00000007", "03"),
            ),
        ];
        let mut segment = Vec::new();
        for (record, hex) in &pinned {
            let mut frame = Vec::new();
            encode_frame(record, 7, &mut frame);
            assert_eq!(to_hex(&frame), *hex, "{record:?}");
            segment.extend_from_slice(&frame);
        }
        let mut seen = 0;
        let summary = scan_segment(&segment, 7, |record| {
            assert_eq!(record, pinned[seen].0);
            seen += 1;
        });
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

    /// One frame as the writer emits it: the current magic, the payload's
    /// length and a checksum over the segment tag and the payload — the
    /// tag is the segment index's low 32 bits.
    #[test]
    fn writer_frames_are_pinned_with_their_segment() {
        let mut frame = Vec::new();
        encode_frame(
            &Record::Delete { key: b"user:42" },
            0x1_0000_0007,
            &mut frame,
        );
        let hex = concat!(
            "43504c32",
            "0000000a",
            "7beeb99a",
            "00000007", // magic, len 10, crc, segment
            "02",
            "0007",
            "757365723a3432",
        );
        assert_eq!(to_hex(&frame), hex);
        let summary = scan_segment(&frame, 7, |record| {
            assert_eq!(record, Record::Delete { key: b"user:42" });
        });
        assert_eq!(
            (summary.applied, summary.valid_len),
            (1, frame.len() as u64)
        );
        // Read as any other segment, it is another life's frame: the log
        // ends before it, cleanly.
        assert_eq!(scan_segment(&frame, 8, |_| {}), ScanSummary::default());
    }

    /// `count` sets of segment `segment`, each of its own key.
    pub(crate) fn frames_of(segment: u64, count: usize) -> Vec<Vec<u8>> {
        (0..count)
            .map(|i| {
                let key = format!("key-{segment}-{i}");
                let value = vec![b'v'; 10 + 7 * i];
                let mut frame = Vec::new();
                encode_frame(&set(key.as_bytes(), &value, 0, 1, 0), segment, &mut frame);
                frame
            })
            .collect()
    }

    /// A file recycled as segment 9: segment 30's frames (a byte longer
    /// than segment 9's, so the two lives' frames do not line up),
    /// overwritten from offset 0 by `live`.
    fn recycled(live: &[u8]) -> Vec<u8> {
        let mut file = segment_from(&frames_of(30, 40));
        assert!(file.len() > live.len() + 600);
        file[..live.len()].copy_from_slice(live);
        file
    }

    #[test]
    fn a_stale_frame_after_live_ones_ends_the_log_cleanly() {
        let live = frames_of(9, 3);
        let log = segment_from(&live);
        // Directly after the live frames, or where the writer left an end
        // marker over the middle of a stale frame.
        let aligned = [log.clone(), segment_from(&frames_of(3, 5))].concat();
        let marked = recycled(&[log.clone(), END_MARKER.to_vec()].concat());
        for file in [aligned, marked] {
            let summary = scan_segment(&file, 9, |_| {});
            assert_eq!(
                summary,
                ScanSummary {
                    applied: 3,
                    valid_len: log.len() as u64,
                    ..ScanSummary::default()
                }
            );
        }
    }

    #[test]
    fn end_markers_between_writes_are_stepped_over() {
        let live = frames_of(9, 6);
        let mut log = Vec::new();
        for write in live.chunks(2) {
            log.extend(segment_from(write));
            log.extend_from_slice(&END_MARKER);
        }
        let summary = scan_segment(&recycled(&log), 9, |_| {});
        assert_eq!(summary.applied, 6);
        assert_eq!((summary.quarantined, summary.torn_bytes), (0, 0));
        assert_eq!(summary.valid_len, (log.len() - END_MARKER.len()) as u64);
    }

    #[test]
    fn a_live_frame_torn_over_stale_bytes_counts_as_torn() {
        let live = frames_of(9, 3);
        let whole = segment_from(&live[..2]);
        for cut in 1..live[2].len() {
            let mut log = whole.clone();
            log.extend_from_slice(&live[2][..cut]);
            let file = recycled(&log);
            if file[whole.len()..].starts_with(&live[2]) {
                continue; // the earlier life held the missing bytes
            }
            let summary = scan_segment(&file, 9, |_| {});
            assert_eq!((summary.applied, summary.quarantined), (2, 0), "cut {cut}");
            assert!(summary.torn_bytes >= cut as u64, "cut {cut}: {summary:?}");
            assert_eq!(summary.valid_len, whole.len() as u64, "cut {cut}");
        }
    }

    #[test]
    fn a_corrupt_frame_between_live_frames_is_still_quarantined() {
        let live = frames_of(9, 3);
        let mut log = segment_from(&live);
        log.extend_from_slice(&END_MARKER);
        log[live[0].len() + FRAME_HEADER_LEN + 3] ^= 0x10;
        let mut keys = Vec::new();
        let summary = scan_segment(&recycled(&log), 9, |record| {
            if let Record::Set(item) = record {
                keys.push(item.key.to_vec());
            }
        });
        assert_eq!(keys, [b"key-9-0".to_vec(), b"key-9-2".to_vec()]);
        assert_eq!((summary.quarantined, summary.torn_bytes), (1, 0));
    }

    #[test]
    fn records_round_trip() {
        let mut buf = Vec::new();
        let original = set(b"k", b"v1234", 3, 17, 86_400);
        encode_frame(&original, 9, &mut buf);
        let mut seen = Vec::new();
        let summary = scan_segment(&buf, 9, |r| {
            if let Record::Set(item) = r {
                seen.push((
                    item.key.to_vec(),
                    item.value.to_vec(),
                    item.flags,
                    item.cost,
                    item.expires_at,
                ));
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
        let segment = segment_from(&sample_frames(9));
        let mut applied = 0u64;
        let summary = scan_segment(&segment, 9, |_| applied += 1);
        assert_eq!(summary.applied, 7);
        assert_eq!(applied, 7);
        assert_eq!(summary.quarantined, 0);
        assert_eq!(summary.torn_bytes, 0);
        assert!(summary.sealed);
    }

    #[test]
    fn torn_tail_is_counted_not_applied() {
        let records = sample_frames(9);
        let mut segment = segment_from(&records[..2]);
        let full_len = segment.len();
        // Chop the second record mid-payload: a torn tail.
        segment.truncate(full_len - 100);
        let mut applied = 0u64;
        let summary = scan_segment(&segment, 9, |_| applied += 1);
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
        let records = sample_frames(9);
        let log = segment_from(&records[..3]);
        // A whole runway, a header's worth, less than a header's worth.
        for zeros in [4096, FRAME_HEADER_LEN, 5, 0] {
            let mut segment = log.clone();
            segment.resize(log.len() + zeros, 0);
            let summary = scan_segment(&segment, 9, |_| {});
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
        encode_frame(&set(b"k", &[0; 64], 0, 0, 0), 9, &mut segment);
        let len = segment.len();
        segment.resize(len + 100, 0);
        let summary = scan_segment(&segment, 9, |_| {});
        assert_eq!((summary.applied, summary.valid_len), (1, len as u64));
    }

    #[test]
    fn zeros_or_garbage_mid_log_are_quarantined_when_a_frame_follows() {
        let records = sample_frames(9);
        for gap in [vec![0u8; 600], vec![0x5A; 37]] {
            let mut segment = segment_from(&records[..2]);
            segment.extend_from_slice(&gap);
            segment.extend(segment_from(&records[2..4]));
            segment.resize(segment.len() + 512, 0);
            let mut applied = 0u64;
            let summary = scan_segment(&segment, 9, |_| applied += 1);
            assert_eq!(applied, 4, "the records past the gap still replay");
            assert_eq!((summary.quarantined, summary.torn_bytes), (1, 0));
        }
    }

    #[test]
    fn garbage_with_no_frame_after_it_is_the_torn_tail() {
        let records = sample_frames(9);
        let log = segment_from(&records[..2]);
        let mut segment = log.clone();
        // Half a frame, then the runway it was being written over.
        segment.extend_from_slice(&records[2][..records[2].len() / 2]);
        let torn = segment.len() - log.len();
        segment.resize(segment.len() + 1000, 0);
        let summary = scan_segment(&segment, 9, |_| {});
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
        let records = sample_frames(9);
        let mut segment = segment_from(&records[..3]);
        // Flip a payload byte in the middle record.
        let middle_payload_at = records[0].len() + FRAME_HEADER_LEN + 5;
        segment[middle_payload_at] ^= 0xFF;
        let mut applied = 0u64;
        let summary = scan_segment(&segment, 9, |_| applied += 1);
        // First and third records survive; the middle one is quarantined.
        assert_eq!(applied, 2);
        assert!(summary.quarantined >= 1);
        assert_eq!(summary.torn_bytes, 0);
    }

    #[test]
    fn garbage_prefix_resyncs_to_real_records() {
        let records = sample_frames(9);
        let mut segment = vec![0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02, 0x03];
        segment.extend(segment_from(&records[..2]));
        let mut applied = 0u64;
        let summary = scan_segment(&segment, 9, |_| applied += 1);
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
        let summary = scan_segment(&segment, 9, |_| {});
        assert_eq!(summary.applied, 0);
        // Nothing verifiable follows it, so it is a torn tail, counted up
        // to its last non-zero byte.
        assert_eq!((summary.quarantined, summary.torn_bytes), (0, 8));
        assert_eq!(summary.valid_len, 0);
    }

    /// One to four seeded mutations of `segment` — bit flips,
    /// truncations, insertions, duplications and splices of a fragment of
    /// one of `donors`.
    fn mangle(rng: &mut Rng64, segment: &mut Vec<u8>, donors: &[Vec<u8>]) {
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
                    // Splice a fragment of a donor record in.
                    let donor = &donors[rng.range_usize(0, donors.len())];
                    let from = rng.range_usize(0, donor.len());
                    let to = (from + rng.range_usize(1, 32)).min(donor.len());
                    let at = rng.range_usize(0, segment.len() + 1);
                    let frag: Vec<u8> = donor[from..to].to_vec();
                    segment.splice(at..at, frag);
                }
            }
        }
    }

    /// The recovery fuzzer: 20k seeded mutations — bit flips,
    /// truncations, insertions, duplications and cross-corpus splices — of
    /// each of two valid segments: the writer's frames on a fresh segment,
    /// its zero runway behind them; and the same frames in writes each
    /// ended by an end marker, as the writer puts them in a recycled file.
    /// (`legacy` runs the same fuzzer over a journal of the older format.)
    /// The scan must always terminate without panicking, and every record
    /// it *applies* must be byte-identical to a record from the valid
    /// corpus: corruption is only ever quarantined or torn, never served.
    #[test]
    fn mangled_segments_never_panic_and_never_apply_corrupt_records() {
        let frames = sample_frames(9);
        let read = |bytes: &[u8], apply: &mut dyn FnMut(Record<'_>)| scan_segment(bytes, 9, apply);
        let mut fresh = segment_from(&frames);
        fresh.resize(fresh.len() + 1024, 0);
        fuzz_recovery(&fresh, &frames, 0xD15C_F0CD, read);
        let mut marked = Vec::new();
        for write in frames.chunks(2) {
            marked.extend(segment_from(write));
            marked.extend_from_slice(&END_MARKER);
        }
        marked.resize(marked.len() + 1024, 0);
        fuzz_recovery(&marked, &frames, 0xD15C_F0CE, read);
    }

    /// 20k seeded mutations of `valid`, which holds [`sample_records`] as
    /// `donors` frame them, each read by `read`.
    pub(crate) fn fuzz_recovery(
        valid: &[u8],
        donors: &[Vec<u8>],
        seed: u64,
        read: impl Fn(&[u8], &mut dyn FnMut(Record<'_>)) -> ScanSummary,
    ) {
        let known: Vec<Vec<u8>> = sample_records().iter().map(payload_of).collect();
        let is_known = |record: &Record<'_>| known.contains(&payload_of(record));
        let mut rng = Rng64::seed_from_u64(seed);
        let mut quarantined_total = 0u64;
        let mut torn_total = 0u64;
        for round in 0..20_000 {
            let mut mangled = valid.to_vec();
            mangle(&mut rng, &mut mangled, donors);
            let mut corrupt_served = 0u64;
            let summary = read(&mangled, &mut |record| {
                if !is_known(&record) {
                    corrupt_served += 1;
                }
            });
            assert_eq!(
                corrupt_served, 0,
                "seed {seed:#x} round {round}: scan served a corrupt record"
            );
            assert!(
                summary.applied <= (known.len() as u64) * 3,
                "seed {seed:#x} round {round}: applied count exploded"
            );
            quarantined_total += summary.quarantined;
            torn_total += summary.torn_bytes;
        }
        // The exact-counts sanity check: across 20k mutated segments the
        // scanner must both quarantine and tear (mutations hit payloads
        // and tails alike); all-zero counters would mean the checks are
        // dead code.
        assert!(quarantined_total > 0, "seed {seed:#x}");
        assert!(torn_total > 0, "seed {seed:#x}");
    }

    /// The fuzzer over a recycled file: segment 9's writes (frames, each
    /// pair ended by a marker) over segment 30's frames, mangled 5k seeded
    /// ways, donors from both lives. Whatever the damage, every record the
    /// scan applies is one of segment 9's: the earlier life never replays.
    #[test]
    fn mangled_recycled_segments_never_apply_an_earlier_life() {
        let live = frames_of(9, 6);
        let mut log = Vec::new();
        for write in live.chunks(2) {
            log.extend(segment_from(write));
            log.extend_from_slice(&END_MARKER);
        }
        let file = recycled(&log);
        let donors = [live.clone(), frames_of(30, 40)].concat();
        let is_live = |record: &Record<'_>| {
            let mut frame = Vec::new();
            encode_frame(record, 9, &mut frame);
            live.contains(&frame)
        };
        assert_eq!(scan_segment(&file, 9, |_| {}).applied, 6);
        let mut rng = Rng64::seed_from_u64(0x5EC7_C1ED);
        let mut quarantined_total = 0u64;
        for round in 0..5_000 {
            let mut segment = file.clone();
            mangle(&mut rng, &mut segment, &donors);
            let mut foreign = 0u64;
            let summary = scan_segment(&segment, 9, |record| {
                if !is_live(&record) {
                    foreign += 1;
                }
            });
            assert_eq!(
                foreign, 0,
                "round {round}: applied a record of no live frame"
            );
            quarantined_total += summary.quarantined;
        }
        assert!(quarantined_total > 0, "no mutation reached a live frame");
    }
}
