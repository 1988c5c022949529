//! On-chunk item encoding.
//!
//! Each chunk stores one item: a fixed header (lengths, flags, cost, expiry)
//! followed by the key bytes and the value bytes — mirroring Twemcache's
//! item layout ("the size required to store ki-vi along with some meta-data
//! header information").

/// Where the expiry sits in the header: after the key length (u16), value
/// length (u32), flags (u32) and cost (u64) fields. It is the last header
/// field, and the one the store rewrites in place (memcached `touch`).
pub(crate) const EXPIRY_OFFSET: usize = 2 + 4 + 4 + 8;

/// The fixed header size in bytes.
pub const HEADER_LEN: usize = EXPIRY_OFFSET + 8;

/// A decoded item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Item<'a> {
    /// The key bytes.
    pub key: &'a [u8],
    /// The value bytes.
    pub value: &'a [u8],
    /// Opaque client flags (memcached protocol field).
    pub flags: u32,
    /// The cost of computing this pair (the IQ framework's piggybacked
    /// service time, or a client hint).
    pub cost: u64,
    /// Absolute expiry in unix seconds; 0 = never.
    pub expires_at: u64,
}

impl<'a> Item<'a> {
    /// Total encoded size of an item with this key and value.
    #[must_use]
    pub fn encoded_len(key_len: usize, value_len: usize) -> usize {
        HEADER_LEN + key_len + value_len
    }

    /// Whether the item has expired by `now` (unix seconds).
    pub(crate) fn expired(&self, now: u64) -> bool {
        self.expires_at != 0 && self.expires_at <= now
    }

    /// Encodes the item into `buf` (which must be large enough) — the
    /// store passes the slab chunk itself, so a set copies its value once.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is too small, the key exceeds 64 KiB or the
    /// value exceeds 4 GiB.
    pub fn encode_into(&self, buf: &mut [u8]) {
        let need = Item::encoded_len(self.key.len(), self.value.len());
        assert!(buf.len() >= need, "buffer too small for item");
        buf[0..HEADER_LEN].copy_from_slice(&self.header());
        let key_end = HEADER_LEN + self.key.len();
        buf[HEADER_LEN..key_end].copy_from_slice(self.key);
        buf[key_end..key_end + self.value.len()].copy_from_slice(self.value);
    }

    /// Appends what [`Item::encode_into`] writes to `buf`: the body of a
    /// journal `Set`. Panics on the lengths it panics on.
    pub fn append_to(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.header());
        buf.extend_from_slice(self.key);
        buf.extend_from_slice(self.value);
    }

    /// The encoded fixed header for this item. Panics if the key exceeds
    /// 64 KiB or the value 4 GiB ([`Item::encode_into`]'s contract).
    fn header(&self) -> [u8; HEADER_LEN] {
        // lint:allow(unwrap-in-lib) — enforces the documented "# Panics"
        // contract; the protocol caps keys at 250 B and values at
        // --max-value-bytes, far below these encoding limits.
        let key_len = u16::try_from(self.key.len()).expect("key exceeds 64 KiB");
        // lint:allow(unwrap-in-lib) — same documented contract as above.
        let value_len = u32::try_from(self.value.len()).expect("value exceeds 4 GiB");
        let mut header = [0u8; HEADER_LEN];
        header[0..2].copy_from_slice(&key_len.to_be_bytes());
        header[2..6].copy_from_slice(&value_len.to_be_bytes());
        header[6..10].copy_from_slice(&self.flags.to_be_bytes());
        header[10..EXPIRY_OFFSET].copy_from_slice(&self.cost.to_be_bytes());
        header[EXPIRY_OFFSET..].copy_from_slice(&self.expires_at.to_be_bytes());
        header
    }

    /// The item `buf` begins with, or `None` if `buf` is shorter than the
    /// header or than the key and value it declares. Bytes past the item
    /// (a chunk's slack) are not read.
    #[must_use]
    #[inline]
    pub fn parse(buf: &'a [u8]) -> Option<Item<'a>> {
        let header: &[u8; HEADER_LEN] = buf.get(..HEADER_LEN)?.try_into().ok()?;
        let key_len = usize::from(u16::from_be_bytes([header[0], header[1]]));
        let value_len = u32::from_be_bytes([header[2], header[3], header[4], header[5]]) as usize;
        let body = &buf[HEADER_LEN..];
        let key = body.get(..key_len)?;
        let value = body.get(key_len..key_len.checked_add(value_len)?)?;
        Some(Item {
            key,
            value,
            flags: u32::from_be_bytes([header[6], header[7], header[8], header[9]]),
            cost: u64::from_be_bytes(header[10..EXPIRY_OFFSET].try_into().ok()?),
            expires_at: u64::from_be_bytes(header[EXPIRY_OFFSET..].try_into().ok()?),
        })
    }

    /// Decodes the item a chunk holds ([`Item::parse`]).
    ///
    /// # Panics
    ///
    /// Panics if the chunk holds no whole item — chunks are only ever
    /// written by [`Item::encode_into`].
    #[must_use]
    #[inline]
    pub fn decode(buf: &'a [u8]) -> Item<'a> {
        let Some(item) = Item::parse(buf) else {
            panic!("chunk holds no whole item");
        };
        item
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let item = Item {
            key: b"user:42",
            value: b"{\"name\":\"alice\"}",
            flags: 7,
            cost: 10_000,
            expires_at: 1_900_000_000,
        };
        let mut buf = vec![0u8; Item::encoded_len(item.key.len(), item.value.len()) + 13];
        item.encode_into(&mut buf);
        let decoded = Item::decode(&buf);
        assert_eq!(decoded, item);
    }

    #[test]
    fn empty_value_roundtrip() {
        let item = Item {
            key: b"k",
            value: b"",
            flags: 0,
            cost: 0,
            expires_at: 0,
        };
        let mut buf = vec![0u8; Item::encoded_len(1, 0)];
        item.encode_into(&mut buf);
        assert_eq!(Item::decode(&buf), item);
    }

    #[test]
    #[should_panic(expected = "buffer too small")]
    fn undersized_buffer_panics() {
        let item = Item {
            key: b"key",
            value: b"value",
            flags: 0,
            cost: 0,
            expires_at: 0,
        };
        let mut buf = vec![0u8; 10];
        item.encode_into(&mut buf);
    }

    #[test]
    fn encoded_len_matches_layout() {
        assert_eq!(Item::encoded_len(0, 0), HEADER_LEN);
        assert_eq!(Item::encoded_len(3, 5), HEADER_LEN + 8);
    }
}
