//! Zero-allocation serialization of protocol responses.
//!
//! The get hot path appends `VALUE` blocks straight into the connection's
//! output buffer while the shard lock is held (see
//! [`crate::shard::ShardedStore::get_with`]), so value bytes are copied
//! exactly once — slab chunk to reply — and integers are formatted without
//! going through `core::fmt`.

/// Writes the decimal representation of `n` into the tail of `buf` and
/// returns the digits (no allocation, no `core::fmt` machinery). Twenty
/// bytes hold `u64::MAX`.
pub fn u64_digits(n: u64, buf: &mut [u8; 20]) -> &[u8] {
    let mut i = buf.len();
    let mut n = n;
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    &buf[i..]
}

/// Appends the decimal representation of `n` (no allocation, no
/// `core::fmt` machinery).
pub fn push_u64(out: &mut Vec<u8>, n: u64) {
    out.extend_from_slice(u64_digits(n, &mut [0u8; 20]));
}

/// Appends one `VALUE <key> <flags> <bytes>\r\n<data>\r\n` block.
pub fn append_value(out: &mut Vec<u8>, key: &[u8], flags: u32, value: &[u8]) {
    out.reserve(b"VALUE ".len() + key.len() + 32 + value.len());
    out.extend_from_slice(b"VALUE ");
    out.extend_from_slice(key);
    out.push(b' ');
    push_u64(out, u64::from(flags));
    out.push(b' ');
    push_u64(out, value.len() as u64);
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(value);
    out.extend_from_slice(b"\r\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_u64_matches_display() {
        let mut out = Vec::new();
        for n in [0u64, 1, 9, 10, 99, 100, 12_345, u64::MAX] {
            out.clear();
            push_u64(&mut out, n);
            assert_eq!(out, n.to_string().as_bytes());
        }
    }

    #[test]
    fn append_value_formats_a_block() {
        let mut out = Vec::new();
        append_value(&mut out, b"k1", 7, b"hello");
        assert_eq!(out, b"VALUE k1 7 5\r\nhello\r\n");
        // Appending accumulates (multi-key get builds one buffer).
        append_value(&mut out, b"k2", 0, b"");
        assert_eq!(out, b"VALUE k1 7 5\r\nhello\r\nVALUE k2 0 0\r\n\r\n");
    }
}
