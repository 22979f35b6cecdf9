//! The on-disk record framing and its corruption-tolerant decoder.
//!
//! One log is a flat byte stream of self-delimiting records:
//!
//! ```text
//! | magic "PWAL" | flags u8 | len u32 LE | stamp u64 LE | payload .. | crc64 LE |
//! ```
//!
//! `stamp` is the commit tick the engine drew inside the publish
//! critical section (see [`crate::wal`]); `flags` carries recovery
//! metadata ([`FLAG_META`]); the CRC-64 covers
//! everything after the magic (flags, len, stamp, payload), so a torn
//! or bit-flipped record cannot decode to a *different* record — it
//! decodes to nothing.
//!
//! ## Clean-prefix semantics
//!
//! [`decode_stream`] never guesses: it walks records front to back and
//! stops at the first byte that fails any check (magic, length bounds,
//! checksum), returning every record before it plus a description of
//! what broke. A crash mid-append therefore costs exactly the torn
//! suffix — the decoder yields the longest checksummed prefix and
//! recovery replays that. The proptests in `crates/stm/tests/wal_codec.rs`
//! hold this line: truncation at *every* byte offset and a flip of
//! *every* byte must yield a prefix of the original records, never a
//! record that was not written.

/// Every record starts with these four bytes.
pub const MAGIC: [u8; 4] = *b"PWAL";

/// Fixed bytes before the payload: magic, flags, len, stamp.
pub const HEADER_LEN: usize = 4 + 1 + 4 + 8;

/// Fixed bytes after the payload: the CRC-64.
const TRAILER_LEN: usize = 8;

/// Flag bit: a log-file header record (era and shard identity), not a
/// committed write set. Always the first record of a well-formed log.
pub const FLAG_META: u8 = 1 << 1;

/// CRC-64/XZ (reflected, poly `0x42F0E1EBA9EA3693`), table built at
/// compile time so the per-record cost is one table walk.
const CRC64_POLY_REFLECTED: u64 = 0xC96C_5795_D787_0F42;

const fn crc64_table() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC64_POLY_REFLECTED
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

static CRC64_TABLE: [u64; 256] = crc64_table();

/// CRC-64/XZ of `bytes`.
fn crc64(bytes: &[u8]) -> u64 {
    let mut crc = !0u64;
    for &b in bytes {
        crc = CRC64_TABLE[((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// One decoded log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Commit tick drawn inside the publish critical section (0 for
    /// meta records).
    pub stamp: u64,
    /// Flag bits ([`FLAG_META`]).
    pub flags: u8,
    /// Opaque payload (the server's encoded write set).
    pub payload: Vec<u8>,
}

impl Record {
    /// Whether this is a log-file header record.
    pub fn is_meta(&self) -> bool {
        self.flags & FLAG_META != 0
    }
}

/// Appends one framed record to `out`: the inverse of [`decode_stream`]
/// for one record.
///
/// # Panics
///
/// If `payload` is longer than `u32::MAX` bytes (the `len` field).
pub fn encode_record(stamp: u64, flags: u8, payload: &[u8], out: &mut Vec<u8>) {
    assert!(payload.len() <= u32::MAX as usize, "payload too large");
    let start = out.len();
    out.extend_from_slice(&MAGIC);
    out.push(flags);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&stamp.to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc64(&out[start + MAGIC.len()..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// The framed size of a record carrying `payload_len` payload bytes.
pub fn framed_len(payload_len: usize) -> usize {
    HEADER_LEN + payload_len + TRAILER_LEN
}

/// Why decoding stopped before the end of the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// The buffer ends inside a record (torn tail): fewer bytes remain
    /// than the header, or than the header's declared length.
    Truncated {
        /// Byte offset of the record that tore.
        offset: usize,
    },
    /// The next four bytes are not [`MAGIC`].
    BadMagic {
        /// Byte offset where the magic was expected.
        offset: usize,
    },
    /// The record framed correctly but its CRC-64 does not match.
    BadChecksum {
        /// Byte offset of the corrupt record.
        offset: usize,
    },
}

/// The result of decoding a log byte stream front to back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decoded {
    /// Every record before the first corruption, in log order.
    pub records: Vec<Record>,
    /// Bytes consumed by those records — the clean prefix length.
    pub clean_len: usize,
    /// What stopped the walk, if anything did. `None` means the buffer
    /// was consumed exactly.
    pub corruption: Option<Corruption>,
}

/// Decodes as many whole, checksummed records as `buf` holds, stopping
/// at the first byte that fails a check (see the module docs).
pub fn decode_stream(buf: &[u8]) -> Decoded {
    let mut records = Vec::new();
    let mut off = 0;
    let corruption = loop {
        if off == buf.len() {
            break None;
        }
        let rest = &buf[off..];
        if rest.len() < HEADER_LEN {
            break Some(Corruption::Truncated { offset: off });
        }
        if rest[..4] != MAGIC {
            break Some(Corruption::BadMagic { offset: off });
        }
        let flags = rest[4];
        let len = u32::from_le_bytes(rest[5..9].try_into().expect("4 bytes")) as usize;
        let stamp = u64::from_le_bytes(rest[9..17].try_into().expect("8 bytes"));
        let total = framed_len(len);
        if rest.len() < total {
            break Some(Corruption::Truncated { offset: off });
        }
        let crc_stored =
            u64::from_le_bytes(rest[HEADER_LEN + len..total].try_into().expect("8 bytes"));
        if crc64(&rest[4..HEADER_LEN + len]) != crc_stored {
            break Some(Corruption::BadChecksum { offset: off });
        }
        records.push(Record {
            stamp,
            flags,
            payload: rest[HEADER_LEN..HEADER_LEN + len].to_vec(),
        });
        off += total;
    };
    Decoded {
        records,
        clean_len: off,
        corruption,
    }
}

/// A value with a hand-rolled, length-prefixed wire form, so the server
/// can log arbitrary key/value types without a serialization dependency.
///
/// The decode half takes a cursor (`&mut &[u8]`) and advances it past
/// the consumed bytes; `None` means the bytes do not form a value —
/// decoders must never panic on foreign input, because recovery feeds
/// them checksummed-but-application-foreign payloads only in tests and
/// corrupted payloads never (the CRC rejects those first).
pub trait WalValue: Sized {
    /// Appends this value's wire form to `out`.
    fn encode_wal(&self, out: &mut Vec<u8>);
    /// Consumes one value from the front of `buf`.
    fn decode_wal(buf: &mut &[u8]) -> Option<Self>;
}

/// Consumes `n` bytes from the front of the cursor.
fn take<'a>(buf: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if buf.len() < n {
        return None;
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Some(head)
}

macro_rules! wal_int {
    ($($t:ty),*) => {$(
        impl WalValue for $t {
            fn encode_wal(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode_wal(buf: &mut &[u8]) -> Option<Self> {
                let bytes = take(buf, std::mem::size_of::<$t>())?;
                Some(<$t>::from_le_bytes(bytes.try_into().expect("sized take")))
            }
        }
    )*};
}

wal_int!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128);

impl WalValue for usize {
    fn encode_wal(&self, out: &mut Vec<u8>) {
        (*self as u64).encode_wal(out);
    }
    fn decode_wal(buf: &mut &[u8]) -> Option<Self> {
        usize::try_from(u64::decode_wal(buf)?).ok()
    }
}

impl WalValue for bool {
    fn encode_wal(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn decode_wal(buf: &mut &[u8]) -> Option<Self> {
        match take(buf, 1)?[0] {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl WalValue for Vec<u8> {
    fn encode_wal(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode_wal(out);
        out.extend_from_slice(self);
    }
    fn decode_wal(buf: &mut &[u8]) -> Option<Self> {
        let len = usize::decode_wal(buf)?;
        Some(take(buf, len)?.to_vec())
    }
}

impl WalValue for String {
    fn encode_wal(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode_wal(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode_wal(buf: &mut &[u8]) -> Option<Self> {
        let len = usize::decode_wal(buf)?;
        String::from_utf8(take(buf, len)?.to_vec()).ok()
    }
}

impl<T: WalValue> WalValue for Option<T> {
    fn encode_wal(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode_wal(out);
            }
        }
    }
    fn decode_wal(buf: &mut &[u8]) -> Option<Self> {
        match take(buf, 1)?[0] {
            0 => Some(None),
            1 => Some(Some(T::decode_wal(buf)?)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> (Vec<u8>, Vec<Record>) {
        let mut buf = Vec::new();
        let records = vec![
            Record {
                stamp: 0,
                flags: FLAG_META,
                payload: vec![7, 7],
            },
            Record {
                stamp: 3,
                flags: 0,
                payload: b"first".to_vec(),
            },
            Record {
                stamp: 9,
                flags: 0,
                payload: Vec::new(),
            },
        ];
        for r in &records {
            encode_record(r.stamp, r.flags, &r.payload, &mut buf);
        }
        (buf, records)
    }

    #[test]
    fn roundtrips_cleanly() {
        let (buf, records) = sample_log();
        let d = decode_stream(&buf);
        assert_eq!(d.records, records);
        assert_eq!(d.clean_len, buf.len());
        assert_eq!(d.corruption, None);
        assert!(d.records[0].is_meta());
    }

    #[test]
    fn crc64_matches_the_xz_check_value() {
        // The CRC-64/XZ check value for "123456789".
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
    }

    #[test]
    fn truncation_yields_the_clean_prefix() {
        let (buf, records) = sample_log();
        let first_two = framed_len(records[0].payload.len()) + framed_len(records[1].payload.len());
        let boundaries: Vec<usize> = records
            .iter()
            .scan(0, |off, r| {
                let at = *off;
                *off += framed_len(r.payload.len());
                Some(at)
            })
            .collect();
        for cut in 0..buf.len() {
            let d = decode_stream(&buf[..cut]);
            assert!(d.records.len() <= records.len());
            assert_eq!(d.records[..], records[..d.records.len()], "cut={cut}");
            if boundaries.contains(&cut) {
                // A cut exactly at a record boundary is a *clean* prefix
                // — the crash lost whole records, nothing to report.
                assert_eq!(d.corruption, None, "cut={cut}");
            } else {
                assert!(
                    matches!(d.corruption, Some(Corruption::Truncated { .. })),
                    "cut={cut} tore a record"
                );
            }
            if cut == first_two {
                assert_eq!(d.records.len(), 2);
            }
        }
    }

    #[test]
    fn a_flipped_byte_never_decodes_to_a_different_value() {
        let (buf, records) = sample_log();
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            let d = decode_stream(&bad);
            // Whatever decodes must be a prefix of what was written.
            assert!(
                d.records.len() < records.len() || d.corruption.is_none(),
                "flip at {i}"
            );
            for (got, want) in d.records.iter().zip(&records) {
                assert_eq!(got, want, "flip at {i} altered a decoded record");
            }
            assert!(d.corruption.is_some(), "flip at {i} went unnoticed");
        }
    }

    #[test]
    fn wal_value_roundtrips() {
        let mut out = Vec::new();
        42u64.encode_wal(&mut out);
        (-7i32).encode_wal(&mut out);
        true.encode_wal(&mut out);
        "héllo".to_string().encode_wal(&mut out);
        vec![1u8, 2, 3].encode_wal(&mut out);
        Some(5u16).encode_wal(&mut out);
        None::<String>.encode_wal(&mut out);
        let mut cur = &out[..];
        assert_eq!(u64::decode_wal(&mut cur), Some(42));
        assert_eq!(i32::decode_wal(&mut cur), Some(-7));
        assert_eq!(bool::decode_wal(&mut cur), Some(true));
        assert_eq!(String::decode_wal(&mut cur).as_deref(), Some("héllo"));
        assert_eq!(Vec::<u8>::decode_wal(&mut cur), Some(vec![1, 2, 3]));
        assert_eq!(Option::<u16>::decode_wal(&mut cur), Some(Some(5)));
        assert_eq!(Option::<String>::decode_wal(&mut cur), Some(None));
        assert!(cur.is_empty());
        assert_eq!(u64::decode_wal(&mut cur), None, "empty cursor is None");
    }

    #[test]
    fn short_buffers_decode_to_none_not_panic() {
        for len in 0..4 {
            let bytes = vec![1u8; len];
            let mut cur = &bytes[..];
            assert_eq!(u32::decode_wal(&mut cur), None);
        }
        let mut cur: &[u8] = &[1, 200]; // Some(..) tag but garbage bool.
        assert_eq!(Option::<bool>::decode_wal(&mut cur), None);
        let mut cur: &[u8] = &[255, 255, 255, 255, 255, 255, 255, 255, 1];
        assert_eq!(Vec::<u8>::decode_wal(&mut cur), None, "huge length prefix");
    }
}
