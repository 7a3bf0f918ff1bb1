//! Packed binary columns carried inside JSON strings.
//!
//! The `skewjoind` wire protocol ships relations, per-key result counts and
//! hot-key lists as fixed-width little-endian records, base64-encoded
//! (RFC 4648 standard alphabet, `=` padding) into one JSON string each.
//! A tuple costs 8 bytes before encoding and under 11 after, instead of a
//! `[key, payload]` number array per tuple, while every frame stays one
//! JSON document.
//!
//! Decoding is strict: a character outside the alphabet, a length that is
//! not a multiple of 4, misplaced or non-canonical padding, and a byte
//! count that is not a whole number of records each come back as a typed
//! [`CodecError`], never a panic.

use std::fmt;

use crate::tuple::{Key, Tuple};

/// Why a packed column failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// A byte outside the base64 alphabet (padding excluded).
    BadChar {
        /// Byte offset in the encoded text.
        offset: usize,
        /// The offending byte.
        byte: u8,
    },
    /// The encoded text is not a whole number of 4-character groups.
    BadLength(usize),
    /// `=` padding in the wrong place, or padding that hides nonzero bits.
    BadPadding,
    /// The decoded bytes are not a whole number of fixed-width records.
    Ragged {
        /// Decoded byte count.
        bytes: usize,
        /// Record width in bytes.
        width: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadChar { offset, byte } => {
                write!(f, "byte {byte:#04x} at offset {offset} is not base64")
            }
            CodecError::BadLength(len) => {
                write!(f, "base64 length {len} is not a multiple of 4")
            }
            CodecError::BadPadding => write!(f, "malformed base64 padding"),
            CodecError::Ragged { bytes, width } => write!(
                f,
                "{bytes} decoded bytes are not a whole number of {width}-byte records"
            ),
        }
    }
}

impl std::error::Error for CodecError {}

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Marks bytes outside the alphabet in [`DECODE`].
const INVALID: u8 = 0xFF;

const DECODE: [u8; 256] = {
    let mut table = [INVALID; 256];
    let mut i = 0;
    while i < 64 {
        table[ALPHABET[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// Base64-encodes `src` into `dst`, which holds exactly
/// `src.len().div_ceil(3) * 4` bytes.
fn encode_into(src: &[u8], dst: &mut [u8]) {
    let sextet = |n: u32, shift: u32| ALPHABET[(n >> shift) as usize & 63];
    let groups = src.chunks_exact(3);
    let tail = groups.remainder();
    for (s, d) in groups.zip(dst.chunks_exact_mut(4)) {
        let n = u32::from(s[0]) << 16 | u32::from(s[1]) << 8 | u32::from(s[2]);
        d.copy_from_slice(&[sextet(n, 18), sextet(n, 12), sextet(n, 6), sextet(n, 0)]);
    }
    if !tail.is_empty() {
        let n = u32::from(tail[0]) << 16 | tail.get(1).map_or(0, |&b| u32::from(b) << 8);
        let third = if tail.len() == 2 { sextet(n, 6) } else { b'=' };
        let at = dst.len() - 4;
        dst[at..].copy_from_slice(&[sextet(n, 18), sextet(n, 12), third, b'=']);
    }
}

/// Base64-encodes `bytes` with `=` padding.
pub fn encode_base64(bytes: &[u8]) -> String {
    let mut out = vec![0u8; bytes.len().div_ceil(3) * 4];
    encode_into(bytes, &mut out);
    String::from_utf8(out).expect("the base64 alphabet is ASCII")
}

/// Decodes padded base64.
pub fn decode_base64(text: &str) -> Result<Vec<u8>, CodecError> {
    let text = text.as_bytes();
    if text.len() % 4 != 0 {
        return Err(CodecError::BadLength(text.len()));
    }
    let pad = text
        .iter()
        .rev()
        .take(2)
        .take_while(|&&b| b == b'=')
        .count();
    let body = &text[..text.len() - pad];
    let bad_char = |offset: usize| CodecError::BadChar {
        offset,
        byte: body[offset],
    };
    // Four sextets to 24 bits; `Err` names the first byte off the alphabet.
    let group = |at: usize, src: &[u8]| {
        let [a, b, c, d] = [0, 1, 2, 3].map(|i| src.get(i).map_or(0, |&x| DECODE[x as usize]));
        // Valid sextets are below 64; INVALID has the top bits set.
        if (a | b | c | d) & 0xC0 != 0 {
            let bad = src.iter().position(|&x| DECODE[x as usize] == INVALID);
            return Err(bad_char(at + bad.expect("an invalid byte is present")));
        }
        Ok(u32::from(a) << 18 | u32::from(b) << 12 | u32::from(c) << 6 | u32::from(d))
    };
    let full = body.len() / 4;
    let mut out = vec![0u8; full * 3 + (3 - pad) % 3];
    for (i, (src, dst)) in body
        .chunks_exact(4)
        .zip(out.chunks_exact_mut(3))
        .enumerate()
    {
        let n = group(i * 4, src)?;
        dst.copy_from_slice(&[(n >> 16) as u8, (n >> 8) as u8, n as u8]);
    }
    // The final group: 4 - pad data characters. Bits the padding drops
    // must be zero, so every byte string has exactly one encoding.
    if pad > 0 {
        let n = group(full * 4, &body[full * 4..])?;
        let dropped = if pad == 1 { n & 0xFF } else { n & 0xFFFF };
        if dropped != 0 {
            return Err(CodecError::BadPadding);
        }
        let at = full * 3;
        out[at] = (n >> 16) as u8;
        if pad == 1 {
            out[at + 1] = (n >> 8) as u8;
        }
    }
    Ok(out)
}

/// Packs fixed-width records: `write` fills each record's `W` bytes.
/// Three records are `3·W` bytes, a whole number of base64 groups, so each
/// triple encodes on its own and no packed byte column is materialized.
fn pack<T, const W: usize>(items: &[T], write: impl Fn(&T) -> [u8; W]) -> String {
    let mut out = vec![0u8; (items.len() * W).div_ceil(3) * 4];
    let mut triple = vec![0u8; 3 * W];
    for (three, dst) in items.chunks(3).zip(out.chunks_mut(4 * W)) {
        for (item, rec) in three.iter().zip(triple.chunks_exact_mut(W)) {
            rec.copy_from_slice(&write(item));
        }
        encode_into(&triple[..three.len() * W], dst);
    }
    String::from_utf8(out).expect("the base64 alphabet is ASCII")
}

/// Unpacks fixed-width records written by [`pack`].
fn unpack<T, const W: usize>(
    text: &str,
    read: impl Fn(&[u8; W]) -> T,
) -> Result<Vec<T>, CodecError> {
    let bytes = decode_base64(text)?;
    if bytes.len() % W != 0 {
        return Err(CodecError::Ragged {
            bytes: bytes.len(),
            width: W,
        });
    }
    Ok(bytes
        .chunks_exact(W)
        .map(|c| read(c.try_into().expect("chunks_exact yields W bytes")))
        .collect())
}

fn u32_at(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().expect("4 bytes"))
}

/// Tuples as `(u32 key, u32 payload)` little-endian pairs.
pub fn pack_tuples(tuples: &[Tuple]) -> String {
    pack(tuples, |t| {
        let mut rec = [0u8; 8];
        rec[..4].copy_from_slice(&t.key.to_le_bytes());
        rec[4..].copy_from_slice(&t.payload.to_le_bytes());
        rec
    })
}

/// Inverse of [`pack_tuples`].
pub fn unpack_tuples(text: &str) -> Result<Vec<Tuple>, CodecError> {
    unpack(text, |rec: &[u8; 8]| {
        Tuple::new(u32_at(rec, 0), u32_at(rec, 4))
    })
}

/// Per-key counts as `(u32 key, u64 count)` little-endian pairs — exact
/// for every `u64`, unlike a JSON number.
pub fn pack_key_counts(counts: &[(Key, u64)]) -> String {
    pack(counts, |&(key, count)| {
        let mut rec = [0u8; 12];
        rec[..4].copy_from_slice(&key.to_le_bytes());
        rec[4..].copy_from_slice(&count.to_le_bytes());
        rec
    })
}

/// Inverse of [`pack_key_counts`].
pub fn unpack_key_counts(text: &str) -> Result<Vec<(Key, u64)>, CodecError> {
    unpack(text, |rec: &[u8; 12]| {
        let count = u64::from_le_bytes(rec[4..].try_into().expect("8 bytes"));
        (u32_at(rec, 0), count)
    })
}

/// Keys as little-endian `u32`s.
pub fn pack_keys(keys: &[Key]) -> String {
    pack(keys, |k| k.to_le_bytes())
}

/// Inverse of [`pack_keys`].
pub fn unpack_keys(text: &str) -> Result<Vec<Key>, CodecError> {
    unpack(text, |rec: &[u8; 4]| u32::from_le_bytes(*rec))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base64_matches_rfc4648_vectors() {
        let vectors = [
            ("", ""),
            ("f", "Zg=="),
            ("fo", "Zm8="),
            ("foo", "Zm9v"),
            ("foob", "Zm9vYg=="),
            ("fooba", "Zm9vYmE="),
            ("foobar", "Zm9vYmFy"),
        ];
        for (plain, encoded) in vectors {
            assert_eq!(encode_base64(plain.as_bytes()), encoded);
            assert_eq!(decode_base64(encoded).unwrap(), plain.as_bytes());
        }
    }

    #[test]
    fn every_byte_value_round_trips() {
        let bytes: Vec<u8> = (0..=255).collect();
        for len in 0..bytes.len() {
            let text = encode_base64(&bytes[..len]);
            assert_eq!(decode_base64(&text).unwrap(), &bytes[..len]);
        }
    }

    #[test]
    fn malformed_base64_is_typed() {
        assert_eq!(decode_base64("Zm9"), Err(CodecError::BadLength(3)));
        assert_eq!(
            decode_base64("Zm!v"),
            Err(CodecError::BadChar {
                offset: 2,
                byte: b'!'
            })
        );
        // Padding inside the text, three pad characters, and padding that
        // hides set bits.
        assert!(decode_base64("Zg==Zm9v").is_err());
        assert!(decode_base64("Z===").is_err());
        assert_eq!(decode_base64("Zh=="), Err(CodecError::BadPadding));
        assert_eq!(decode_base64("Zm9="), Err(CodecError::BadPadding));
        // Non-ASCII input is rejected byte-wise, not split mid-character.
        assert!(matches!(
            decode_base64("Zm9vé="),
            Err(CodecError::BadLength(_) | CodecError::BadChar { .. })
        ));
    }

    #[test]
    fn ragged_records_are_typed() {
        let seven = encode_base64(&[0; 7]);
        assert_eq!(
            unpack_tuples(&seven),
            Err(CodecError::Ragged { bytes: 7, width: 8 })
        );
        assert_eq!(
            unpack_key_counts(&encode_base64(&[0; 8])),
            Err(CodecError::Ragged {
                bytes: 8,
                width: 12
            })
        );
        assert_eq!(
            unpack_keys(&encode_base64(&[0; 6])),
            Err(CodecError::Ragged { bytes: 6, width: 4 })
        );
    }

    #[test]
    fn records_round_trip() {
        let tuples = [Tuple::new(0, u32::MAX), Tuple::new(u32::MAX, 7)];
        assert_eq!(unpack_tuples(&pack_tuples(&tuples)).unwrap(), tuples);
        let counts = [(3, u64::MAX), (u32::MAX, (1 << 53) + 1)];
        assert_eq!(
            unpack_key_counts(&pack_key_counts(&counts)).unwrap(),
            counts
        );
        let keys = [0, 1, u32::MAX];
        assert_eq!(unpack_keys(&pack_keys(&keys)).unwrap(), keys);
    }
}
