//! Byte strings stored inline when short.
//!
//! Both the key interner and the storage tier's MVCC engine keep millions
//! of short byte keys (a `kv/<be u64>` cache key is 11 bytes, a record key
//! 14). [`FlatBytes`] keeps a string of up to [`INLINE_BYTES`] inside the
//! value itself — no heap object, no pointer to chase — and boxes longer
//! ones.
//!
//! Two inline strings compare as four zero-padded big-endian `u64` words,
//! then by length: the order of comparing the slices, without a `memcmp`
//! call per comparison.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;

/// Longest string stored inline; longer ones go on the heap. 30 makes an
/// inline string 32 bytes: a tag byte, a length byte and the buffer. The
/// heap form, a tag and a boxed slice, fits in the same 32.
pub const INLINE_BYTES: usize = 30;

/// A byte string: inline up to [`INLINE_BYTES`], else one boxed slice.
/// Which form a string takes depends only on its length, so equal strings
/// have equal forms.
#[derive(Clone)]
pub struct FlatBytes(Repr);

/// Private, so the comparisons can rely on it: an inline buffer's bytes
/// past `len` are always zero.
#[derive(Clone)]
enum Repr {
    Inline { len: u8, buf: [u8; INLINE_BYTES] },
    Heap(Box<[u8]>),
}

const _: () = assert!(std::mem::size_of::<FlatBytes>() == 32);

/// Big-endian word `i` of a zero-padded inline buffer. The last word reads
/// bytes 22..30; its first two bytes belong to word 2 as well, which is
/// harmless because the words are only read until one differs.
#[inline(always)]
fn word(buf: &[u8; INLINE_BYTES], i: usize) -> u64 {
    let at = (i * 8).min(INLINE_BYTES - 8);
    u64::from_be_bytes(buf[at..at + 8].try_into().unwrap())
}

impl FlatBytes {
    #[inline]
    pub fn new(bytes: &[u8]) -> Self {
        FlatBytes(if bytes.len() <= INLINE_BYTES {
            let mut buf = [0u8; INLINE_BYTES];
            buf[..bytes.len()].copy_from_slice(bytes);
            Repr::Inline {
                len: bytes.len() as u8,
                buf,
            }
        } else {
            Repr::Heap(bytes.into())
        })
    }

    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Heap(b) => b,
        }
    }
}

impl Borrow<[u8]> for FlatBytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for FlatBytes {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (Repr::Inline { len: a, buf: x }, Repr::Inline { len: b, buf: y }) => a == b && x == y,
            _ => self.as_slice() == other.as_slice(),
        }
    }
}

impl Eq for FlatBytes {}

impl PartialOrd for FlatBytes {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FlatBytes {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        match (&self.0, &other.0) {
            (Repr::Inline { len: a, buf: x }, Repr::Inline { len: b, buf: y }) => {
                // Equal words so far mean equal bytes so far; a zero pad
                // sorts below any real byte, and a string that runs out
                // first — a prefix padded with zeros — is the smaller.
                for i in 0..4 {
                    let (wx, wy) = (word(x, i), word(y, i));
                    if wx != wy {
                        return wx.cmp(&wy);
                    }
                }
                a.cmp(b)
            }
            _ => self.as_slice().cmp(other.as_slice()),
        }
    }
}

impl fmt::Debug for FlatBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forms_follow_length() {
        let inline = |b: &[u8]| matches!(FlatBytes::new(b).0, Repr::Inline { .. });
        assert!(inline(&[7; INLINE_BYTES]));
        assert!(!inline(&[7; INLINE_BYTES + 1]));
        assert_eq!(FlatBytes::new(b"").as_slice(), b"");
        assert_eq!(FlatBytes::new(&[9; 47]).as_slice(), &[9; 47]);
    }

    #[test]
    fn trailing_zeros_and_lengths_order_like_slices() {
        let keys: [&[u8]; 9] = [
            b"",
            b"\0",
            b"\0\0",
            b"a",
            b"a\0",
            b"a\0\0\0\0\0\0\0\0",
            b"a\0\x01",
            b"a\x01",
            &[0xFF; INLINE_BYTES],
        ];
        for a in keys {
            for b in keys {
                let (fa, fb) = (FlatBytes::new(a), FlatBytes::new(b));
                assert_eq!(fa.cmp(&fb), a.cmp(b), "{a:?} vs {b:?}");
                assert_eq!(fa == fb, a == b, "{a:?} vs {b:?}");
            }
        }
    }
}
