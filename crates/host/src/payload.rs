//! [`Payload`]: the one byte-buffer type of the simulated system.
//!
//! In VampOS, arguments are marshalled once into the message domain and the
//! function log records the calls that carry them (§V-A, §V-B). The
//! simulator mirrors that: a payload is copied once, where its bytes enter
//! the simulated system — the application's syscall facade, the host
//! network's client side, the 9P server reading a file — and every later
//! hop, virtio ring, function-log entry, recorded downcall, compaction and
//! replay shares the same immutable buffer. Cloning a payload is a
//! reference-count bump.

use std::collections::VecDeque;
use std::fmt;
use std::iter;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, shared byte buffer.
///
/// `Arc` rather than `Rc` keeps every value that holds a payload `Send`,
/// so a simulated instance can move to another thread. The empty payload
/// holds no buffer at all: bare TCP segments (SYN, ACK, FIN) and EOF reads
/// do not allocate.
///
/// Equality and `Debug` follow the byte contents, exactly as for a
/// `Vec<u8>`.
///
/// # Example
///
/// ```
/// use vampos_host::Payload;
///
/// let a = Payload::from(&b"hello"[..]);
/// let b = a.clone(); // shares the buffer
/// assert!(Payload::ptr_eq(&a, &b));
/// assert_eq!(&a[..], b"hello");
/// assert_eq!(a, Payload::from(b"hello".to_vec())); // equal bytes, another buffer
/// assert!(!Payload::ptr_eq(&a, &Payload::from(b"hello".to_vec())));
/// ```
#[derive(Clone, Default)]
pub struct Payload(Option<Arc<[u8]>>);

impl Payload {
    /// The empty payload (no allocation).
    pub const fn new() -> Payload {
        Payload(None)
    }

    /// Copies `chunks`, in order, into one payload built with a single
    /// allocation (a gathered write: `writev`).
    pub fn concat<'a, I>(chunks: I) -> Payload
    where
        I: IntoIterator<Item = &'a [u8]>,
        I::IntoIter: Clone,
    {
        let chunks = chunks.into_iter();
        let len = chunks.clone().map(<[u8]>::len).sum();
        Payload::build(len, |buf| {
            let mut at = 0;
            for chunk in chunks {
                buf[at..at + chunk.len()].copy_from_slice(chunk);
                at += chunk.len();
            }
        })
    }

    /// Removes the first `n` bytes of `buf` (at most its length) into a new
    /// payload, copying the ring's contiguous halves with one allocation.
    pub fn drain_front(buf: &mut VecDeque<u8>, n: usize) -> Payload {
        let n = n.min(buf.len());
        let (front, back) = buf.as_slices();
        let head = n.min(front.len());
        let payload = Payload::concat([&front[..head], &back[..n - head]]);
        buf.drain(..n);
        payload
    }

    /// True when both payloads share one buffer (two empty payloads count
    /// as sharing: neither holds one).
    pub fn ptr_eq(a: &Payload, b: &Payload) -> bool {
        match (&a.0, &b.0) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        }
    }

    /// The bytes.
    pub fn as_slice(&self) -> &[u8] {
        self.0.as_deref().unwrap_or(&[])
    }

    /// A payload of `len` bytes filled in place by `fill`, in one
    /// allocation: a `TrustedLen` iterator sizes the `Arc` exactly, and a
    /// fresh `Arc` is uniquely owned, so `get_mut` cannot fail.
    fn build(len: usize, fill: impl FnOnce(&mut [u8])) -> Payload {
        if len == 0 {
            return Payload::new();
        }
        let mut buf: Arc<[u8]> = iter::repeat_n(0u8, len).collect();
        fill(Arc::get_mut(&mut buf).expect("fresh Arc is unique"));
        Payload(Some(buf))
    }
}

impl Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        Payload::ptr_eq(self, other) || self.as_slice() == other.as_slice()
    }
}

impl Eq for Payload {}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Payload {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl From<&[u8]> for Payload {
    fn from(bytes: &[u8]) -> Payload {
        Payload::build(bytes.len(), |buf| buf.copy_from_slice(bytes))
    }
}

impl<const N: usize> From<&[u8; N]> for Payload {
    fn from(bytes: &[u8; N]) -> Payload {
        Payload::from(&bytes[..])
    }
}

impl From<Vec<u8>> for Payload {
    fn from(bytes: Vec<u8>) -> Payload {
        Payload::from(bytes.as_slice())
    }
}

impl FromIterator<u8> for Payload {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Payload {
        Payload::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_payloads_hold_no_buffer() {
        assert!(Payload::new().0.is_none());
        assert!(Payload::from(&[][..]).0.is_none());
        assert!(Payload::concat([&[][..], &[][..]]).0.is_none());
        assert_eq!(Payload::new(), Payload::default());
        assert!(Payload::new().is_empty());
    }

    #[test]
    fn clones_share_and_copies_do_not() {
        let a = Payload::from(&b"abc"[..]);
        let b = a.clone();
        assert!(Payload::ptr_eq(&a, &b));
        let c = Payload::from(a.to_vec());
        assert_eq!(a, c);
        assert!(!Payload::ptr_eq(&a, &c));
    }

    #[test]
    fn concat_joins_chunks_in_order() {
        let p = Payload::concat([&b"GET "[..], b"", b"/index"]);
        assert_eq!(p, b"GET /index");
    }

    #[test]
    fn drain_front_matches_a_bytewise_drain_across_the_ring_wrap() {
        for n in [0, 1, 5, 8, 11, 40] {
            // A ring whose contents wrap: fill, consume the front, refill.
            let mut buf: VecDeque<u8> = VecDeque::with_capacity(16);
            buf.extend(0..12u8);
            buf.drain(..7);
            buf.extend(100..107u8);
            assert!(!buf.as_slices().1.is_empty(), "contents wrap");
            let mut reference = buf.clone();
            let want: Vec<u8> = reference.drain(..n.min(reference.len())).collect();
            assert_eq!(Payload::drain_front(&mut buf, n), want, "n = {n}");
            assert_eq!(buf, reference, "n = {n}");
        }
    }

    #[test]
    fn debug_follows_the_bytes() {
        let p = Payload::from(&[1u8, 2][..]);
        assert_eq!(format!("{p:?}"), format!("{:?}", vec![1u8, 2]));
    }
}
