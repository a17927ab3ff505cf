//! rsync's 32-bit rolling checksum.
//!
//! For a window `X_k..=X_l`:
//!
//! ```text
//! a(k,l) = (Σ X_i) mod 2^16
//! b(k,l) = (Σ (l - i + 1) · X_i) mod 2^16
//! s(k,l) = a + 2^16 · b
//! ```
//!
//! The point of the design is the O(1) slide:
//! `a(k+1,l+1) = a(k,l) - X_k + X_{l+1}` and
//! `b(k+1,l+1) = b(k,l) - (l-k+1)·X_k + a(k+1,l+1)`,
//! which lets the delta generator scan a target file byte-by-byte at full
//! speed looking for blocks that already exist on the receiver.

/// Rolling checksum state over a window of fixed length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RollingChecksum {
    a: u32,
    b: u32,
    len: usize,
}

impl RollingChecksum {
    /// Compute the checksum of an initial window.
    ///
    /// Running sums, no multiply: `b` adds the running `a` after every
    /// byte, so byte `i` of `l` is counted `l - i` times, its weight in
    /// `b`. Both sums wrap mod 2^32, which keeps them exact mod 2^16.
    pub fn from_window(window: &[u8]) -> Self {
        let mut a: u32 = 0;
        let mut b: u32 = 0;
        for &x in window {
            a = a.wrapping_add(x as u32);
            b = b.wrapping_add(a);
        }
        RollingChecksum {
            a: a & 0xffff,
            b: b & 0xffff,
            len: window.len(),
        }
    }

    /// The 32-bit checksum value.
    #[inline]
    pub fn value(&self) -> u32 {
        self.a | (self.b << 16)
    }

    /// Window length this state describes.
    #[inline]
    pub fn window_len(&self) -> usize {
        self.len
    }

    /// Slide the window one byte: drop `out`, append `inc`.
    #[inline]
    pub fn roll(&mut self, out: u8, inc: u8) {
        self.a = self.a.wrapping_sub(out as u32).wrapping_add(inc as u32) & 0xffff;
        self.b = self
            .b
            .wrapping_sub((self.len as u32).wrapping_mul(out as u32))
            .wrapping_add(self.a)
            & 0xffff;
    }
}

/// One-shot checksum of a block.
pub fn checksum(block: &[u8]) -> u32 {
    RollingChecksum::from_window(block).value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolled_equals_recomputed() {
        // Slide across a buffer and compare against from-scratch computation
        // at every position: the defining property of the rolling checksum.
        let data: Vec<u8> = (0..512u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        let w = 64;
        let mut rc = RollingChecksum::from_window(&data[..w]);
        for k in 1..=(data.len() - w) {
            rc.roll(data[k - 1], data[k + w - 1]);
            let fresh = RollingChecksum::from_window(&data[k..k + w]);
            assert_eq!(rc.value(), fresh.value(), "mismatch at offset {k}");
        }
    }

    #[test]
    fn empty_window() {
        let rc = RollingChecksum::from_window(&[]);
        assert_eq!(rc.value(), 0);
        assert_eq!(rc.window_len(), 0);
    }

    #[test]
    fn single_byte() {
        let rc = RollingChecksum::from_window(&[7]);
        assert_eq!(rc.value(), 7 | (7 << 16));
    }

    #[test]
    fn distinct_blocks_usually_differ() {
        let a = checksum(b"the quick brown fox jumps over");
        let b = checksum(b"the quick brown fox jumped over");
        assert_ne!(a, b);
        // Permutation sensitivity comes from the b-term.
        let c = checksum(b"ab");
        let d = checksum(b"ba");
        assert_ne!(c, d);
    }

    #[test]
    fn deterministic() {
        let block = b"some block content";
        assert_eq!(checksum(block), checksum(block));
    }

    #[test]
    fn wraparound_safe() {
        // All-0xff windows exercise the mod-2^16 wrapping paths.
        let data = vec![0xffu8; 300];
        let w = 128;
        let mut rc = RollingChecksum::from_window(&data[..w]);
        for k in 1..=(data.len() - w) {
            rc.roll(data[k - 1], data[k + w - 1]);
        }
        let fresh = RollingChecksum::from_window(&data[data.len() - w..]);
        assert_eq!(rc.value(), fresh.value());
    }
}
