//! Offline stand-in for `rand_chacha` 0.3: a genuine ChaCha8 keystream
//! generator behind the `rand` shim's [`RngCore`] / [`SeedableRng`] traits.
//!
//! The implementation follows RFC 7539's block function with 8 rounds (the
//! word order of output and counter handling match the reference stream
//! cipher; exact bit-compatibility with the crates.io crate is *not*
//! guaranteed and nothing in this workspace depends on it — only on
//! determinism per seed, which holds).

#![forbid(unsafe_code)]

use rand::{RngCore, SeedableRng};

const ROUNDS: usize = 8;

/// A ChaCha stream cipher RNG with 8 rounds.
#[derive(Debug, Clone)]
pub struct ChaCha8Rng {
    /// Key + constants + nonce state template (counter lives separately).
    key: [u32; 8],
    /// 64-bit block counter.
    counter: u64,
    /// Buffered keystream words from the current block.
    buffer: [u32; 16],
    /// Next unread index into `buffer` (16 = exhausted).
    index: usize,
}

#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

impl ChaCha8Rng {
    fn refill(&mut self) {
        let mut state: [u32; 16] = [
            0x6170_7865,
            0x3320_646e,
            0x7962_2d32,
            0x6b20_6574,
            self.key[0],
            self.key[1],
            self.key[2],
            self.key[3],
            self.key[4],
            self.key[5],
            self.key[6],
            self.key[7],
            self.counter as u32,
            (self.counter >> 32) as u32,
            0,
            0,
        ];
        let input = state;
        for _ in 0..ROUNDS / 2 {
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (word, start) in state.iter_mut().zip(input) {
            *word = word.wrapping_add(start);
        }
        self.buffer = state;
        self.index = 0;
        self.counter = self.counter.wrapping_add(1);
    }
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut key = [0u32; 8];
        for (i, word) in key.iter_mut().enumerate() {
            *word = u32::from_le_bytes([
                seed[4 * i],
                seed[4 * i + 1],
                seed[4 * i + 2],
                seed[4 * i + 3],
            ]);
        }
        ChaCha8Rng {
            key,
            counter: 0,
            buffer: [0; 16],
            index: 16,
        }
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u32(&mut self) -> u32 {
        if self.index >= 16 {
            self.refill();
        }
        let word = self.buffer[self.index];
        self.index += 1;
        word
    }

    fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        lo | (hi << 32)
    }

    /// Stream-identical to the trait default — one `next_u64` per 8-byte
    /// chunk, little-endian, a partial tail still consuming a whole
    /// `next_u64` — but copies buffered keystream words (whole refilled
    /// blocks at a time) straight into `dest`.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        // The default's byte stream is the keystream words in order, each
        // little-endian; it consumes two words per started 8-byte chunk.
        let mut words_left = dest.len().div_ceil(8) * 2;
        let mut out = dest;
        while words_left > 0 {
            if self.index >= 16 {
                self.refill();
            }
            let take = (16 - self.index).min(words_left);
            let bytes = (4 * take).min(out.len());
            let (head, rest) = out.split_at_mut(bytes);
            let words = &self.buffer[self.index..self.index + take];
            let mut chunks = head.chunks_exact_mut(4);
            for (chunk, word) in (&mut chunks).zip(words) {
                chunk.copy_from_slice(&word.to_le_bytes());
            }
            let tail = chunks.into_remainder();
            if let Some(word) = words.get(bytes / 4) {
                let len = tail.len();
                tail.copy_from_slice(&word.to_le_bytes()[..len]);
            }
            out = rest;
            self.index += take;
            words_left -= take;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = ChaCha8Rng::seed_from_u64(7);
        let mut b = ChaCha8Rng::seed_from_u64(7);
        let xs: Vec<u64> = (0..100).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..100).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(2);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn clone_preserves_stream_position() {
        let mut a = ChaCha8Rng::seed_from_u64(9);
        for _ in 0..5 {
            a.next_u32();
        }
        let mut b = a.clone();
        assert_eq!(a.next_u64(), b.next_u64());
    }

    /// The trait's default `fill_bytes`: one `next_u64` per started chunk.
    fn fill_by_words(rng: &mut ChaCha8Rng, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let word = rng.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }

    #[test]
    fn fill_bytes_matches_next_u64_sequences() {
        // Even and odd word offsets, lengths inside one block and across
        // block boundaries, with and without a partial 8-byte tail.
        for skip in [0usize, 1, 3, 15, 16, 17] {
            for len in [0usize, 1, 5, 8, 13, 63, 64, 65, 127, 200, 1000] {
                let mut fast = ChaCha8Rng::seed_from_u64(11);
                let mut slow = ChaCha8Rng::seed_from_u64(11);
                for _ in 0..skip {
                    fast.next_u32();
                    slow.next_u32();
                }
                let mut a = vec![0u8; len];
                let mut b = vec![0u8; len];
                fast.fill_bytes(&mut a);
                fill_by_words(&mut slow, &mut b);
                assert_eq!(a, b, "skip {skip} len {len}");
                // Both consumed the same number of words.
                assert_eq!(fast.next_u32(), slow.next_u32(), "skip {skip} len {len}");
            }
        }
    }

    #[test]
    fn output_looks_balanced() {
        // Not a statistical test suite — just a sanity check that bits flip.
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let mut ones = 0u32;
        for _ in 0..1024 {
            ones += rng.next_u64().count_ones();
        }
        let total = 1024 * 64;
        assert!((ones as f64 / total as f64 - 0.5).abs() < 0.02);
    }
}
