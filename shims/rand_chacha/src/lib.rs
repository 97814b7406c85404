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

/// The ChaCha8 keystream block number `counter` under `key`.
fn chacha_block(key: &[u32; 8], counter: u64) -> [u32; 16] {
    let mut state: [u32; 16] = [
        0x6170_7865,
        0x3320_646e,
        0x7962_2d32,
        0x6b20_6574,
        key[0],
        key[1],
        key[2],
        key[3],
        key[4],
        key[5],
        key[6],
        key[7],
        counter as u32,
        (counter >> 32) as u32,
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
    state
}

/// Word positions wrap at 2⁶⁸: a 64-bit block counter of 16-word blocks.
const WORD_POS_MASK: u128 = (1 << 68) - 1;

impl ChaCha8Rng {
    fn refill(&mut self) {
        self.buffer = chacha_block(&self.key, self.counter);
        self.index = 0;
        self.counter = self.counter.wrapping_add(1);
    }

    /// The position of the next keystream word this generator returns:
    /// `next_u32` returns word `get_word_pos()` and advances it by one, and
    /// `next_u64` returns words `p` and `p + 1` as `lo | hi << 32`.
    pub fn get_word_pos(&self) -> u128 {
        ((u128::from(self.counter) << 4) + self.index as u128).wrapping_sub(16) & WORD_POS_MASK
    }

    /// Seeks the stream to word `word_offset` (taken modulo 2⁶⁸) in O(1):
    /// at most one keystream block is computed, none when the position
    /// starts a block.
    pub fn set_word_pos(&mut self, word_offset: u128) {
        let word_offset = word_offset & WORD_POS_MASK;
        self.counter = (word_offset >> 4) as u64;
        self.index = 16;
        let index = (word_offset & 15) as usize;
        if index != 0 {
            self.refill();
            self.index = index;
        }
    }

    /// Keystream block number `block`: words `16·block .. 16·block + 16` of
    /// this generator's stream, computed from the key alone — the
    /// generator's position is neither read nor moved. (Not part of the
    /// crates.io `rand_chacha` API.)
    pub fn keystream_block(&self, block: u64) -> [u32; 16] {
        chacha_block(&self.key, block)
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
    fn set_word_pos_equals_skipping_words() {
        for pos in [0u128, 1, 15, 16, 17, 33, (1 << 10) + 3] {
            let mut sought = ChaCha8Rng::seed_from_u64(21);
            let mut walked = ChaCha8Rng::seed_from_u64(21);
            sought.next_u64();
            sought.set_word_pos(pos);
            for _ in 0..pos {
                walked.next_u32();
            }
            assert_eq!(sought.get_word_pos(), pos);
            let a: Vec<u32> = (0..40).map(|_| sought.next_u32()).collect();
            let b: Vec<u32> = (0..40).map(|_| walked.next_u32()).collect();
            assert_eq!(a, b, "pos {pos}");
            assert_eq!(sought.get_word_pos(), walked.get_word_pos());
        }
    }

    #[test]
    fn get_word_pos_round_trips_through_fill_bytes_and_next_u64() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        assert_eq!(rng.get_word_pos(), 0);
        rng.next_u32();
        assert_eq!(rng.get_word_pos(), 1);
        rng.next_u64();
        assert_eq!(rng.get_word_pos(), 3);
        let mut bytes = [0u8; 61];
        rng.fill_bytes(&mut bytes);
        // 61 bytes start 8 chunks of two words each.
        assert_eq!(rng.get_word_pos(), 19);
        let pos = rng.get_word_pos();
        let ahead = rng.next_u64();
        rng.set_word_pos(pos);
        assert_eq!(rng.next_u64(), ahead);
        assert_eq!(rng.get_word_pos(), pos + 2);
    }

    #[test]
    fn word_positions_wrap_at_two_to_the_68() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let first = rng.next_u32();
        rng.set_word_pos((1 << 68) - 1);
        assert_eq!(rng.get_word_pos(), (1 << 68) - 1);
        rng.next_u32();
        assert_eq!(rng.get_word_pos(), 0);
        assert_eq!(rng.next_u32(), first);
    }

    #[test]
    fn keystream_blocks_are_the_stream_in_sixteen_word_chunks() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let probe = rng.clone();
        for block in 0..4u64 {
            let words: Vec<u32> = (0..16).map(|_| rng.next_u32()).collect();
            assert_eq!(
                probe.keystream_block(block).to_vec(),
                words,
                "block {block}"
            );
        }
        // Reading a block moves nothing.
        assert_eq!(probe.get_word_pos(), 0);
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
