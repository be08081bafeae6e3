//! Offline drop-in for `rand_chacha`.
//!
//! Implements the genuine ChaCha stream cipher core (D. J. Bernstein) with a
//! 64-bit block counter, exposed through the local `rand` shim's [`RngCore`]
//! and [`SeedableRng`] traits. The keystream is deterministic for a given
//! seed, which is all the workspace relies on (seeded reproducibility of
//! experiments); it is not guaranteed to be bit-identical to the real
//! `rand_chacha` crate's stream.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::{RngCore, SeedableRng};

/// One ChaCha generator with `R` double-rounds (so `ChaCha<4>` is ChaCha8).
#[derive(Clone, Debug)]
pub struct ChaCha<const DOUBLE_ROUNDS: usize> {
    key: [u32; 8],
    counter: u64,
    buffer: [u32; 16],
    /// Index of the next unread word in `buffer`; 16 means "refill".
    cursor: usize,
}

impl<const DOUBLE_ROUNDS: usize> ChaCha<DOUBLE_ROUNDS> {
    const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

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

    fn refill(&mut self) {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&Self::SIGMA);
        state[4..12].copy_from_slice(&self.key);
        state[12] = self.counter as u32;
        state[13] = (self.counter >> 32) as u32;
        // Nonce words stay zero: one seed = one stream, as in `rand_chacha`.
        let input = state;
        for _ in 0..DOUBLE_ROUNDS {
            Self::quarter_round(&mut state, 0, 4, 8, 12);
            Self::quarter_round(&mut state, 1, 5, 9, 13);
            Self::quarter_round(&mut state, 2, 6, 10, 14);
            Self::quarter_round(&mut state, 3, 7, 11, 15);
            Self::quarter_round(&mut state, 0, 5, 10, 15);
            Self::quarter_round(&mut state, 1, 6, 11, 12);
            Self::quarter_round(&mut state, 2, 7, 8, 13);
            Self::quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (word, init) in state.iter_mut().zip(input) {
            *word = word.wrapping_add(init);
        }
        self.buffer = state;
        self.cursor = 0;
        self.counter = self.counter.wrapping_add(1);
    }

    /// The stream position: how many 32-bit words have been read since
    /// the start of the keystream (a `u128`, as in `rand_chacha` 0.3; the
    /// block counter is 64 bits wide, so positions wrap at `2^68`).
    pub fn get_word_pos(&self) -> u128 {
        // `cursor == 16` means the next word is the first of block
        // `counter`; otherwise the buffer holds block `counter - 1`.
        let (block, word) = if self.cursor >= 16 {
            (self.counter, 0)
        } else {
            (self.counter.wrapping_sub(1), self.cursor)
        };
        (u128::from(block) << 4) + word as u128
    }

    /// Moves the stream to word position `pos` (see
    /// [`get_word_pos`](Self::get_word_pos)): the next words drawn are the
    /// ones that `pos` words drawn from the start would be followed by.
    /// A seek inside the block already buffered generates nothing.
    pub fn set_word_pos(&mut self, pos: u128) {
        let block = (pos >> 4) as u64;
        let word = (pos & 15) as usize;
        // A fresh generator (counter 0) has buffered no block yet.
        if self.counter != 0 && self.counter.wrapping_sub(1) == block {
            self.cursor = word;
        } else {
            self.counter = block;
            self.cursor = 16;
            if word > 0 {
                self.refill();
                self.cursor = word;
            }
        }
    }
}

impl<const DOUBLE_ROUNDS: usize> RngCore for ChaCha<DOUBLE_ROUNDS> {
    fn next_u32(&mut self) -> u32 {
        if self.cursor >= 16 {
            self.refill();
        }
        let word = self.buffer[self.cursor];
        self.cursor += 1;
        word
    }

    fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        lo | (hi << 32)
    }
}

impl<const DOUBLE_ROUNDS: usize> SeedableRng for ChaCha<DOUBLE_ROUNDS> {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut key = [0u32; 8];
        for (word, chunk) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *word = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        Self {
            key,
            counter: 0,
            buffer: [0; 16],
            cursor: 16,
        }
    }
}

/// ChaCha with 8 rounds — the workspace's workhorse seeded generator.
pub type ChaCha8Rng = ChaCha<4>;
/// ChaCha with 12 rounds.
pub type ChaCha12Rng = ChaCha<6>;
/// ChaCha with 20 rounds.
pub type ChaCha20Rng = ChaCha<10>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chacha20_matches_rfc8439_block_function_structure() {
        // RFC 8439 test vector 2.3.2 uses a nonzero nonce, which this
        // stream-RNG wrapper fixes at zero; instead check the all-zero
        // key/counter ChaCha20 keystream against its published first word.
        let mut rng = ChaCha20Rng::from_seed([0u8; 32]);
        assert_eq!(rng.next_u32(), 0xade0_b876);
    }

    #[test]
    fn streams_are_deterministic_and_seed_sensitive() {
        let mut a = ChaCha8Rng::seed_from_u64(7);
        let mut b = ChaCha8Rng::seed_from_u64(7);
        let mut c = ChaCha8Rng::seed_from_u64(8);
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..64).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    /// Seeking `k` words ahead lands where drawing `k` words does, from
    /// every start position of the first three blocks — mid-block, on a
    /// block boundary, and after an odd number of 32-bit draws.
    #[test]
    fn a_seek_lands_where_drawing_the_skipped_words_does() {
        let fresh = || ChaCha8Rng::seed_from_u64(5);
        let mut reference = fresh();
        let words: Vec<u32> = (0..96).map(|_| reference.next_u32()).collect();
        for start in 0..48usize {
            for k in [0, 1, 2, 3, 15, 16, 17, 31, 32, 33] {
                let mut drawn = fresh();
                for _ in 0..start {
                    drawn.next_u32();
                }
                let mut seeked = drawn.clone();
                for _ in 0..k {
                    drawn.next_u32();
                }
                assert_eq!(drawn.get_word_pos(), (start + k) as u128);
                seeked.set_word_pos((start + k) as u128);
                assert_eq!(seeked.get_word_pos(), (start + k) as u128);
                let next = (seeked.next_u32(), seeked.next_u64());
                assert_eq!(next, (drawn.next_u32(), drawn.next_u64()), "{start} + {k}");
                let at = start + k;
                let expected = u64::from(words[at + 1]) | (u64::from(words[at + 2]) << 32);
                assert_eq!(next, (words[at], expected), "{start} + {k}");
            }
        }
        // Backwards, and from a generator that has drawn nothing.
        let mut back = fresh();
        for _ in 0..40 {
            back.next_u32();
        }
        back.set_word_pos(7);
        assert_eq!(back.next_u32(), words[7]);
        let mut cold = fresh();
        cold.set_word_pos(0);
        assert_eq!((cold.get_word_pos(), cold.next_u32()), (0, words[0]));
    }

    #[test]
    fn keystream_crosses_block_boundaries() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let first: Vec<u32> = (0..40).map(|_| rng.next_u32()).collect();
        let unique: std::collections::HashSet<u32> = first.iter().copied().collect();
        assert!(unique.len() > 35, "keystream looks degenerate");
    }
}
