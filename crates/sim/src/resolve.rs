//! The link-decision resolver shared by the scalar and batch executors.
//!
//! A [`LinkDecision`] proposes grey edges as an edge list or as a grey-id
//! bitmask, never both. [`ActiveGrey::resolve`] turns either form into the
//! round's *active grey mask* over the network's
//! [`GreyTable`](dradio_graphs::GreyTable) ids, counting every proposal that
//! names no grey edge as rejected:
//!
//! * mask bits at or past the grey count are rejected;
//! * a listed edge is looked up in its lower endpoint's sorted grey row — a
//!   reliable edge or an edge outside `G'` has no id there and is rejected;
//!   a listed edge whose bit is already set is a repeat and is dropped.
//!
//! The active edges in history order — mask ids ascending, or listed edges
//! in first-occurrence order — are produced only on demand
//! ([`ActiveGrey::push_edges`]), so a round that records no history never
//! materializes an edge.
//!
//! [`LazyCoins`] is the lazy form of the active grey mask for a link process
//! that declares [`LinkProcess::iid_coins`](crate::LinkProcess::iid_coins):
//! no decision is made, and coin `i` is evaluated from the adversary stream
//! only when reception asks whether grey edge `i` is active.

use dradio_graphs::{Edge, GreyTable};
use rand_chacha::ChaCha8Rng;

use crate::link::LinkDecision;

/// The active grey mask of one round, reused across rounds and trials.
#[derive(Debug, Default)]
pub(crate) struct ActiveGrey {
    /// Bit `i` set iff grey edge `i` is present this round.
    mask: Vec<u64>,
    /// Ids activated through the decision's edge list, first occurrence
    /// first.
    listed: Vec<u32>,
    /// Number of bits set in `mask`.
    count: usize,
}

impl ActiveGrey {
    /// Creates an empty resolver (buffers grow on first use).
    pub(crate) fn new() -> Self {
        ActiveGrey::default()
    }

    // lint: hot-path

    /// Resolves `decision` against `table` into this round's active mask and
    /// returns the number of rejected proposals.
    pub(crate) fn resolve(&mut self, table: &GreyTable, decision: &LinkDecision) -> usize {
        debug_assert!(
            decision.edges().is_empty() || decision.grey_mask().is_empty(),
            "a link decision is an edge list or a grey mask, not both"
        );
        let words = table.mask_words();
        self.mask.clear();
        self.mask.resize(words, 0);
        self.listed.clear();
        let mut rejected = 0usize;
        let mut count = 0usize;
        for (w, &bits) in decision.grey_mask().iter().enumerate() {
            let valid = valid_bits(table.len(), w);
            if let Some(word) = self.mask.get_mut(w) {
                *word = bits & valid;
                count += word.count_ones() as usize;
            }
            rejected += (bits & !valid).count_ones() as usize;
        }
        for edge in decision.edges() {
            let (u, v) = edge.endpoints();
            match table.id(u, v) {
                None => rejected += 1,
                Some(id) => {
                    let bit = 1u64 << (id % 64);
                    if self.mask[id / 64] & bit == 0 {
                        self.mask[id / 64] |= bit;
                        count += 1;
                        self.listed.push(id as u32);
                    }
                }
            }
        }
        self.count = count;
        rejected
    }

    /// Returns `true` if grey edge `id` is active this round.
    #[inline]
    pub(crate) fn contains(&self, id: u32) -> bool {
        let id = id as usize;
        self.mask[id / 64] >> (id % 64) & 1 == 1
    }

    /// Number of grey edges active this round.
    pub(crate) fn len(&self) -> usize {
        self.count
    }

    /// The active grey ids, ascending.
    pub(crate) fn ids(&self) -> impl Iterator<Item = usize> + '_ {
        self.mask.iter().enumerate().flat_map(|(w, &bits)| {
            let mut bits = bits;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let id = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    id
                })
            })
        })
    }

    // lint: end-hot-path

    /// Appends this round's active edges to `out` in history order: the
    /// ids set in a mask decision ascending, or the edges of an edge-list
    /// decision in first-occurrence order without repeats. `decision` must
    /// be the one last passed to [`resolve`](ActiveGrey::resolve).
    pub(crate) fn push_edges(
        &self,
        table: &GreyTable,
        decision: &LinkDecision,
        out: &mut Vec<Edge>,
    ) {
        let edges = table.edges();
        for (w, &bits) in decision.grey_mask().iter().enumerate() {
            let mut bits = bits & valid_bits(table.len(), w);
            while bits != 0 {
                out.push(edges[w * 64 + bits.trailing_zeros() as usize]);
                bits &= bits - 1;
            }
        }
        out.extend(self.listed.iter().map(|&id| edges[id as usize]));
    }
}

/// One round's iid grey coins, evaluated on demand from the adversary
/// stream and reused across rounds and trials.
///
/// Coin `i` of a round whose coins start at stream word `base` is
/// `bernoulli(p)` of the `next_u64` made of words `base + 2i` (low half) and
/// `base + 2i + 1` (high half) — exactly the draw an eager
/// [`LinkProcess::iid_coins`](crate::LinkProcess::iid_coins) process makes
/// for grey id `i`. An unevaluated coin is filled together with every other
/// coin whose two words lie in the keystream block holding its words — or,
/// for a coin that straddles a block boundary (possible when `base` is odd),
/// in the two blocks holding them: grey rows need not be contiguous in id,
/// but nearby coins are often read together.
#[derive(Debug, Default)]
pub(crate) struct LazyCoins {
    /// Bit `i` set iff coin `i` has been evaluated this round.
    known: Vec<u64>,
    /// Bit `i` is coin `i`'s value wherever `known` has bit `i` set.
    value: Vec<u64>,
    /// The keystream block holding `base`.
    first_block: u64,
    /// `base`'s word index within `first_block`.
    offset: usize,
    /// Number of coins (grey edges) per round.
    count: usize,
    /// `bernoulli_threshold(p)`: a coin is set iff `word >> 11` is below it.
    threshold: u64,
}

impl LazyCoins {
    /// Creates an empty coin set (buffers grow on first use).
    pub(crate) fn new() -> Self {
        LazyCoins::default()
    }

    /// Starts a round of `count` coins with threshold `threshold` whose
    /// words begin at stream word `base`; no coin is evaluated yet.
    pub(crate) fn start_round(&mut self, count: usize, threshold: u64, base: u128) {
        let words = count.div_ceil(64);
        self.known.clear();
        self.known.resize(words, 0);
        self.value.resize(words, 0);
        self.first_block = (base >> 4) as u64;
        self.offset = (base & 15) as usize;
        self.count = count;
        self.threshold = threshold;
    }

    // lint: hot-path

    /// Returns `true` if grey edge `id` is active this round, evaluating its
    /// coin from `stream`'s keystream if no earlier call did.
    #[inline]
    pub(crate) fn contains(&mut self, id: u32, stream: &ChaCha8Rng) -> bool {
        let (w, bit) = (id as usize / 64, 1u64 << (id % 64));
        if self.known[w] & bit == 0 {
            self.evaluate(id as usize, stream);
        }
        self.value[w] & bit != 0
    }

    /// Evaluates every coin whose two words lie in the keystream blocks
    /// holding coin `id`'s words. Word positions below are relative to
    /// word 0 of `first_block`.
    fn evaluate(&mut self, id: usize, stream: &ChaCha8Rng) {
        let low = self.offset + 2 * id;
        let (start, end) = (low / 16, (low + 1) / 16);
        let mut words = [0u32; 32];
        words[..16]
            .copy_from_slice(&stream.keystream_block(self.first_block.wrapping_add(start as u64)));
        if end != start {
            words[16..].copy_from_slice(
                &stream.keystream_block(self.first_block.wrapping_add(end as u64)),
            );
        }
        // Coins `j` with `16·start <= offset + 2j` and
        // `offset + 2j + 2 <= 16·(end + 1)`: at most 16, contiguous.
        let lo = (16 * start).saturating_sub(self.offset).div_ceil(2);
        let hi = ((16 * (end + 1) - self.offset) / 2).min(self.count);
        let mut bits = 0u64;
        let mut at = self.offset + 2 * lo - 16 * start;
        for k in 0..hi - lo {
            let draw = u64::from(words[at]) | u64::from(words[at + 1]) << 32;
            bits |= u64::from((draw >> 11) < self.threshold) << k;
            at += 2;
        }
        // Write the range's known and value bits, across two mask words
        // when it straddles one.
        let filled = (1u64 << (hi - lo)) - 1;
        let (w, shift) = (lo / 64, lo % 64);
        self.known[w] |= filled << shift;
        self.value[w] = self.value[w] & !(filled << shift) | bits << shift;
        if shift + (hi - lo) > 64 {
            let back = 64 - shift;
            self.known[w + 1] |= filled >> back;
            self.value[w + 1] = self.value[w + 1] & !(filled >> back) | bits >> back;
        }
    }

    // lint: end-hot-path
}

/// The bits of mask word `w` that name a grey id below `count`.
fn valid_bits(count: usize, w: usize) -> u64 {
    let start = w.saturating_mul(64);
    if start >= count {
        0
    } else if count - start >= 64 {
        u64::MAX
    } else {
        (1u64 << (count - start)) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dradio_graphs::{topology, NodeId};

    fn edge(u: usize, v: usize) -> Edge {
        Edge::new(NodeId::new(u), NodeId::new(v))
    }

    #[test]
    fn edge_lists_are_filtered_and_deduplicated_in_first_occurrence_order() {
        // dual_clique(8): cliques {0..4} and {4..8} bridged by (3, 4); every
        // other cross pair is grey.
        let dual = topology::dual_clique(8).unwrap();
        let table = dual.grey_table();
        let later = edge(2, 7);
        let earlier = edge(0, 5);
        let reliable = edge(0, 1);
        let decision =
            LinkDecision::from_edges(vec![later, reliable, earlier, later, edge(3, 4), earlier]);
        let mut active = ActiveGrey::new();
        assert_eq!(active.resolve(table, &decision), 2);
        let mut out = Vec::new();
        active.push_edges(table, &decision, &mut out);
        assert_eq!(out, vec![later, earlier]);
        let ids: Vec<usize> = out
            .iter()
            .map(|e| {
                let (u, v) = e.endpoints();
                table.id(u, v).unwrap()
            })
            .collect();
        assert!(ids.iter().all(|&id| active.contains(id as u32)));
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(active.ids().collect::<Vec<_>>(), sorted);
    }

    #[test]
    fn mask_bits_past_the_grey_count_are_rejected() {
        let dual = topology::dual_clique(8).unwrap();
        let table = dual.grey_table();
        let count = table.len();
        assert!(count < 64);
        let decision = LinkDecision::from_grey_mask(vec![u64::MAX, 0b101]);
        let mut active = ActiveGrey::new();
        assert_eq!(active.resolve(table, &decision), 64 - count + 2);
        let mut out = Vec::new();
        active.push_edges(table, &decision, &mut out);
        assert_eq!(out, table.edges());
        // A fresh resolve clears the previous round.
        assert_eq!(active.resolve(table, &LinkDecision::none()), 0);
        assert_eq!(active.len(), 0);
    }

    #[test]
    fn lazy_coins_equal_the_eager_draws_at_any_stream_position() {
        use crate::sampling::bernoulli_threshold;
        use rand::{RngCore, SeedableRng};

        let stream = ChaCha8Rng::seed_from_u64(17);
        let mut coins = LazyCoins::new();
        for base in [0u128, 1, 2, 15, 16, 17, 31, 33, 1027] {
            for count in [1usize, 7, 8, 9, 63, 64, 65, 200] {
                for p in [0.1, 0.5, 0.9] {
                    let threshold = bernoulli_threshold(p);
                    let mut eager = stream.clone();
                    eager.set_word_pos(base);
                    let expected: Vec<bool> = (0..count)
                        .map(|_| (eager.next_u64() >> 11) < threshold)
                        .collect();
                    coins.start_round(count, threshold, base);
                    // A scattered read order, then every coin again.
                    let order = (0..count).map(|i| (i * 37 + 11) % count);
                    for id in order.chain(0..count) {
                        assert_eq!(
                            coins.contains(id as u32, &stream),
                            expected[id],
                            "base {base} count {count} p {p} id {id}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn all_dynamic_sets_exactly_the_grey_count() {
        let dual = topology::dual_clique(30).unwrap();
        let decision = LinkDecision::all_dynamic(&dual);
        assert_eq!(decision.len(), dual.grey_table().len());
        let mut active = ActiveGrey::new();
        assert_eq!(active.resolve(dual.grey_table(), &decision), 0);
    }
}
