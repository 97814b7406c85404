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

use dradio_graphs::{Edge, GreyTable};

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
    fn all_dynamic_sets_exactly_the_grey_count() {
        let dual = topology::dual_clique(30).unwrap();
        let decision = LinkDecision::all_dynamic(&dual);
        assert_eq!(decision.len(), dual.grey_table().len());
        let mut active = ActiveGrey::new();
        assert_eq!(active.resolve(dual.grey_table(), &decision), 0);
    }
}
