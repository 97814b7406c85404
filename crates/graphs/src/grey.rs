//! The grey-edge table: stable ids for the dynamic edges `E' \ E` of a dual
//! graph, plus per-node grey adjacency.
//!
//! Link processes decide, round by round, which grey edges are present. The
//! table numbers those edges once per topology — id `i` is the `i`-th edge of
//! [`DualGraph::dynamic_edges`](crate::DualGraph::dynamic_edges) in canonical
//! order — so a round's decision can be a bitmask over ids instead of a fresh
//! edge list, and the simulator can resolve reception by walking a
//! transmitter's grey row `(neighbor, id)` and testing one mask bit per entry.
//! It is the flat parent-table idiom: every lookup is an index into a flat
//! array, never a hash or a per-node allocation.

use crate::graph::{Edge, Graph};
use crate::node::NodeId;

/// Grey-edge ids and per-node grey adjacency of one dual graph.
///
/// Built in `O(n + |E'|)` by merging the sorted `G'` and `G` rows of every
/// node; obtained through
/// [`DualGraph::grey_table`](crate::DualGraph::grey_table), which builds it
/// on first use and caches it with the network.
///
/// # Example
///
/// ```
/// use dradio_graphs::{DualGraph, GraphBuilder, NodeId};
/// let g = GraphBuilder::new(3).edge(0, 1).edge(1, 2).build()?;
/// let g_prime = GraphBuilder::new(3).edge(0, 1).edge(1, 2).edge(0, 2).build()?;
/// let dual = DualGraph::new(g, g_prime)?;
/// let grey = dual.grey_table();
/// assert_eq!(grey.len(), 1);
/// assert_eq!(grey.id(NodeId::new(2), NodeId::new(0)), Some(0));
/// assert_eq!(grey.id(NodeId::new(0), NodeId::new(1)), None); // reliable
/// # Ok::<(), dradio_graphs::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GreyTable {
    /// `edges[id]`: the grey edge with that id, in canonical order.
    edges: Vec<Edge>,
    /// `offsets[u]..offsets[u + 1]` delimits node `u`'s grey row.
    offsets: Vec<usize>,
    /// Concatenated grey rows, each sorted by neighbor.
    neighbors: Vec<NodeId>,
    /// `ids[k]`: the grey id of the edge `(u, neighbors[k])`.
    ids: Vec<u32>,
}

impl GreyTable {
    /// Builds the table of `g_prime \ g` (both over the same vertex set,
    /// `g ⊆ g_prime`).
    pub(crate) fn build(g: &Graph, g_prime: &Graph) -> GreyTable {
        let n = g_prime.len();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut total = 0usize;
        for u in NodeId::all(n) {
            total += grey_row(g, g_prime, u).count();
            offsets.push(total);
        }
        let mut edges = Vec::with_capacity(total / 2);
        let mut neighbors = vec![NodeId::new(0); total];
        let mut ids = vec![0u32; total];
        // Filling nodes in ascending order keeps every row sorted: row `u`
        // first receives its lower neighbors (from their own turns, in
        // ascending order), then its higher ones (from its own turn).
        let mut cursor: Vec<usize> = offsets[..n].to_vec();
        for u in NodeId::all(n) {
            for v in grey_row(g, g_prime, u).filter(|&v| v > u) {
                let id = edges.len() as u32;
                edges.push(Edge::new(u, v));
                for (a, b) in [(u, v), (v, u)] {
                    neighbors[cursor[a.index()]] = b;
                    ids[cursor[a.index()]] = id;
                    cursor[a.index()] += 1;
                }
            }
        }
        GreyTable {
            edges,
            offsets,
            neighbors,
            ids,
        }
    }

    /// Number of grey edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the dual graph has no grey edges (`G = G'`).
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Number of `u64` words in a bitmask over grey ids (`⌈len / 64⌉`).
    pub fn mask_words(&self) -> usize {
        self.edges.len().div_ceil(64)
    }

    /// The grey edges indexed by id: the canonical `E' \ E` order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    // Row access: the simulator's reception and decision resolvers call
    // these per transmitter / per proposed edge every round.
    // lint: hot-path

    /// Node `u`'s grey row: its grey neighbors in ascending order and, at the
    /// same positions, the ids of the connecting edges. Out-of-range nodes
    /// have an empty row.
    pub fn row(&self, u: NodeId) -> (&[NodeId], &[u32]) {
        if u.index() + 1 >= self.offsets.len() {
            return (&[], &[]);
        }
        let (start, end) = (self.offsets[u.index()], self.offsets[u.index() + 1]);
        (&self.neighbors[start..end], &self.ids[start..end])
    }

    /// The id of the grey edge `(u, v)`, or `None` if `(u, v)` is reliable,
    /// outside `G'`, or out of range. `O(log deg(u))`.
    pub fn id(&self, u: NodeId, v: NodeId) -> Option<usize> {
        let (neighbors, ids) = self.row(u);
        neighbors.binary_search(&v).ok().map(|k| ids[k] as usize)
    }

    // lint: end-hot-path
}

/// Resident bytes of the [`GreyTable`] of an `n`-vertex dual graph with
/// `grey_edges` grey edges: the id-indexed edge array, one row offset per
/// vertex, and a `(neighbor, id)` entry at each end of every grey edge.
pub fn grey_table_bytes_estimate(n: usize, grey_edges: u64) -> u64 {
    let per_edge = std::mem::size_of::<Edge>() + 2 * std::mem::size_of::<NodeId>() + 2 * 4;
    (n as u64 + 1) * std::mem::size_of::<usize>() as u64 + grey_edges * per_edge as u64
}

/// The grey neighbors of `u` in ascending order: a merge of the sorted `G'`
/// and `G` rows keeping what only `G'` has.
fn grey_row<'a>(g: &'a Graph, g_prime: &'a Graph, u: NodeId) -> impl Iterator<Item = NodeId> + 'a {
    let mut reliable = g.neighbors(u).iter().peekable();
    g_prime.neighbors(u).iter().copied().filter(move |&v| {
        while reliable.next_if(|&&w| w < v).is_some() {}
        reliable.next_if_eq(&&v).is_none()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;

    #[test]
    fn ids_follow_the_canonical_dynamic_order() {
        let dual = topology::dual_clique(10).unwrap();
        let table = GreyTable::build(dual.g(), dual.g_prime());
        let expected: Vec<Edge> = dual
            .g_prime()
            .edges()
            .into_iter()
            .filter(|e| {
                let (u, v) = e.endpoints();
                !dual.g().has_edge(u, v)
            })
            .collect();
        assert_eq!(table.edges(), expected.as_slice());
        assert_eq!(table.mask_words(), expected.len().div_ceil(64));
    }

    #[test]
    fn rows_are_sorted_and_agree_with_the_edge_ids() {
        for dual in [
            topology::dual_clique(12).unwrap(),
            topology::dual_clique(12)
                .unwrap()
                .with_graph_backend(crate::GraphBackend::Csr),
        ] {
            let table = GreyTable::build(dual.g(), dual.g_prime());
            let mut entries = 0;
            for u in NodeId::all(dual.len()) {
                let (neighbors, ids) = table.row(u);
                assert!(neighbors.windows(2).all(|w| w[0] < w[1]));
                for (&v, &id) in neighbors.iter().zip(ids) {
                    assert_eq!(table.edges()[id as usize], Edge::new(u, v));
                    assert_eq!(table.id(u, v), Some(id as usize));
                    assert_eq!(table.id(v, u), Some(id as usize));
                }
                entries += neighbors.len();
                for &v in dual.g_neighbors(u) {
                    assert_eq!(table.id(u, v), None, "reliable edges have no id");
                }
            }
            assert_eq!(entries, 2 * table.len());
        }
    }

    #[test]
    fn static_and_out_of_range_lookups_are_empty() {
        let table = GreyTable::build(&Graph::complete(4), &Graph::complete(4));
        assert!(table.is_empty());
        assert_eq!(table.mask_words(), 0);
        assert_eq!(table.row(NodeId::new(9)), (&[][..], &[][..]));
        assert_eq!(table.id(NodeId::new(0), NodeId::new(9)), None);
    }

    #[test]
    fn the_byte_estimate_counts_every_buffer() {
        let dual = topology::dual_clique(12).unwrap();
        let table = dual.grey_table();
        let exact = std::mem::size_of_val(table.edges())
            + std::mem::size_of_val(table.offsets.as_slice())
            + std::mem::size_of_val(table.neighbors.as_slice())
            + std::mem::size_of_val(table.ids.as_slice());
        assert_eq!(
            grey_table_bytes_estimate(dual.len(), table.len() as u64),
            exact as u64
        );
    }
}
