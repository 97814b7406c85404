//! Simple undirected graphs with O(1) edge queries and a pluggable
//! dense/CSR storage backend.

use std::collections::BTreeSet;
use std::fmt;

use crate::error::GraphError;
use crate::node::NodeId;
use crate::Result;

/// An undirected edge between two nodes, stored in canonical (sorted) order.
///
/// # Example
///
/// ```
/// use dradio_graphs::{Edge, NodeId};
/// let e = Edge::new(NodeId::new(3), NodeId::new(1));
/// assert_eq!(e.endpoints(), (NodeId::new(1), NodeId::new(3)));
/// assert!(e.touches(NodeId::new(3)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    lo: NodeId,
    hi: NodeId,
}

impl Edge {
    /// Creates an edge between `u` and `v`, normalizing endpoint order.
    ///
    /// # Panics
    ///
    /// Panics if `u == v`; the radio model has no self-loops.
    pub fn new(u: NodeId, v: NodeId) -> Self {
        assert_ne!(u, v, "self-loops are not allowed in radio network graphs");
        if u < v {
            Edge { lo: u, hi: v }
        } else {
            Edge { lo: v, hi: u }
        }
    }

    /// Returns the endpoints in canonical (ascending) order.
    pub fn endpoints(self) -> (NodeId, NodeId) {
        (self.lo, self.hi)
    }

    /// Returns `true` if `node` is one of the endpoints.
    pub fn touches(self, node: NodeId) -> bool {
        self.lo == node || self.hi == node
    }

    /// Returns the endpoint opposite to `node`, or `None` if `node` is not an
    /// endpoint of this edge.
    pub fn other(self, node: NodeId) -> Option<NodeId> {
        if node == self.lo {
            Some(self.hi)
        } else if node == self.hi {
            Some(self.lo)
        } else {
            None
        }
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.lo, self.hi)
    }
}

/// The physical representation backing a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphBackend {
    /// Row-aligned adjacency bit matrix plus sorted adjacency lists: O(n²)
    /// bits of memory, O(1) edge queries, and word-parallel row scans. The
    /// right choice for the paper's small dense networks.
    Dense,
    /// Compressed sparse rows (offsets + sorted targets): O(n + m) memory,
    /// O(log deg) edge queries, cache-friendly sorted row iteration. The
    /// only representation that fits million-node sparse topologies.
    Csr,
}

impl fmt::Display for GraphBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphBackend::Dense => write!(f, "dense"),
            GraphBackend::Csr => write!(f, "csr"),
        }
    }
}

/// Largest vertex count for which [`auto_backend`] always picks
/// [`GraphBackend::Dense`]. Below this floor the whole bit matrix is at most
/// half a megabyte, every registered campaign store was produced dense, and
/// the word-parallel reception scans are fastest — so small networks never
/// change representation out from under existing byte-stability pins.
pub const DENSE_AUTO_MAX_NODES: usize = 2048;

/// Picks the storage backend for an `n`-vertex graph expected to carry
/// `expected_edges` undirected edges: dense below the
/// [`DENSE_AUTO_MAX_NODES`] floor (bit-exact compatibility with existing
/// stores, fastest at that scale), dense above it only when rows are full
/// enough that word scans beat list walks (m ≥ n²/16), CSR otherwise.
pub fn auto_backend(n: usize, expected_edges: u64) -> GraphBackend {
    if n <= DENSE_AUTO_MAX_NODES {
        return GraphBackend::Dense;
    }
    let dense_pays = expected_edges.saturating_mul(16) >= (n as u64).saturating_mul(n as u64);
    if dense_pays {
        GraphBackend::Dense
    } else {
        GraphBackend::Csr
    }
}

/// Estimated resident bytes of the dense backend for an `n`-vertex graph:
/// the row-aligned bit matrix (which dominates) plus the adjacency lists.
pub fn dense_bytes_estimate(n: usize, expected_edges: u64) -> u64 {
    let n = n as u64;
    let matrix = n * n.div_ceil(64) * 8;
    let lists = 2 * expected_edges * 8 + n * 24;
    matrix + lists
}

/// Estimated resident bytes of the CSR backend for an `n`-vertex graph with
/// `expected_edges` undirected edges: one offset per vertex plus two stored
/// targets per edge.
pub fn csr_bytes_estimate(n: usize, expected_edges: u64) -> u64 {
    (n as u64 + 1) * 8 + 2 * expected_edges * 8
}

/// One adjacency row, in whatever shape the backend stores it.
///
/// The batch executor's word algebra matches on this once per listener and
/// runs the backend-appropriate scan: word intersection against a packed
/// transmitter bitset for [`NeighborRow::Dense`], a sorted neighbor walk for
/// [`NeighborRow::Sparse`]. Both enumerate the same neighbor set in the same
/// ascending order.
#[derive(Debug, Clone, Copy)]
pub enum NeighborRow<'a> {
    /// A packed bitset row (dense backend): bit `v` (word `v / 64`, bit
    /// `v % 64`) is set iff the edge `(u, v)` is present.
    Dense(&'a [u64]),
    /// The sorted neighbor ids of the row (CSR backend).
    Sparse(&'a [NodeId]),
}

/// The backend-specific edge storage. `Dense` is field-for-field the
/// pre-CSR representation, so every dense graph behaves (and hashes, and
/// serializes through its consumers) exactly as before.
#[derive(Debug, Clone)]
enum GraphStorage {
    Dense {
        /// Words per adjacency row (`⌈n / 64⌉`).
        words_per_row: usize,
        adjacency: Vec<Vec<NodeId>>,
        /// Row-aligned bit matrix: bit `v` of row `u` (word `u·words_per_row
        /// + v/64`) is set iff the edge `(u, v)` is present.
        bits: Vec<u64>,
    },
    Csr {
        /// `offsets[u]..offsets[u + 1]` delimits row `u` in `targets`.
        offsets: Vec<usize>,
        /// Concatenated sorted neighbor lists.
        targets: Vec<NodeId>,
    },
}

/// A simple undirected graph over the vertex set `{0, ..., n-1}`.
///
/// Two storage backends live behind one accessor surface (see
/// [`GraphBackend`]):
///
/// * **Dense** (the default) keeps a sorted adjacency list per node plus a
///   packed bit matrix, so a whole adjacency row is available as a word
///   slice. The simulator intersects these rows with its packed transmitter
///   bitset to resolve reception 64 candidates at a time.
/// * **Csr** keeps compressed sparse rows only — O(n + m) memory — built by
///   the streaming topology generators for networks far too large for an
///   n×n matrix. CSR graphs are immutable once built.
///
/// [`Graph::neighbor_row`] exposes the row in its native shape; `neighbors`,
/// `has_edge`, `degree`, `edges` and the rest behave identically on both.
///
/// # Example
///
/// ```
/// use dradio_graphs::{Graph, NodeId};
/// let mut g = Graph::empty(4);
/// g.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
/// g.add_edge(NodeId::new(1), NodeId::new(2)).unwrap();
/// assert!(g.has_edge(NodeId::new(0), NodeId::new(1)));
/// assert_eq!(g.degree(NodeId::new(1)), 2);
/// assert_eq!(g.edge_count(), 2);
/// // Row 1 has bits 0 and 2 set.
/// assert_eq!(g.neighbor_bits(NodeId::new(1)), &[0b101]);
/// // The same graph in CSR form is equal and answers identically.
/// let sparse = g.to_csr();
/// assert_eq!(sparse, g);
/// assert!(sparse.has_edge(NodeId::new(2), NodeId::new(1)));
/// ```
#[derive(Debug, Clone)]
pub struct Graph {
    n: usize,
    storage: GraphStorage,
    edge_count: usize,
}

impl PartialEq for Graph {
    /// Structural equality: same vertex set and same edge set, regardless of
    /// backend — a CSR graph equals its dense counterpart.
    fn eq(&self, other: &Self) -> bool {
        if self.n != other.n || self.edge_count != other.edge_count {
            return false;
        }
        (0..self.n).all(|u| self.neighbors(NodeId::new(u)) == other.neighbors(NodeId::new(u)))
    }
}

impl Eq for Graph {}

impl Graph {
    /// Creates a dense graph with `n` vertices and no edges.
    pub fn empty(n: usize) -> Self {
        let words_per_row = n.div_ceil(64);
        Graph {
            n,
            storage: GraphStorage::Dense {
                words_per_row,
                adjacency: vec![Vec::new(); n],
                bits: vec![0u64; n.saturating_mul(words_per_row)],
            },
            edge_count: 0,
        }
    }

    /// Creates a complete graph (clique) on `n` vertices.
    pub fn complete(n: usize) -> Self {
        let mut g = Graph::empty(n);
        for i in 0..n {
            for j in (i + 1)..n {
                g.add_edge(NodeId::new(i), NodeId::new(j))
                    // lint: allow(D4) -- i < j < n by the loop bounds
                    .expect("indices are in range and distinct");
            }
        }
        g
    }

    /// Builds a CSR graph from an undirected edge list. Duplicate pairs (in
    /// either orientation) collapse to one edge; rows come out sorted. The
    /// whole construction is O(n + m) — no n×n matrix is ever touched.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] or [`GraphError::SelfLoop`] if
    /// any pair is invalid.
    pub fn csr_from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Graph> {
        let mut degree = vec![0usize; n];
        for &(u, v) in edges {
            if u >= n {
                return Err(GraphError::NodeOutOfRange {
                    node: NodeId::new(u),
                    n,
                });
            }
            if v >= n {
                return Err(GraphError::NodeOutOfRange {
                    node: NodeId::new(v),
                    n,
                });
            }
            if u == v {
                return Err(GraphError::SelfLoop {
                    node: NodeId::new(u),
                });
            }
            degree[u] += 1;
            degree[v] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut acc = 0usize;
        for &d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut scratch = vec![NodeId::new(0); acc];
        let mut cursor: Vec<usize> = offsets[..n].to_vec();
        for &(u, v) in edges {
            scratch[cursor[u]] = NodeId::new(v);
            cursor[u] += 1;
            scratch[cursor[v]] = NodeId::new(u);
            cursor[v] += 1;
        }
        // Sort each row and drop duplicate entries (a pair listed twice).
        let mut targets = Vec::with_capacity(acc);
        let mut deduped = Vec::with_capacity(n + 1);
        deduped.push(0usize);
        for u in 0..n {
            let row = &mut scratch[offsets[u]..offsets[u + 1]];
            row.sort_unstable();
            let mut prev: Option<NodeId> = None;
            for &v in row.iter() {
                if Some(v) != prev {
                    targets.push(v);
                    prev = Some(v);
                }
            }
            deduped.push(targets.len());
        }
        let edge_count = targets.len() / 2;
        Ok(Graph {
            n,
            storage: GraphStorage::Csr {
                offsets: deduped,
                targets,
            },
            edge_count,
        })
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of (undirected) edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Which physical representation backs this graph.
    pub fn backend(&self) -> GraphBackend {
        match &self.storage {
            GraphStorage::Dense { .. } => GraphBackend::Dense,
            GraphStorage::Csr { .. } => GraphBackend::Csr,
        }
    }

    /// Number of `u64` words in each adjacency-row bitset (`⌈n / 64⌉`).
    ///
    /// Defined for both backends — simulator bitsets (transmitter sets,
    /// lane masks) are sized from it regardless of how adjacency is stored.
    pub fn row_words(&self) -> usize {
        match &self.storage {
            GraphStorage::Dense { words_per_row, .. } => *words_per_row,
            GraphStorage::Csr { .. } => self.n.div_ceil(64),
        }
    }

    // CSR row access: the scalar and batch reception loops call these once
    // per listener per round; no allocation permitted.
    // lint: hot-path

    /// The packed adjacency row of `u`: bit `v` (word `v / 64`, bit `v % 64`)
    /// is set iff the edge `(u, v)` is present. Out-of-range nodes have an
    /// empty row.
    ///
    /// Dense backend only — CSR graphs store no bit matrix and report an
    /// empty row. Backend-agnostic consumers use
    /// [`neighbor_row`](Graph::neighbor_row) instead.
    pub fn neighbor_bits(&self, u: NodeId) -> &[u64] {
        match &self.storage {
            GraphStorage::Dense {
                words_per_row,
                bits,
                ..
            } => {
                if u.index() >= self.n {
                    return &[];
                }
                let start = u.index() * words_per_row;
                &bits[start..start + words_per_row]
            }
            GraphStorage::Csr { .. } => &[],
        }
    }

    /// The adjacency row of `u` in the backend's native shape — the packed
    /// bitset for dense graphs, the sorted neighbor slice for CSR graphs.
    /// Out-of-range nodes have an empty sparse row.
    pub fn neighbor_row(&self, u: NodeId) -> NeighborRow<'_> {
        match &self.storage {
            GraphStorage::Dense {
                words_per_row,
                bits,
                ..
            } => {
                if u.index() >= self.n {
                    return NeighborRow::Sparse(&[]);
                }
                let start = u.index() * words_per_row;
                NeighborRow::Dense(&bits[start..start + words_per_row])
            }
            GraphStorage::Csr { offsets, targets } => {
                if u.index() >= self.n {
                    return NeighborRow::Sparse(&[]);
                }
                NeighborRow::Sparse(&targets[offsets[u.index()]..offsets[u.index() + 1]])
            }
        }
    }

    /// Returns `true` if the undirected edge `(u, v)` is present.
    ///
    /// O(1) on the dense backend, O(log deg(u)) on CSR. Out-of-range
    /// endpoints simply report `false`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u.index() >= self.n || v.index() >= self.n || u == v {
            return false;
        }
        match &self.storage {
            GraphStorage::Dense {
                words_per_row,
                bits,
                ..
            } => {
                let idx = u.index() * words_per_row * 64 + v.index();
                bits[idx / 64] >> (idx % 64) & 1 == 1
            }
            GraphStorage::Csr { offsets, targets } => targets
                [offsets[u.index()]..offsets[u.index() + 1]]
                .binary_search(&v)
                .is_ok(),
        }
    }

    /// Returns the neighbors of `u` in ascending order.
    ///
    /// Out-of-range nodes have no neighbors.
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        if u.index() >= self.n {
            return &[];
        }
        match &self.storage {
            GraphStorage::Dense { adjacency, .. } => &adjacency[u.index()],
            GraphStorage::Csr { offsets, targets } => {
                &targets[offsets[u.index()]..offsets[u.index() + 1]]
            }
        }
    }

    /// Degree of `u` (0 for out-of-range nodes).
    pub fn degree(&self, u: NodeId) -> usize {
        self.neighbors(u).len()
    }

    // lint: end-hot-path

    fn check_node(&self, node: NodeId) -> Result<()> {
        if node.index() >= self.n {
            Err(GraphError::NodeOutOfRange { node, n: self.n })
        } else {
            Ok(())
        }
    }

    /// Adds the undirected edge `(u, v)`.
    ///
    /// Adding an edge twice is a no-op and reports `Ok(false)`; a newly added
    /// edge reports `Ok(true)`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if either endpoint is not a
    /// vertex, [`GraphError::SelfLoop`] if `u == v`, and
    /// [`GraphError::ImmutableBackend`] on a CSR graph (CSR rows are packed;
    /// convert with [`to_dense`](Graph::to_dense) to mutate).
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<bool> {
        self.check_node(u)?;
        self.check_node(v)?;
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        if self.has_edge(u, v) {
            return Ok(false);
        }
        match &mut self.storage {
            GraphStorage::Dense {
                words_per_row,
                adjacency,
                bits,
            } => {
                let a = u.index() * *words_per_row * 64 + v.index();
                let b = v.index() * *words_per_row * 64 + u.index();
                bits[a / 64] |= 1u64 << (a % 64);
                bits[b / 64] |= 1u64 << (b % 64);
                // Keep adjacency sorted so iteration order is deterministic.
                for (a, b) in [(u, v), (v, u)] {
                    let row = &mut adjacency[a.index()];
                    row.insert(row.partition_point(|&x| x < b), b);
                }
                self.edge_count += 1;
                Ok(true)
            }
            GraphStorage::Csr { .. } => Err(GraphError::ImmutableBackend { op: "add_edge" }),
        }
    }

    /// Removes the undirected edge `(u, v)` if present, reporting whether an
    /// edge was removed.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if either endpoint is invalid
    /// and [`GraphError::ImmutableBackend`] on a CSR graph.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Result<bool> {
        self.check_node(u)?;
        self.check_node(v)?;
        if u == v || !self.has_edge(u, v) {
            return Ok(false);
        }
        match &mut self.storage {
            GraphStorage::Dense {
                words_per_row,
                adjacency,
                bits,
            } => {
                let a = u.index() * *words_per_row * 64 + v.index();
                let b = v.index() * *words_per_row * 64 + u.index();
                bits[a / 64] &= !(1u64 << (a % 64));
                bits[b / 64] &= !(1u64 << (b % 64));
                adjacency[u.index()].retain(|&w| w != v);
                adjacency[v.index()].retain(|&w| w != u);
                self.edge_count -= 1;
                Ok(true)
            }
            GraphStorage::Csr { .. } => Err(GraphError::ImmutableBackend { op: "remove_edge" }),
        }
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        match &self.storage {
            GraphStorage::Dense { adjacency, .. } => {
                adjacency.iter().map(Vec::len).max().unwrap_or(0)
            }
            GraphStorage::Csr { offsets, .. } => {
                offsets.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0)
            }
        }
    }

    /// Iterates over all vertices.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + Clone {
        NodeId::all(self.n)
    }

    /// Iterates over all edges in canonical order.
    pub fn edges(&self) -> Vec<Edge> {
        let mut out = Vec::with_capacity(self.edge_count);
        for u in 0..self.n {
            for &v in self.neighbors(NodeId::new(u)) {
                if u < v.index() {
                    out.push(Edge::new(NodeId::new(u), v));
                }
            }
        }
        out
    }

    /// Returns this graph re-packed as CSR (a cheap clone if it already is).
    pub fn to_csr(&self) -> Graph {
        if let GraphStorage::Csr { .. } = &self.storage {
            return self.clone();
        }
        let mut offsets = Vec::with_capacity(self.n + 1);
        offsets.push(0usize);
        let mut targets = Vec::with_capacity(2 * self.edge_count);
        for u in 0..self.n {
            targets.extend_from_slice(self.neighbors(NodeId::new(u)));
            offsets.push(targets.len());
        }
        Graph {
            n: self.n,
            storage: GraphStorage::Csr { offsets, targets },
            edge_count: self.edge_count,
        }
    }

    /// Returns this graph re-packed densely (a cheap clone if it already
    /// is). The result is bit-for-bit what incremental dense construction
    /// would have produced — rows are sorted and the bit matrix exact.
    pub fn to_dense(&self) -> Graph {
        if let GraphStorage::Dense { .. } = &self.storage {
            return self.clone();
        }
        let words_per_row = self.n.div_ceil(64);
        let mut adjacency = Vec::with_capacity(self.n);
        let mut bits = vec![0u64; self.n.saturating_mul(words_per_row)];
        for u in 0..self.n {
            let row = self.neighbors(NodeId::new(u));
            adjacency.push(row.to_vec());
            for &v in row {
                bits[u * words_per_row + v.index() / 64] |= 1u64 << (v.index() % 64);
            }
        }
        Graph {
            n: self.n,
            storage: GraphStorage::Dense {
                words_per_row,
                adjacency,
                bits,
            },
            edge_count: self.edge_count,
        }
    }

    /// Returns this graph converted to the requested backend (a cheap clone
    /// when it is already there).
    pub fn with_backend(&self, backend: GraphBackend) -> Graph {
        match backend {
            GraphBackend::Dense => self.to_dense(),
            GraphBackend::Csr => self.to_csr(),
        }
    }

    /// Returns the union of this graph with `other` (same vertex count
    /// required). The result keeps `self`'s backend.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::LayerSizeMismatch`] if the vertex counts differ.
    pub fn union(&self, other: &Graph) -> Result<Graph> {
        if self.n != other.n {
            return Err(GraphError::LayerSizeMismatch {
                g: self.n,
                g_prime: other.n,
            });
        }
        match &self.storage {
            GraphStorage::Dense { .. } => {
                let mut g = self.clone();
                for e in other.edges() {
                    let (u, v) = e.endpoints();
                    g.add_edge(u, v)?;
                }
                Ok(g)
            }
            GraphStorage::Csr { .. } => {
                // Merge the two sorted rows of every vertex.
                let mut offsets = Vec::with_capacity(self.n + 1);
                offsets.push(0usize);
                let mut targets = Vec::with_capacity(2 * (self.edge_count + other.edge_count));
                for u in 0..self.n {
                    let (a, b) = (
                        self.neighbors(NodeId::new(u)),
                        other.neighbors(NodeId::new(u)),
                    );
                    let (mut i, mut j) = (0usize, 0usize);
                    while i < a.len() || j < b.len() {
                        let next = match (a.get(i), b.get(j)) {
                            (Some(&x), Some(&y)) if x == y => {
                                i += 1;
                                j += 1;
                                x
                            }
                            (Some(&x), Some(&y)) if x < y => {
                                i += 1;
                                x
                            }
                            (Some(_), Some(&y)) => {
                                j += 1;
                                y
                            }
                            (Some(&x), None) => {
                                i += 1;
                                x
                            }
                            (None, Some(&y)) => {
                                j += 1;
                                y
                            }
                            (None, None) => break,
                        };
                        targets.push(next);
                    }
                    offsets.push(targets.len());
                }
                let edge_count = targets.len() / 2;
                Ok(Graph {
                    n: self.n,
                    storage: GraphStorage::Csr { offsets, targets },
                    edge_count,
                })
            }
        }
    }

    /// Returns `true` if every edge of `self` is also an edge of `other`.
    pub fn is_subgraph_of(&self, other: &Graph) -> bool {
        if self.n != other.n {
            return false;
        }
        self.edges().iter().all(|e| {
            let (u, v) = e.endpoints();
            other.has_edge(u, v)
        })
    }

    /// Returns the first edge of `self` that is missing from `other`, if any.
    pub fn first_missing_in(&self, other: &Graph) -> Option<(NodeId, NodeId)> {
        self.edges()
            .into_iter()
            .map(Edge::endpoints)
            .find(|&(u, v)| !other.has_edge(u, v))
    }
}

/// Streaming row-by-row construction of a CSR [`Graph`] — the path the
/// large-scale topology generators use to never materialize an n×n matrix.
///
/// Rows must be pushed for every vertex in index order, each sorted
/// ascending; [`CsrBuilder::build`] validates shape, range, self-loops and
/// symmetry once at the end.
///
/// # Example
///
/// ```
/// use dradio_graphs::{CsrBuilder, NodeId};
/// // A path 0 – 1 – 2, one row per vertex.
/// let mut b = CsrBuilder::new(3);
/// b.row([NodeId::new(1)]);
/// b.row([NodeId::new(0), NodeId::new(2)]);
/// b.row([NodeId::new(1)]);
/// let g = b.build().unwrap();
/// assert_eq!(g.edge_count(), 2);
/// assert!(g.has_edge(NodeId::new(1), NodeId::new(2)));
/// ```
#[derive(Debug, Clone)]
pub struct CsrBuilder {
    n: usize,
    offsets: Vec<usize>,
    targets: Vec<NodeId>,
}

impl CsrBuilder {
    /// Starts a builder for a CSR graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        CsrBuilder::with_edge_capacity(n, 0)
    }

    /// Starts a builder pre-allocated for `edges` undirected edges.
    pub fn with_edge_capacity(n: usize, edges: usize) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        CsrBuilder {
            n,
            offsets,
            targets: Vec::with_capacity(2 * edges),
        }
    }

    /// Appends the next vertex's neighbor row (sorted ascending).
    pub fn row<I: IntoIterator<Item = NodeId>>(&mut self, neighbors: I) -> &mut Self {
        self.targets.extend(neighbors);
        self.offsets.push(self.targets.len());
        self
    }

    /// Finishes the graph, validating one row per vertex, sorted unique
    /// in-range neighbors, no self-loops, and symmetry.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameter`] for shape violations (row count,
    /// unsorted or asymmetric rows), [`GraphError::NodeOutOfRange`] /
    /// [`GraphError::SelfLoop`] for bad entries.
    pub fn build(self) -> Result<Graph> {
        let CsrBuilder {
            n,
            offsets,
            targets,
        } = self;
        if offsets.len() != n + 1 {
            return Err(GraphError::InvalidParameter {
                reason: format!(
                    "CSR builder for {n} vertices was given {} rows",
                    offsets.len() - 1
                ),
            });
        }
        for u in 0..n {
            let row = &targets[offsets[u]..offsets[u + 1]];
            let mut prev: Option<NodeId> = None;
            for &v in row {
                if v.index() >= n {
                    return Err(GraphError::NodeOutOfRange { node: v, n });
                }
                if v.index() == u {
                    return Err(GraphError::SelfLoop {
                        node: NodeId::new(u),
                    });
                }
                if prev.is_some_and(|p| p >= v) {
                    return Err(GraphError::InvalidParameter {
                        reason: format!("CSR row {u} is not sorted strictly ascending"),
                    });
                }
                prev = Some(v);
            }
        }
        // Symmetry: every stored arc must have its reverse.
        for u in 0..n {
            for &v in &targets[offsets[u]..offsets[u + 1]] {
                let back = &targets[offsets[v.index()]..offsets[v.index() + 1]];
                if back.binary_search(&NodeId::new(u)).is_err() {
                    return Err(GraphError::InvalidParameter {
                        reason: format!("CSR rows are asymmetric: ({u}, {v}) has no reverse"),
                    });
                }
            }
        }
        let edge_count = targets.len() / 2;
        Ok(Graph {
            n,
            storage: GraphStorage::Csr { offsets, targets },
            edge_count,
        })
    }
}

/// Incremental builder for [`Graph`].
///
/// The builder accepts raw `usize` indices, deduplicates edges, and validates
/// everything once at [`GraphBuilder::build`] time, which keeps topology
/// generator code short.
///
/// # Example
///
/// ```
/// use dradio_graphs::GraphBuilder;
/// let g = GraphBuilder::new(3).edge(0, 1).edge(1, 2).edge(0, 1).build().unwrap();
/// assert_eq!(g.edge_count(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: BTreeSet<(usize, usize)>,
}

impl GraphBuilder {
    /// Starts a builder for a graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: BTreeSet::new(),
        }
    }

    /// Adds an undirected edge by raw index; duplicates are ignored.
    pub fn edge(mut self, u: usize, v: usize) -> Self {
        let (a, b) = if u <= v { (u, v) } else { (v, u) };
        self.edges.insert((a, b));
        self
    }

    /// Adds every edge from an iterator of index pairs.
    pub fn edges<I: IntoIterator<Item = (usize, usize)>>(mut self, iter: I) -> Self {
        for (u, v) in iter {
            self = self.edge(u, v);
        }
        self
    }

    /// Builds the graph, validating all endpoints.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] or [`GraphError::SelfLoop`] if
    /// any recorded edge is invalid.
    pub fn build(self) -> Result<Graph> {
        let mut g = Graph::empty(self.n);
        for (u, v) in self.edges {
            g.add_edge(NodeId::new(u), NodeId::new(v))?;
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_normalizes_order() {
        let e = Edge::new(NodeId::new(5), NodeId::new(2));
        assert_eq!(e.endpoints(), (NodeId::new(2), NodeId::new(5)));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn edge_rejects_self_loop() {
        let _ = Edge::new(NodeId::new(1), NodeId::new(1));
    }

    #[test]
    fn edge_other_endpoint() {
        let e = Edge::new(NodeId::new(1), NodeId::new(2));
        assert_eq!(e.other(NodeId::new(1)), Some(NodeId::new(2)));
        assert_eq!(e.other(NodeId::new(2)), Some(NodeId::new(1)));
        assert_eq!(e.other(NodeId::new(3)), None);
    }

    #[test]
    fn empty_graph_has_no_edges() {
        let g = Graph::empty(5);
        assert_eq!(g.len(), 5);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
        assert!(!g.has_edge(NodeId::new(0), NodeId::new(1)));
        assert_eq!(g.backend(), GraphBackend::Dense);
    }

    #[test]
    fn zero_vertex_graph_is_empty() {
        let g = Graph::empty(0);
        assert!(g.is_empty());
        assert_eq!(g.edges().len(), 0);
    }

    #[test]
    fn add_edge_is_symmetric_and_idempotent() {
        let mut g = Graph::empty(4);
        assert!(g.add_edge(NodeId::new(0), NodeId::new(2)).unwrap());
        assert!(!g.add_edge(NodeId::new(2), NodeId::new(0)).unwrap());
        assert!(g.has_edge(NodeId::new(0), NodeId::new(2)));
        assert!(g.has_edge(NodeId::new(2), NodeId::new(0)));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn add_edge_rejects_out_of_range() {
        let mut g = Graph::empty(3);
        let err = g.add_edge(NodeId::new(0), NodeId::new(7)).unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfRange { .. }));
    }

    #[test]
    fn add_edge_rejects_self_loop() {
        let mut g = Graph::empty(3);
        let err = g.add_edge(NodeId::new(1), NodeId::new(1)).unwrap_err();
        assert_eq!(
            err,
            GraphError::SelfLoop {
                node: NodeId::new(1)
            }
        );
    }

    #[test]
    fn remove_edge_round_trip() {
        let mut g = Graph::empty(3);
        g.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        assert!(g.remove_edge(NodeId::new(1), NodeId::new(0)).unwrap());
        assert!(!g.has_edge(NodeId::new(0), NodeId::new(1)));
        assert_eq!(g.edge_count(), 0);
        assert!(!g.remove_edge(NodeId::new(1), NodeId::new(0)).unwrap());
    }

    #[test]
    fn neighbors_are_sorted() {
        let mut g = Graph::empty(5);
        g.add_edge(NodeId::new(2), NodeId::new(4)).unwrap();
        g.add_edge(NodeId::new(2), NodeId::new(0)).unwrap();
        g.add_edge(NodeId::new(2), NodeId::new(3)).unwrap();
        let nbrs: Vec<usize> = g
            .neighbors(NodeId::new(2))
            .iter()
            .map(|v| v.index())
            .collect();
        assert_eq!(nbrs, vec![0, 3, 4]);
    }

    #[test]
    fn complete_graph_degrees() {
        let g = Graph::complete(6);
        assert_eq!(g.edge_count(), 15);
        for u in g.nodes() {
            assert_eq!(g.degree(u), 5);
        }
        assert_eq!(g.max_degree(), 5);
    }

    #[test]
    fn edges_enumeration_matches_count() {
        let g = Graph::complete(7);
        assert_eq!(g.edges().len(), g.edge_count());
    }

    #[test]
    fn union_combines_edges() {
        let a = GraphBuilder::new(4).edge(0, 1).build().unwrap();
        let b = GraphBuilder::new(4).edge(2, 3).build().unwrap();
        let u = a.union(&b).unwrap();
        assert!(u.has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(u.has_edge(NodeId::new(2), NodeId::new(3)));
        assert_eq!(u.edge_count(), 2);
    }

    #[test]
    fn union_rejects_size_mismatch() {
        let a = Graph::empty(3);
        let b = Graph::empty(4);
        assert!(matches!(
            a.union(&b),
            Err(GraphError::LayerSizeMismatch { .. })
        ));
    }

    #[test]
    fn subgraph_detection() {
        let small = GraphBuilder::new(4).edge(0, 1).build().unwrap();
        let big = GraphBuilder::new(4).edge(0, 1).edge(1, 2).build().unwrap();
        assert!(small.is_subgraph_of(&big));
        assert!(!big.is_subgraph_of(&small));
        assert_eq!(
            big.first_missing_in(&small),
            Some((NodeId::new(1), NodeId::new(2)))
        );
        assert_eq!(small.first_missing_in(&big), None);
    }

    #[test]
    fn builder_deduplicates_and_validates() {
        let g = GraphBuilder::new(3)
            .edges([(0, 1), (1, 0), (1, 2)])
            .build()
            .unwrap();
        assert_eq!(g.edge_count(), 2);
        assert!(GraphBuilder::new(2).edge(0, 5).build().is_err());
    }

    #[test]
    fn neighbor_bits_mirror_the_adjacency_lists() {
        // 70 nodes forces two words per row.
        let mut g = Graph::empty(70);
        assert_eq!(g.row_words(), 2);
        g.add_edge(NodeId::new(3), NodeId::new(65)).unwrap();
        g.add_edge(NodeId::new(3), NodeId::new(0)).unwrap();
        let row = g.neighbor_bits(NodeId::new(3));
        assert_eq!(row.len(), 2);
        assert_eq!(row[0], 1u64); // bit 0
        assert_eq!(row[1], 1u64 << 1); // bit 65 = word 1, bit 1
                                       // Every row agrees with the adjacency list, for every node.
        for u in g.nodes() {
            let row = g.neighbor_bits(u);
            for v in g.nodes() {
                let from_bits = row[v.index() / 64] >> (v.index() % 64) & 1 == 1;
                assert_eq!(from_bits, g.neighbors(u).contains(&v), "({u}, {v})");
            }
        }
        // Out-of-range rows are empty.
        assert!(g.neighbor_bits(NodeId::new(99)).is_empty());
    }

    #[test]
    fn neighbor_bits_clear_on_removal() {
        let mut g = Graph::complete(5);
        g.remove_edge(NodeId::new(1), NodeId::new(2)).unwrap();
        let row = g.neighbor_bits(NodeId::new(1));
        assert_eq!(row[0] >> 2 & 1, 0);
        assert_eq!(g.neighbor_bits(NodeId::new(2))[0] >> 1 & 1, 0);
    }

    #[test]
    fn has_edge_is_false_for_out_of_range() {
        let g = Graph::complete(3);
        assert!(!g.has_edge(NodeId::new(0), NodeId::new(10)));
        assert!(!g.has_edge(NodeId::new(10), NodeId::new(0)));
        assert!(!g.has_edge(NodeId::new(1), NodeId::new(1)));
    }

    // ---- CSR backend ----

    #[test]
    fn csr_round_trips_and_equals_its_dense_source() {
        let mut dense = Graph::empty(70);
        dense.add_edge(NodeId::new(3), NodeId::new(65)).unwrap();
        dense.add_edge(NodeId::new(3), NodeId::new(0)).unwrap();
        dense.add_edge(NodeId::new(64), NodeId::new(65)).unwrap();
        let csr = dense.to_csr();
        assert_eq!(csr.backend(), GraphBackend::Csr);
        assert_eq!(csr, dense, "cross-backend structural equality");
        assert_eq!(csr.edge_count(), dense.edge_count());
        assert_eq!(csr.row_words(), dense.row_words());
        assert_eq!(csr.max_degree(), dense.max_degree());
        assert_eq!(csr.edges(), dense.edges());
        for u in dense.nodes() {
            assert_eq!(csr.neighbors(u), dense.neighbors(u));
            assert_eq!(csr.degree(u), dense.degree(u));
            for v in dense.nodes() {
                assert_eq!(csr.has_edge(u, v), dense.has_edge(u, v), "({u}, {v})");
            }
        }
        // And back: dense reconstruction is bit-for-bit the original.
        let back = csr.to_dense();
        assert_eq!(back.backend(), GraphBackend::Dense);
        assert_eq!(back, dense);
        for u in dense.nodes() {
            assert_eq!(back.neighbor_bits(u), dense.neighbor_bits(u));
        }
        // with_backend is the same conversions under one name.
        assert_eq!(dense.with_backend(GraphBackend::Csr), csr);
        assert_eq!(csr.with_backend(GraphBackend::Dense), dense);
        assert_eq!(
            csr.with_backend(GraphBackend::Csr).backend(),
            GraphBackend::Csr
        );
    }

    #[test]
    fn neighbor_row_exposes_the_native_shape() {
        let mut dense = Graph::empty(5);
        dense.add_edge(NodeId::new(1), NodeId::new(3)).unwrap();
        match dense.neighbor_row(NodeId::new(1)) {
            NeighborRow::Dense(words) => assert_eq!(words, &[0b1000]),
            NeighborRow::Sparse(_) => panic!("dense graphs expose bit rows"),
        }
        let csr = dense.to_csr();
        match csr.neighbor_row(NodeId::new(1)) {
            NeighborRow::Sparse(row) => assert_eq!(row, &[NodeId::new(3)]),
            NeighborRow::Dense(_) => panic!("CSR graphs expose sorted rows"),
        }
        // Out-of-range rows are empty on both backends.
        match csr.neighbor_row(NodeId::new(42)) {
            NeighborRow::Sparse(row) => assert!(row.is_empty()),
            NeighborRow::Dense(_) => panic!("out-of-range rows are sparse-empty"),
        }
        // CSR graphs report empty legacy bit rows rather than lying.
        assert!(csr.neighbor_bits(NodeId::new(1)).is_empty());
    }

    #[test]
    fn csr_graphs_reject_mutation() {
        let mut csr = GraphBuilder::new(4).edge(0, 1).build().unwrap().to_csr();
        // Adding an edge that is *not* already present fails ...
        let err = csr.add_edge(NodeId::new(1), NodeId::new(2)).unwrap_err();
        assert!(matches!(
            err,
            GraphError::ImmutableBackend { op: "add_edge" }
        ));
        // ... but re-adding a present edge is still the no-op Ok(false), so
        // idempotent callers (dual construction) keep working unchanged.
        assert!(!csr.add_edge(NodeId::new(0), NodeId::new(1)).unwrap());
        let err = csr.remove_edge(NodeId::new(0), NodeId::new(1)).unwrap_err();
        assert!(matches!(
            err,
            GraphError::ImmutableBackend { op: "remove_edge" }
        ));
        // Removing an absent edge stays the no-op Ok(false).
        assert!(!csr.remove_edge(NodeId::new(1), NodeId::new(3)).unwrap());
    }

    #[test]
    fn csr_builder_streams_rows() {
        // A 2×2 grid: 0-1, 0-2, 1-3, 2-3.
        let mut b = CsrBuilder::with_edge_capacity(4, 4);
        b.row([NodeId::new(1), NodeId::new(2)]);
        b.row([NodeId::new(0), NodeId::new(3)]);
        b.row([NodeId::new(0), NodeId::new(3)]);
        b.row([NodeId::new(1), NodeId::new(2)]);
        let g = b.build().unwrap();
        assert_eq!(g.backend(), GraphBackend::Csr);
        assert_eq!(g.edge_count(), 4);
        let dense = GraphBuilder::new(4)
            .edges([(0, 1), (0, 2), (1, 3), (2, 3)])
            .build()
            .unwrap();
        assert_eq!(g, dense);
    }

    #[test]
    fn csr_builder_validates_shape_and_symmetry() {
        // Wrong row count.
        let mut b = CsrBuilder::new(3);
        b.row([NodeId::new(1)]);
        assert!(matches!(
            b.build(),
            Err(GraphError::InvalidParameter { .. })
        ));
        // Unsorted row.
        let mut b = CsrBuilder::new(3);
        b.row([NodeId::new(2), NodeId::new(1)]);
        b.row([NodeId::new(0)]);
        b.row([NodeId::new(0)]);
        assert!(matches!(
            b.build(),
            Err(GraphError::InvalidParameter { .. })
        ));
        // Self-loop.
        let mut b = CsrBuilder::new(2);
        b.row([NodeId::new(0)]);
        b.row([NodeId::new(0)]);
        assert!(matches!(b.build(), Err(GraphError::SelfLoop { .. })));
        // Out of range.
        let mut b = CsrBuilder::new(2);
        b.row([NodeId::new(5)]);
        b.row([]);
        assert!(matches!(b.build(), Err(GraphError::NodeOutOfRange { .. })));
        // Asymmetric.
        let mut b = CsrBuilder::new(2);
        b.row([NodeId::new(1)]);
        b.row([]);
        assert!(matches!(
            b.build(),
            Err(GraphError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn csr_from_edges_sorts_and_deduplicates() {
        let g = Graph::csr_from_edges(5, &[(4, 2), (0, 2), (2, 3), (2, 0)]).unwrap();
        assert_eq!(g.edge_count(), 3);
        let nbrs: Vec<usize> = g
            .neighbors(NodeId::new(2))
            .iter()
            .map(|v| v.index())
            .collect();
        assert_eq!(nbrs, vec![0, 3, 4]);
        assert!(Graph::csr_from_edges(3, &[(0, 3)]).is_err());
        assert!(Graph::csr_from_edges(3, &[(1, 1)]).is_err());
    }

    #[test]
    fn csr_union_merges_sorted_rows() {
        let a = GraphBuilder::new(4).edge(0, 1).edge(1, 2).build().unwrap();
        let b = GraphBuilder::new(4).edge(2, 3).edge(1, 2).build().unwrap();
        let dense_union = a.union(&b).unwrap();
        let csr_union = a.to_csr().union(&b.to_csr()).unwrap();
        assert_eq!(csr_union.backend(), GraphBackend::Csr);
        assert_eq!(csr_union, dense_union);
        // Mixed operands work too.
        assert_eq!(a.to_csr().union(&b).unwrap(), dense_union);
    }

    #[test]
    fn auto_backend_keeps_small_and_dense_graphs_dense() {
        // Everything at or below the floor stays dense, no matter how sparse.
        assert_eq!(auto_backend(8, 1), GraphBackend::Dense);
        assert_eq!(auto_backend(DENSE_AUTO_MAX_NODES, 10), GraphBackend::Dense);
        // Above the floor, sparse graphs go CSR ...
        assert_eq!(auto_backend(1_000_000, 2_000_000), GraphBackend::Csr);
        assert_eq!(auto_backend(100_000, 400_000), GraphBackend::Csr);
        // ... while near-complete ones stay dense.
        let n = 4096u64;
        assert_eq!(auto_backend(4096, n * (n - 1) / 2), GraphBackend::Dense);
    }

    #[test]
    fn byte_estimates_rank_the_backends_correctly() {
        // Million-node grid: the dense matrix alone is ~116 GiB; CSR fits
        // in well under a gigabyte.
        let n = 1_000_000;
        let m = 2_000_000u64;
        assert!(dense_bytes_estimate(n, m) > 110u64 * (1 << 30));
        assert!(csr_bytes_estimate(n, m) < 1u64 << 30);
        // Tiny clique: both estimates are tiny and of the same order.
        assert!(dense_bytes_estimate(64, 2016) < 64 * 1024);
    }
}
