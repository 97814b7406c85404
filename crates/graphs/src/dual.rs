//! The dual graph `(G, G')` network model.

use std::fmt;
use std::sync::OnceLock;

use crate::error::GraphError;
use crate::geometry::Embedding;
use crate::graph::{Edge, Graph, GraphBackend};
use crate::grey::GreyTable;
use crate::node::NodeId;
use crate::Result;

/// A dual graph network `(G, G')` with `E ⊆ E'` over a common vertex set.
///
/// * Edges of `G` are **reliable**: they are present in the communication
///   topology of every round.
/// * Edges of `G' \ G` are **dynamic**: an adversarial link process decides,
///   round by round, which of them are present.
///
/// When `G = G'` the model degenerates to the classic static protocol model,
/// which is how the static baselines of Figure 1 (row 4) are simulated.
///
/// An optional Euclidean [`Embedding`] records node positions for networks
/// that satisfy the paper's *geographic constraint* (Section 2): nodes at
/// distance `≤ 1` are connected in `G` and nodes at distance `> r` are not
/// connected in `G'`.
///
/// # Example
///
/// ```
/// use dradio_graphs::{DualGraph, GraphBuilder};
/// let g = GraphBuilder::new(3).edge(0, 1).edge(1, 2).build()?;
/// let g_prime = GraphBuilder::new(3).edge(0, 1).edge(1, 2).edge(0, 2).build()?;
/// let dual = DualGraph::new(g, g_prime)?;
/// assert_eq!(dual.len(), 3);
/// assert_eq!(dual.dynamic_edges().len(), 1); // only (0, 2) is dynamic
/// # Ok::<(), dradio_graphs::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DualGraph {
    g: Graph,
    g_prime: Graph,
    embedding: Option<Embedding>,
    name: String,
    grey: GreyCache,
}

/// The lazily built [`GreyTable`] of a dual graph. Derived data: it takes no
/// part in equality, and a clone starts empty and rebuilds on first use.
#[derive(Default)]
struct GreyCache(OnceLock<GreyTable>);

impl Clone for GreyCache {
    fn clone(&self) -> Self {
        GreyCache::default()
    }
}

impl PartialEq for GreyCache {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl fmt::Debug for GreyCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = if self.0.get().is_some() {
            "built"
        } else {
            "unbuilt"
        };
        write!(f, "GreyCache({state})")
    }
}

impl DualGraph {
    /// Creates a dual graph from a reliable layer `g` and an unreliable layer
    /// `g_prime`.
    ///
    /// # Errors
    ///
    /// * [`GraphError::LayerSizeMismatch`] if the layers have different vertex
    ///   counts.
    /// * [`GraphError::NotContained`] if some edge of `g` is missing from
    ///   `g_prime`.
    pub fn new(g: Graph, g_prime: Graph) -> Result<Self> {
        if g.len() != g_prime.len() {
            return Err(GraphError::LayerSizeMismatch {
                g: g.len(),
                g_prime: g_prime.len(),
            });
        }
        if let Some(missing) = g.first_missing_in(&g_prime) {
            return Err(GraphError::NotContained { missing });
        }
        Ok(DualGraph {
            g,
            g_prime,
            embedding: None,
            name: String::from("dual"),
            grey: GreyCache::default(),
        })
    }

    /// Creates a *static* dual graph with `G = G'`, i.e. the classic protocol
    /// model over `g`.
    pub fn static_model(g: Graph) -> Self {
        DualGraph {
            g_prime: g.clone(),
            g,
            embedding: None,
            name: String::from("static"),
            grey: GreyCache::default(),
        }
    }

    /// Attaches a Euclidean embedding (used by geographic topologies).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::LayerSizeMismatch`] if the embedding has a
    /// different number of points than the graph has vertices.
    pub fn with_embedding(mut self, embedding: Embedding) -> Result<Self> {
        if embedding.len() != self.len() {
            return Err(GraphError::LayerSizeMismatch {
                g: self.len(),
                g_prime: embedding.len(),
            });
        }
        self.embedding = Some(embedding);
        Ok(self)
    }

    /// Sets a human-readable name used in experiment tables.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Human-readable topology name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The reliable layer `G`.
    pub fn g(&self) -> &Graph {
        &self.g
    }

    /// The unreliable layer `G'`.
    pub fn g_prime(&self) -> &Graph {
        &self.g_prime
    }

    /// The Euclidean embedding, if the topology has one.
    pub fn embedding(&self) -> Option<&Embedding> {
        self.embedding.as_ref()
    }

    /// Number of vertices `n`.
    pub fn len(&self) -> usize {
        self.g.len()
    }

    /// Returns `true` if the network has no vertices.
    pub fn is_empty(&self) -> bool {
        self.g.is_empty()
    }

    /// Maximum degree `Δ` measured in `G'`, as defined in Section 2 of the
    /// paper (processes are assumed to know this value).
    pub fn max_degree(&self) -> usize {
        self.g_prime.max_degree()
    }

    /// Returns `true` if `G = G'`, i.e. there are no dynamic links.
    pub fn is_static(&self) -> bool {
        self.g.edge_count() == self.g_prime.edge_count()
    }

    /// The storage backend of the reliable layer (generators keep both
    /// layers on the same backend).
    pub fn graph_backend(&self) -> GraphBackend {
        self.g.backend()
    }

    /// Returns this network with both layers converted to `backend` (cheap
    /// clones where a layer already matches); name and embedding carry over.
    /// Simulation outcomes are backend-independent — only memory footprint
    /// and row-scan strategy change.
    pub fn with_graph_backend(&self, backend: GraphBackend) -> DualGraph {
        DualGraph {
            g: self.g.with_backend(backend),
            g_prime: self.g_prime.with_backend(backend),
            embedding: self.embedding.clone(),
            name: self.name.clone(),
            grey: GreyCache::default(),
        }
    }

    /// Returns the dynamic edges `E' \ E` in canonical order (a copy of
    /// [`GreyTable::edges`]).
    pub fn dynamic_edges(&self) -> Vec<Edge> {
        self.grey_table().edges().to_vec()
    }

    /// The grey-edge table of this network: ids for the dynamic edges in
    /// canonical order plus per-node grey adjacency.
    ///
    /// Built on the first call (`O(n + |E'|)`) and cached with the network,
    /// so every executor sharing one `Arc<DualGraph>` shares one table;
    /// constructing a dual graph never pays for it.
    pub fn grey_table(&self) -> &GreyTable {
        self.grey
            .0
            .get_or_init(|| GreyTable::build(&self.g, &self.g_prime))
    }

    /// Returns `true` if the containment invariant `E ⊆ E'` holds.
    ///
    /// Constructors already enforce the invariant; this is exposed so tests
    /// and property checks can assert it cheaply after transformations.
    pub fn is_valid(&self) -> bool {
        self.g.len() == self.g_prime.len() && self.g.is_subgraph_of(&self.g_prime)
    }

    /// Neighbors of `u` in the reliable layer `G`.
    pub fn g_neighbors(&self, u: NodeId) -> &[NodeId] {
        self.g.neighbors(u)
    }

    /// Neighbors of `u` in the unreliable layer `G'` (written `N_{G'}(u)` in
    /// the paper).
    pub fn g_prime_neighbors(&self, u: NodeId) -> &[NodeId] {
        self.g_prime.neighbors(u)
    }

    /// Checks the geographic constraint of Section 2 against the attached
    /// embedding: for all `u ≠ v`, `d(u,v) ≤ 1 ⇒ (u,v) ∈ G` and
    /// `d(u,v) > r ⇒ (u,v) ∉ G'`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::MissingEmbedding`] if the dual graph has no
    /// embedding attached.
    pub fn satisfies_geographic_constraint(&self, r: f64) -> Result<bool> {
        let emb = self
            .embedding
            .as_ref()
            .ok_or(GraphError::MissingEmbedding)?;
        for u in self.g.nodes() {
            for v in self.g.nodes() {
                if u >= v {
                    continue;
                }
                let d = emb.distance(u, v);
                if d <= 1.0 && !self.g.has_edge(u, v) {
                    return Ok(false);
                }
                if d > r && self.g_prime.has_edge(u, v) {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }
}

impl fmt::Display for DualGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (n = {}, |E| = {}, |E'| = {}, Δ = {})",
            self.name,
            self.len(),
            self.g.edge_count(),
            self.g_prime.edge_count(),
            self.max_degree()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn triangle_line() -> (Graph, Graph) {
        let g = GraphBuilder::new(3).edge(0, 1).edge(1, 2).build().unwrap();
        let gp = GraphBuilder::new(3)
            .edge(0, 1)
            .edge(1, 2)
            .edge(0, 2)
            .build()
            .unwrap();
        (g, gp)
    }

    #[test]
    fn construction_enforces_containment() {
        let (g, gp) = triangle_line();
        assert!(DualGraph::new(g.clone(), gp).is_ok());
        // Reversed layers violate E ⊆ E'.
        let gp_small = GraphBuilder::new(3).edge(0, 1).build().unwrap();
        let err = DualGraph::new(g, gp_small).unwrap_err();
        assert!(matches!(err, GraphError::NotContained { .. }));
    }

    #[test]
    fn construction_enforces_size_match() {
        let g = Graph::empty(3);
        let gp = Graph::empty(4);
        assert!(matches!(
            DualGraph::new(g, gp),
            Err(GraphError::LayerSizeMismatch { g: 3, g_prime: 4 })
        ));
    }

    #[test]
    fn static_model_has_no_dynamic_edges() {
        let g = Graph::complete(5);
        let dual = DualGraph::static_model(g);
        assert!(dual.is_static());
        assert!(dual.dynamic_edges().is_empty());
        assert!(dual.is_valid());
    }

    #[test]
    fn dynamic_edges_are_exactly_the_difference() {
        let (g, gp) = triangle_line();
        let dual = DualGraph::new(g, gp).unwrap();
        let dyn_edges = dual.dynamic_edges();
        assert_eq!(dyn_edges.len(), 1);
        assert_eq!(dyn_edges[0].endpoints(), (NodeId::new(0), NodeId::new(2)));
        assert!(!dual.is_static());
    }

    #[test]
    fn max_degree_is_measured_in_g_prime() {
        let (g, gp) = triangle_line();
        let dual = DualGraph::new(g, gp).unwrap();
        assert_eq!(dual.max_degree(), 2);
        assert_eq!(dual.g().max_degree(), 2);
    }

    #[test]
    fn neighbors_accessors_distinguish_layers() {
        let (g, gp) = triangle_line();
        let dual = DualGraph::new(g, gp).unwrap();
        assert_eq!(dual.g_neighbors(NodeId::new(0)), &[NodeId::new(1)]);
        assert_eq!(
            dual.g_prime_neighbors(NodeId::new(0)),
            &[NodeId::new(1), NodeId::new(2)]
        );
    }

    #[test]
    fn geographic_check_requires_embedding() {
        let (g, gp) = triangle_line();
        let dual = DualGraph::new(g, gp).unwrap();
        assert_eq!(
            dual.satisfies_geographic_constraint(2.0),
            Err(GraphError::MissingEmbedding)
        );
    }

    #[test]
    fn name_and_display() {
        let (g, gp) = triangle_line();
        let dual = DualGraph::new(g, gp).unwrap().with_name("toy");
        assert_eq!(dual.name(), "toy");
        let shown = dual.to_string();
        assert!(shown.contains("toy"));
        assert!(shown.contains("n = 3"));
    }

    #[test]
    fn embedding_size_is_validated() {
        use crate::geometry::{Embedding, Point};
        let (g, gp) = triangle_line();
        let dual = DualGraph::new(g, gp).unwrap();
        let short = Embedding::new(vec![Point::new(0.0, 0.0)]);
        assert!(dual.with_embedding(short).is_err());
    }
}
