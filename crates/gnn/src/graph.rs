//! CSR node graphs for neighborhood aggregation.
//!
//! [`NodeGraph`] stores the neighborhood structure a GNN aggregates over.
//! Circuit timing graphs are directed, but GraphSAGE's neighborhoods are
//! conventionally undirected; [`NeighborMode`] makes the choice explicit and
//! ablatable.

/// Which neighbors a node aggregates from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NeighborMode {
    /// Union of fan-in and fan-out (the usual GraphSAGE setting).
    #[default]
    Undirected,
    /// Fan-in only (mirrors forward timing propagation).
    In,
    /// Fan-out only (mirrors required-time propagation).
    Out,
}

/// An immutable CSR adjacency used for mean aggregation.
///
/// Besides the forward CSR, construction precomputes the *transpose* CSR
/// (`t_offsets`/`t_sources`: for each node, the list of nodes that aggregate
/// from it, in the exact order the sequential adjoint scatter would visit
/// them) plus the `1/|N(i)|` and `1/√(|N(i)|+1)` scalings. This lets the
/// kernel layer run the aggregation adjoint as a race-free row-parallel
/// gather that is bit-identical to the scatter reference.
#[derive(Debug, Clone)]
pub struct NodeGraph {
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
    /// Transpose CSR offsets (who aggregates *from* node `j`).
    t_offsets: Vec<u32>,
    /// Transpose CSR sources, per destination in ascending `(source,
    /// position)` order — the adjoint scatter's addition order.
    t_sources: Vec<u32>,
    /// `1/|N(i)|` (0 for isolated nodes).
    inv_deg: Vec<f32>,
    /// `1/√(|N(i)|+1)` — the GCN symmetric normalisation.
    inv_sqrt_deg: Vec<f32>,
    nodes: usize,
}

impl NodeGraph {
    /// Builds the graph from directed edges `(from, to)` over `nodes`
    /// vertices, collecting neighbors per `mode`. Duplicate edges are kept
    /// (weighting parallel arcs slightly higher, which is harmless for mean
    /// aggregation).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= nodes`.
    #[must_use]
    pub fn from_edges(nodes: usize, edges: &[(u32, u32)], mode: NeighborMode) -> Self {
        let mut deg = vec![0u32; nodes];
        let mut push_count = |n: u32| {
            assert!((n as usize) < nodes, "edge endpoint out of range");
            deg[n as usize] += 1;
        };
        for &(f, t) in edges {
            match mode {
                NeighborMode::Undirected => {
                    push_count(f);
                    push_count(t);
                }
                NeighborMode::In => push_count(t),
                NeighborMode::Out => push_count(f),
            }
        }
        let mut offsets = vec![0u32; nodes + 1];
        for i in 0..nodes {
            offsets[i + 1] = offsets[i] + deg[i];
        }
        let mut cursor = offsets.clone();
        let mut neighbors = vec![0u32; offsets[nodes] as usize];
        let mut put = |at: u32, v: u32, cursor: &mut Vec<u32>| {
            neighbors[cursor[at as usize] as usize] = v;
            cursor[at as usize] += 1;
        };
        for &(f, t) in edges {
            match mode {
                NeighborMode::Undirected => {
                    put(f, t, &mut cursor);
                    put(t, f, &mut cursor);
                }
                NeighborMode::In => put(t, f, &mut cursor),
                NeighborMode::Out => put(f, t, &mut cursor),
            }
        }
        // Transpose CSR via a stable counting sort: visiting sources in
        // ascending order (and their adjacency positions in ascending order)
        // makes each destination's source list reproduce the sequential
        // adjoint scatter's exact addition order.
        let mut t_deg = vec![0u32; nodes];
        for &j in &neighbors {
            t_deg[j as usize] += 1;
        }
        let mut t_offsets = vec![0u32; nodes + 1];
        for i in 0..nodes {
            t_offsets[i + 1] = t_offsets[i] + t_deg[i];
        }
        let mut t_cursor = t_offsets.clone();
        let mut t_sources = vec![0u32; neighbors.len()];
        for i in 0..nodes {
            for &j in &neighbors[offsets[i] as usize..offsets[i + 1] as usize] {
                t_sources[t_cursor[j as usize] as usize] = i as u32;
                t_cursor[j as usize] += 1;
            }
        }
        let inv_deg = (0..nodes)
            .map(|i| {
                let len = (offsets[i + 1] - offsets[i]) as usize;
                if len == 0 {
                    0.0
                } else {
                    1.0 / len as f32
                }
            })
            .collect();
        let inv_sqrt_deg = (0..nodes)
            .map(|i| {
                let len = (offsets[i + 1] - offsets[i]) as usize;
                1.0 / ((len + 1) as f32).sqrt()
            })
            .collect();
        NodeGraph { offsets, neighbors, t_offsets, t_sources, inv_deg, inv_sqrt_deg, nodes }
    }

    /// Number of nodes.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Total stored neighbor entries.
    #[must_use]
    pub fn neighbor_entries(&self) -> usize {
        self.neighbors.len()
    }

    /// Neighbors of node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    #[inline]
    #[must_use]
    pub fn neighbors(&self, n: usize) -> &[u32] {
        &self.neighbors[self.offsets[n] as usize..self.offsets[n + 1] as usize]
    }

    /// Sources that aggregate *from* node `j` (transpose CSR row), in the
    /// adjoint scatter's addition order.
    #[inline]
    pub(crate) fn t_sources(&self, j: usize) -> &[u32] {
        &self.t_sources[self.t_offsets[j] as usize..self.t_offsets[j + 1] as usize]
    }

    /// Precomputed `1/|N(i)|` per node (0 for isolated nodes).
    #[inline]
    pub(crate) fn inv_deg(&self) -> &[f32] {
        &self.inv_deg
    }

    /// Precomputed `1/√(|N(i)|+1)` per node.
    #[inline]
    pub(crate) fn inv_sqrt_deg(&self) -> &[f32] {
        &self.inv_sqrt_deg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{self, KernelPolicy};

    fn path3(mode: NeighborMode) -> NodeGraph {
        // 0 -> 1 -> 2
        NodeGraph::from_edges(3, &[(0, 1), (1, 2)], mode)
    }

    #[test]
    fn undirected_neighbors() {
        let g = path3(NeighborMode::Undirected);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[1]);
        assert_eq!(g.neighbor_entries(), 4);
    }

    #[test]
    fn directed_modes() {
        let g_in = path3(NeighborMode::In);
        assert_eq!(g_in.neighbors(0), &[] as &[u32]);
        assert_eq!(g_in.neighbors(1), &[0]);
        let g_out = path3(NeighborMode::Out);
        assert_eq!(g_out.neighbors(2), &[] as &[u32]);
        assert_eq!(g_out.neighbors(1), &[2]);
    }

    fn mean(g: &NodeGraph, x: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; x.len()];
        kernels::mean_aggregate_into(g, x, 1, &mut out, KernelPolicy::default());
        out
    }

    fn dot(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(p, q)| p * q).sum()
    }

    #[test]
    fn mean_aggregate_averages() {
        let g = path3(NeighborMode::Undirected);
        let agg = mean(&g, &[1.0, 10.0, 100.0]);
        assert_eq!(agg[0], 10.0);
        assert!((agg[1] - 50.5).abs() < 1e-6);
        assert_eq!(agg[2], 10.0);
    }

    #[test]
    fn isolated_node_aggregates_zero() {
        let g = NodeGraph::from_edges(3, &[(0, 1)], NeighborMode::Undirected);
        assert_eq!(mean(&g, &[5.0, 5.0, 5.0])[2], 0.0);
    }

    #[test]
    fn adjoint_is_true_transpose() {
        // <A x, y> == <x, Aᵀ y> for random-ish vectors.
        let g = NodeGraph::from_edges(
            4,
            &[(0, 1), (1, 2), (2, 3), (0, 3)],
            NeighborMode::Undirected,
        );
        let x = [1.0, -2.0, 3.0, 0.5];
        let y = [0.3, 1.7, -0.4, 2.0];
        let mut aty = [0.0f32; 4];
        kernels::mean_aggregate_adjoint_into(&g, &y, 1, &mut aty, KernelPolicy::default());
        assert!((dot(&mean(&g, &x), &y) - dot(&x, &aty)).abs() < 1e-5);
    }

    #[test]
    fn gcn_propagate_is_symmetric_operator() {
        let g = NodeGraph::from_edges(3, &[(0, 1), (1, 2)], NeighborMode::Undirected);
        let propagate = |x: &[f32]| {
            let mut out = vec![0.0f32; x.len()];
            kernels::gcn_propagate_into(&g, x, 1, &mut out, KernelPolicy::default());
            out
        };
        let x = [1.0, 0.0, 0.0];
        let y = [0.0, 0.0, 1.0];
        let (nx, ny) = (propagate(&x), propagate(&y));
        assert!((dot(&nx, &y) - dot(&x, &ny)).abs() < 1e-6, "N must be symmetric");
        // propagation of a constant stays positive, finite, and bounded by
        // the maximum degree-normalised mass (√(d+1) worst case)
        let n1 = propagate(&[1.0; 3]);
        assert!(n1.iter().all(|&v| v > 0.0 && v.is_finite() && v < 2.0));
    }

    #[test]
    #[should_panic(expected = "edge endpoint out of range")]
    fn rejects_out_of_range_edges() {
        let _ = NodeGraph::from_edges(2, &[(0, 5)], NeighborMode::Undirected);
    }
}
