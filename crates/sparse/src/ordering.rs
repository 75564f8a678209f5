//! Fill-reducing column orderings.

use crate::Csc;
use awesym_linalg::Scalar;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Column-ordering strategy for [`crate::SparseLu`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Ordering {
    /// Use the columns in their natural order.
    Natural,
    /// Greedy minimum-degree on the symmetrized pattern `A + Aᵀ`.
    #[default]
    MinDegree,
}

/// Computes a greedy minimum-degree permutation on the symmetrized pattern
/// of `a`. Returns `perm` where `perm[k]` is the original index eliminated
/// at step `k`.
///
/// This is the classical elimination-graph algorithm (neighbors of the
/// eliminated vertex become a clique) with exact degrees. Each step
/// eliminates the live vertex of smallest `(degree, index)`, taken from a
/// heap that re-keys only the vertices whose degree the step changed, so
/// the picks cost `O((n + fill) log n)` in total. The clique updates
/// remain, and they dominate when elimination fills in (a 2-D mesh).
pub fn min_degree_order<T: Scalar>(a: &Csc<T>) -> Vec<usize> {
    let mut graph = EliminationGraph::new(a);
    let n = graph.deg.len();
    // Every live vertex has a key equal to its current degree; a popped
    // key that no longer matches (or names an eliminated vertex) is stale.
    let mut heap: BinaryHeap<Reverse<(usize, usize)>> =
        (0..n).map(|v| Reverse((graph.deg[v], v))).collect();
    let mut perm = Vec::with_capacity(n);
    while let Some(Reverse((d, v))) = heap.pop() {
        if graph.eliminated[v] || graph.deg[v] != d {
            continue;
        }
        perm.push(v);
        graph.eliminate(v);
        for &u in &graph.nbrs {
            heap.push(Reverse((graph.deg[u], u)));
        }
    }
    perm
}

/// The quadratic-scan form of [`min_degree_order`]: every step scans all
/// vertices for the live one of smallest `(degree, index)`. It makes the
/// same picks; it is kept as the reference that the equivalence tests
/// compare [`min_degree_order`] against.
#[doc(hidden)]
pub fn min_degree_order_scan<T: Scalar>(a: &Csc<T>) -> Vec<usize> {
    let mut graph = EliminationGraph::new(a);
    let n = graph.deg.len();
    let mut perm = Vec::with_capacity(n);
    for _ in 0..n {
        let mut best = usize::MAX;
        let mut best_deg = usize::MAX;
        for v in 0..n {
            if !graph.eliminated[v] && graph.deg[v] < best_deg {
                best_deg = graph.deg[v];
                best = v;
            }
        }
        perm.push(best);
        graph.eliminate(best);
    }
    perm
}

/// The elimination graph of the symmetrized pattern, with degrees
/// maintained incrementally.
struct EliminationGraph {
    /// Sorted adjacency lists (no self loops), eliminated vertices included.
    adj: Vec<Vec<usize>>,
    /// Current number of live neighbors of each live vertex.
    deg: Vec<usize>,
    eliminated: Vec<bool>,
    /// Live neighbors of the vertex eliminated last.
    nbrs: Vec<usize>,
}

impl EliminationGraph {
    fn new<T: Scalar>(a: &Csc<T>) -> Self {
        let n = a.dim();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for j in 0..n {
            for (r, _) in a.col_iter(j) {
                if r != j {
                    adj[r].push(j);
                    adj[j].push(r);
                }
            }
        }
        for l in adj.iter_mut() {
            l.sort_unstable();
            l.dedup();
        }
        EliminationGraph {
            deg: adj.iter().map(Vec::len).collect(),
            adj,
            eliminated: vec![false; n],
            nbrs: Vec::new(),
        }
    }

    /// Eliminates `v`: its live neighbors, left in `nbrs`, become a
    /// clique. They are the only vertices whose degree changes.
    fn eliminate(&mut self, v: usize) {
        self.eliminated[v] = true;
        let nbrs = &mut self.nbrs;
        nbrs.clear();
        nbrs.extend(self.adj[v].iter().copied().filter(|&u| !self.eliminated[u]));
        // Each neighbor loses the edge to v and gains edges to clique
        // members it was not already adjacent to.
        for &u in nbrs.iter() {
            self.deg[u] -= 1;
        }
        for (i, &u) in nbrs.iter().enumerate() {
            for &w in &nbrs[i + 1..] {
                if let Err(pos) = self.adj[u].binary_search(&w) {
                    self.adj[u].insert(pos, w);
                    let pos = self.adj[w].binary_search(&u).unwrap_err();
                    self.adj[w].insert(pos, u);
                    self.deg[u] += 1;
                    self.deg[w] += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Triplets;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn path_graph(n: usize) -> Csc<f64> {
        let mut t = Triplets::new(n);
        for i in 0..n {
            t.push(i, i, 2.0);
            if i + 1 < n {
                t.push(i, i + 1, -1.0);
                t.push(i + 1, i, -1.0);
            }
        }
        t.to_csc()
    }

    #[test]
    fn perm_is_a_permutation() {
        let a = path_graph(10);
        let mut p = min_degree_order(&a);
        p.sort_unstable();
        assert_eq!(p, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn path_graph_starts_at_an_endpoint() {
        let a = path_graph(7);
        let p = min_degree_order(&a);
        // Endpoints have degree 1 and are eliminated first.
        assert!(p[0] == 0 || p[0] == 6);
    }

    #[test]
    fn star_graph_leaves_center_last() {
        // Center 0 connected to 1..=5.
        let mut t = Triplets::new(6);
        for i in 1..6 {
            t.push(0, i, 1.0);
            t.push(i, 0, 1.0);
            t.push(i, i, 1.0);
        }
        t.push(0, 0, 1.0);
        let p = min_degree_order(&t.to_csc());
        // The degree-5 center must not be eliminated before any leaf; by the
        // end only a tie with the final leaf remains, so it is one of the
        // last two.
        assert_ne!(p[0], 0);
        assert!(p[4] == 0 || p[5] == 0);
    }

    #[test]
    fn empty_matrix() {
        let a = Triplets::<f64>::new(0).to_csc();
        assert!(min_degree_order(&a).is_empty());
    }

    /// A random pattern of shape `kind`: 0 unsymmetric entries, 1 a
    /// symmetric pattern split into disconnected blocks, 2 rows and
    /// columns left empty, 3 a few dense rows and columns over a sparse
    /// background.
    fn random_pattern(rng: &mut StdRng, kind: usize) -> Csc<f64> {
        let n = rng.gen_range(1..60usize);
        let mut t = Triplets::new(n);
        let entries = rng.gen_range(0..4 * n);
        match kind {
            0 => {
                for _ in 0..entries {
                    t.push(rng.gen_range(0..n), rng.gen_range(0..n), 1.0);
                }
            }
            1 => {
                let blocks = rng.gen_range(1..5usize);
                for _ in 0..entries {
                    let r = rng.gen_range(0..n);
                    let c = rng.gen_range(0..n);
                    if r % blocks == c % blocks {
                        t.push(r, c, 1.0);
                        t.push(c, r, 1.0);
                    }
                }
            }
            2 => {
                let live = |i: usize| !i.is_multiple_of(3);
                for _ in 0..entries {
                    let r = rng.gen_range(0..n);
                    let c = rng.gen_range(0..n);
                    if live(r) && live(c) {
                        t.push(r, c, 1.0);
                    }
                }
            }
            _ => {
                for _ in 0..n / 2 {
                    t.push(rng.gen_range(0..n), rng.gen_range(0..n), 1.0);
                }
                for _ in 0..rng.gen_range(1..4usize) {
                    let d = rng.gen_range(0..n);
                    for j in 0..n {
                        if rng.gen_range(0..4u32) != 0 {
                            t.push(d, j, 1.0);
                            t.push(j, d, 1.0);
                        }
                    }
                }
            }
        }
        t.to_csc()
    }

    #[test]
    fn heap_picks_match_the_scan_on_random_patterns() {
        let mut rng = StdRng::seed_from_u64(0x6d64_6567);
        for case in 0..1200 {
            let a = random_pattern(&mut rng, case % 4);
            assert_eq!(
                min_degree_order(&a),
                min_degree_order_scan(&a),
                "case {case} (n = {})",
                a.dim()
            );
        }
    }

    #[test]
    fn heap_picks_match_the_scan_on_structured_patterns() {
        let mut dense = Triplets::new(9);
        for r in 0..9 {
            for c in 0..9 {
                dense.push(r, c, 1.0);
            }
        }
        let diagonal = {
            let mut t = Triplets::new(7);
            for i in 0..7 {
                t.push(i, i, 1.0);
            }
            t.to_csc()
        };
        for a in [
            Triplets::<f64>::new(0).to_csc(),
            Triplets::<f64>::new(5).to_csc(),
            diagonal,
            path_graph(1),
            path_graph(40),
            dense.to_csc(),
        ] {
            assert_eq!(min_degree_order(&a), min_degree_order_scan(&a));
        }
    }
}
