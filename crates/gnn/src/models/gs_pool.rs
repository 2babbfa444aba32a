//! GraphSAGE with max-pooling aggregation (GS-Pool).
//!
//! Table I: `a_v = max_{u∈N(v)} ReLU(W_pool·h_u + b)` followed by
//! `h'_v = ReLU(W·(a_v ‖ h_v))`. Both `W_pool` (the aggregator weight —
//! the FLOP-heaviest matrix in Table II) and the combiner `W` can be
//! block-circulant.

use crate::models::{CompressionPolicy, GnnModel, ModelKind, StageHalo};
use blockgnn_graph::CsrGraph;
use blockgnn_linalg::Matrix;
use blockgnn_nn::{Layer, LinearLayer, NnError, Param, Relu};

/// One GS-Pool layer.
#[derive(Debug, Clone)]
struct GsPoolLayer {
    pool: LinearLayer,
    pool_act: Relu,
    comb: LinearLayer,
    act: Option<Relu>,
    pool_dim: usize,
    in_dim: usize,
    /// `argmax[v * pool_dim + d]` = node whose pooled feature won the max.
    argmax: Vec<u32>,
}

impl GsPoolLayer {
    fn new(
        in_dim: usize,
        pool_dim: usize,
        out_dim: usize,
        policy: CompressionPolicy,
        last: bool,
        seed: u64,
    ) -> Result<Self, NnError> {
        Ok(Self {
            pool: LinearLayer::new(pool_dim, in_dim, policy.aggregator, seed)?,
            pool_act: Relu::new(),
            comb: LinearLayer::new(out_dim, pool_dim + in_dim, policy.combiner, seed ^ 0x5A5A)?,
            act: if last { None } else { Some(Relu::new()) },
            pool_dim,
            in_dim,
            argmax: Vec::new(),
        })
    }

    fn forward(&mut self, graph: &CsrGraph, h: &Matrix, train: bool) -> Matrix {
        assert_eq!(h.cols(), self.in_dim, "gs-pool layer input width mismatch");
        let nodes = graph.num_nodes();
        let t = self.pool_act.forward(&self.pool.forward(h, train), train);
        let mut a = Matrix::zeros(nodes, self.pool_dim);
        self.argmax = vec![0u32; nodes * self.pool_dim];
        for v in 0..nodes {
            let neigh = graph.neighbors(v);
            // GraphSAGE falls back to the node itself when isolated.
            let self_source = [v as u32];
            let sources: &[u32] = if neigh.is_empty() { &self_source } else { neigh };
            let arow = a.row_mut(v);
            for (d, av) in arow.iter_mut().enumerate() {
                let mut best = f64::NEG_INFINITY;
                let mut best_u = sources[0];
                for &u in sources {
                    let val = t[(u as usize, d)];
                    if val > best {
                        best = val;
                        best_u = u;
                    }
                }
                *av = best;
                self.argmax[v * self.pool_dim + d] = best_u;
            }
        }
        let z = a.hconcat(h).expect("row counts match by construction");
        let y = self.comb.forward(&z, train);
        match &mut self.act {
            Some(act) => act.forward(&y, train),
            None => y,
        }
    }

    fn backward(&mut self, graph: &CsrGraph, grad: &Matrix) -> Matrix {
        let nodes = graph.num_nodes();
        let grad = match &mut self.act {
            Some(act) => act.backward(grad),
            None => grad.clone(),
        };
        let gz = self.comb.backward(&grad);
        // Split the concatenated gradient.
        let mut ga = Matrix::zeros(nodes, self.pool_dim);
        let mut gh = Matrix::zeros(nodes, self.in_dim);
        for v in 0..nodes {
            let row = gz.row(v);
            ga.row_mut(v).copy_from_slice(&row[..self.pool_dim]);
            gh.row_mut(v).copy_from_slice(&row[self.pool_dim..]);
        }
        // Max-pool routes gradients to the winning neighbor.
        let mut gt = Matrix::zeros(nodes, self.pool_dim);
        for v in 0..nodes {
            for d in 0..self.pool_dim {
                let u = self.argmax[v * self.pool_dim + d] as usize;
                gt[(u, d)] += ga[(v, d)];
            }
        }
        let gt = self.pool_act.backward(&gt);
        let gh_pool = self.pool.backward(&gt);
        &gh + &gh_pool
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.pool.visit_params(f);
        self.comb.visit_params(f);
    }

    fn visit_linear_layers(&mut self, f: &mut dyn FnMut(&mut LinearLayer)) {
        f(&mut self.pool);
        f(&mut self.comb);
    }

    /// Drops request-scoped scratch (max-pool argmax, activation
    /// snapshots) — called when forking worker replicas, which never
    /// read another request's scratch.
    fn clear_scratch(&mut self) {
        self.argmax = Vec::new();
        self.pool_act.clear_cached();
        if let Some(act) = &mut self.act {
            act.clear_cached();
        }
    }

    /// Transform half-stage: `[ReLU(W_pool·h_v + b) ‖ h_v]` for each
    /// target row — node-local, no neighbor reads.
    fn stage_transform(&mut self, input: &Matrix, rows: &[u32]) -> Matrix {
        let h = Matrix::from_fn(rows.len(), input.cols(), |i, j| input[(rows[i] as usize, j)]);
        let t = self.pool_act.apply(&self.pool.forward(&h, false));
        t.hconcat(&h).expect("row counts match by construction")
    }

    /// Aggregate-and-combine half-stage: element-wise max over each
    /// target's neighbors in the pooled columns of the full transform
    /// matrix, concatenated with the target's own feature columns, then
    /// the combiner (+ activation). Max-pooling iterates sources in CSR
    /// order, matching [`GsPoolLayer::forward`] exactly.
    fn stage_combine(&mut self, graph: &CsrGraph, input: &Matrix, rows: &[u32]) -> Matrix {
        assert_eq!(
            input.cols(),
            self.pool_dim + self.in_dim,
            "gs-pool combine stage expects [pooled ‖ features] input"
        );
        let mut z = Matrix::zeros(rows.len(), self.pool_dim + self.in_dim);
        for (i, &v) in rows.iter().enumerate() {
            let v = v as usize;
            let neigh = graph.neighbors(v);
            // GraphSAGE falls back to the node itself when isolated.
            let self_source = [v as u32];
            let sources: &[u32] = if neigh.is_empty() { &self_source } else { neigh };
            let zrow = z.row_mut(i);
            for (d, zv) in zrow[..self.pool_dim].iter_mut().enumerate() {
                let mut best = f64::NEG_INFINITY;
                for &u in sources {
                    let val = input[(u as usize, d)];
                    if val > best {
                        best = val;
                    }
                }
                *zv = best;
            }
            zrow[self.pool_dim..].copy_from_slice(&input.row(v)[self.pool_dim..]);
        }
        let y = self.comb.forward(&z, false);
        match &self.act {
            Some(act) => act.apply(&y),
            None => y,
        }
    }
}

/// Two-layer GS-Pool model. The pooling dimension equals the hidden
/// dimension for both layers (the GraphSAGE reference configuration).
#[derive(Debug, Clone)]
pub struct GsPool {
    layer1: GsPoolLayer,
    layer2: GsPoolLayer,
}

impl GsPool {
    /// Builds the model.
    ///
    /// # Errors
    ///
    /// Propagates layer-construction errors.
    pub fn new(
        in_dim: usize,
        hidden_dim: usize,
        num_classes: usize,
        policy: CompressionPolicy,
        seed: u64,
    ) -> Result<Self, NnError> {
        Ok(Self {
            layer1: GsPoolLayer::new(in_dim, hidden_dim, hidden_dim, policy, false, seed)?,
            layer2: GsPoolLayer::new(
                hidden_dim,
                hidden_dim,
                num_classes,
                policy,
                true,
                seed ^ 0xC0DE,
            )?,
        })
    }
}

impl GnnModel for GsPool {
    fn kind(&self) -> ModelKind {
        ModelKind::GsPool
    }

    fn hidden_dim(&self) -> usize {
        self.layer1.comb.out_dim()
    }

    fn forward(&mut self, graph: &CsrGraph, features: &Matrix, train: bool) -> Matrix {
        let h1 = self.layer1.forward(graph, features, train);
        self.layer2.forward(graph, &h1, train)
    }

    fn backward(&mut self, graph: &CsrGraph, grad_logits: &Matrix) -> Matrix {
        let g1 = self.layer2.backward(graph, grad_logits);
        self.layer1.backward(graph, &g1)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.layer1.visit_params(f);
        self.layer2.visit_params(f);
    }

    fn visit_linear_layers(&mut self, f: &mut dyn FnMut(&mut LinearLayer)) {
        self.layer1.visit_linear_layers(f);
        self.layer2.visit_linear_layers(f);
    }

    fn clone_boxed(&self) -> Box<dyn GnnModel> {
        let mut copy = self.clone();
        copy.layer1.clear_scratch();
        copy.layer2.clear_scratch();
        Box::new(copy)
    }

    // Each GS-Pool layer splits at its natural seam: the node-local pool
    // transform (stage 0/2, zero halo) and the max-pool + combiner
    // (stage 1/3, one-hop halo reads).
    fn num_stages(&self) -> usize {
        4
    }

    fn stage_width(&self, stage: usize, feature_dim: usize) -> usize {
        match stage {
            0 => self.layer1.pool_dim + feature_dim,
            1 => self.layer1.comb.out_dim(),
            2 => self.layer2.pool_dim + self.layer1.comb.out_dim(),
            3 => self.layer2.comb.out_dim(),
            _ => panic!("GS-Pool has 4 stages, got stage {stage}"),
        }
    }

    fn stage_halo(&self, stage: usize) -> StageHalo {
        match stage {
            0 | 2 => StageHalo::Local,
            1 | 3 => StageHalo::Neighbors,
            _ => panic!("GS-Pool has 4 stages, got stage {stage}"),
        }
    }

    fn forward_stage(
        &mut self,
        stage: usize,
        graph: &CsrGraph,
        input: &Matrix,
        rows: &[u32],
    ) -> Matrix {
        match stage {
            0 => self.layer1.stage_transform(input, rows),
            1 => self.layer1.stage_combine(graph, input, rows),
            2 => self.layer2.stage_transform(input, rows),
            3 => self.layer2.stage_combine(graph, input, rows),
            _ => panic!("GS-Pool has 4 stages, got stage {stage}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::testutil::{check_model_gradients, tiny_features, tiny_graph};
    use blockgnn_nn::Compression;

    #[test]
    fn forward_shape() {
        let g = tiny_graph();
        let x = tiny_features(6, 10);
        let mut model =
            GsPool::new(10, 8, 3, CompressionPolicy::uniform(Compression::Dense), 1).unwrap();
        assert_eq!(model.forward(&g, &x, false).shape(), (6, 3));
    }

    #[test]
    fn max_pooling_picks_maximum() {
        // Node 5 is a pendant attached to node 0: its aggregated feature
        // must equal node 0's pooled vector.
        let g = tiny_graph();
        let x = tiny_features(6, 4);
        let mut model =
            GsPool::new(4, 3, 2, CompressionPolicy::uniform(Compression::Dense), 7).unwrap();
        let _ = model.forward(&g, &x, false);
        let l1 = &model.layer1;
        for d in 0..3 {
            assert_eq!(l1.argmax[5 * 3 + d], 0, "pendant must pool from its only neighbor");
        }
    }

    #[test]
    fn gradients_dense() {
        let g = tiny_graph();
        let x = tiny_features(6, 5);
        let mut model =
            GsPool::new(5, 4, 3, CompressionPolicy::uniform(Compression::Dense), 2).unwrap();
        check_model_gradients(&mut model, &g, &x, 1e-4);
    }

    #[test]
    fn gradients_circulant() {
        let g = tiny_graph();
        let x = tiny_features(6, 6);
        let policy = CompressionPolicy::uniform(Compression::BlockCirculant { block_size: 2 });
        let mut model = GsPool::new(6, 4, 3, policy, 3).unwrap();
        check_model_gradients(&mut model, &g, &x, 1e-4);
    }

    #[test]
    fn gradients_aggregator_only_policy() {
        let g = tiny_graph();
        let x = tiny_features(6, 6);
        let policy =
            CompressionPolicy::aggregator_only(Compression::BlockCirculant { block_size: 2 });
        let mut model = GsPool::new(6, 4, 3, policy, 4).unwrap();
        check_model_gradients(&mut model, &g, &x, 1e-4);
    }
}
