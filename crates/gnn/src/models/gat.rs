//! GAT (graph attention network, Veličković et al.).
//!
//! Table I: `α_ij = softmax_j(a(W·h_i, W·h_j))`, `a_v = Σ_j α_ij·h_j`,
//! combination `ELU(W·a_v)`. The attention function is the standard
//! additive form `a(x, y) = LeakyReLU(a_srcᵀx + a_dstᵀy)`; neighborhoods
//! include a self-loop so every softmax is well-defined.
//!
//! Multi-head attention is supported (the paper's profiling setup uses
//! "two 128-dimensional attention heads"): each head owns its projection
//! `W_h` and attention vectors, the per-head aggregations are
//! concatenated, and the combiner maps `heads·M → N`.

use crate::models::{CompressionPolicy, GnnModel, ModelKind, StageHalo};
use blockgnn_graph::CsrGraph;
use blockgnn_linalg::init::InitRng;
use blockgnn_linalg::Matrix;
use blockgnn_nn::{Elu, Layer, LinearLayer, NnError, Param};

const LEAKY_SLOPE: f64 = 0.2;

fn leaky(x: f64) -> f64 {
    if x > 0.0 {
        x
    } else {
        LEAKY_SLOPE * x
    }
}

fn leaky_deriv(x: f64) -> f64 {
    if x > 0.0 {
        1.0
    } else {
        LEAKY_SLOPE
    }
}

/// One attention head: its projection, score vectors, and forward caches.
#[derive(Debug, Clone)]
struct GatHead {
    /// Attention feature projection `W` (in_dim → att_dim).
    w: LinearLayer,
    /// Source attention vector `a_src` (att_dim).
    a_src: Param,
    /// Destination attention vector `a_dst` (att_dim).
    a_dst: Param,
    att_dim: usize,
    // Forward caches.
    s_cache: Matrix,
    ssrc: Vec<f64>,
    sdst: Vec<f64>,
    /// Post-LeakyReLU attention logits per (node, self + neighbors) pair.
    pre: Vec<Vec<f64>>,
    /// Softmax weights, aligned with `pre`.
    alpha: Vec<Vec<f64>>,
}

impl GatHead {
    fn new(
        in_dim: usize,
        att_dim: usize,
        policy: CompressionPolicy,
        seed: u64,
    ) -> Result<Self, NnError> {
        let mut rng = InitRng::new(seed ^ 0xA77A);
        let bound = (3.0 / att_dim as f64).sqrt();
        Ok(Self {
            w: LinearLayer::new(att_dim, in_dim, policy.aggregator, seed)?,
            a_src: Param::new((0..att_dim).map(|_| rng.uniform(-bound, bound)).collect()),
            a_dst: Param::new((0..att_dim).map(|_| rng.uniform(-bound, bound)).collect()),
            att_dim,
            s_cache: Matrix::zeros(0, 0),
            ssrc: Vec::new(),
            sdst: Vec::new(),
            pre: Vec::new(),
            alpha: Vec::new(),
        })
    }

    /// Computes this head's attention-weighted aggregation `a_v` (an
    /// `in_dim`-wide matrix) and caches everything backward needs.
    fn forward(&mut self, graph: &CsrGraph, h: &Matrix, train: bool) -> Matrix {
        let nodes = graph.num_nodes();
        let s = self.w.forward(h, train);
        self.ssrc = (0..nodes)
            .map(|i| s.row(i).iter().zip(&self.a_src.data).map(|(a, b)| a * b).sum())
            .collect();
        self.sdst = (0..nodes)
            .map(|j| s.row(j).iter().zip(&self.a_dst.data).map(|(a, b)| a * b).sum())
            .collect();
        self.pre = Vec::with_capacity(nodes);
        self.alpha = Vec::with_capacity(nodes);
        let mut a = Matrix::zeros(nodes, h.cols());
        for v in 0..nodes {
            let neigh = extended_neighbors(graph, v);
            let pre: Vec<f64> =
                neigh.iter().map(|&u| leaky(self.ssrc[v] + self.sdst[u])).collect();
            let alpha = blockgnn_linalg::vector::softmax(&pre);
            let arow = a.row_mut(v);
            for (&u, &al) in neigh.iter().zip(&alpha) {
                let hu = h.row(u);
                for (o, &x) in arow.iter_mut().zip(hu) {
                    *o += al * x;
                }
            }
            self.pre.push(pre);
            self.alpha.push(alpha);
        }
        self.s_cache = s;
        a
    }

    /// Backward through this head: consumes `∂L/∂a` for the head's slice,
    /// accumulates parameter gradients, returns `∂L/∂h`.
    fn backward(&mut self, graph: &CsrGraph, h_cache: &Matrix, ga: &Matrix) -> Matrix {
        let nodes = graph.num_nodes();
        let in_dim = h_cache.cols();
        let mut gh = Matrix::zeros(nodes, in_dim);
        let mut g_ssrc = vec![0.0; nodes];
        let mut g_sdst = vec![0.0; nodes];
        // `v` indexes four parallel per-node structures; a zipped
        // iterator would obscure, not clarify.
        #[allow(clippy::needless_range_loop)]
        for v in 0..nodes {
            let neigh = extended_neighbors(graph, v);
            let alpha = &self.alpha[v];
            let pre = &self.pre[v];
            let gav = ga.row(v);
            // ∂L/∂α_u = <ga_v, h_u>; ∂L/∂h_u += α_u · ga_v.
            let grad_alpha: Vec<f64> = neigh
                .iter()
                .map(|&u| {
                    let hu = h_cache.row(u);
                    gav.iter().zip(hu).map(|(a, b)| a * b).sum()
                })
                .collect();
            for (&u, &al) in neigh.iter().zip(alpha) {
                let ghu = gh.row_mut(u);
                for (o, &g) in ghu.iter_mut().zip(gav) {
                    *o += al * g;
                }
            }
            // Softmax backward then LeakyReLU backward. `pre` stores the
            // post-LeakyReLU logits; leaky is sign-preserving, so the
            // stored sign recovers the derivative branch.
            let dot: f64 = alpha.iter().zip(&grad_alpha).map(|(a, g)| a * g).sum();
            for ((&u, (&al, &gal)), &p) in
                neigh.iter().zip(alpha.iter().zip(&grad_alpha)).zip(pre)
            {
                let ge = al * (gal - dot);
                let gpre = ge * leaky_deriv(p);
                g_ssrc[v] += gpre;
                g_sdst[u] += gpre;
            }
        }
        // Through the score dot-products into s, a_src, a_dst.
        let mut gs = Matrix::zeros(nodes, self.att_dim);
        for i in 0..nodes {
            let si = self.s_cache.row(i);
            let gsrow = gs.row_mut(i);
            for d in 0..self.att_dim {
                gsrow[d] = g_ssrc[i] * self.a_src.data[d] + g_sdst[i] * self.a_dst.data[d];
                self.a_src.grad[d] += g_ssrc[i] * si[d];
                self.a_dst.grad[d] += g_sdst[i] * si[d];
            }
        }
        let gh_w = self.w.backward(&gs);
        gh += &gh_w;
        gh
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.w.visit_params(f);
        f(&mut self.a_src);
        f(&mut self.a_dst);
    }

    fn visit_linear_layers(&mut self, f: &mut dyn FnMut(&mut LinearLayer)) {
        f(&mut self.w);
    }
}

/// Neighborhood including the self-loop, in deterministic order
/// (self first).
fn extended_neighbors(graph: &CsrGraph, v: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(graph.degree(v) + 1);
    out.push(v);
    out.extend(graph.neighbors(v).iter().map(|&u| u as usize));
    out
}

/// One GAT layer with one or more attention heads.
#[derive(Debug, Clone)]
struct GatLayer {
    heads: Vec<GatHead>,
    /// Combiner (heads·in_dim → out_dim) over the concatenated
    /// per-head aggregations.
    comb: LinearLayer,
    act: Option<Elu>,
    in_dim: usize,
    h_cache: Matrix,
}

impl GatLayer {
    fn new(
        in_dim: usize,
        att_dim: usize,
        out_dim: usize,
        num_heads: usize,
        policy: CompressionPolicy,
        last: bool,
        seed: u64,
    ) -> Result<Self, NnError> {
        if num_heads == 0 {
            return Err(NnError::new("GAT needs at least one attention head"));
        }
        let heads = (0..num_heads)
            .map(|k| GatHead::new(in_dim, att_dim, policy, seed ^ ((k as u64 + 1) << 20)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            heads,
            comb: LinearLayer::new(
                out_dim,
                in_dim * num_heads,
                policy.combiner,
                seed ^ 0x3333,
            )?,
            act: if last { None } else { Some(Elu::new()) },
            in_dim,
            h_cache: Matrix::zeros(0, 0),
        })
    }

    fn forward(&mut self, graph: &CsrGraph, h: &Matrix, train: bool) -> Matrix {
        assert_eq!(h.cols(), self.in_dim, "gat layer input width mismatch");
        let mut concat: Option<Matrix> = None;
        for head in &mut self.heads {
            let a = head.forward(graph, h, train);
            concat = Some(match concat {
                None => a,
                Some(prev) => prev.hconcat(&a).expect("equal row counts"),
            });
        }
        if train {
            self.h_cache = h.clone();
        }
        let y = self.comb.forward(&concat.expect("at least one head"), train);
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
        let g_concat = self.comb.backward(&grad);
        let mut gh = Matrix::zeros(nodes, self.in_dim);
        for (k, head) in self.heads.iter_mut().enumerate() {
            // Slice this head's columns out of the concatenated gradient.
            let ga =
                Matrix::from_fn(nodes, self.in_dim, |i, j| g_concat[(i, k * self.in_dim + j)]);
            let gh_head = head.backward(graph, &self.h_cache, &ga);
            gh += &gh_head;
        }
        gh
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for head in &mut self.heads {
            head.visit_params(f);
        }
        self.comb.visit_params(f);
    }

    fn visit_linear_layers(&mut self, f: &mut dyn FnMut(&mut LinearLayer)) {
        for head in &mut self.heads {
            head.visit_linear_layers(f);
        }
        f(&mut self.comb);
    }

    /// Drops request-scoped forward caches (attention scores, softmax
    /// weights, input and activation snapshots) — called when forking
    /// worker replicas, which never read another request's scratch.
    fn clear_scratch(&mut self) {
        self.h_cache = Matrix::zeros(0, 0);
        if let Some(act) = &mut self.act {
            act.clear_cached();
        }
        for head in &mut self.heads {
            head.s_cache = Matrix::zeros(0, 0);
            head.ssrc = Vec::new();
            head.sdst = Vec::new();
            head.pre = Vec::new();
            head.alpha = Vec::new();
        }
    }

    /// Transform half-stage: per-head attention scores for each target
    /// row — `[s₀ᵛ, d₀ᵛ, s₁ᵛ, d₁ᵛ, … ‖ h_v]` where `sₖᵛ = ⟨Wₖ·h_v, a_src⟩`
    /// and `dₖᵛ = ⟨Wₖ·h_v, a_dst⟩`. Node-local, no neighbor reads.
    fn stage_transform(&mut self, input: &Matrix, rows: &[u32]) -> Matrix {
        let h = Matrix::from_fn(rows.len(), input.cols(), |i, j| input[(rows[i] as usize, j)]);
        let num_heads = self.heads.len();
        let mut out = Matrix::zeros(rows.len(), 2 * num_heads + self.in_dim);
        for (k, head) in self.heads.iter_mut().enumerate() {
            let s = head.w.forward(&h, false);
            for i in 0..rows.len() {
                let srow = s.row(i);
                out[(i, 2 * k)] = srow.iter().zip(&head.a_src.data).map(|(a, b)| a * b).sum();
                out[(i, 2 * k + 1)] =
                    srow.iter().zip(&head.a_dst.data).map(|(a, b)| a * b).sum();
            }
        }
        for (i, &v) in rows.iter().enumerate() {
            out.row_mut(i)[2 * num_heads..].copy_from_slice(input.row(v as usize));
        }
        out
    }

    /// Aggregate-and-combine half-stage: per-head softmax attention over
    /// each target's extended neighborhood, reading scores and features
    /// from the full transform matrix, then the combiner (+ activation).
    /// Score, softmax, and accumulation arithmetic match
    /// [`GatHead::forward`] exactly.
    fn stage_combine(&mut self, graph: &CsrGraph, input: &Matrix, rows: &[u32]) -> Matrix {
        let num_heads = self.heads.len();
        let off = 2 * num_heads;
        assert_eq!(
            input.cols(),
            off + self.in_dim,
            "gat combine stage expects [scores ‖ features] input"
        );
        let mut concat = Matrix::zeros(rows.len(), num_heads * self.in_dim);
        for (i, &v) in rows.iter().enumerate() {
            let v = v as usize;
            let neigh = extended_neighbors(graph, v);
            for k in 0..num_heads {
                let pre: Vec<f64> = neigh
                    .iter()
                    .map(|&u| leaky(input[(v, 2 * k)] + input[(u, 2 * k + 1)]))
                    .collect();
                let alpha = blockgnn_linalg::vector::softmax(&pre);
                let crow = &mut concat.row_mut(i)[k * self.in_dim..(k + 1) * self.in_dim];
                for (&u, &al) in neigh.iter().zip(&alpha) {
                    let hu = &input.row(u)[off..];
                    for (o, &x) in crow.iter_mut().zip(hu) {
                        *o += al * x;
                    }
                }
            }
        }
        let y = self.comb.forward(&concat, false);
        match &self.act {
            Some(act) => act.apply(&y),
            None => y,
        }
    }
}

/// Two-layer GAT model with attention dimension equal to the hidden
/// dimension.
#[derive(Debug, Clone)]
pub struct Gat {
    layer1: GatLayer,
    layer2: GatLayer,
}

impl Gat {
    /// Builds a single-head model (the Table III training configuration).
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
        Self::with_heads(in_dim, hidden_dim, num_classes, 1, policy, seed)
    }

    /// Builds a multi-head model (the paper's profiling setup uses two
    /// heads); per-head aggregations are concatenated before combination.
    ///
    /// # Errors
    ///
    /// Propagates layer-construction errors; `num_heads` must be ≥ 1.
    pub fn with_heads(
        in_dim: usize,
        hidden_dim: usize,
        num_classes: usize,
        num_heads: usize,
        policy: CompressionPolicy,
        seed: u64,
    ) -> Result<Self, NnError> {
        Ok(Self {
            layer1: GatLayer::new(
                in_dim, hidden_dim, hidden_dim, num_heads, policy, false, seed,
            )?,
            layer2: GatLayer::new(
                hidden_dim,
                hidden_dim,
                num_classes,
                num_heads,
                policy,
                true,
                seed ^ 0xFACE,
            )?,
        })
    }
}

impl GnnModel for Gat {
    fn kind(&self) -> ModelKind {
        ModelKind::Gat
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

    // Each GAT layer splits at its natural seam: the node-local
    // attention projections/scores (stage 0/2, zero halo) and the
    // softmax-weighted neighbor aggregation + combiner (stage 1/3,
    // one-hop halo reads).
    fn num_stages(&self) -> usize {
        4
    }

    fn stage_width(&self, stage: usize, feature_dim: usize) -> usize {
        let hidden = self.layer1.comb.out_dim();
        match stage {
            0 => 2 * self.layer1.heads.len() + feature_dim,
            1 => hidden,
            2 => 2 * self.layer2.heads.len() + hidden,
            3 => self.layer2.comb.out_dim(),
            _ => panic!("GAT has 4 stages, got stage {stage}"),
        }
    }

    fn stage_halo(&self, stage: usize) -> StageHalo {
        match stage {
            0 | 2 => StageHalo::Local,
            1 | 3 => StageHalo::Neighbors,
            _ => panic!("GAT has 4 stages, got stage {stage}"),
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
            _ => panic!("GAT has 4 stages, got stage {stage}"),
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
        let x = tiny_features(6, 7);
        let mut model =
            Gat::new(7, 5, 3, CompressionPolicy::uniform(Compression::Dense), 1).unwrap();
        assert_eq!(model.forward(&g, &x, false).shape(), (6, 3));
    }

    #[test]
    fn attention_weights_sum_to_one() {
        let g = tiny_graph();
        let x = tiny_features(6, 4);
        let mut model =
            Gat::new(4, 3, 2, CompressionPolicy::uniform(Compression::Dense), 5).unwrap();
        let _ = model.forward(&g, &x, false);
        for alpha in &model.layer1.heads[0].alpha {
            let sum: f64 = alpha.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
            assert!(alpha.iter().all(|&a| a >= 0.0));
        }
    }

    #[test]
    fn gradients_dense() {
        let g = tiny_graph();
        let x = tiny_features(6, 4);
        let mut model =
            Gat::new(4, 3, 2, CompressionPolicy::uniform(Compression::Dense), 2).unwrap();
        check_model_gradients(&mut model, &g, &x, 2e-4);
    }

    #[test]
    fn gradients_circulant() {
        let g = tiny_graph();
        let x = tiny_features(6, 4);
        let policy = CompressionPolicy::uniform(Compression::BlockCirculant { block_size: 2 });
        let mut model = Gat::new(4, 4, 2, policy, 3).unwrap();
        check_model_gradients(&mut model, &g, &x, 2e-4);
    }

    #[test]
    fn gradients_two_heads() {
        let g = tiny_graph();
        let x = tiny_features(6, 4);
        let mut model =
            Gat::with_heads(4, 3, 2, 2, CompressionPolicy::uniform(Compression::Dense), 4)
                .unwrap();
        check_model_gradients(&mut model, &g, &x, 2e-4);
    }

    #[test]
    fn multi_head_shapes_and_params() {
        let g = tiny_graph();
        let x = tiny_features(6, 8);
        let policy = CompressionPolicy::uniform(Compression::Dense);
        let mut one = Gat::with_heads(8, 4, 3, 1, policy, 9).unwrap();
        let mut two = Gat::with_heads(8, 4, 3, 2, policy, 9).unwrap();
        assert_eq!(two.forward(&g, &x, false).shape(), (6, 3));
        // Two heads double the attention parameters and widen the
        // combiner input.
        assert!(two.num_params() > one.num_params());
        let _ = one.forward(&g, &x, false);
    }

    #[test]
    fn zero_heads_rejected() {
        let policy = CompressionPolicy::uniform(Compression::Dense);
        assert!(Gat::with_heads(4, 3, 2, 0, policy, 1).is_err());
    }
}
