//! The model zoo: GCN, GS-Pool, G-GCN, GAT (Table I).

pub mod gat;
pub mod gcn;
pub mod ggcn;
pub mod gs_pool;

pub use gat::Gat;
pub use gcn::Gcn;
pub use ggcn::Ggcn;
pub use gs_pool::GsPool;

use blockgnn_graph::CsrGraph;
use blockgnn_linalg::Matrix;
use blockgnn_nn::{Compression, ExecMode, LinearLayer, NnError, Param};
use std::fmt;

/// Which of the paper's four GNN algorithms a model implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Graph Convolutional Network (Kipf & Welling).
    Gcn,
    /// GraphSAGE with the max-pooling aggregator.
    GsPool,
    /// Gated GCN (Marcheggiani & Titov).
    Ggcn,
    /// Graph Attention Network (Veličković et al.).
    Gat,
}

impl ModelKind {
    /// All four kinds in the paper's presentation order.
    #[must_use]
    pub fn all() -> [ModelKind; 4] {
        [ModelKind::Gcn, ModelKind::GsPool, ModelKind::Ggcn, ModelKind::Gat]
    }

    /// The paper's display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::Gcn => "GCN",
            ModelKind::GsPool => "GS-Pool",
            ModelKind::Ggcn => "G-GCN",
            ModelKind::Gat => "GAT",
        }
    }

    /// Whether the aggregation phase contains learnable weight matrices
    /// (everything except GCN — the property behind Table II's profile
    /// and the paper's observation that GCN benefits least from
    /// compression).
    #[must_use]
    pub fn has_weighted_aggregation(&self) -> bool {
        !matches!(self, ModelKind::Gcn)
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which rows of a stage's input (and which graph facts) one output row
/// reads — what a delta-scoped refresh needs to know to recompute only
/// the rows a graph change can reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageHalo {
    /// Row `v` reads only input row `v` (the node-local transforms).
    Local,
    /// Row `v` reads input rows `N(v) ∪ {v}` and `v`'s neighbor list.
    Neighbors,
    /// Like [`StageHalo::Neighbors`], and also the neighbors' degrees
    /// (GCN's `Â` normalization).
    NeighborsAndDegrees,
}

/// A two-layer GNN for full-batch node classification.
///
/// `forward` produces per-node logits; `backward` takes `∂L/∂logits`,
/// accumulates parameter gradients, and returns `∂L/∂features`.
///
/// # Staged row-parallel inference
///
/// Every model also exposes its forward pass as a sequence of
/// *row-parallel stages* ([`GnnModel::num_stages`] /
/// [`GnnModel::forward_stage`]): stage `s` computes any subset of its
/// output rows from the **full** output matrix of stage `s − 1` (stage 0
/// reads the input features). Within a stage, rows are independent —
/// each target row reads only its own neighborhood of the previous
/// stage's matrix — so a scheduler can shard a stage's rows across
/// worker threads and barrier between stages. The contract is
/// *bit-exactness*: chaining every stage over all rows must reproduce
/// `forward(graph, features, false)` exactly, which is what makes
/// partition-parallel serving indistinguishable from the sequential
/// path. Models achieve this by splitting each GNN layer at its natural
/// seam: a node-local transform stage (gate/pool/attention projections —
/// no neighbor reads, zero halo) followed by an aggregate-and-combine
/// stage (reads the transform matrix at `N(v) ∪ {v}` — a one-hop halo).
pub trait GnnModel: Send {
    /// Which algorithm this is.
    fn kind(&self) -> ModelKind;

    /// Width of the hidden representation (the first layer's output) —
    /// the per-layer dimension the hardware workload models charge with.
    fn hidden_dim(&self) -> usize;

    /// Full-batch forward pass over all nodes.
    fn forward(&mut self, graph: &CsrGraph, features: &Matrix, train: bool) -> Matrix;

    /// Backward pass; must follow a `forward` on the same graph/features.
    fn backward(&mut self, graph: &CsrGraph, grad_logits: &Matrix) -> Matrix;

    /// Visits all trainable parameters in a stable order.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Visits every weight-matrix layer in a stable order — the hook the
    /// serving engine uses to [`LinearLayer::prepare`] a trained model
    /// for an execution backend, or to export circulant weights for
    /// accelerator deployment.
    fn visit_linear_layers(&mut self, f: &mut dyn FnMut(&mut LinearLayer));

    /// Deep-copies the model behind a fresh box. Prepared layers share
    /// their frozen weights/spectra across copies (they live behind an
    /// `Arc`), which is how the parallel serving engine forks one
    /// backend replica per worker without duplicating the model.
    fn clone_boxed(&self) -> Box<dyn GnnModel>;

    /// Staged-inference hook: precomputes per-graph state the stages
    /// reuse (e.g. GCN's degree normalization, an `O(n)` pass otherwise
    /// repeated per part per stage). A staged scheduler calls this once
    /// per request, before fanning [`GnnModel::forward_stage`] calls
    /// out; callers must re-prepare before switching graphs.
    /// `forward_stage` stays correct (just slower) if this was never
    /// called. Models without per-graph precomputation ignore it.
    fn prepare_graph(&mut self, _graph: &CsrGraph) {}

    /// Number of row-parallel inference stages (see the trait docs).
    fn num_stages(&self) -> usize;

    /// Output width (columns) of stage `stage`, given the width of the
    /// input feature matrix. The final stage's width is the number of
    /// classes.
    ///
    /// # Panics
    ///
    /// Panics if `stage >= num_stages()`.
    fn stage_width(&self, stage: usize, feature_dim: usize) -> usize;

    /// What output rows of stage `stage` read (see [`StageHalo`]).
    ///
    /// # Panics
    ///
    /// Panics if `stage >= num_stages()`.
    fn stage_halo(&self, stage: usize) -> StageHalo;

    /// Computes stage `stage` output rows for target nodes `rows`,
    /// reading the full previous-stage matrix `input` (the feature
    /// matrix when `stage == 0`). Returns one output row per entry of
    /// `rows`, in order. Inference-only (no backward caches are
    /// maintained for the training path).
    ///
    /// # Panics
    ///
    /// Panics if `stage >= num_stages()`, `input` has the wrong row
    /// count or width, or a target id is out of range.
    fn forward_stage(
        &mut self,
        stage: usize,
        graph: &CsrGraph,
        input: &Matrix,
        rows: &[u32],
    ) -> Matrix;

    /// Prepares every linear layer for inference under `mode` (see
    /// [`LinearLayer::prepare`]); the model becomes inference-only until
    /// [`GnnModel::clear_prepared`].
    fn prepare(&mut self, mode: ExecMode) {
        self.visit_linear_layers(&mut |l| l.prepare(mode));
    }

    /// Drops prepared state from every linear layer, restoring
    /// trainability.
    fn clear_prepared(&mut self) {
        self.visit_linear_layers(&mut LinearLayer::clear_prepared);
    }

    /// Zeroes all gradients.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Total scalar parameter count.
    fn num_params(&mut self) -> usize {
        let mut total = 0;
        self.visit_params(&mut |p| total += p.len());
        total
    }
}

/// Per-phase compression choices (the §V "only compress the aggregators"
/// ablation needs them to differ).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompressionPolicy {
    /// Compression for aggregation-phase weight matrices.
    pub aggregator: Compression,
    /// Compression for combination-phase weight matrices.
    pub combiner: Compression,
}

impl CompressionPolicy {
    /// Same compression everywhere (the paper's default experiment).
    #[must_use]
    pub fn uniform(c: Compression) -> Self {
        Self { aggregator: c, combiner: c }
    }

    /// Compress only the aggregators, keep combiners dense (§V).
    #[must_use]
    pub fn aggregator_only(c: Compression) -> Self {
        Self { aggregator: c, combiner: Compression::Dense }
    }
}

/// Builds a two-layer model of the given kind with uniform compression.
///
/// # Errors
///
/// Propagates layer-construction errors (zero dims, non-power-of-two
/// block sizes).
pub fn build_model(
    kind: ModelKind,
    in_dim: usize,
    hidden_dim: usize,
    num_classes: usize,
    compression: Compression,
    seed: u64,
) -> Result<Box<dyn GnnModel>, NnError> {
    build_model_with_policy(
        kind,
        in_dim,
        hidden_dim,
        num_classes,
        CompressionPolicy::uniform(compression),
        seed,
    )
}

/// Builds a two-layer model with per-phase compression control.
///
/// # Errors
///
/// Propagates layer-construction errors.
pub fn build_model_with_policy(
    kind: ModelKind,
    in_dim: usize,
    hidden_dim: usize,
    num_classes: usize,
    policy: CompressionPolicy,
    seed: u64,
) -> Result<Box<dyn GnnModel>, NnError> {
    Ok(match kind {
        ModelKind::Gcn => {
            Box::new(Gcn::new(in_dim, hidden_dim, num_classes, policy.combiner, seed)?)
        }
        ModelKind::GsPool => {
            Box::new(GsPool::new(in_dim, hidden_dim, num_classes, policy, seed)?)
        }
        ModelKind::Ggcn => Box::new(Ggcn::new(in_dim, hidden_dim, num_classes, policy, seed)?),
        ModelKind::Gat => Box::new(Gat::new(in_dim, hidden_dim, num_classes, policy, seed)?),
    })
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Finite-difference gradient checking for whole models.

    use super::*;
    use blockgnn_linalg::init::InitRng;

    /// A 6-node test graph with varied degrees (including a pendant).
    pub fn tiny_graph() -> CsrGraph {
        CsrGraph::from_edges(6, &[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (0, 5)], true)
            .unwrap()
    }

    /// Deterministic smooth features away from activation kinks.
    pub fn tiny_features(nodes: usize, dim: usize) -> Matrix {
        Matrix::from_fn(nodes, dim, |i, j| ((i * dim + j) as f64 * 0.43 + 0.21).sin() * 0.7)
    }

    /// Verifies a model's parameter and feature gradients against central
    /// differences under a random linear loss `L = Σ w ∘ logits`.
    pub fn check_model_gradients(
        model: &mut dyn GnnModel,
        graph: &CsrGraph,
        features: &Matrix,
        tol: f64,
    ) {
        let eps = 1e-5;
        let logits0 = model.forward(graph, features, false);
        let mut rng = InitRng::new(4242);
        let w = Matrix::from_fn(logits0.rows(), logits0.cols(), |_, _| rng.uniform(-1.0, 1.0));
        let loss_of = |y: &Matrix| -> f64 {
            y.as_slice().iter().zip(w.as_slice()).map(|(a, b)| a * b).sum()
        };

        model.zero_grad();
        // `train = true` so every layer snapshots its backward caches
        // (inference forwards skip them); no model uses dropout, so the
        // values are identical to the inference pass.
        let _ = model.forward(graph, features, true);
        let grad_x = model.backward(graph, &w);
        let mut analytic: Vec<Vec<f64>> = Vec::new();
        model.visit_params(&mut |p| analytic.push(p.grad.clone()));

        // Parameter gradients.
        for (pi, grads) in analytic.iter().enumerate() {
            // Sample a subset of coordinates to keep runtime bounded.
            let stride = (grads.len() / 25).max(1);
            for k in (0..grads.len()).step_by(stride) {
                let eval = |delta: f64, model: &mut dyn GnnModel| -> f64 {
                    let mut idx = 0;
                    model.visit_params(&mut |p| {
                        if idx == pi {
                            p.data[k] += delta;
                        }
                        idx += 1;
                    });
                    let l = loss_of(&model.forward(graph, features, false));
                    let mut idx2 = 0;
                    model.visit_params(&mut |p| {
                        if idx2 == pi {
                            p.data[k] -= delta;
                        }
                        idx2 += 1;
                    });
                    l
                };
                let numeric = (eval(eps, model) - eval(-eps, model)) / (2.0 * eps);
                let diff = (numeric - grads[k]).abs();
                assert!(
                    diff < tol * numeric.abs().max(1.0),
                    "param {pi}[{k}]: numeric {numeric} analytic {}",
                    grads[k]
                );
            }
        }

        // Feature gradients (sampled).
        for i in (0..features.rows()).step_by(2) {
            for j in (0..features.cols()).step_by(3) {
                let mut plus = features.clone();
                plus[(i, j)] += eps;
                let mut minus = features.clone();
                minus[(i, j)] -= eps;
                let numeric = (loss_of(&model.forward(graph, &plus, false))
                    - loss_of(&model.forward(graph, &minus, false)))
                    / (2.0 * eps);
                let diff = (numeric - grad_x[(i, j)]).abs();
                assert!(
                    diff < tol * numeric.abs().max(1.0),
                    "feature[{i}][{j}]: numeric {numeric} analytic {}",
                    grad_x[(i, j)]
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_match_paper() {
        assert_eq!(ModelKind::Gcn.name(), "GCN");
        assert_eq!(ModelKind::GsPool.name(), "GS-Pool");
        assert_eq!(ModelKind::Ggcn.name(), "G-GCN");
        assert_eq!(ModelKind::Gat.name(), "GAT");
        assert_eq!(format!("{}", ModelKind::Gat), "GAT");
    }

    #[test]
    fn weighted_aggregation_flag() {
        assert!(!ModelKind::Gcn.has_weighted_aggregation());
        assert!(ModelKind::GsPool.has_weighted_aggregation());
        assert!(ModelKind::Ggcn.has_weighted_aggregation());
        assert!(ModelKind::Gat.has_weighted_aggregation());
    }

    #[test]
    fn factory_builds_all_kinds() {
        for kind in ModelKind::all() {
            let mut model =
                build_model(kind, 12, 8, 3, Compression::BlockCirculant { block_size: 4 }, 1)
                    .unwrap();
            assert_eq!(model.kind(), kind);
            assert!(model.num_params() > 0);
        }
    }

    #[test]
    fn staged_inference_matches_forward_bit_exactly() {
        use blockgnn_linalg::Matrix;
        let g = testutil::tiny_graph();
        let x = testutil::tiny_features(6, 6);
        for kind in ModelKind::all() {
            let mut model =
                build_model(kind, 6, 4, 3, Compression::BlockCirculant { block_size: 2 }, 9)
                    .unwrap();
            let reference = model.forward(&g, &x, false);
            // Shard every stage into two row blocks and merge — the
            // partition-parallel execution shape.
            let mut current = x.clone();
            for stage in 0..model.num_stages() {
                let width = model.stage_width(stage, x.cols());
                let mut merged = Matrix::zeros(6, width);
                for rows in [[0u32, 1, 2], [3u32, 4, 5]] {
                    let part = model.forward_stage(stage, &g, &current, &rows);
                    assert_eq!(part.shape(), (3, width), "{kind} stage {stage} shape");
                    for (i, &v) in rows.iter().enumerate() {
                        merged.row_mut(v as usize).copy_from_slice(part.row(i));
                    }
                }
                current = merged;
            }
            assert_eq!(
                current.linf_distance(&reference),
                0.0,
                "{kind} staged inference must be bit-identical to forward"
            );
        }
    }

    #[test]
    fn clone_boxed_preserves_outputs() {
        let g = testutil::tiny_graph();
        let x = testutil::tiny_features(6, 6);
        for kind in ModelKind::all() {
            let mut model = build_model(kind, 6, 4, 3, Compression::Dense, 5).unwrap();
            let reference = model.forward(&g, &x, false);
            let mut copy = model.clone_boxed();
            assert_eq!(copy.kind(), kind);
            let replay = copy.forward(&g, &x, false);
            assert_eq!(replay.linf_distance(&reference), 0.0, "{kind} clone drifted");
        }
    }

    #[test]
    fn policy_constructors() {
        let c = Compression::BlockCirculant { block_size: 16 };
        let uni = CompressionPolicy::uniform(c);
        assert_eq!(uni.aggregator, c);
        assert_eq!(uni.combiner, c);
        let agg = CompressionPolicy::aggregator_only(c);
        assert_eq!(agg.aggregator, c);
        assert_eq!(agg.combiner, Compression::Dense);
    }
}
