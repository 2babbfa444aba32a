//! Partition-parallel serving: shard full-graph (and large sampled)
//! inference across worker threads.
//!
//! §IV-C partitions graphs that exceed the accelerator's memory into
//! sub-graphs processed independently; this module turns that idea into
//! the serving hot path. [`ParallelEngine`] splits the graph into
//! [`GraphPart`]s (contiguous node ranges with their one-hop halos,
//! sized so every part's resident features fit a §IV-B-derived memory
//! budget), forks one [`ExecutionBackend`] replica per worker (prepared
//! weights and cached spectra are `Arc`-shared, see
//! [`blockgnn_nn::ExecMode`]), and executes the model's row-parallel
//! inference stages over a [`std::thread::scope`] pool with a barrier
//! between stages. Cut placement follows a
//! [`PartitionStrategy`] — degree-balanced by default, so power-law
//! graphs stop handing one worker all the hubs (the load imbalance that
//! made early parallel rows *lose* to sequential); the achieved balance
//! is reported via [`ParallelEngine::partition_balance`].
//!
//! # Why stages instead of running the whole model per part
//!
//! A two-layer GNN needs the *two-hop* neighborhood of a part to compute
//! its logits in isolation; on anything but spatially local graphs that
//! closure approaches the whole graph, and per-part redundant compute
//! erases the parallel win. Instead each stage computes only its own
//! rows and reads the previous stage's **merged** matrix at a one-hop
//! halo ([`GnnModel::forward_stage`](blockgnn_gnn::GnnModel::forward_stage)) —
//! zero redundant arithmetic, and every row is produced by exactly the
//! same operations as the sequential pass, so merged logits are
//! **bit-identical** to [`crate::Session::infer`] on the dense backend
//! (and within FFT rounding of it on the spectral paths — they are also
//! bit-identical in practice, since each row's FFTs see the same
//! inputs).
//!
//! # Hot-vertex aggregation cache
//!
//! Row-granular staging also makes per-row result caching expressible —
//! something the sequential engine's monolithic `forward` cannot do.
//! Full-graph stage inputs are canonical (stage 0 reads the dataset
//! features, stage `s` reads the merged stage `s − 1` output), so a hub
//! vertex's stage row is a pure function of the graph version. The
//! engine keeps the stage rows of the highest-degree vertices (up to
//! [`DEFAULT_HOT_CACHE_BYTES`]) in a version-keyed cache shared across
//! the whole engine family — forks and re-conversions reuse it like the
//! full-graph cache — and copies them instead of re-aggregating.
//! `apply_delta` invalidates strictly before publishing the new epoch.
//! Sampled requests never touch the cache: their sub-universe inputs are
//! batch-dependent, not canonical.
//!
//! Per-part hardware cost is still accounted the §IV-C way: the
//! simulated accelerator charges each part's *computed* target nodes
//! separately (rows served from the hot cache cost the hardware nothing,
//! exactly like logits-cache hits) and the per-part [`SimReport`]s merge
//! by summation ([`SimReport::merge`] — cycles combine as in the paper's
//! two-sub-graph Reddit evaluation, energy sums), reproducing the
//! sequential report exactly on cold caches.

use crate::backend::{BackendKind, BackendOutput, ExecutionBackend, RequestShape};
use crate::engine::Engine;
use crate::error::EngineError;
use crate::request::{ExecOutcome, InferRequest, InferResponse, RequestMode};
use crate::stats::ServeStats;
use crate::versioned::{HotVertexCache, StageState};
use blockgnn_accel::SimReport;
use blockgnn_gnn::sampled::SampledSubgraph;
use blockgnn_gnn::ModelKind;
use blockgnn_graph::partition::{partition_balance, GraphPart, PartitionStrategy};
use blockgnn_graph::{CompressedCsr, CsrGraph, Dataset};
use blockgnn_linalg::Matrix;
use blockgnn_perf::resources::NODE_FEATURE_BUFFER_BYTES;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default per-part feature-residency budget: one bank of the §IV-B
/// Node-Feature Buffer (the 512 KB NFB is a ping-pong pair, so half is
/// usable while the other half is being filled by DMA).
pub const DEFAULT_PART_BUDGET_BYTES: usize = NODE_FEATURE_BUFFER_BYTES / 2;

/// Sampled requests with at least this many unique target nodes are
/// sharded across workers; smaller micro-batches run on one worker
/// (their sub-universes are too small to amortize the fan-out). The
/// threshold is compared against the **unique** target count (the
/// sampled sub-universe's interned batch length), not the raw request
/// length — a request of 100 duplicates of one node is a 1-row batch.
pub const DEFAULT_MIN_SHARD_ROWS: usize = 32;

/// Default hot-vertex cache budget: the other bank of the §IV-B
/// Node-Feature Buffer (cached aggregation rows are reused feature-like
/// state, so they are accounted against feature storage, not weights).
pub const DEFAULT_HOT_CACHE_BYTES: usize = NODE_FEATURE_BUFFER_BYTES / 2;

impl Engine {
    /// Converts this engine into a [`ParallelEngine`] with `workers`
    /// worker threads and the default (degree-balanced) partition
    /// strategy. The existing backend becomes worker 0 and is forked
    /// `workers − 1` times; forks share the prepared weights and cached
    /// spectra behind `Arc`s, so the conversion is cheap in memory. The
    /// full graph is partitioned once, into the smallest split that is
    /// at least `workers` parts **and** fits every part's resident
    /// features (targets + one-hop halo, at the backend's
    /// [`BackendKind::bytes_per_feature`] scalar width) in
    /// [`DEFAULT_PART_BUDGET_BYTES`].
    ///
    /// # Errors
    ///
    /// [`EngineError::NoWorkers`] if `workers` is zero.
    pub fn into_parallel(self, workers: usize) -> Result<ParallelEngine, EngineError> {
        self.into_parallel_with(workers, PartitionStrategy::default())
    }

    /// Like [`Engine::into_parallel`], with an explicit cut-placement
    /// strategy (see [`PartitionStrategy`]).
    ///
    /// # Errors
    ///
    /// [`EngineError::NoWorkers`] if `workers` is zero.
    pub fn into_parallel_with(
        self,
        workers: usize,
        strategy: PartitionStrategy,
    ) -> Result<ParallelEngine, EngineError> {
        if workers == 0 {
            return Err(EngineError::NoWorkers);
        }
        let mut pool = Vec::with_capacity(workers);
        for _ in 1..workers {
            pool.push(self.backend.fork());
        }
        pool.insert(0, self.backend);
        // The parallel engine freezes the graph at the current version:
        // its partition plan cannot absorb later deltas, so it takes a
        // snapshot (dataset + version + any cache entry for exactly
        // this version) and serves it immutably. The hot-vertex cache
        // stays attached to the *shared* family state, so forks and
        // later conversions reuse (and a family delta invalidates) it.
        let epoch = self.shared.epoch();
        let full_graph_cache = (self.shared.cache.lock().expect("cache lock").state.as_ref())
            .filter(|state| state.version == epoch.version)
            .map(StageState::output);
        let compressed = CompressedCsr::encode(&epoch.dataset.graph);
        let mut engine = ParallelEngine {
            dataset: Arc::clone(&epoch.dataset),
            graph_version: epoch.version,
            workers: pool,
            model_kind: self.model_kind,
            backend_kind: self.backend_kind,
            fanouts: self.fanouts,
            part_budget_bytes: DEFAULT_PART_BUDGET_BYTES,
            min_shard_rows: DEFAULT_MIN_SHARD_ROWS,
            strategy,
            parts: Vec::new(),
            part_balance: 1.0,
            full_graph_cache,
            hot: Arc::clone(&self.shared.hot),
            hot_flags: Vec::new(),
            hot_cache_bytes: DEFAULT_HOT_CACHE_BYTES,
            compressed,
            weight_bytes: self.weight_bytes,
        };
        engine.replan_parts();
        Ok(engine)
    }
}

/// A partition-parallel serving engine: the same prepared weights as
/// [`Engine`], served by a pool of forked backends over graph parts.
///
/// ```
/// use blockgnn_engine::{BackendKind, EngineBuilder, InferRequest};
/// use blockgnn_gnn::ModelKind;
/// use blockgnn_graph::datasets;
/// use std::sync::Arc;
///
/// let dataset = Arc::new(datasets::cora_like_small(7));
/// let engine = EngineBuilder::new(ModelKind::Gcn, BackendKind::Dense)
///     .hidden_dim(16)
///     .build(dataset)
///     .unwrap();
/// let mut parallel = engine.into_parallel(4).unwrap();
/// let mut session = parallel.session();
/// let response = session.infer(&InferRequest::all_nodes()).unwrap();
/// assert!(response.parts >= 4, "full-graph inference is sharded");
/// ```
pub struct ParallelEngine {
    dataset: Arc<Dataset>,
    /// The graph version frozen at [`Engine::into_parallel`] time,
    /// reported on every response.
    graph_version: u64,
    /// One backend replica per worker; index 0 is the original.
    workers: Vec<Box<dyn ExecutionBackend>>,
    model_kind: ModelKind,
    backend_kind: BackendKind,
    fanouts: (usize, usize),
    part_budget_bytes: usize,
    min_shard_rows: usize,
    /// Cut-placement strategy for the full-graph plan and sampled
    /// sub-universe shards.
    strategy: PartitionStrategy,
    /// The full graph's partition plan, computed once (the graph and the
    /// budget are fixed for the engine's lifetime).
    parts: Vec<GraphPart>,
    /// Load-balance factor of `parts` (max part work / mean part work).
    part_balance: f64,
    full_graph_cache: Option<BackendOutput>,
    /// Family-shared hot-vertex aggregation cache (see module docs).
    hot: Arc<HotVertexCache>,
    /// `hot_flags[v]`: whether node `v` qualifies for hot caching (a
    /// top-degree node within the cache byte budget).
    hot_flags: Vec<bool>,
    hot_cache_bytes: usize,
    /// Delta-varint compressed adjacency of the frozen snapshot; the
    /// device-residency layout big graphs are accounted (and shipped) in.
    compressed: CompressedCsr,
    /// Packed spectral footprint carried over from the source [`Engine`]
    /// for aggregate residency accounting.
    weight_bytes: usize,
}

impl ParallelEngine {
    /// Number of worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Which of the paper's four algorithms this engine serves.
    #[must_use]
    pub fn model_kind(&self) -> ModelKind {
        self.model_kind
    }

    /// Which execution substrate answers requests.
    #[must_use]
    pub fn backend_kind(&self) -> BackendKind {
        self.backend_kind
    }

    /// The dataset handle requests are resolved against.
    #[must_use]
    pub fn dataset(&self) -> &Arc<Dataset> {
        &self.dataset
    }

    /// The graph version this engine froze at conversion time.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.graph_version
    }

    /// The cut-placement strategy in force.
    #[must_use]
    pub fn strategy(&self) -> PartitionStrategy {
        self.strategy
    }

    /// The frozen snapshot's device-residency footprint under the
    /// §IV-B/§IV-C accounting (packed weight spectra plus the snapshot's
    /// node features at the backend's scalar width) — same contract as
    /// [`Engine::resident_bytes`], constant here since the graph is
    /// immutable.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.weight_bytes
            + self.dataset.num_nodes()
                * self.dataset.feature_dim()
                * self.backend_kind.bytes_per_feature()
    }

    /// What must actually be resident on device at any instant under the
    /// §IV-C *streaming* model: the packed weights, the compressed
    /// adjacency (delta-varint column indices plus a `u32` row table),
    /// and the **largest single part's** feature window (targets + halo
    /// at the backend's scalar width) — parts stream through the feature
    /// buffer one at a time, so the peak is the max, not the sum. This
    /// is the number the ≥10×-pubmed big-graph demo checks against the
    /// §IV-B budget.
    #[must_use]
    pub fn device_resident_bytes(&self) -> usize {
        let width = self.plan_width();
        let bytes = self.backend_kind.bytes_per_feature();
        let peak_part =
            self.parts.iter().map(|p| p.feature_bytes(width, bytes)).max().unwrap_or(0);
        self.weight_bytes + self.compressed.resident_bytes() + peak_part
    }

    /// On-device bytes of the compressed adjacency; compare against
    /// [`blockgnn_graph::CsrGraph::adjacency_bytes`] of the served graph
    /// for the compression win.
    #[must_use]
    pub fn compressed_adjacency_bytes(&self) -> usize {
        self.compressed.resident_bytes()
    }

    /// Partition-parallel engines serve a frozen snapshot: the shard
    /// plan is computed once and cannot absorb mutations, so every
    /// delta is rejected. Route updates to a [`Engine`]-backed worker
    /// pool instead.
    ///
    /// # Errors
    ///
    /// Always [`EngineError::ImmutableGraph`].
    pub fn apply_delta(&self, _delta: &blockgnn_graph::GraphDelta) -> Result<u64, EngineError> {
        Err(EngineError::ImmutableGraph)
    }

    /// The full graph's partition plan: contiguous parts with their
    /// one-hop halos, each within the memory budget.
    #[must_use]
    pub fn parts(&self) -> &[GraphPart] {
        &self.parts
    }

    /// Load-balance factor of the full-graph plan: the maximum part's
    /// work (node cost + degree per node) over the mean part's. `1.0`
    /// is perfect; see [`blockgnn_graph::partition::partition_balance`].
    #[must_use]
    pub fn partition_balance(&self) -> f64 {
        self.part_balance
    }

    /// Overrides the per-part feature-residency budget (bytes) and
    /// re-partitions. See [`DEFAULT_PART_BUDGET_BYTES`] for the default
    /// and the root README for how to choose a value.
    #[must_use]
    pub fn with_part_budget(mut self, budget_bytes: usize) -> Self {
        self.part_budget_bytes = budget_bytes;
        self.replan_parts();
        self
    }

    /// Overrides the cut-placement strategy and re-partitions.
    #[must_use]
    pub fn with_strategy(mut self, strategy: PartitionStrategy) -> Self {
        self.strategy = strategy;
        self.replan_parts();
        self
    }

    /// Overrides the sampled-request sharding threshold (unique target
    /// nodes); see [`DEFAULT_MIN_SHARD_ROWS`].
    #[must_use]
    pub fn with_min_shard_rows(mut self, min_rows: usize) -> Self {
        self.min_shard_rows = min_rows;
        self
    }

    /// Overrides the hot-vertex cache byte budget (0 disables the cache)
    /// and recomputes which vertices qualify. See
    /// [`DEFAULT_HOT_CACHE_BYTES`].
    #[must_use]
    pub fn with_hot_cache_bytes(mut self, bytes: usize) -> Self {
        self.hot_cache_bytes = bytes;
        self.recompute_hot_flags();
        self
    }

    /// Drops the full-graph logits cache so the next full-graph request
    /// recomputes (benchmarking hook, like
    /// [`Engine::clear_full_graph_cache`]). The hot-vertex cache is
    /// deliberately left warm — it models steady-state serving, and
    /// [`ParallelEngine::clear_hot_cache`] exists for cold-start
    /// measurements.
    pub fn clear_full_graph_cache(&mut self) {
        self.full_graph_cache = None;
    }

    /// Drops every hot-vertex row (family-wide — the cache is shared).
    pub fn clear_hot_cache(&mut self) {
        self.hot.invalidate_to(self.graph_version);
    }

    /// Rows currently held by the family's hot-vertex cache, across all
    /// stages (introspection hook).
    #[must_use]
    pub fn hot_cached_rows(&self) -> usize {
        self.hot.cached_rows()
    }

    /// Opens a serving session.
    #[must_use]
    pub fn session(&mut self) -> ParallelSession<'_> {
        ParallelSession { engine: self, stats: ServeStats::default() }
    }

    /// Recomputes the full-graph partition plan (see
    /// [`ParallelEngine::plan_parts`]) and the hot-vertex flags.
    fn replan_parts(&mut self) {
        self.parts = self.plan_parts(&self.dataset.graph);
        self.part_balance =
            partition_balance(&self.dataset.graph, &self.parts, self.plan_width());
        self.recompute_hot_flags();
    }

    /// The widest row any inference stage materializes (stage outputs
    /// can be wider than the input features, e.g. G-GCN's `[p ‖ q ‖ h]`
    /// transform rows) — the per-node width residency planning uses.
    fn plan_width(&self) -> usize {
        let feature_dim = self.dataset.feature_dim();
        let backend = &self.workers[0];
        (0..backend.num_stages())
            .map(|s| backend.stage_width(s, feature_dim))
            .max()
            .unwrap_or(feature_dim)
            .max(feature_dim)
    }

    /// Marks the top-degree vertices whose cached stage rows fit the
    /// byte budget. Rows are host-side f64 (8 B/scalar) across every
    /// stage width; ties broken by node id for determinism.
    fn recompute_hot_flags(&mut self) {
        let n = self.dataset.num_nodes();
        self.hot_flags = vec![false; n];
        if self.hot_cache_bytes == 0 || n == 0 {
            return;
        }
        let feature_dim = self.dataset.feature_dim();
        let backend = &self.workers[0];
        let per_node_bytes: usize =
            (0..backend.num_stages()).map(|s| backend.stage_width(s, feature_dim) * 8).sum();
        if per_node_bytes == 0 {
            return;
        }
        let graph = &self.dataset.graph;
        let mut by_degree: Vec<u32> = (0..n as u32).collect();
        by_degree.sort_by_key(|&v| (std::cmp::Reverse(graph.degree(v as usize)), v));
        let capacity = self.hot_cache_bytes / per_node_bytes;
        for &v in by_degree.iter().take(capacity) {
            self.hot_flags[v as usize] = true;
        }
    }

    /// Plans a partition of `graph`: a split (cuts placed by the
    /// engine's [`PartitionStrategy`]) with at least one part per worker
    /// whose parts all fit the memory budget. The resident width is
    /// [`ParallelEngine::plan_width`]. Applied to the full graph at
    /// construction and to each sharded sampled sub-universe — a
    /// per-request cost, so `k` is found by geometric escalation from
    /// the halo-free pigeonhole bound (a bounded number of partition
    /// passes) rather than the exact-smallest-`k` linear scan of
    /// [`blockgnn_graph::partition::parts_needed_for_budget`]; budget
    /// fit, not minimality, is what the serving path needs.
    fn plan_parts(&self, graph: &CsrGraph) -> Vec<GraphPart> {
        let n = graph.num_nodes().max(1);
        let width = self.plan_width();
        let bytes = self.backend_kind.bytes_per_feature();
        let per_node = width * bytes;
        let budget = self.part_budget_bytes;
        // No k below the halo-free pigeonhole bound can fit.
        let floor = if budget == 0 {
            n
        } else if per_node == 0 {
            1
        } else {
            (n * per_node).div_ceil(budget).clamp(1, n)
        };
        let mut k = self.workers.len().max(floor).min(n);
        loop {
            let parts = self.strategy.partition(graph, k, width);
            // An impossible budget degrades to single-node parts (k = n)
            // rather than refusing to serve: the budget steers, the
            // engine still answers.
            if k >= n || parts.iter().all(|p| p.feature_bytes(width, bytes) <= budget) {
                return parts;
            }
            k = (k + k / 2 + 1).min(n);
        }
    }

    /// Resolves and executes one request, returning the raw
    /// [`ExecOutcome`] without response assembly (the parallel
    /// counterpart of [`Engine::execute_request`], and the entry point
    /// the serving runtime uses when fronting a partition-parallel
    /// engine).
    ///
    /// # Errors
    ///
    /// [`EngineError::NodeOutOfRange`] for invalid node ids;
    /// [`EngineError::EmptyRequest`] for sampled requests with no nodes.
    pub fn execute_request(
        &mut self,
        request: &InferRequest,
    ) -> Result<ExecOutcome, EngineError> {
        let (logits, sim, energy_joules, from_cache, parts, hot_rows) =
            self.run_request(request)?;
        Ok(ExecOutcome {
            logits,
            sim,
            energy_joules,
            from_cache,
            parts,
            batch_size: 1,
            graph_version: self.graph_version,
            hot_rows,
        })
    }

    /// Resolves and executes one request (the parallel counterpart of
    /// the sequential engine's request runner).
    #[allow(clippy::type_complexity)]
    fn run_request(
        &mut self,
        request: &InferRequest,
    ) -> Result<(Matrix, Option<SimReport>, Option<f64>, bool, usize, usize), EngineError> {
        crate::request::validate_request(request, self.dataset.num_nodes())?;
        match request.mode {
            RequestMode::FullGraph => {
                let from_cache = self.full_graph_cache.is_some();
                let mut hot_rows = 0usize;
                if !from_cache {
                    let n = self.dataset.num_nodes();
                    let (logits, sim, energy) =
                        if self.workers.len() == 1 && self.parts.len() == 1 {
                            // Degenerate plan: thin sequential wrapper — the
                            // monolithic forward, no staging, no threads.
                            let shape = RequestShape { target_nodes: n, fanouts: self.fanouts };
                            let out = self.workers[0].execute(
                                &self.dataset.graph,
                                &self.dataset.features,
                                shape,
                            );
                            (out.logits, out.sim, out.energy_joules)
                        } else {
                            let hot_ctx = HotContext {
                                cache: &self.hot,
                                version: self.graph_version,
                                flags: &self.hot_flags,
                            };
                            let run = run_staged(
                                &mut self.workers,
                                &self.dataset.graph,
                                &self.dataset.features,
                                &self.parts,
                                Some(&hot_ctx),
                            );
                            hot_rows = run.hot_rows;
                            // Rows served from the hot cache cost the
                            // hardware nothing (same contract as logits-cache
                            // hits): only computed targets are charged.
                            let (sim, energy) = merge_part_charges(
                                self.workers[0].as_ref(),
                                self.dataset.graph.num_arcs(),
                                self.dataset.feature_dim(),
                                self.dataset.num_classes,
                                self.fanouts,
                                run.computed_per_part.into_iter(),
                            );
                            (run.logits, sim, energy)
                        };
                    self.full_graph_cache =
                        Some(BackendOutput { logits, sim, energy_joules: energy });
                }
                let cached = self.full_graph_cache.as_ref().expect("just populated");
                let logits = crate::request::full_graph_rows(&cached.logits, &request.nodes);
                // Cache hits cost the hardware nothing (and executed no
                // parts), exactly as in the sequential engine.
                let (sim, energy, parts) = if from_cache {
                    (None, None, 0)
                } else {
                    (cached.sim.clone(), cached.energy_joules, self.parts.len())
                };
                Ok((logits, sim, energy, from_cache, parts, hot_rows))
            }
            RequestMode::Sampled { s1, s2, seed } => {
                let sub =
                    SampledSubgraph::build(&self.dataset.graph, &request.nodes, s1, s2, seed);
                let local_features = sub.gather_features(&self.dataset.features);
                let shape = RequestShape { target_nodes: sub.batch_len, fanouts: (s1, s2) };
                let (full, sim, energy, parts) =
                    if sub.batch_len < self.min_shard_rows || self.workers.len() == 1 {
                        // Micro-batch: one worker runs the whole sub-universe.
                        let out = self.workers[0].execute(&sub.graph, &local_features, shape);
                        (out.logits, out.sim, out.energy_joules, 1)
                    } else {
                        // Large batch: shard the sub-universe's rows under
                        // the same worker-count + memory-budget plan as the
                        // full graph. The hot-vertex cache does NOT apply —
                        // sub-universe stage inputs depend on the batch's
                        // sampled edges, not the canonical full-graph
                        // features. Targets occupy the local prefix
                        // `0..batch_len`, so a part's charged target count
                        // is its overlap with that prefix (halo-ring rows
                        // cost the hardware nothing — the per-node cycle
                        // model already prices each target's full two-hop
                        // aggregation).
                        let sub_parts = self.plan_parts(&sub.graph);
                        let run = run_staged(
                            &mut self.workers,
                            &sub.graph,
                            &local_features,
                            &sub_parts,
                            None,
                        );
                        let part_targets = sub_parts.iter().map(|p| {
                            p.nodes.iter().filter(|&&v| (v as usize) < sub.batch_len).count()
                        });
                        let (sim, energy) = merge_part_charges(
                            self.workers[0].as_ref(),
                            sub.graph.num_arcs(),
                            local_features.cols(),
                            self.dataset.num_classes,
                            (s1, s2),
                            part_targets,
                        );
                        let k = sub_parts.len();
                        (run.logits, sim, energy, k)
                    };
                let logits = crate::request::sampled_rows(&full, &sub, &request.nodes);
                Ok((logits, sim, energy, false, parts, 0))
            }
        }
    }
}

impl std::fmt::Debug for ParallelEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelEngine")
            .field("model", &self.model_kind)
            .field("backend", &self.backend_kind)
            .field("dataset", &self.dataset.name)
            .field("graph_version", &self.graph_version)
            .field("workers", &self.workers.len())
            .field("strategy", &self.strategy)
            .field("parts", &self.parts.len())
            .field("part_balance", &self.part_balance)
            .field("full_graph_cached", &self.full_graph_cache.is_some())
            .field("hot_cached_rows", &self.hot.cached_rows())
            .finish()
    }
}

/// Hot-vertex cache wiring for one staged run (full-graph path only).
struct HotContext<'a> {
    cache: &'a HotVertexCache,
    version: u64,
    flags: &'a [bool],
}

/// Result of one staged execution.
struct StagedRun {
    logits: Matrix,
    /// Row-copies served from the hot-vertex cache, summed over stages.
    hot_rows: usize,
    /// Per part, how many of its target nodes were computed in at least
    /// one stage (the hardware-charged count; fully-cached nodes are 0).
    computed_per_part: Vec<usize>,
}

/// Executes the model's inference stages over `parts`, fanning each
/// stage's parts out to the worker pool and merging the output rows
/// (row-aligned by global node id) before the next stage starts. With a
/// [`HotContext`], rows of flagged vertices whose cached stage output
/// matches the graph version are copied instead of computed, and freshly
/// computed flagged rows are published back — bit-identical either way,
/// because cached rows were produced by the very same `execute_stage`
/// over the same canonical inputs.
///
/// Degenerate plans skip the thread pool entirely: one part (nothing to
/// fan out) or one worker (nothing to fan out *to*) runs inline on the
/// caller thread, paying neither spawn nor merge-barrier overhead.
fn run_staged(
    workers: &mut [Box<dyn ExecutionBackend>],
    graph: &CsrGraph,
    features: &Matrix,
    parts: &[GraphPart],
    hot: Option<&HotContext>,
) -> StagedRun {
    let n = graph.num_nodes();
    let num_workers = workers.len();
    let num_stages = workers[0].num_stages();
    let feature_dim = features.cols();
    let inline = parts.len() == 1 || num_workers == 1;
    let mut merged: Option<Matrix> = None;
    let mut hot_rows = 0usize;
    let mut computed_any = vec![false; n];
    for stage in 0..num_stages {
        let width = workers[0].stage_width(stage, feature_dim);
        let snapshot = hot.map(|h| h.cache.stage_snapshot(h.version, num_stages, stage));
        let input: &Matrix = merged.as_ref().unwrap_or(features);
        let mut out = Matrix::zeros(n, width);
        // Split every part's targets into cache hits and compute rows;
        // copy the hits up front (they only depend on the cache, not on
        // this stage's compute).
        let mut compute_rows: Vec<Vec<u32>> = Vec::with_capacity(parts.len());
        for part in parts {
            let mut compute = Vec::with_capacity(part.nodes.len());
            for &v in &part.nodes {
                let cached = hot.zip(snapshot.as_ref()).and_then(|(h, snap)| {
                    if h.flags[v as usize] {
                        snap.get(&v).filter(|row| row.len() == width)
                    } else {
                        None
                    }
                });
                match cached {
                    Some(row) => {
                        out.row_mut(v as usize).copy_from_slice(row);
                        hot_rows += 1;
                    }
                    None => compute.push(v),
                }
            }
            compute_rows.push(compute);
        }
        if inline {
            let backend = &mut workers[0];
            backend.prepare_graph(graph);
            for rows in &compute_rows {
                if rows.is_empty() {
                    continue;
                }
                let result = backend.execute_stage(stage, graph, input, rows);
                for (i, &v) in rows.iter().enumerate() {
                    out.row_mut(v as usize).copy_from_slice(result.row(i));
                }
            }
        } else {
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(num_workers);
                for (w, backend) in workers.iter_mut().enumerate() {
                    // Round-robin assignment: degree-balanced parts are
                    // near-equal in work, so stride-W interleaving
                    // balances the load.
                    let assigned: Vec<&Vec<u32>> =
                        compute_rows.iter().skip(w).step_by(num_workers).collect();
                    if assigned.iter().all(|rows| rows.is_empty()) {
                        continue;
                    }
                    handles.push(scope.spawn(move || {
                        // Per-graph precomputation happens inside the
                        // worker (in parallel, not serially on the caller
                        // thread); it is idempotent, so later stages hit
                        // a warm cache.
                        backend.prepare_graph(graph);
                        assigned
                            .into_iter()
                            .filter(|rows| !rows.is_empty())
                            .map(|rows| {
                                (rows, backend.execute_stage(stage, graph, input, rows))
                            })
                            .collect::<Vec<_>>()
                    }));
                }
                for handle in handles {
                    for (rows, result) in handle.join().expect("worker thread panicked") {
                        for (i, &v) in rows.iter().enumerate() {
                            out.row_mut(v as usize).copy_from_slice(result.row(i));
                        }
                    }
                }
            });
        }
        // Publish freshly computed rows of flagged vertices for the next
        // request (one lock per stage), and record who was computed for
        // the hardware charge.
        let mut publish: Vec<(u32, Vec<f64>)> = Vec::new();
        for rows in &compute_rows {
            for &v in rows {
                computed_any[v as usize] = true;
                if hot.is_some_and(|h| h.flags[v as usize]) {
                    publish.push((v, out.row(v as usize).to_vec()));
                }
            }
        }
        if let Some(h) = hot {
            h.cache.publish(h.version, num_stages, stage, publish);
        }
        merged = Some(out);
    }
    let computed_per_part = parts
        .iter()
        .map(|p| p.nodes.iter().filter(|&&v| computed_any[v as usize]).count())
        .collect();
    StagedRun {
        logits: merged.expect("models have at least one stage"),
        hot_rows,
        computed_per_part,
    }
}

/// Charges each part's target nodes on the hardware model and merges
/// the reports (§IV-C: sub-graphs run in sequence on one accelerator,
/// so cycles and energy sum). `None`/`None` for software backends.
fn merge_part_charges(
    backend: &dyn ExecutionBackend,
    num_arcs: usize,
    feature_dim: usize,
    num_classes: usize,
    fanouts: (usize, usize),
    part_targets: impl Iterator<Item = usize>,
) -> (Option<SimReport>, Option<f64>) {
    let mut reports = Vec::new();
    let mut energy_total = 0.0;
    for targets in part_targets.filter(|&t| t > 0) {
        let shape = RequestShape { target_nodes: targets, fanouts };
        match backend.charge(num_arcs, feature_dim, num_classes, shape) {
            Some((sim, energy)) => {
                reports.push(sim);
                energy_total += energy;
            }
            None => return (None, None),
        }
    }
    match SimReport::merge(reports) {
        Some(merged) => (Some(merged), Some(energy_total)),
        None => (None, None),
    }
}

/// A serving session over a [`ParallelEngine`]: same request/response
/// contract as [`crate::Session`], with partition-parallel execution
/// underneath.
#[derive(Debug)]
pub struct ParallelSession<'e> {
    engine: &'e mut ParallelEngine,
    stats: ServeStats,
}

impl ParallelSession<'_> {
    /// Answers one request.
    ///
    /// # Errors
    ///
    /// [`EngineError::NodeOutOfRange`] for invalid node ids;
    /// [`EngineError::EmptyRequest`] for sampled requests with no nodes.
    pub fn infer(&mut self, request: &InferRequest) -> Result<InferResponse, EngineError> {
        let start = Instant::now();
        let outcome = self.engine.execute_request(request)?;
        let compute_time = start.elapsed();
        // Direct sessions never queue: the whole latency is compute.
        Ok(crate::request::assemble_response(
            outcome,
            Duration::ZERO,
            compute_time,
            &mut self.stats,
        ))
    }

    /// Answers a batch of requests in order, stopping at the first error.
    ///
    /// # Errors
    ///
    /// Propagates the first [`EngineError`] encountered.
    pub fn infer_batch(
        &mut self,
        requests: &[InferRequest],
    ) -> Result<Vec<InferResponse>, EngineError> {
        requests.iter().map(|r| self.infer(r)).collect()
    }

    /// The statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// The engine this session serves from.
    #[must_use]
    pub fn engine(&self) -> &ParallelEngine {
        self.engine
    }

    /// Closes the session, returning its statistics.
    #[must_use]
    pub fn finish(self) -> ServeStats {
        self.stats
    }
}
