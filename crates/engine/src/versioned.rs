//! Versioned graph state shared by an engine and all of its forks: the
//! mutation side of the serving stack.
//!
//! An [`crate::Engine`] family (the original plus every
//! [`crate::Engine::fork`]) serves from one [`SharedGraphState`]:
//!
//! * `current` holds the **epoch** — an `Arc` of the immutable dataset
//!   snapshot plus its version. Workers resolve it once per micro-batch
//!   and keep their `Arc` for the whole batch, so an update lands
//!   *between* batches, never inside one.
//! * `master` is the lazily built mutable copy
//!   ([`blockgnn_graph::VersionedGraph`]) deltas apply to. Engines that
//!   never mutate never pay for it.
//! * `cache` is the full-graph cache ([`FullGraphCache`]): every model
//!   stage's output matrix at the last computed version, plus the
//!   [`Footprint`] of each version published after it. A read at the
//!   cached version is a hit; a read at a newer version **patches** the
//!   cached stages forward, recomputing only the rows the footprints in
//!   between can reach ([`dirty_rows`]); a read at an older version (a
//!   batch still draining) runs its own full pass and leaves the newer
//!   state alone. Every row is recomputed by the same stage kernel a
//!   full pass uses, so a patched state is bit-identical to a fresh
//!   one. (Per-graph model caches — GCN's `Â` normalization,
//!   sampled-subgraph interning — key on
//!   [`blockgnn_graph::CsrGraph::instance_id`], and every applied delta
//!   produces a graph with a fresh id, so they are version-safe by
//!   construction.)
//! * `residency` re-runs the §IV-B/§IV-C feature-residency check when a
//!   delta grows the node count: the grown graph's resident features
//!   (plus the model's packed weight spectra) must still fit the
//!   configured device-memory budget, or the delta is rejected with
//!   [`EngineError::GraphBudget`] before anything mutates.

use crate::backend::{BackendOutput, ExecutionBackend, RequestShape};
use crate::error::EngineError;
use blockgnn_accel::SimReport;
use blockgnn_gnn::StageHalo;
use blockgnn_graph::{CsrGraph, Dataset, GraphDelta, VersionedGraph};
use blockgnn_linalg::Matrix;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Version-keyed cache of per-stage aggregated feature rows for
/// high-degree hub vertices, shared across an engine family like the
/// full-graph cache.
///
/// Staged full-graph execution recomputes every hub's aggregation on
/// every request even though hub rows dominate the work on power-law
/// graphs. This cache keeps the computed stage outputs of a bounded set
/// of hot vertices; a staged run copies cached rows instead of
/// re-aggregating them. Correctness rests on two facts: (1) a stage
/// row's value is a pure function of (graph version, stage, input
/// matrix), and full-graph stage inputs are canonical (stage 0 reads the
/// dataset features, stage `s` reads the full merged stage `s − 1`
/// output); (2) entries are **version-keyed with strict invalidation** —
/// [`HotVertexCache::invalidate_to`] runs inside `apply_delta` before
/// the new epoch is published, and a publish from an engine still
/// holding a stale version is rejected, so a delta can never see or
/// leave stale rows.
#[derive(Debug, Default)]
pub(crate) struct HotVertexCache {
    inner: Mutex<HotState>,
}

#[derive(Debug, Default)]
struct HotState {
    /// Version the cached rows belong to; `None` until first use.
    version: Option<u64>,
    /// One map per model stage: node id → that node's stage-output row.
    /// `Arc` so staged runs snapshot a stage map without holding the
    /// lock while computing.
    stages: Vec<Arc<HashMap<u32, Vec<f64>>>>,
}

impl HotVertexCache {
    /// Snapshot of the cached rows for `stage` at `version`; empty when
    /// the cache holds a different version (or nothing yet).
    pub fn stage_snapshot(
        &self,
        version: u64,
        num_stages: usize,
        stage: usize,
    ) -> Arc<HashMap<u32, Vec<f64>>> {
        let state = self.inner.lock().expect("hot cache lock");
        if state.version == Some(version) && state.stages.len() == num_stages {
            if let Some(map) = state.stages.get(stage) {
                return Arc::clone(map);
            }
        }
        Arc::new(HashMap::new())
    }

    /// Publishes freshly computed rows for `stage` at `version`. Adopts
    /// the version when the cache is empty; merges when it matches;
    /// **rejects silently** when it differs — an engine that resolved an
    /// older epoch (a delta landed mid-run) must not poison the cache,
    /// and the invalidated cache must not resurrect pre-delta rows.
    pub fn publish(
        &self,
        version: u64,
        num_stages: usize,
        stage: usize,
        rows: Vec<(u32, Vec<f64>)>,
    ) {
        if rows.is_empty() {
            return;
        }
        let mut state = self.inner.lock().expect("hot cache lock");
        match state.version {
            None => {
                state.version = Some(version);
                state.stages = (0..num_stages).map(|_| Arc::new(HashMap::new())).collect();
            }
            Some(v) if v == version => {
                if state.stages.len() != num_stages {
                    state.stages = (0..num_stages).map(|_| Arc::new(HashMap::new())).collect();
                }
            }
            Some(_) => return,
        }
        let Some(slot) = state.stages.get_mut(stage) else {
            return;
        };
        let map = Arc::make_mut(slot);
        for (node, row) in rows {
            map.insert(node, row);
        }
    }

    /// Drops every cached row and pins the cache to `new_version`, so a
    /// straggler publish from an engine still computing against the old
    /// version is rejected. Runs inside `apply_delta` before the new
    /// epoch is visible.
    pub fn invalidate_to(&self, new_version: u64) {
        let mut state = self.inner.lock().expect("hot cache lock");
        state.version = Some(new_version);
        state.stages.clear();
    }

    /// Total cached rows across all stages (test/introspection hook).
    pub fn cached_rows(&self) -> usize {
        let state = self.inner.lock().expect("hot cache lock");
        state.stages.iter().map(|m| m.len()).sum()
    }
}

/// What one applied delta changed: the rows a delta-scoped refresh
/// starts from.
#[derive(Debug, Default)]
pub(crate) struct Footprint {
    /// Endpoints of added and removed edges — the rows whose neighbor
    /// lists and degrees changed.
    pub edge_nodes: Vec<u32>,
    /// Rows whose input features changed: `set_feature_row` targets and
    /// appended nodes.
    pub feature_nodes: Vec<u32>,
}

impl Footprint {
    /// The footprint of `delta` applied to a graph of `old_nodes` nodes.
    pub fn of(delta: &GraphDelta, old_nodes: usize) -> Self {
        let id = |v: usize| u32::try_from(v).expect("node ids fit the CSR's u32");
        let edge_nodes = delta
            .add_edges
            .iter()
            .chain(&delta.remove_edges)
            .flat_map(|&(u, v)| [id(u), id(v)])
            .collect();
        let appended = old_nodes..old_nodes + delta.append_nodes.len();
        let feature_nodes =
            delta.set_features.iter().map(|(v, _)| *v).chain(appended).map(id).collect();
        Self { edge_nodes, feature_nodes }
    }
}

/// The rows each model stage must recompute to carry a full-graph result
/// across `footprints`, given each stage's [`StageHalo`] and the **new**
/// graph. Returns one sorted row list per stage.
///
/// A stage's input rows are dirty when the previous stage recomputed
/// them (stage 0: the feature-touched and appended nodes). A `Local`
/// stage recomputes its dirty input rows; a `Neighbors` stage also
/// recomputes `N(dirty)` and the edge endpoints, whose neighbor lists
/// changed; `NeighborsAndDegrees` adds `N(endpoints)`, whose neighbors'
/// degrees changed. Served graphs are undirected (the master copy is
/// built undirected), so `N(u)` is exactly the set of rows that read
/// row `u`. Any row outside these sets reads the same inputs at the
/// same degrees as before, so its cached value is still exact.
pub(crate) fn dirty_rows(
    halos: &[StageHalo],
    graph: &CsrGraph,
    footprints: &[&Footprint],
) -> Vec<Vec<u32>> {
    let neighbors_of = |rows: &[u32]| -> Vec<u32> {
        rows.iter().flat_map(|&u| graph.neighbors(u as usize)).copied().collect()
    };
    let touched =
        sorted_unique(footprints.iter().flat_map(|f| &f.edge_nodes).copied().collect());
    let mut dirty =
        sorted_unique(footprints.iter().flat_map(|f| &f.feature_nodes).copied().collect());
    halos
        .iter()
        .map(|&halo| {
            let mut rows = dirty.clone();
            if halo != StageHalo::Local {
                rows.extend(neighbors_of(&dirty));
                rows.extend(&touched);
            }
            if halo == StageHalo::NeighborsAndDegrees {
                rows.extend(neighbors_of(&touched));
            }
            dirty = sorted_unique(rows);
            dirty.clone()
        })
        .collect()
}

fn sorted_unique(mut rows: Vec<u32>) -> Vec<u32> {
    rows.sort_unstable();
    rows.dedup();
    rows
}

/// The full-graph result of one graph version, kept stage by stage so a
/// later version can be patched from it.
#[derive(Debug)]
pub(crate) struct StageState {
    /// The graph version these matrices describe.
    pub version: u64,
    /// Output matrix of every model stage over all nodes; the last one
    /// is the logits.
    pub stages: Vec<Matrix>,
    /// Hardware cost of a full pass over this version (simulating
    /// backends only).
    pub sim: Option<SimReport>,
    /// Energy of that full pass in joules (simulating backends only).
    pub energy_joules: Option<f64>,
}

impl StageState {
    /// A full staged pass over `dataset` — the chain of
    /// [`ExecutionBackend::execute_stage`] over all rows, bit-identical
    /// to [`ExecutionBackend::execute`].
    pub fn compute(
        backend: &mut dyn ExecutionBackend,
        dataset: &Dataset,
        version: u64,
        fanouts: (usize, usize),
    ) -> Self {
        let all: Vec<u32> = (0..dataset.num_nodes() as u32).collect();
        backend.prepare_graph(&dataset.graph);
        let mut stages: Vec<Matrix> = Vec::with_capacity(backend.num_stages());
        for stage in 0..backend.num_stages() {
            let input = stages.last().unwrap_or(&dataset.features);
            let output = backend.execute_stage(stage, &dataset.graph, input, &all);
            stages.push(output);
        }
        let mut state = Self { version, stages, sim: None, energy_joules: None };
        state.charge(backend, dataset, fanouts);
        state
    }

    /// Carries this state to `version` of `dataset` by recomputing
    /// `rows[s]` of each stage `s` in place (see [`dirty_rows`]).
    /// Appended nodes grow every matrix; they are in every row list.
    pub fn patch(
        &mut self,
        backend: &mut dyn ExecutionBackend,
        dataset: &Dataset,
        version: u64,
        rows: &[Vec<u32>],
        fanouts: (usize, usize),
    ) {
        backend.prepare_graph(&dataset.graph);
        for (stage, rows) in rows.iter().enumerate() {
            let (done, rest) = self.stages.split_at_mut(stage);
            let output = &mut rest[0];
            grow_rows(output, dataset.num_nodes());
            if rows.is_empty() {
                continue;
            }
            let input = done.last().unwrap_or(&dataset.features);
            let fresh = backend.execute_stage(stage, &dataset.graph, input, rows);
            for (i, &v) in rows.iter().enumerate() {
                output.row_mut(v as usize).copy_from_slice(fresh.row(i));
            }
        }
        self.version = version;
        self.charge(backend, dataset, fanouts);
    }

    /// The logits matrix (the last stage's output).
    pub fn logits(&self) -> &Matrix {
        self.stages.last().expect("every model has at least one stage")
    }

    /// This version's result in the shape [`ExecutionBackend::execute`]
    /// returns.
    pub fn output(&self) -> BackendOutput {
        BackendOutput {
            logits: self.logits().clone(),
            sim: self.sim.clone(),
            energy_joules: self.energy_joules,
        }
    }

    /// Prices a full pass over `dataset` exactly as
    /// [`ExecutionBackend::execute`] does, whatever rows were computed.
    fn charge(
        &mut self,
        backend: &dyn ExecutionBackend,
        dataset: &Dataset,
        fanouts: (usize, usize),
    ) {
        let shape = RequestShape { target_nodes: dataset.num_nodes(), fanouts };
        let cost = backend.charge(
            dataset.graph.num_arcs(),
            dataset.feature_dim(),
            self.logits().cols(),
            shape,
        );
        (self.sim, self.energy_joules) = cost.map_or((None, None), |(s, e)| (Some(s), Some(e)));
    }
}

/// Appends zero rows to `m` up to `rows` rows, keeping the existing ones.
fn grow_rows(m: &mut Matrix, rows: usize) {
    if m.rows() < rows {
        let cols = m.cols();
        let mut data = std::mem::take(m).into_vec();
        data.resize(rows * cols, 0.0);
        *m = Matrix::from_flat(rows, cols, data).expect("length is rows × cols");
    }
}

/// The family-shared full-graph cache: the stage state of the last
/// computed version, and the footprints of the versions published after
/// it.
#[derive(Debug, Default)]
pub(crate) struct FullGraphCache {
    /// The last computed version's stage outputs, if any.
    pub state: Option<StageState>,
    /// `(version, footprint)` of every delta published after `state`'s
    /// version, in version order.
    footprints: Vec<(u64, Footprint)>,
}

impl FullGraphCache {
    /// The cached version, if any.
    pub fn version(&self) -> Option<u64> {
        self.state.as_ref().map(|s| s.version)
    }

    /// Records the footprint of the delta that produced `version`. Runs
    /// before that version is published, so a reader of it always finds
    /// it. With no state there is nothing to patch, so nothing is kept.
    pub fn record(&mut self, version: u64, footprint: Footprint) {
        if self.state.is_some() {
            self.footprints.push((version, footprint));
        }
    }

    /// Brings the state to `version` of `dataset`: patches it when the
    /// footprint of every version in between is known, and otherwise
    /// (no state yet, or a gap) runs a full staged pass.
    pub fn refresh(
        &mut self,
        backend: &mut dyn ExecutionBackend,
        dataset: &Dataset,
        version: u64,
        fanouts: (usize, usize),
    ) {
        let plan = self.version().and_then(|from| {
            let between: Vec<&Footprint> = self
                .footprints
                .iter()
                .filter(|(v, _)| *v > from && *v <= version)
                .map(|(_, f)| f)
                .collect();
            let contiguous = version.checked_sub(from) == Some(between.len() as u64);
            let halos: Vec<StageHalo> =
                (0..backend.num_stages()).map(|s| backend.stage_halo(s)).collect();
            contiguous.then(|| dirty_rows(&halos, &dataset.graph, &between))
        });
        match (plan, self.state.as_mut()) {
            (Some(rows), Some(state)) => state.patch(backend, dataset, version, &rows, fanouts),
            _ => self.state = Some(StageState::compute(backend, dataset, version, fanouts)),
        }
        self.footprints.retain(|(v, _)| *v > version);
    }

    /// Drops the state and every footprint.
    pub fn clear(&mut self) {
        *self = Self::default();
    }
}

/// One immutable serving snapshot: what a micro-batch executes against.
#[derive(Debug)]
pub(crate) struct GraphEpoch {
    /// The frozen dataset of this version.
    pub dataset: Arc<Dataset>,
    /// Monotone version (0 until the first applied delta).
    pub version: u64,
}

/// The §IV-B/§IV-C feature-residency policy re-checked on node growth.
#[derive(Debug, Clone)]
pub(crate) struct ResidencyPolicy {
    /// Packed spectral weight bytes of the served model (resident for
    /// the engine's whole lifetime).
    pub spectral_weight_bytes: usize,
    /// Bytes per feature scalar at the backend's number format.
    pub bytes_per_feature: usize,
    /// Device-memory budget in bytes.
    pub budget_bytes: usize,
}

/// The mutable master copy deltas apply to. Labels of appended nodes
/// get placeholder class 0 — labels drive training, never inference.
#[derive(Debug)]
struct MasterState {
    versioned: VersionedGraph,
    labels: Vec<usize>,
}

/// Versioned graph state shared across an engine family (see the module
/// docs for the field roles).
#[derive(Debug)]
pub(crate) struct SharedGraphState {
    master: Mutex<Option<MasterState>>,
    current: Mutex<Arc<GraphEpoch>>,
    /// Full-graph stage state of the most recently *computed* version,
    /// plus the footprints needed to patch it forward (see
    /// [`FullGraphCache`]); hits require an exact version match.
    pub(crate) cache: Mutex<FullGraphCache>,
    /// Current node count mirrored out of the epoch, so the serving
    /// runtime's per-submission admission check reads an atomic instead
    /// of contending on the epoch lock with every worker.
    node_count: AtomicUsize,
    residency: Option<ResidencyPolicy>,
    /// Hot-vertex aggregation cache shared by every parallel engine of
    /// the family (see [`HotVertexCache`]); invalidated by
    /// [`SharedGraphState::apply_delta`].
    pub(crate) hot: Arc<HotVertexCache>,
}

impl SharedGraphState {
    /// Wraps `dataset` as version 0.
    pub fn new(dataset: Arc<Dataset>, residency: Option<ResidencyPolicy>) -> Self {
        let node_count = AtomicUsize::new(dataset.num_nodes());
        Self {
            master: Mutex::new(None),
            current: Mutex::new(Arc::new(GraphEpoch { dataset, version: 0 })),
            cache: Mutex::new(FullGraphCache::default()),
            node_count,
            residency,
            hot: Arc::new(HotVertexCache::default()),
        }
    }

    /// The current epoch (cheap: one lock + `Arc` clone). Callers hold
    /// the returned `Arc` for a whole micro-batch; updates swap the
    /// slot without disturbing holders.
    pub fn epoch(&self) -> Arc<GraphEpoch> {
        Arc::clone(&self.current.lock().expect("epoch lock"))
    }

    /// The current version.
    pub fn version(&self) -> u64 {
        self.epoch().version
    }

    /// Node count of the current version (lock-free; node counts only
    /// grow, so a marginally stale read can only under-admit a request
    /// that names a node appended microseconds ago — the engine-side
    /// re-validation against the batch's resolved epoch is what
    /// decides).
    pub fn num_nodes(&self) -> usize {
        self.node_count.load(Ordering::Acquire)
    }

    /// Applies one delta atomically and publishes the new epoch,
    /// returning it (callers wanting to describe the post-delta graph —
    /// version, node/arc counts — read them off the returned epoch, a
    /// consistent snapshot even under concurrent further updates).
    /// Deltas serialize on the master lock, so returned versions are
    /// unique and totally ordered; readers see either the old epoch or
    /// the new one, never a mix.
    ///
    /// # Errors
    ///
    /// [`EngineError::Delta`] for invalid deltas;
    /// [`EngineError::GraphBudget`] when growth violates the residency
    /// budget. The served graph is untouched in both cases.
    pub fn apply_delta(&self, delta: &GraphDelta) -> Result<Arc<GraphEpoch>, EngineError> {
        let mut master_slot = self.master.lock().expect("master lock");
        let master = match master_slot.as_mut() {
            Some(master) => master,
            None => {
                // First mutation: materialize the master copy from the
                // current epoch (version 0 by construction — only this
                // method ever bumps it).
                let epoch = self.epoch();
                let versioned = VersionedGraph::new(
                    epoch.dataset.graph.clone(),
                    epoch.dataset.features.clone(),
                    true,
                )
                .expect("dataset graph and features agree on the node count");
                master_slot
                    .insert(MasterState { versioned, labels: epoch.dataset.labels.clone() })
            }
        };
        if let Some(policy) = &self.residency {
            let grown = master.versioned.num_nodes() + delta.append_nodes.len();
            if !delta.append_nodes.is_empty() {
                let needed = policy.spectral_weight_bytes
                    + grown * master.versioned.features().cols() * policy.bytes_per_feature;
                if needed > policy.budget_bytes {
                    return Err(EngineError::GraphBudget {
                        needed,
                        budget: policy.budget_bytes,
                    });
                }
            }
        }
        let old_nodes = master.versioned.num_nodes();
        let version = master.versioned.apply(delta)?;
        master.labels.resize(master.versioned.num_nodes(), 0);
        let template = self.epoch();
        let dataset = Arc::new(Dataset {
            graph: master.versioned.graph().clone(),
            features: master.versioned.features().clone(),
            labels: master.labels.clone(),
            num_classes: template.dataset.num_classes,
            masks: template.dataset.masks.clone(),
            name: template.dataset.name.clone(),
        });
        let epoch = Arc::new(GraphEpoch { dataset, version });
        // Strict invalidation *before* the new epoch is visible: no
        // reader can pair post-delta structure with pre-delta hot rows.
        self.hot.invalidate_to(version);
        // The footprint goes in before the epoch is visible, so the first
        // reader of this version can patch the cached stages forward.
        self.cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .record(version, Footprint::of(delta, old_nodes));
        *self.current.lock().expect("epoch lock") = Arc::clone(&epoch);
        self.node_count.store(epoch.dataset.num_nodes(), Ordering::Release);
        Ok(epoch)
    }
}

/// A cloneable mutation/introspection handle on an engine family's
/// shared graph — what the serving runtime holds to apply updates
/// without owning any engine replica.
///
/// Obtained from [`crate::Engine::graph_handle`]; all clones (and every
/// engine fork) observe the same versions.
#[derive(Debug, Clone)]
pub struct GraphHandle {
    pub(crate) shared: Arc<SharedGraphState>,
}

impl GraphHandle {
    /// Applies one delta atomically (see [`crate::Engine::apply_delta`]),
    /// returning the new version.
    ///
    /// # Errors
    ///
    /// [`EngineError::Delta`] or [`EngineError::GraphBudget`]; the
    /// served graph is untouched on failure.
    pub fn apply_delta(&self, delta: &GraphDelta) -> Result<u64, EngineError> {
        Ok(self.shared.apply_delta(delta)?.version)
    }

    /// Like [`GraphHandle::apply_delta`], but also returns the node and
    /// arc counts of the epoch this delta published — read off that
    /// epoch itself, so the triple stays consistent even when another
    /// update lands immediately after (the serving runtime's `update`
    /// ack must describe version *N*, not whatever is current by the
    /// time the reply is encoded).
    ///
    /// # Errors
    ///
    /// As [`GraphHandle::apply_delta`].
    pub fn apply_delta_acked(
        &self,
        delta: &GraphDelta,
    ) -> Result<(u64, usize, usize), EngineError> {
        let epoch = self.shared.apply_delta(delta)?;
        Ok((epoch.version, epoch.dataset.num_nodes(), epoch.dataset.graph.num_arcs()))
    }

    /// The currently served graph version.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.shared.version()
    }

    /// Node count of the currently served version.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.shared.num_nodes()
    }

    /// Stored arc count of the currently served version.
    #[must_use]
    pub fn num_arcs(&self) -> usize {
        self.shared.epoch().dataset.graph.num_arcs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockgnn_gnn::{build_model, ModelKind};
    use blockgnn_nn::Compression;

    /// The path 0 – 1 – … – 7.
    fn path8() -> CsrGraph {
        let edges: Vec<(usize, usize)> = (0..7).map(|v| (v, v + 1)).collect();
        CsrGraph::from_edges(8, &edges, true).unwrap()
    }

    fn halos(kind: ModelKind) -> Vec<StageHalo> {
        let model = build_model(kind, 4, 4, 2, Compression::Dense, 1).unwrap();
        (0..model.num_stages()).map(|s| model.stage_halo(s)).collect()
    }

    /// The rows each stage recomputes after `delta` on `path8()`.
    fn plan(kind: ModelKind, delta: &GraphDelta) -> Vec<Vec<u32>> {
        let mut versioned = VersionedGraph::new(path8(), Matrix::zeros(8, 4), true).unwrap();
        versioned.apply(delta).unwrap();
        dirty_rows(&halos(kind), versioned.graph(), &[&Footprint::of(delta, 8)])
    }

    #[test]
    fn an_edge_add_recomputes_only_the_rows_it_reaches() {
        // Closing the path into a ring: N(0) = {1, 7}, N(7) = {6, 0}.
        let delta = GraphDelta::new().add_edge(0, 7);
        let ggcn = plan(ModelKind::Ggcn, &delta);
        assert_eq!(ggcn[0], Vec::<u32>::new(), "no feature changed");
        assert_eq!(ggcn[1], vec![0, 7], "the gated sums of the two endpoints");
        assert_eq!(ggcn[2], vec![0, 7], "the node-local transform of those rows");
        assert_eq!(ggcn[3], vec![0, 1, 6, 7], "the endpoints and their neighbours");
        // GCN's Â reads the neighbours' degrees: both endpoints' degrees
        // changed, so their neighbours recompute already in stage 0.
        let gcn = plan(ModelKind::Gcn, &delta);
        assert_eq!(gcn[0], vec![0, 1, 6, 7]);
        assert_eq!(gcn[1], vec![0, 1, 2, 5, 6, 7]);
    }

    #[test]
    fn a_feature_rewrite_spreads_one_hop_per_neighbor_stage() {
        let delta = GraphDelta::new().set_feature_row(3, vec![1.0; 4]);
        let ggcn = plan(ModelKind::Ggcn, &delta);
        assert_eq!(ggcn, vec![vec![3], vec![2, 3, 4], vec![2, 3, 4], vec![1, 2, 3, 4, 5]]);
        let gcn = plan(ModelKind::Gcn, &delta);
        assert_eq!(gcn, vec![vec![2, 3, 4], vec![1, 2, 3, 4, 5]]);
    }

    #[test]
    fn an_appended_node_is_in_every_stage() {
        let delta = GraphDelta::new().append_node(vec![1.0; 4]).add_edge(8, 0);
        let gat = plan(ModelKind::Gat, &delta);
        assert_eq!(gat, vec![vec![8], vec![0, 8], vec![0, 8], vec![0, 1, 8]]);
    }

    #[test]
    fn footprints_are_kept_only_while_there_is_a_state_to_patch() {
        let mut cache = FullGraphCache::default();
        cache.record(1, Footprint::default());
        assert!(cache.footprints.is_empty(), "nothing to patch without a state");
        cache.state =
            Some(StageState { version: 1, stages: Vec::new(), sim: None, energy_joules: None });
        cache.record(2, Footprint::default());
        assert_eq!(cache.footprints.len(), 1);
        cache.clear();
        assert!(cache.state.is_none() && cache.footprints.is_empty());
    }
}
