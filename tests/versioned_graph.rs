//! Differential test harness for streaming graph updates: an
//! incrementally updated graph must be **bit-identical** to a
//! from-scratch rebuild at every version — structurally (CSR splicing
//! vs `from_edges`), functionally (`Session::infer` logits bits), and
//! in hardware accounting (`SimReport` cycles and energy) — for all
//! four `ModelKind`s on all three backends. Plus the never-stale
//! regressions: a cached-then-mutated graph cannot serve stale GCN `Â`
//! normalization, a stale sampled interning, or a stale full-graph
//! logits cache.

use blockgnn::engine::{BackendKind, Engine, EngineBuilder, EngineError, InferRequest};
use blockgnn::gnn::ModelKind;
use blockgnn::graph::delta::{DeltaError, GraphDelta, VersionedGraph};
use blockgnn::graph::generate::Rng64;
use blockgnn::graph::{Dataset, DatasetSpec};
use blockgnn::nn::Compression;
use proptest::prelude::*;
use std::sync::Arc;

const SEED: u64 = 9;
const HIDDEN: usize = 8;
const BLOCK: usize = 4;

fn small_dataset(seed: u64) -> Dataset {
    let spec = DatasetSpec::new("delta-test", 72, 210, 12, 3);
    Dataset::synthesize(&spec, 0.7, 1.0, seed)
}

fn engine_on(kind: ModelKind, backend: BackendKind, dataset: Arc<Dataset>) -> Engine {
    EngineBuilder::new(kind, backend)
        .hidden_dim(HIDDEN)
        .compression(Compression::BlockCirculant { block_size: BLOCK })
        .seed(SEED)
        .build(dataset)
        .expect("engine builds")
}

/// Client-side mirror of the engine's versioned state: the same deltas
/// applied to a [`VersionedGraph`], with labels extended the way the
/// engine extends them (placeholder class 0 for appended nodes).
struct Mirror {
    versioned: VersionedGraph,
    labels: Vec<usize>,
    template: Dataset,
}

impl Mirror {
    fn of(dataset: &Dataset) -> Self {
        Self {
            versioned: VersionedGraph::new(
                dataset.graph.clone(),
                dataset.features.clone(),
                true,
            )
            .expect("dataset is consistent"),
            labels: dataset.labels.clone(),
            template: dataset.clone(),
        }
    }

    fn apply(&mut self, delta: &GraphDelta) {
        self.versioned.apply(delta).expect("mirror applies the same valid delta");
        self.labels.resize(self.versioned.num_nodes(), 0);
    }

    /// The from-scratch rebuild reference dataset at the current
    /// version: adjacency reconstructed by `from_edges` over the
    /// canonical edge list, never by splicing.
    fn rebuilt_dataset(&self) -> Dataset {
        Dataset {
            graph: self.versioned.rebuild(),
            features: self.versioned.features().clone(),
            labels: self.labels.clone(),
            num_classes: self.template.num_classes,
            masks: self.template.masks.clone(),
            name: self.template.name.clone(),
        }
    }
}

/// A random-but-valid delta: adds random edges, removes a live edge,
/// perturbs a feature row, occasionally appends a node. Deterministic
/// in `rng`.
fn random_delta(versioned: &VersionedGraph, rng: &mut Rng64) -> GraphDelta {
    let n = versioned.num_nodes();
    let mut delta = GraphDelta::new();
    for _ in 0..rng.next_below(3) + 1 {
        delta = delta.add_edge(rng.next_below(n), rng.next_below(n));
    }
    if !versioned.edges().is_empty() && rng.next_below(2) == 0 {
        let (u, v) = versioned.edges()[rng.next_below(versioned.edges().len())];
        delta = delta.remove_edge(u, v);
    }
    if rng.next_below(2) == 0 {
        let row = (0..versioned.features().cols()).map(|_| rng.next_normal()).collect();
        delta = delta.set_feature_row(rng.next_below(n), row);
    }
    if rng.next_below(3) == 0 {
        let row = (0..versioned.features().cols()).map(|_| rng.next_normal()).collect();
        delta = delta.append_node(row);
    }
    delta
}

fn assert_logits_bit_identical(
    got: &blockgnn::linalg::Matrix,
    want: &blockgnn::linalg::Matrix,
    what: &str,
) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: logits bits differ");
    }
}

/// Applies `steps` random deltas to an engine and asserts bit-identity
/// (logits, `SimReport` cycles, energy) against a fresh engine on the
/// rebuilt dataset, on full-graph and sampled requests.
fn assert_incremental_matches_rebuild(
    kind: ModelKind,
    backend: BackendKind,
    seed: u64,
    steps: usize,
) {
    let dataset = Arc::new(small_dataset(seed));
    let initial_nodes = dataset.num_nodes();
    let mut engine = engine_on(kind, backend, Arc::clone(&dataset));
    let mut mirror = Mirror::of(&dataset);
    // Warm every cache on version 0 so staleness would be caught below.
    {
        let mut session = engine.session();
        session.infer(&InferRequest::all_nodes()).expect("warmup serves");
    }
    let mut rng = Rng64::new(seed ^ 0xFACE);
    for step in 0..steps {
        let delta = random_delta(&mirror.versioned, &mut rng);
        let version = engine.apply_delta(&delta).expect("valid delta applies");
        assert_eq!(version, step as u64 + 1);
        mirror.apply(&delta);
    }
    // Structural identity of the engine's incrementally spliced graph.
    let served = engine.dataset();
    let rebuilt = mirror.rebuilt_dataset();
    assert_eq!(served.graph, rebuilt.graph, "{kind} {backend}: spliced CSR != rebuilt CSR");
    assert_eq!(
        served.features.linf_distance(&rebuilt.features),
        0.0,
        "{kind} {backend}: features diverged"
    );

    let mut reference = engine_on(kind, backend, Arc::new(rebuilt));
    let a = (seed as usize) % initial_nodes;
    let b = (seed as usize >> 7) % initial_nodes;
    let requests =
        [InferRequest::all_nodes(), InferRequest::sampled(vec![a, b, a], 4, 3, seed % 50)];
    let mut session = engine.session();
    let mut ref_session = reference.session();
    for request in &requests {
        let got = session.infer(request).expect("incremental serves");
        let want = ref_session.infer(request).expect("rebuilt serves");
        let what = format!("{kind} {backend} v{} {request:?}", steps);
        assert_logits_bit_identical(&got.logits, &want.logits, &what);
        assert_eq!(got.predictions, want.predictions, "{what}: predictions");
        assert_eq!(got.sim, want.sim, "{what}: SimReport cycles must match the rebuild");
        assert_eq!(
            got.energy_joules.map(f64::to_bits),
            want.energy_joules.map(f64::to_bits),
            "{what}: energy bits"
        );
        assert_eq!(got.graph_version, steps as u64, "{what}: reported version");
    }
}

#[test]
fn every_model_and_backend_survives_a_delta() {
    // Deterministic exhaustive sweep: one delta step on every
    // ModelKind × BackendKind combination (the proptest below samples
    // the same space with random delta sequences).
    for kind in ModelKind::all() {
        for backend in BackendKind::all() {
            assert_incremental_matches_rebuild(kind, backend, 3, 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    // The acceptance gate: ≥64 random cases of incremental-vs-rebuild
    // bit-identity across all 4 models × 3 backends, with 1–3 chained
    // delta steps per case.
    #[test]
    fn prop_incremental_engine_bit_identical_to_rebuilt(
        combo in 0usize..12,
        seed in 0u64..10_000,
        steps in 1usize..4,
    ) {
        let kind = ModelKind::all()[combo / 3];
        let backend = BackendKind::all()[combo % 3];
        assert_incremental_matches_rebuild(kind, backend, seed, steps);
    }
}

/// One delta of a mixed stream: always the operation `step % 4` picks
/// (edge add, edge removal, feature-row rewrite, or an appended node
/// wired to an existing one), plus a random extra edge half the time.
fn mixed_delta(versioned: &VersionedGraph, rng: &mut Rng64, step: usize) -> GraphDelta {
    let n = versioned.num_nodes();
    let row =
        |rng: &mut Rng64| (0..versioned.features().cols()).map(|_| rng.next_normal()).collect();
    let mut delta = match step % 4 {
        0 => GraphDelta::new().add_edge(rng.next_below(n), rng.next_below(n)),
        1 => {
            let (u, v) = versioned.edges()[rng.next_below(versioned.edges().len())];
            GraphDelta::new().remove_edge(u, v)
        }
        2 => GraphDelta::new().set_feature_row(rng.next_below(n), row(rng)),
        _ => GraphDelta::new().append_node(row(rng)).add_edge(n, rng.next_below(n)),
    };
    if rng.next_below(2) == 0 {
        delta = delta.add_edge(rng.next_below(n), rng.next_below(n));
    }
    delta
}

/// Delta-scoped refresh differential: an engine that patches its cached
/// full-graph stages forward across a seeded stream of mixed deltas must
/// answer every full-graph read — after each delta, and after gaps of
/// 2–3 deltas — bit-identically (logits, `SimReport` cycles, energy) to
/// a fresh engine built on the from-scratch rebuild of that version.
#[test]
fn patched_full_graph_reads_match_a_fresh_engine_on_every_model_and_backend() {
    for kind in ModelKind::all() {
        for backend in BackendKind::all() {
            let dataset = Arc::new(small_dataset(88));
            let mut engine = engine_on(kind, backend, Arc::clone(&dataset));
            let mut mirror = Mirror::of(&dataset);
            let mut rng = Rng64::new(0x5EED);
            engine.session().infer(&InferRequest::all_nodes()).expect("version 0 serves");
            // Read after each of the first 4 deltas, then every 2–3.
            let mut step = 0;
            for gap in [1, 1, 1, 1, 2, 3, 2, 3, 3, 2] {
                for _ in 0..gap {
                    let delta = mixed_delta(&mirror.versioned, &mut rng, step);
                    engine.apply_delta(&delta).expect("valid delta applies");
                    mirror.apply(&delta);
                    step += 1;
                }
                let what = format!("{kind} {backend} v{step}");
                let got = engine.session().infer(&InferRequest::all_nodes()).expect("serves");
                let mut fresh = engine_on(kind, backend, Arc::new(mirror.rebuilt_dataset()));
                let want = fresh.session().infer(&InferRequest::all_nodes()).expect("serves");
                assert!(!got.from_cache, "{what}: a new version is computed, not a hit");
                assert_eq!(got.graph_version, step as u64, "{what}: version");
                assert_logits_bit_identical(&got.logits, &want.logits, &what);
                assert_eq!(got.sim, want.sim, "{what}: SimReport cycles");
                assert_eq!(
                    got.energy_joules.map(f64::to_bits),
                    want.energy_joules.map(f64::to_bits),
                    "{what}: energy bits"
                );
            }
        }
    }
}

#[test]
fn stale_gcn_normalization_cannot_survive_mutation() {
    // Satellite regression: GCN caches its Â normalization keyed on the
    // graph's instance id, and the engine caches full-graph logits
    // keyed on the version. Serve → mutate → serve must produce the
    // rebuilt answer, not any cached one.
    let dataset = Arc::new(small_dataset(21));
    let mut engine = engine_on(ModelKind::Gcn, BackendKind::Dense, Arc::clone(&dataset));
    let before = {
        let mut session = engine.session();
        let first = session.infer(&InferRequest::all_nodes()).expect("serves");
        assert!(!first.from_cache);
        assert_eq!(first.graph_version, 0);
        let repeat = session.infer(&InferRequest::all_nodes()).expect("serves");
        assert!(repeat.from_cache, "version-keyed cache answers repeats within a version");
        first
    };
    // Rewire heavily: hang 10 fresh edges off node 0 and drop one
    // existing edge, changing many degrees (and thus Â).
    let mut delta = GraphDelta::new();
    for v in 30..40 {
        delta = delta.add_edge(0, v);
    }
    let mut mirror = Mirror::of(&dataset);
    let (u, v) = mirror.versioned.edges()[0];
    delta = delta.remove_edge(u, v);
    engine.apply_delta(&delta).expect("applies");
    mirror.apply(&delta);

    let after = {
        let mut session = engine.session();
        session.infer(&InferRequest::all_nodes()).expect("serves")
    };
    assert!(!after.from_cache, "a bumped version must recompute, never hit the old cache");
    assert_eq!(after.graph_version, 1);
    assert_ne!(
        before.logits.linf_distance(&after.logits),
        0.0,
        "rewiring must actually change the logits for this regression to bite"
    );
    let mut reference =
        engine_on(ModelKind::Gcn, BackendKind::Dense, Arc::new(mirror.rebuilt_dataset()));
    let want = reference.session().infer(&InferRequest::all_nodes()).expect("serves");
    assert_logits_bit_identical(&after.logits, &want.logits, "post-delta full graph");
}

#[test]
fn stale_sampled_interning_cannot_survive_mutation() {
    // Same regression through the sampled path: the interning table and
    // sampled adjacency are rebuilt per request from the *current*
    // version's graph, so the same (nodes, fanouts, seed) request must
    // track the mutated adjacency exactly.
    let dataset = Arc::new(small_dataset(33));
    let mut engine = engine_on(ModelKind::GsPool, BackendKind::Spectral, Arc::clone(&dataset));
    let request = InferRequest::sampled(vec![5, 17, 5], 6, 4, 11);
    let before = engine.session().infer(&request).expect("serves");
    let mut delta = GraphDelta::new();
    for v in 50..60 {
        delta = delta.add_edge(5, v).add_edge(17, v);
    }
    let mut mirror = Mirror::of(&dataset);
    engine.apply_delta(&delta).expect("applies");
    mirror.apply(&delta);
    let after = engine.session().infer(&request).expect("serves");
    assert_ne!(
        before.logits.linf_distance(&after.logits),
        0.0,
        "densifying both targets' neighborhoods must change sampled logits"
    );
    let mut reference =
        engine_on(ModelKind::GsPool, BackendKind::Spectral, Arc::new(mirror.rebuilt_dataset()));
    let want = reference.session().infer(&request).expect("serves");
    assert_logits_bit_identical(&after.logits, &want.logits, "post-delta sampled");
    assert_eq!(after.predictions, want.predictions);
}

#[test]
fn forks_observe_updates_and_share_the_version_keyed_cache() {
    let dataset = Arc::new(small_dataset(40));
    let mut engine = engine_on(ModelKind::Gcn, BackendKind::Dense, Arc::clone(&dataset));
    let mut fork = engine.fork();
    engine.session().infer(&InferRequest::all_nodes()).expect("serves");
    // The fork hits the shared cache on the same version...
    let hit = fork.session().infer(&InferRequest::all_nodes()).expect("serves");
    assert!(hit.from_cache);
    // ...and observes the new version after a delta applied via the
    // *original* engine's handle.
    let handle = engine.graph_handle();
    let version = handle
        .apply_delta(&GraphDelta::new().add_edge(1, 60).add_edge(2, 61))
        .expect("applies");
    assert_eq!(version, 1);
    assert_eq!(fork.version(), 1);
    let fresh = fork.session().infer(&InferRequest::all_nodes()).expect("serves");
    assert!(!fresh.from_cache, "fork must recompute on the new version");
    assert_eq!(fresh.graph_version, 1);
    // And the original engine now hits the fork's freshly keyed entry.
    let hit = engine.session().infer(&InferRequest::all_nodes()).expect("serves");
    assert!(hit.from_cache);
    assert_eq!(hit.graph_version, 1);
}

#[test]
fn rejected_deltas_leave_the_version_and_graph_untouched() {
    let dataset = Arc::new(small_dataset(50));
    let engine = engine_on(ModelKind::Gcn, BackendKind::Dense, Arc::clone(&dataset));
    let n = dataset.num_nodes();
    assert_eq!(
        engine.apply_delta(&GraphDelta::new()),
        Err(EngineError::Delta(DeltaError::EmptyDelta))
    );
    assert_eq!(
        engine.apply_delta(&GraphDelta::new().add_edge(0, n + 5)),
        Err(EngineError::Delta(DeltaError::NodeOutOfRange { node: n + 5, num_nodes: n }))
    );
    assert!(matches!(
        engine.apply_delta(&GraphDelta::new().remove_edge(0, 0)),
        Err(EngineError::Delta(DeltaError::MissingEdge { .. }))
    ));
    assert_eq!(engine.version(), 0, "failed deltas must not bump the version");
    assert_eq!(engine.dataset().graph, dataset.graph, "or touch the adjacency");
}

#[test]
fn residency_budget_rejects_growth_but_not_rewires() {
    // §IV-B/§IV-C re-check: with a zero budget every node append is
    // over budget, while pure rewires (no growth) stay exempt.
    let dataset = Arc::new(small_dataset(60));
    let engine = EngineBuilder::new(ModelKind::Gcn, BackendKind::SimulatedAccel)
        .hidden_dim(HIDDEN)
        .compression(Compression::BlockCirculant { block_size: BLOCK })
        .seed(SEED)
        .graph_budget_bytes(0)
        .build(Arc::clone(&dataset))
        .expect("engine builds");
    let grow = GraphDelta::new().append_node(vec![0.0; dataset.feature_dim()]);
    match engine.apply_delta(&grow) {
        Err(EngineError::GraphBudget { needed, budget }) => {
            assert_eq!(budget, 0);
            assert!(needed > 0);
        }
        other => panic!("expected GraphBudget rejection, got {other:?}"),
    }
    assert_eq!(engine.version(), 0);
    engine
        .apply_delta(&GraphDelta::new().add_edge(0, 1))
        .expect("rewires do not grow the resident set");
    assert_eq!(engine.version(), 1);

    // The simulated accelerator's *default* budget is the ZC706 DRAM —
    // roomy enough that small-graph appends pass.
    let accel = engine_on(ModelKind::Gcn, BackendKind::SimulatedAccel, Arc::clone(&dataset));
    accel
        .apply_delta(&GraphDelta::new().append_node(vec![0.0; dataset.feature_dim()]))
        .expect("default DRAM budget admits small growth");

    // Software backends have no budget unless one is configured.
    let dense = engine_on(ModelKind::Gcn, BackendKind::Dense, Arc::clone(&dataset));
    dense
        .apply_delta(&GraphDelta::new().append_node(vec![0.0; dataset.feature_dim()]))
        .expect("software backends are unbudgeted by default");
}

#[test]
fn parallel_engine_freezes_the_conversion_time_version() {
    let dataset = Arc::new(small_dataset(70));
    let engine = engine_on(ModelKind::Gcn, BackendKind::Dense, Arc::clone(&dataset));
    engine.apply_delta(&GraphDelta::new().add_edge(0, 7)).expect("applies");
    let parallel = engine.into_parallel(2).expect("converts");
    assert_eq!(parallel.version(), 1, "snapshot taken at the current version");
    assert_eq!(
        parallel.apply_delta(&GraphDelta::new().add_edge(0, 8)),
        Err(EngineError::ImmutableGraph),
        "frozen snapshots reject deltas with a typed error"
    );
    let mut parallel = parallel;
    let response =
        parallel.session().infer(&InferRequest::full_graph(vec![0, 7])).expect("serves");
    assert_eq!(response.graph_version, 1, "responses report the frozen version");
}
