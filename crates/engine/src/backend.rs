//! Pluggable execution backends: the interchangeable substrates the same
//! GNN runs on.
//!
//! The paper's central claim is that one model executes equivalently on
//! dense GEMM hardware, via Algorithm 1's spectral products, or on the
//! CirCore accelerator. Each backend here owns a prepared copy of the
//! model (see [`blockgnn_nn::ExecMode`]) and turns a computation graph +
//! features into logits; the simulated-accelerator backend additionally
//! returns the Eq. 3–7 cycle report and an energy estimate, so functional
//! results and hardware cost come back from one call.

use crate::error::EngineError;
use blockgnn_accel::{AccelError, BlockGnnAccelerator, GlobalBuffer, SimReport};
use blockgnn_gnn::workload::GnnWorkload;
use blockgnn_gnn::{GnnModel, StageHalo};
use blockgnn_graph::{CsrGraph, DatasetSpec};
use blockgnn_linalg::Matrix;
use blockgnn_nn::{ExecMode, LinearLayer};
use blockgnn_perf::coeffs::HardwareCoeffs;
use blockgnn_perf::params::CirCoreParams;
use std::fmt;

/// Which execution substrate a backend represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Dense GEMM over decompressed weights — the uncompressed baseline.
    Dense,
    /// Algorithm 1 (FFT → spectral MAC → IFFT) with kernel spectra
    /// cached across calls.
    Spectral,
    /// Spectral execution plus the CirCore cycle/energy model: responses
    /// carry a [`SimReport`].
    SimulatedAccel,
}

impl BackendKind {
    /// All backends, baseline first.
    #[must_use]
    pub fn all() -> [BackendKind; 3] {
        [BackendKind::Dense, BackendKind::Spectral, BackendKind::SimulatedAccel]
    }

    /// Bytes one feature scalar occupies while resident for this
    /// backend — the divisor of the §IV-C memory-budget partitioning.
    /// The simulated accelerator streams Q16.16 fixed-point features
    /// (4 bytes); the software backends hold f64 host matrices
    /// (8 bytes). Kept per-backend (rather than a hardcoded fp32) so
    /// residency budgets stay honest across number formats.
    #[must_use]
    pub fn bytes_per_feature(&self) -> usize {
        match self {
            BackendKind::Dense | BackendKind::Spectral => 8,
            BackendKind::SimulatedAccel => 4,
        }
    }

    /// Human-readable name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::Dense => "dense",
            BackendKind::Spectral => "spectral",
            BackendKind::SimulatedAccel => "simulated-accel",
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What one backend execution produces.
#[derive(Debug, Clone)]
pub struct BackendOutput {
    /// Logits over the executed computation graph (one row per node).
    pub logits: Matrix,
    /// Hardware cycle report, when the backend simulates one.
    pub sim: Option<SimReport>,
    /// Energy estimate in joules, when the backend models power.
    pub energy_joules: Option<f64>,
}

/// Shape of the workload one request executes — what hardware cost
/// models charge for. The cycle model (Eqs. 3–7) prices the full
/// two-hop sampled aggregation *per target node*, so `target_nodes`
/// counts requested (unique) nodes, not the materialized sub-universe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestShape {
    /// Number of target nodes the request classifies.
    pub target_nodes: usize,
    /// Sampling fan-outs `(S₁, S₂)` of the executed workload.
    pub fanouts: (usize, usize),
}

/// An execution substrate: runs a prepared model over a computation
/// graph.
///
/// Backends are `Send` and forkable: [`ExecutionBackend::fork`] produces
/// an independent replica whose prepared weights and cached spectra are
/// `Arc`-shared with the original (see [`blockgnn_nn::ExecMode`]), which
/// is how the parallel serving engine places one backend per worker
/// thread without duplicating the model. The staged methods
/// ([`ExecutionBackend::num_stages`] / [`ExecutionBackend::execute_stage`])
/// expose the model's row-parallel inference stages
/// ([`blockgnn_gnn::GnnModel::forward_stage`]) so a scheduler can shard
/// each stage's rows across workers and barrier between stages.
pub trait ExecutionBackend: Send {
    /// Which substrate this is.
    fn kind(&self) -> BackendKind;

    /// Runs one inference pass over `graph`/`features`. Backends that
    /// model hardware charge their cycle estimate with `shape`;
    /// software backends ignore it.
    fn execute(
        &mut self,
        graph: &CsrGraph,
        features: &Matrix,
        shape: RequestShape,
    ) -> BackendOutput;

    /// [`ExecutionBackend::execute`] plus the wall-clock time the call
    /// took — the per-stage timing hook the coalesced batcher records
    /// into request traces. The default wraps `execute` with two clock
    /// reads and changes nothing about the output, so tracing can never
    /// perturb the computed logits.
    fn execute_timed(
        &mut self,
        graph: &CsrGraph,
        features: &Matrix,
        shape: RequestShape,
    ) -> (BackendOutput, std::time::Duration) {
        let start = std::time::Instant::now();
        let out = self.execute(graph, features, shape);
        (out, start.elapsed())
    }

    /// Forks an independent replica for another worker thread. Prepared
    /// weights/spectra are shared (`Arc`), per-call scratch state is not.
    fn fork(&self) -> Box<dyn ExecutionBackend>;

    /// Precomputes per-graph state before a staged request (delegates to
    /// [`blockgnn_gnn::GnnModel::prepare_graph`]); the scheduler calls
    /// it once per worker per request so stages skip repeated
    /// per-part recomputation.
    fn prepare_graph(&mut self, graph: &CsrGraph);

    /// Number of row-parallel inference stages of the underlying model.
    fn num_stages(&self) -> usize;

    /// Output width of stage `stage` at the given input feature width.
    fn stage_width(&self, stage: usize, feature_dim: usize) -> usize;

    /// Which input rows an output row of stage `stage` reads (delegates
    /// to [`blockgnn_gnn::GnnModel::stage_halo`]).
    fn stage_halo(&self, stage: usize) -> StageHalo;

    /// Computes stage `stage` output rows for target nodes `rows` from
    /// the full previous-stage matrix `input` — bit-identical to the
    /// corresponding slice of [`ExecutionBackend::execute`]'s logits
    /// when chained over all stages.
    fn execute_stage(
        &mut self,
        stage: usize,
        graph: &CsrGraph,
        input: &Matrix,
        rows: &[u32],
    ) -> Matrix;

    /// Hardware cost of serving `shape` over a computation graph with
    /// `num_arcs` arcs, `feature_dim`-wide inputs and `num_classes`
    /// outputs: the Eq. 3–7 [`SimReport`] and an energy estimate in
    /// joules. `None` for software backends, which model no hardware.
    /// The partition-parallel scheduler calls this once per part and
    /// merges with [`SimReport::merge`] (the §IV-C sub-graph accounting).
    fn charge(
        &self,
        _num_arcs: usize,
        _feature_dim: usize,
        _num_classes: usize,
        _shape: RequestShape,
    ) -> Option<(SimReport, f64)> {
        None
    }
}

/// Dense-GEMM backend: circulant weights are decompressed once at
/// construction and every product runs as a dense matrix–vector kernel.
pub struct DenseBackend {
    model: Box<dyn GnnModel>,
}

impl DenseBackend {
    /// Wraps and prepares `model` for dense execution.
    #[must_use]
    pub fn new(mut model: Box<dyn GnnModel>) -> Self {
        model.prepare(ExecMode::Gemm);
        Self { model }
    }
}

impl ExecutionBackend for DenseBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Dense
    }

    fn execute(
        &mut self,
        graph: &CsrGraph,
        features: &Matrix,
        _shape: RequestShape,
    ) -> BackendOutput {
        BackendOutput {
            logits: self.model.forward(graph, features, false),
            sim: None,
            energy_joules: None,
        }
    }

    fn fork(&self) -> Box<dyn ExecutionBackend> {
        Box::new(Self { model: self.model.clone_boxed() })
    }

    fn prepare_graph(&mut self, graph: &CsrGraph) {
        self.model.prepare_graph(graph);
    }

    fn num_stages(&self) -> usize {
        self.model.num_stages()
    }

    fn stage_width(&self, stage: usize, feature_dim: usize) -> usize {
        self.model.stage_width(stage, feature_dim)
    }

    fn stage_halo(&self, stage: usize) -> StageHalo {
        self.model.stage_halo(stage)
    }

    fn execute_stage(
        &mut self,
        stage: usize,
        graph: &CsrGraph,
        input: &Matrix,
        rows: &[u32],
    ) -> Matrix {
        self.model.forward_stage(stage, graph, input, rows)
    }
}

/// Spectral backend: Algorithm 1 with **packed half-spectrum** kernel
/// caches and RFFT plans shared across calls (the software realization
/// of the paper's compressed execution).
///
/// Steady-state `execute` performs zero spectral-path heap allocations:
/// each prepared `CirculantDense` layer owns a
/// [`blockgnn_core::SpectralScratch`] (padded tail block, per-chunk
/// input half-spectra, spectral accumulator, IRFFT block) that is
/// reused across rows and requests. [`ExecutionBackend::fork`] clones
/// the model — prepared spectra stay `Arc`-shared, while each scratch
/// clones *empty* — so every session/worker replica owns private hot
/// buffers and forks never contend.
pub struct SpectralBackend {
    model: Box<dyn GnnModel>,
}

impl SpectralBackend {
    /// Wraps and prepares `model` for spectral execution.
    #[must_use]
    pub fn new(mut model: Box<dyn GnnModel>) -> Self {
        model.prepare(ExecMode::Spectral);
        Self { model }
    }
}

impl ExecutionBackend for SpectralBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Spectral
    }

    fn execute(
        &mut self,
        graph: &CsrGraph,
        features: &Matrix,
        _shape: RequestShape,
    ) -> BackendOutput {
        BackendOutput {
            logits: self.model.forward(graph, features, false),
            sim: None,
            energy_joules: None,
        }
    }

    fn fork(&self) -> Box<dyn ExecutionBackend> {
        Box::new(Self { model: self.model.clone_boxed() })
    }

    fn prepare_graph(&mut self, graph: &CsrGraph) {
        self.model.prepare_graph(graph);
    }

    fn num_stages(&self) -> usize {
        self.model.num_stages()
    }

    fn stage_width(&self, stage: usize, feature_dim: usize) -> usize {
        self.model.stage_width(stage, feature_dim)
    }

    fn stage_halo(&self, stage: usize) -> StageHalo {
        self.model.stage_halo(stage)
    }

    fn execute_stage(
        &mut self,
        stage: usize,
        graph: &CsrGraph,
        input: &Matrix,
        rows: &[u32],
    ) -> Matrix {
        self.model.forward_stage(stage, graph, input, rows)
    }
}

/// Simulated-accelerator backend: functional output via the spectral
/// path (the computation CirCore performs), plus the Eq. 3–7 cycle model
/// and an energy estimate for every executed request.
///
/// Functional execution shares the half-spectrum scratch machinery of
/// [`SpectralBackend`] (per-layer workspaces, empty-cloning forks). The
/// cycle model is analytic — Eqs. 3–7 price the *logical* FFT/MAC/IFFT
/// work from the workload shape, never from the software data layout —
/// so the packed representation changes wall-clock only: `SimReport`
/// cycles and energy are bit-identical to the full-spectrum
/// implementation's.
///
/// Construction performs the §IV-B deployability check: the model's
/// circulant weight spectra must *co-reside* in the accelerator's
/// 256 KB Weight Buffer (the whole-model residency the serving loop
/// assumes), or the backend refuses to build.
pub struct SimulatedAccelBackend {
    model: Box<dyn GnnModel>,
    accel: BlockGnnAccelerator,
    power_w: f64,
    hidden_dim: usize,
    block_size: usize,
}

impl SimulatedAccelBackend {
    /// Wraps `model`, prepares it spectrally, and validates that all of
    /// its circulant weight spectra co-reside in the Weight Buffer of
    /// the given accelerator configuration.
    ///
    /// `hidden_dim` parameterizes the per-request [`GnnWorkload`] the
    /// cycle model charges for; `block_size` is the circulant block size
    /// `n` the hardware executes (1 for a fully dense model).
    ///
    /// # Errors
    ///
    /// [`EngineError::Accel`] if the summed circulant spectra overflow
    /// the Weight Buffer.
    pub fn new(
        mut model: Box<dyn GnnModel>,
        params: CirCoreParams,
        coeffs: HardwareCoeffs,
        hidden_dim: usize,
        block_size: usize,
    ) -> Result<Self, EngineError> {
        model.prepare(ExecMode::Spectral);
        let power_w = coeffs.accel_power_w;
        let accel = BlockGnnAccelerator::new(params, coeffs.clone());
        // Whole-model residency: sum every circulant layer's spectral
        // footprint (complex Q16.16, 8 bytes per retained bin — the
        // packed Hermitian half-spectrum of `n/2 + 1` bins per block,
        // the same accounting as `BlockGnnAccelerator::load_weights`).
        let mut spectral_bytes = 0usize;
        model.visit_linear_layers(&mut |layer| {
            if let LinearLayer::Circulant(c) = layer {
                spectral_bytes += c.spectral_weight_bytes();
            }
        });
        if !GlobalBuffer::zc706().model_fits(spectral_bytes) {
            return Err(EngineError::Accel(AccelError::WeightBufferOverflow {
                needed: spectral_bytes,
            }));
        }
        Ok(Self { model, accel, power_w, hidden_dim, block_size })
    }

    /// The configured accelerator (e.g. to inspect its parameters).
    #[must_use]
    pub fn accelerator(&self) -> &BlockGnnAccelerator {
        &self.accel
    }
}

impl ExecutionBackend for SimulatedAccelBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::SimulatedAccel
    }

    fn execute(
        &mut self,
        graph: &CsrGraph,
        features: &Matrix,
        shape: RequestShape,
    ) -> BackendOutput {
        let logits = self.model.forward(graph, features, false);
        let (sim, energy) = self
            .charge(graph.num_arcs(), features.cols(), logits.cols(), shape)
            .expect("the simulated accelerator always reports hardware cost");
        BackendOutput { logits, sim: Some(sim), energy_joules: Some(energy) }
    }

    fn fork(&self) -> Box<dyn ExecutionBackend> {
        // The residency check ran when the original was built; the fork
        // serves the same weights, so it holds by construction.
        Box::new(Self {
            model: self.model.clone_boxed(),
            accel: self.accel.clone(),
            power_w: self.power_w,
            hidden_dim: self.hidden_dim,
            block_size: self.block_size,
        })
    }

    fn prepare_graph(&mut self, graph: &CsrGraph) {
        self.model.prepare_graph(graph);
    }

    fn num_stages(&self) -> usize {
        self.model.num_stages()
    }

    fn stage_width(&self, stage: usize, feature_dim: usize) -> usize {
        self.model.stage_width(stage, feature_dim)
    }

    fn stage_halo(&self, stage: usize) -> StageHalo {
        self.model.stage_halo(stage)
    }

    fn execute_stage(
        &mut self,
        stage: usize,
        graph: &CsrGraph,
        input: &Matrix,
        rows: &[u32],
    ) -> Matrix {
        self.model.forward_stage(stage, graph, input, rows)
    }

    fn charge(
        &self,
        num_arcs: usize,
        feature_dim: usize,
        num_classes: usize,
        shape: RequestShape,
    ) -> Option<(SimReport, f64)> {
        // The workload is priced per *target* node (each already charged
        // its full two-hop sampled aggregation by the per-layer model),
        // not per materialized sub-universe node.
        let spec = DatasetSpec::new(
            "request",
            shape.target_nodes,
            num_arcs / 2,
            feature_dim,
            num_classes,
        );
        let workload = GnnWorkload::new(
            self.model.kind(),
            &spec,
            self.hidden_dim,
            &[shape.fanouts.0, shape.fanouts.1],
        );
        let sim = self.accel.simulate_workload(&workload, self.block_size);
        let energy = sim.seconds * self.power_w;
        Some((sim, energy))
    }
}
