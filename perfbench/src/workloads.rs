//! The serving workloads, their stacks, and their end-to-end metrics
//! with tracing off (`ServerConfig::with_tracing(false)`).
//!
//! Every workload reports the same six end-to-end metrics (`setup_s` and
//! those below), so each run prints the whole contract set, and prints
//! its p90 and p99 latency beside them:
//!
//! | metric | `sampled_zipf` | `fullgraph_updates`, `fullgraph_cold` | `wire_cached` |
//! |---|---|---|---|
//! | `throughput_rps`, `goodput_rps` | open-loop phase | closed-loop reads | closed-loop wire reads |
//! | `p50_ms` | from the due time | from the submit | from the client send |
//! | `capacity_rps` | window of 64 sampled reads | an update, then 7 reads at once | window of 64 in-process reads |
//! | `refresh_ms` | update → sampled read of its endpoints | update → first read (the cycle) | wire update → wire read |
//!
//! `fullgraph_cold` is `fullgraph_updates` with one read per update, so
//! every read it times is a cold full-graph pass: it bypasses the logits
//! cache that `fullgraph_updates` exercises.
//!
//! Probes that a workload's main phase does not itself exercise (the
//! refresh probes of `sampled_zipf` and `wire_cached`) run after its
//! timed phases, so they cannot disturb the other numbers.

use crate::drive::{
    self, open_loop, poisson_schedule, same_bits, window, Draw, Sent, Tally, WindowRun,
};
use crate::report::Report;
use crate::stats::{Samples, WINDOW};
use blockgnn_engine::{
    BackendKind, Engine, EngineBuilder, GraphDelta, InferRequest, InferResponse,
};
use blockgnn_gnn::ModelKind;
use blockgnn_graph::{datasets, Dataset};
use blockgnn_linalg::Matrix;
use blockgnn_nn::Compression;
use blockgnn_server::workload::Zipf;
use blockgnn_server::{
    Client, RemoteResponse, Server, ServerConfig, ServerError, ServerHandle, SubmitOptions,
    TcpServer, Ticket,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed of the served graph and weights. `--seed` drives the traffic
/// (requests, arrival schedule, deltas), so every run serves the same
/// model on the same graph and runs differ only in what they are asked.
pub const MODEL_SEED: u64 = 1;
/// Serving workers: one per vCPU of the 2-vCPU reference host.
pub const WORKERS: usize = 2;
pub const HIDDEN: usize = 32;
pub const BLOCK: usize = 16;
/// Fan-outs `(S₁, S₂)` of every sampled request.
pub const FANOUTS: (usize, usize) = (10, 5);
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 31;
/// Requests kept in flight by the capacity phase of `sampled_zipf` and
/// `wire_cached`.
pub const CAPACITY_WINDOW: usize = 64;
/// Update → read probes behind `refresh_ms` outside `fullgraph_updates`.
pub const REFRESH_PROBES: usize = 200;
/// Untimed warm-up before the measured phases.
pub const WARMUP: Duration = Duration::from_millis(300);

/// Open-loop arrival rate of `sampled_zipf`, about a fifth of its
/// `capacity_rps` (about 15k req/s on the 2-vCPU reference host, which
/// the hypervisor's steal can halve for minutes at a time).
pub const SZ_RATE_RPS: f64 = 3000.0;
/// Distinct sampled requests the open loop draws from (zipfian).
pub const SZ_POOL: usize = 512;
/// Full-graph reads after each update in `fullgraph_updates`, and the
/// window of reads its capacity phase and `fullgraph_cold`'s submit at
/// once after each update.
pub const FU_READS_PER_UPDATE: usize = 7;
/// Closed-loop TCP connections of `wire_cached`.
pub const WC_CONNECTIONS: usize = 2;
/// Served logits compared against solo inference in `sampled_zipf`.
const SZ_CHECKS: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SampledZipf,
    FullgraphUpdates,
    FullgraphCold,
    WireCached,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SampledZipf,
        Workload::FullgraphUpdates,
        Workload::FullgraphCold,
        Workload::WireCached,
    ];
    /// The workloads a traced run covers. `fullgraph_cold` serves on the
    /// path of `fullgraph_updates`' cold reads, whose layers that
    /// workload's traced phase measures.
    pub const TRACED: [Workload; 3] =
        [Workload::SampledZipf, Workload::FullgraphUpdates, Workload::WireCached];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SampledZipf => "sampled_zipf",
            Workload::FullgraphUpdates => "fullgraph_updates",
            Workload::FullgraphCold => "fullgraph_cold",
            Workload::WireCached => "wire_cached",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn model(self) -> ModelKind {
        match self {
            Workload::FullgraphUpdates | Workload::FullgraphCold => ModelKind::Ggcn,
            _ => ModelKind::Gcn,
        }
    }

    pub fn backend(self) -> BackendKind {
        match self {
            Workload::SampledZipf => BackendKind::SimulatedAccel,
            _ => BackendKind::Spectral,
        }
    }

    pub fn dataset(self, seed: u64) -> Dataset {
        match self {
            Workload::FullgraphUpdates | Workload::FullgraphCold => {
                datasets::pubmed_like_small(seed)
            }
            _ => datasets::cora_like_small(seed),
        }
    }

    pub fn dataset_name(self) -> &'static str {
        match self {
            Workload::FullgraphUpdates | Workload::FullgraphCold => "pubmed-small",
            _ => "cora-small",
        }
    }

    /// Full-graph reads after each update of a closed-loop update cycle.
    pub fn reads_per_update(self) -> usize {
        match self {
            Workload::FullgraphCold => 1,
            _ => FU_READS_PER_UPDATE,
        }
    }

    /// The latency limit behind `goodput_rps`.
    pub fn limit(self) -> Duration {
        match self {
            Workload::SampledZipf => Duration::from_millis(10),
            Workload::FullgraphUpdates | Workload::FullgraphCold => Duration::from_millis(50),
            Workload::WireCached => Duration::from_millis(5),
        }
    }

    /// How the load is offered, for the provenance record.
    pub fn load(self) -> String {
        match self {
            Workload::SampledZipf => {
                format!("open loop, Poisson {SZ_RATE_RPS} req/s, 1 submitter + 1 collector")
            }
            Workload::FullgraphUpdates | Workload::FullgraphCold => format!(
                "closed loop, 1 caller: update of 1-2 edges, then {} read(s)",
                self.reads_per_update()
            ),
            Workload::WireCached => format!("closed loop, {WC_CONNECTIONS} TCP connections"),
        }
    }
}

/// The server configuration every workload runs: default batching, one
/// worker per vCPU, tracing off (the traced run turns it on).
pub fn server_config() -> ServerConfig {
    ServerConfig::default().with_workers(WORKERS).with_tracing(false)
}

/// An engine for `workload` over `dataset`; equal seeds give equal weights.
pub fn build_engine(workload: Workload, dataset: Arc<Dataset>, seed: u64) -> Engine {
    EngineBuilder::new(workload.model(), workload.backend())
        .hidden_dim(HIDDEN)
        .compression(Compression::BlockCirculant { block_size: BLOCK })
        .seed(seed)
        .build(dataset)
        .expect("benchmark engine configuration is valid")
}

/// A running serving stack. Field order is drop order: clients hang
/// up, the front end joins its threads, then the server shuts down.
pub struct Stack {
    pub clients: Vec<Client>,
    _front: Option<TcpServer>,
    /// A fork of the served engine, sharing its weights and graph state.
    pub oracle: Engine,
    pub server: Arc<Server>,
    /// The served dataset at version 0.
    pub dataset: Arc<Dataset>,
    pub workload: Workload,
    pub seed: u64,
}

impl Stack {
    /// Dataset synthesis, engine build (weight spectra prepared), server
    /// start, and for `wire_cached` the TCP front end and its clients.
    pub fn start(workload: Workload, seed: u64) -> Stack {
        Stack::start_with(workload, seed, server_config())
    }

    /// [`Stack::start`] with the server running `config`.
    pub fn start_with(workload: Workload, seed: u64, config: ServerConfig) -> Stack {
        let dataset = Arc::new(workload.dataset(MODEL_SEED));
        let engine = build_engine(workload, Arc::clone(&dataset), MODEL_SEED);
        let oracle = engine.fork();
        let server = Arc::new(Server::start(engine, config).expect("server starts"));
        let (front, clients) = if workload == Workload::WireCached {
            let front = TcpServer::bind(Arc::clone(&server), "127.0.0.1:0")
                .expect("loopback front end binds");
            let clients = (0..WC_CONNECTIONS)
                .map(|_| Client::connect(front.local_addr()).expect("loopback client connects"))
                .collect();
            (Some(front), clients)
        } else {
            (None, Vec::new())
        };
        Stack { clients, _front: front, oracle, server, dataset, workload, seed }
    }

    /// Starts the stack [`SETUP_REPEATS`] times, keeping the last one,
    /// and returns it with the set-up times in seconds.
    pub fn start_timed(workload: Workload, seed: u64) -> (Stack, Samples) {
        let mut times = Samples::new();
        let mut stack = None;
        for _ in 0..SETUP_REPEATS {
            drop(stack.take());
            let start = Instant::now();
            stack = Some(Stack::start(workload, seed));
            times.push(start.elapsed().as_secs_f64());
        }
        (stack.expect("at least one set-up"), times)
    }

    pub fn handle(&self) -> ServerHandle {
        self.server.handle()
    }

    /// An independent engine with the served weights over the version-0
    /// graph: the reference the served answers are checked against.
    pub fn mirror(&self) -> Engine {
        build_engine(self.workload, Arc::clone(&self.dataset), MODEL_SEED)
    }

    /// Seeded draws for this stack's graph; `stream` separates uses.
    pub fn draw(&self, stream: u64) -> Draw {
        Draw::new(drive::mix(self.seed, stream), self.dataset.num_nodes())
    }
}

/// Slices per phase. Each phase of a run is cut into this many
/// consecutive slices, and a rate or refresh metric is the median of
/// its per-slice values, so a burst of host noise moves one slice
/// rather than the result.
pub const SLICES: usize = 10;
/// Shares of `--seconds` spent in the main phase and in the capacity phase.
const MAIN_SHARE: f64 = 0.65;
const CAPACITY_SHARE: f64 = 0.35;

/// One slice of a workload's main phase.
#[derive(Debug, Default)]
pub struct Slice {
    pub tally: Tally,
    /// Latencies (ms) of the `ok` requests, in the order they were sent.
    pub latency: Samples,
    /// Requests answered `ok` within the workload's limit.
    pub within: usize,
    pub elapsed: Duration,
}

impl Slice {
    /// Counts one slice's `(latency, outcome)` pairs, keeping the
    /// latencies (ms) of the `ok` ones.
    pub fn of<'a, T: 'a>(
        requests: impl IntoIterator<Item = (Duration, &'a Result<T, ServerError>)>,
        limit: Duration,
        elapsed: Duration,
    ) -> Slice {
        let mut slice = Slice { elapsed, ..Slice::default() };
        for (latency, outcome) in requests {
            slice.tally.record(outcome);
            if outcome.is_ok() {
                slice.latency.push_ms(latency);
                slice.within += usize::from(latency <= limit);
            }
        }
        slice
    }
}

/// Everything a run measured, phase by phase.
#[derive(Debug, Default)]
pub struct Phases {
    pub main: Vec<Slice>,
    pub capacity: Vec<WindowRun>,
    /// Update → read times (ms), per slice.
    pub refresh: Vec<Samples>,
    /// Requests of the refresh probes, where they are their own phase.
    pub probes: Tally,
}

/// Runs `workload` with tracing off and reports its end-to-end metrics.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    println!(
        "workload {} (seed {seed}, {seconds} s, {SLICES} slices per phase)",
        workload.name()
    );
    let (mut stack, setup) = Stack::start_timed(workload, seed);
    report.metric("setup_s", "s", setup.median(), &format!("(median of n={})", setup.len()));
    let main = secs(seconds * MAIN_SHARE / SLICES as f64);
    let capacity = secs(seconds * CAPACITY_SHARE / SLICES as f64);
    let phases = match workload {
        Workload::SampledZipf => sampled_zipf(&mut stack, main, capacity, &mut report),
        Workload::FullgraphUpdates | Workload::FullgraphCold => {
            fullgraph_updates(&mut stack, main, capacity, &mut report)
        }
        Workload::WireCached => wire_cached(&mut stack, main, capacity, &mut report),
    };
    summarize(&phases, workload.limit(), &mut report);
    report
}

/// Reports every end-to-end metric from the phases' slices.
fn summarize(phases: &Phases, limit: Duration, report: &mut Report) {
    let (mut main, mut capacity) = (Tally::default(), Tally::default());
    let mut pooled = Samples::new();
    for slice in &phases.main {
        main.add(slice.tally);
        pooled.extend(&slice.latency);
    }
    for run in &phases.capacity {
        capacity.add(run.tally);
    }
    report.phase("main", main);
    report.phase("capacity", capacity);
    report.phase("refresh probes", phases.probes);
    let per_slice = |f: &dyn Fn(&Slice) -> f64| phases.main.iter().map(f).collect::<Vec<_>>();
    let rate = |s: &Slice, count: usize| count as f64 / s.elapsed.as_secs_f64();
    let n = format!("n={}", pooled.len());
    report.median(
        "throughput_rps",
        "req/s",
        &per_slice(&|s| rate(s, s.tally.ok)),
        "slices",
        &n,
    );
    // Latency percentiles are exact over the raw samples of each window
    // of WINDOW consecutive requests; the median over windows keeps a
    // few-millisecond host stall from deciding the result. Only the
    // median latency is gated: on the shared 2-vCPU reference VM the
    // tail mostly measures how often the hypervisor stalls a vCPU, and
    // swings several-fold between runs.
    if pooled.len() < WINDOW {
        println!("  note: latency percentiles rest on fewer than {WINDOW} samples");
    }
    report.median("p50_ms", "ms", &pooled.windowed(0.5, WINDOW), "windows", &n);
    for (name, q) in [("p90_ms", 0.9), ("p99_ms", 0.99)] {
        println!(
            "  {name:<34} {:>14.4} ms      (median of windows {:.4} ms; not gated, {n})",
            pooled.quantile(q),
            crate::stats::quantile(&pooled.windowed(q, WINDOW), 0.5)
        );
    }
    report.median(
        "goodput_rps",
        "req/s",
        &per_slice(&|s| rate(s, s.within)),
        "slices",
        &format!("{n}, limit {} ms", limit.as_millis()),
    );
    let capacity_rates: Vec<f64> = phases.capacity.iter().map(WindowRun::rate).collect();
    report.median(
        "capacity_rps",
        "req/s",
        &capacity_rates,
        "slices",
        &format!("n={}", capacity.ok),
    );
    let refresh: Vec<f64> = phases.refresh.iter().map(Samples::median).collect();
    let probes: usize = phases.refresh.iter().map(Samples::len).sum();
    report.median("refresh_ms", "ms", &refresh, "slices", &format!("n={probes}"));
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

/// The zipfian pool of sampled requests `sampled_zipf` draws from.
pub fn sampled_pool(stack: &Stack) -> Vec<InferRequest> {
    let mut draw = stack.draw(1);
    (0..SZ_POOL).map(|_| draw.sampled_read(FANOUTS)).collect()
}

/// An open-loop phase of `sampled_zipf` over `span`; `stream` selects
/// the schedule.
pub fn sampled_open_loop(
    stack: &Stack,
    pool: &[InferRequest],
    span: Duration,
    stream: u64,
) -> Vec<Sent> {
    let schedule =
        poisson_schedule(drive::mix(stack.seed, stream), SZ_RATE_RPS, span, pool.len());
    open_loop(&stack.handle(), pool, &schedule)
}

fn sampled_zipf(
    stack: &mut Stack,
    main: Duration,
    cap: Duration,
    report: &mut Report,
) -> Phases {
    let pool = sampled_pool(stack);
    let limit = stack.workload.limit();
    let handle = stack.handle();
    let mut phases = Phases::default();
    let mut late = Samples::new();
    let mut checks = stack.draw(3);
    sampled_open_loop(stack, &pool, WARMUP, 0x3A3A);
    for slice in 0..SLICES {
        let sent = sampled_open_loop(stack, &pool, main, slice as u64);
        // The slice lasts until its last answer arrived.
        let elapsed = sent.iter().map(|s| s.due + s.latency).max().unwrap_or(main);
        phases.main.push(Slice::of(
            sent.iter().map(|s| (s.latency, &s.outcome)),
            limit,
            elapsed,
        ));
        for s in &sent {
            late.push_ms(s.late);
        }
        // Served logits and hardware reports must equal solo inference.
        let served: Vec<(usize, &InferResponse)> =
            sent.iter().filter_map(|s| s.outcome.as_ref().ok().map(|r| (s.pick, r))).collect();
        let mut session = stack.oracle.session();
        for _ in 0..(SZ_CHECKS / SLICES).min(served.len()) {
            let (pick, response) = served[checks.rng().next_below(served.len())];
            match session.infer(&pool[pick]) {
                Ok(solo)
                    if same_bits(&solo.logits, &response.logits)
                        && solo.sim == response.sim
                        && response.graph_version == 0 => {}
                _ => report
                    .mismatch(format!("sampled request {pick} differs from solo inference")),
            }
        }
    }
    println!(
        "  generator late_ms p99={:.4} max={:.4} (n={})",
        late.quantile(0.99),
        late.quantile(1.0),
        late.len()
    );

    let zipf = Zipf::new(pool.len(), drive::ZIPF_EXPONENT);
    let mut picks = stack.draw(2);
    for _ in 0..SLICES {
        phases.capacity.push(window(CAPACITY_WINDOW, cap, || {
            handle.submit_with(pool[zipf.sample(picks.rng())].clone(), SubmitOptions::default())
        }));
    }

    // Refresh: an update, then a sampled read of the endpoints it touched.
    let mut probes = stack.draw(4);
    for _ in 0..SLICES {
        let mut refresh = Samples::new();
        for _ in 0..REFRESH_PROBES / SLICES {
            let delta = probes.edge_delta();
            let (u, v) = delta.add_edges[0];
            let read = InferRequest::sampled(
                vec![u, v],
                FANOUTS.0,
                FANOUTS.1,
                probes.rng().next_u64(),
            );
            let start = Instant::now();
            let answer = handle.update(&delta).and_then(|_| handle.infer(read.clone()));
            refresh.push_ms(start.elapsed());
            phases.probes.record(&answer);
            let solo = stack.oracle.session().infer(&read);
            if !matches!((&answer, &solo), (Ok(a), Ok(s)) if same_bits(&a.logits, &s.logits)) {
                report.mismatch("read after update differs from solo inference");
            }
        }
        phases.refresh.push(refresh);
    }
    phases
}

/// One read of a closed-loop caller.
#[derive(Debug)]
pub struct Read {
    pub request: InferRequest,
    /// When it was submitted, from the start of the phase.
    pub at: Duration,
    /// Duration of the `submit_with` call.
    pub submit: Duration,
    /// Submit start → answer.
    pub latency: Duration,
    pub outcome: Result<InferResponse, ServerError>,
}

/// One update followed by its reads.
#[derive(Debug)]
pub struct Cycle {
    pub delta: GraphDelta,
    /// When the update was issued, from the start of the phase.
    pub at: Duration,
    /// Duration of [`ServerHandle::update`].
    pub update: Duration,
    /// Update start → answer of the first read after it.
    pub refresh: Duration,
    pub reads: Vec<Read>,
}

/// A closed-loop phase of `fullgraph_updates` or `fullgraph_cold`:
/// cycles of one update and [`Workload::reads_per_update`] full-graph
/// reads until `span` has passed.
pub fn update_cycles(stack: &Stack, draw: &mut Draw, span: Duration) -> (Vec<Cycle>, Duration) {
    let handle = stack.handle();
    let reads_per_update = stack.workload.reads_per_update();
    let mut cycles = Vec::new();
    let start = Instant::now();
    while start.elapsed() < span {
        let delta = draw.edge_delta();
        let cycle_start = Instant::now();
        handle.update(&delta).expect("edge additions between existing nodes apply");
        let update = cycle_start.elapsed();
        let mut reads = Vec::with_capacity(reads_per_update);
        let mut refresh = Duration::ZERO;
        for i in 0..reads_per_update {
            let request = draw.full_read();
            let sent = Instant::now();
            let ticket = handle.submit_with(request.clone(), SubmitOptions::default());
            let submit = sent.elapsed();
            let outcome = ticket.and_then(|t| t.wait());
            let latency = sent.elapsed();
            if i == 0 {
                refresh = cycle_start.elapsed();
            }
            reads.push(Read { request, at: sent - start, submit, latency, outcome });
        }
        cycles.push(Cycle { delta, at: cycle_start - start, update, refresh, reads });
    }
    (cycles, start.elapsed())
}

fn fullgraph_updates(
    stack: &mut Stack,
    main: Duration,
    cap: Duration,
    report: &mut Report,
) -> Phases {
    let limit = stack.workload.limit();
    let handle = stack.handle();
    let mut phases = Phases::default();
    let mut draw = stack.draw(5);
    let (warm, _) = update_cycles(stack, &mut draw, WARMUP);
    let mut deltas: Vec<GraphDelta> = warm.into_iter().map(|c| c.delta).collect();
    for _ in 0..SLICES {
        let (cycles, elapsed) = update_cycles(stack, &mut draw, main);
        let reads = cycles.iter().flat_map(|c| &c.reads);
        phases.main.push(Slice::of(reads.map(|r| (r.latency, &r.outcome)), limit, elapsed));
        let mut refresh = Samples::new();
        for c in &cycles {
            refresh.push_ms(c.refresh);
        }
        phases.refresh.push(refresh);
        deltas.extend(cycles.into_iter().map(|c| c.delta));
    }

    // Capacity: after each update, FU_READS_PER_UPDATE reads go in at
    // once from one thread, a window on one graph version.
    for _ in 0..SLICES {
        let mut capacity = WindowRun::default();
        let start = Instant::now();
        while start.elapsed() < cap {
            let delta = draw.edge_delta();
            handle.update(&delta).expect("edge additions between existing nodes apply");
            deltas.push(delta);
            let tickets: Vec<_> = (0..FU_READS_PER_UPDATE)
                .map(|_| handle.submit_with(draw.full_read(), SubmitOptions::default()))
                .collect();
            for ticket in tickets {
                capacity.tally.record(&ticket.and_then(Ticket::wait));
            }
        }
        capacity.elapsed = start.elapsed();
        phases.capacity.push(capacity);
    }

    // The last read must equal an engine that applied the same deltas.
    let read = draw.full_read();
    let served = handle.infer(read.clone());
    let mut mirror = stack.mirror();
    for delta in &deltas {
        mirror.apply_delta(delta).expect("the served deltas apply to the mirror");
    }
    let expected = mirror.session().infer(&read);
    match (&served, &expected) {
        (Ok(s), Ok(e))
            if same_bits(&s.logits, &e.logits) && s.graph_version == deltas.len() as u64 => {}
        _ => report.mismatch(format!(
            "final read after {} updates differs from a mirror engine",
            deltas.len()
        )),
    }
    phases
}

/// One read of a wire client.
#[derive(Debug)]
pub struct WireRead {
    pub request: InferRequest,
    /// When it was sent, from the start of the phase.
    pub at: Duration,
    /// Client send → decoded answer.
    pub latency: Duration,
    pub outcome: Result<RemoteResponse, ServerError>,
}

/// A closed-loop phase of `wire_cached`: each connection on its own
/// thread sends full-graph reads until `span` has passed; `stream`
/// selects the requests.
pub fn wire_reads(stack: &mut Stack, stream: u64, span: Duration) -> (Vec<WireRead>, Duration) {
    let draws: Vec<Draw> =
        (0..stack.clients.len()).map(|c| stack.draw(stream + c as u64)).collect();
    let start = Instant::now();
    let reads = std::thread::scope(|scope| {
        let threads: Vec<_> = stack
            .clients
            .iter_mut()
            .zip(draws)
            .map(|(client, mut draw)| {
                scope.spawn(move || {
                    let mut reads =
                        Vec::with_capacity((span.as_secs_f64() * 20_000.0) as usize);
                    while start.elapsed() < span {
                        let request = draw.full_read();
                        let sent = Instant::now();
                        let outcome = client.infer(&request);
                        reads.push(WireRead {
                            request,
                            at: sent - start,
                            latency: sent.elapsed(),
                            outcome,
                        });
                    }
                    reads
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("wire client thread panicked"))
            .collect::<Vec<_>>()
    });
    (reads, start.elapsed())
}

/// Fills the full-graph cache with one read on every connection.
pub fn warm_wire(stack: &mut Stack) {
    for client in &mut stack.clients {
        client.infer(&InferRequest::full_graph(vec![0])).expect("warm-up read succeeds");
    }
}

/// Full-graph logits of `engine` at its current version.
fn full_logits(engine: &mut Engine) -> Matrix {
    engine
        .session()
        .infer(&InferRequest::all_nodes())
        .expect("full-graph pass of the mirror succeeds")
        .logits
}

fn wire_cached(
    stack: &mut Stack,
    main: Duration,
    cap: Duration,
    report: &mut Report,
) -> Phases {
    let limit = stack.workload.limit();
    let handle = stack.handle();
    let mut phases = Phases::default();
    let mut mirror = stack.mirror();
    let full = full_logits(&mut mirror);
    warm_wire(stack);
    wire_reads(stack, 0x77, WARMUP);
    for slice in 0..SLICES {
        let (reads, elapsed) = wire_reads(stack, 0x100 * (slice as u64 + 1), main);
        phases.main.push(Slice::of(
            reads.iter().map(|r| (r.latency, &r.outcome)),
            limit,
            elapsed,
        ));
        // Decoded logits must equal solo full-graph inference.
        let wrong = reads
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok().map(|o| (&r.request, o)))
            .filter(|(request, o)| {
                let rows = Matrix::from_fn(request.nodes.len(), full.cols(), |i, j| {
                    full[(request.nodes[i], j)]
                });
                !same_bits(&rows, &o.logits) || o.graph_version != 0
            })
            .count();
        if wrong > 0 {
            report.mismatch(format!("{wrong} wire answers differ from solo inference"));
        }
    }

    let mut draw = stack.draw(6);
    for _ in 0..SLICES {
        phases.capacity.push(window(CAPACITY_WINDOW, cap, || {
            handle.submit_with(draw.full_read(), SubmitOptions::default())
        }));
    }

    // Refresh over the wire: an update, then a read of its endpoints.
    let mut probes = stack.draw(7);
    let client = &mut stack.clients[0];
    for _ in 0..SLICES {
        let mut refresh = Samples::new();
        for _ in 0..REFRESH_PROBES / SLICES {
            let delta = probes.edge_delta();
            let (u, v) = delta.add_edges[0];
            let read = InferRequest::full_graph(vec![u, v]);
            let start = Instant::now();
            let answer = client.update(&delta).and_then(|_| client.infer(&read));
            refresh.push_ms(start.elapsed());
            phases.probes.record(&answer);
            mirror.apply_delta(&delta).expect("the served deltas apply to the mirror");
            let expected = mirror.session().infer(&read);
            if !matches!((&answer, &expected), (Ok(a), Ok(e)) if same_bits(&a.logits, &e.logits))
            {
                report.mismatch("wire read after an update differs from a mirror engine");
            }
        }
        phases.refresh.push(refresh);
    }
    phases
}
